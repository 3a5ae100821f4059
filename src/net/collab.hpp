// The collaborative-inference protocol of Figure 1:
//   Step 1  master receives sensor data
//   Step 2  master broadcasts the input to every worker
//   Step 3  all nodes run their local expert in parallel
//   Step 4  master gathers each worker's (probabilities, entropy)
//   Step 5  master selects the least-uncertain expert's output
//
// The same classes run over any Channel implementation: real TCP in the
// examples, simulated WiFi channels in the benches. The optional compute
// hook reports each node's FLOP count so a simulation can advance its
// virtual clock; real deployments leave it unset.
//
// Fault model (DESIGN.md §8) and degradation plane (§13): the master
// serves through net::WorkerFleet (net/fleet.hpp), which owns the query-id
// echo, the shared deadline, quorum completion, probation, the circuit
// breaker and hedging, and which SG-MoE's master shares.
#pragma once

#include <array>
#include <functional>
#include <vector>

#include "net/fleet.hpp"
#include "nn/module.hpp"

namespace teamnet::net {

using ComputeHook = std::function<void(std::int64_t flops)>;

/// FLOPs for `model` to evaluate the batch `x` — what a node reports to
/// its compute hook.
std::int64_t batch_flops(nn::Module& model, const Tensor& x);

/// Serves one expert model on one channel until a Shutdown message.
class CollaborativeWorker {
 public:
  CollaborativeWorker(nn::Module& expert, Channel& channel);

  /// Blocks, answering Infer requests (and probation Pings) until
  /// Shutdown. A malformed or corrupted frame is logged and skipped — the
  /// master's gather deadline covers the lost answer — so one bad message
  /// cannot take the worker down. Throws NetworkError on a broken channel.
  void serve();

  void set_compute_hook(ComputeHook hook) { on_compute_ = std::move(hook); }

  /// SLO discipline (DESIGN.md §13): when enabled, an Infer whose
  /// propagated deadline (InferInfo::deadline_us) has already passed on
  /// this worker's clock is dropped without computing or replying — the
  /// master stopped listening for it, so the reply could only ever be
  /// discarded as stale. Off by default because the check compares the
  /// frame's stamp against set_time_source's clock: it is only meaningful
  /// when worker and master share a clock domain (in-process, or the same
  /// simulation), which the caller asserts by opting in.
  void set_drop_expired(bool enabled) { drop_expired_ = enabled; }
  /// Clock used for the expiry check (default: steady_seconds; simulations
  /// pass this node's virtual clock).
  void set_time_source(TimeSource now);

  /// Tells the worker which scenario node it serves as (node >= 1; worker
  /// lane = node - 1) so it can publish per-query timeline marks and close
  /// the master's causal flow events (DESIGN.md §15). Unset (the default)
  /// keeps the worker anonymous and emission-free — the right state for
  /// real-TCP deployments where master and worker traces are separate
  /// files and a flow pair could never match up. In-process sim drivers
  /// opt in. Marks are only published for non-hedged requests: a backup
  /// replica answers under the PRIMARY worker's lane and flow ids, which
  /// it does not own.
  void set_trace_node(int node);

  /// Number of Infer requests answered (telemetry).
  std::int64_t requests_served() const { return served_; }
  /// Number of probation Pings answered (telemetry).
  std::int64_t pongs_sent() const { return pongs_; }
  /// Infer requests dropped because their deadline had already expired.
  std::int64_t expired_dropped() const { return expired_dropped_.value(); }

 private:
  nn::Module& expert_;
  Channel& channel_;
  ComputeHook on_compute_;
  TimeSource now_;
  int trace_node_ = 0;  ///< 0 = anonymous (no marks/flows)
  bool drop_expired_ = false;
  std::int64_t served_ = 0;
  std::int64_t pongs_ = 0;
  obs::Tally expired_dropped_{"worker.expired_dropped_total"};
};

/// How much of the fleet answered a query before the gather completed
/// (DESIGN.md §13): `full` = every asked worker, `quorum` = the configured
/// quorum but not everyone, `local_only` = nobody but the master's own
/// expert.
enum class DegradationLevel { full = 0, quorum = 1, local_only = 2 };

/// The master edge node: owns a local expert plus a fleet of workers.
class CollaborativeMaster {
 public:
  CollaborativeMaster(nn::Module& local_expert, std::vector<Channel*> workers);

  struct Result {
    Tensor probs;                  ///< [n, C] winning expert's probabilities
    std::vector<int> predictions;  ///< argmax class per sample
    std::vector<int> chosen;       ///< winning node (0 = master, 1.. = workers)
    int answered = 1;              ///< experts in the argmin (local included)
    DegradationLevel degradation = DegradationLevel::full;
  };

  /// Runs Figure 1's five steps for a batch of inputs. Workers that have
  /// been marked failed are skipped; the selection runs over whichever
  /// nodes answered (degraded but available — the master alone in the
  /// worst case). Failed workers are probed and rejoin when they answer.
  Result infer(const Tensor& x);

  /// See WorkerFleet::shutdown.
  void shutdown() { fleet_.shutdown(); }

  void set_compute_hook(ComputeHook hook) { on_compute_ = std::move(hook); }

  /// Quorum gather (DESIGN.md §13): when `answers` > 0, a gather completes
  /// as soon as that many answers are in — the local expert always counts
  /// as one — and the argmin runs over what arrived (WorkerFleet::gather).
  /// 0 (default) = wait for every asked worker (the full gather).
  void set_gather_quorum(int answers);

  /// The worker fleet: deadline, probation, health, hedging, flow tracing
  /// and the protocol counters are configured and read there.
  WorkerFleet& fleet() { return fleet_; }
  /// Shorthands for the fleet settings and counters most callers use.
  void set_worker_timeout(double seconds) {
    fleet_.set_worker_timeout(seconds);
  }
  void set_probe_interval(int queries) { fleet_.set_probe_interval(queries); }
  int failed_workers() const { return fleet_.failed_workers(); }
  std::int64_t stale_replies_discarded() const {
    return fleet_.stats().stale_replies.value();
  }
  std::int64_t rejoins() const { return fleet_.stats().rejoins.value(); }

  /// Degradation-level accounting: the per-level counts partition the
  /// queries served so far (full + quorum + local_only == queries).
  std::int64_t gathers(DegradationLevel level) const {
    return gathers_[static_cast<std::size_t>(level)].value();
  }

 private:
  nn::Module& expert_;
  WorkerFleet fleet_;
  ComputeHook on_compute_;
  int quorum_ = 0;  ///< 0 = full gather
  std::int64_t query_seq_ = 0;
  obs::Tally queries_{"collab.queries_total"};
  std::array<obs::Tally, 3> gathers_{
      obs::Tally("collab.degradation_full_total"),
      obs::Tally("collab.degradation_quorum_total"),
      obs::Tally("collab.degradation_local_only_total")};
};

}  // namespace teamnet::net
