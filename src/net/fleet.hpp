// The master side of the Infer/Result protocol, shared by TeamNet's
// broadcast master (net/collab) and SG-MoE's routed master
// (moe/moe_serving): both ask some workers for an answer and gather those
// answers under one deadline; they differ only in whom they ask and what
// they do with the replies.
//
// A WorkerFleet owns the worker channels (plus optional hedge backups),
// the per-worker live <-> probation state machine with Ping/Pong backoff
// (DESIGN.md §8), the optional circuit breaker (net/health.hpp), the
// reply check — query-id echo, duplicate-Pong discard, flow close — and
// ONE gather loop. A query runs open() -> dispatch() per chosen worker ->
// the master's local work -> gather(needed): a full gather needs every
// dispatched answer, a quorum gather fewer (DESIGN.md §13).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "net/health.hpp"
#include "net/message.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"

namespace teamnet::net {

/// Protocol event counts, each exported to the metrics registry as
/// `<prefix>.<event>_total`.
struct FleetStats {
  explicit FleetStats(const std::string& prefix);

  /// Replies whose query id did not match the in-flight query (late
  /// answers from timed-out workers, injected duplicates, stray Pongs).
  obs::Tally stale_replies;
  obs::Tally worker_failures;  ///< live -> probation transitions
  obs::Tally rejoins;          ///< probation -> live transitions
  /// Hedged re-issues sent / won (the backup's reply was the one used) /
  /// reconciled duplicates (both replicas answered the same query).
  obs::Tally hedges;
  obs::Tally hedge_wins;
  obs::Tally hedge_duplicates;
};

/// One worker's accepted answer to the current query.
struct Answer {
  std::size_t worker;  ///< 0-based worker index (scenario node worker + 1)
  Tensor probs;
  Tensor entropy;
};

class WorkerFleet {
 public:
  /// `metric_prefix` names the registry counters ("collab", "moe").
  WorkerFleet(std::vector<Channel*> workers, const std::string& metric_prefix);

  /// When > 0, ONE shared deadline of `seconds` bounds each query — a
  /// worker that has not answered when the budget runs out (or whose
  /// channel errors) is marked failed and put on probation. 0 (default) =
  /// block forever.
  void set_worker_timeout(double seconds) { worker_timeout_s_ = seconds; }

  /// Probation cadence: a failed worker is probed with a Ping every
  /// `queries` queries, with the interval doubling after every unanswered
  /// probe (capped at kMaxProbeInterval). 0 disables probing — a failed
  /// worker then stays failed forever.
  void set_probe_interval(int queries);

  /// Substitutes the monotonic clock used for deadlines, health and the
  /// masters' timeline marks (default: steady_seconds). Simulations pass
  /// virtual-clock time here. Call before enable_health.
  void set_time_source(TimeSource now);

  /// Causal flow tracing (DESIGN.md §15): when enabled, every dispatch
  /// opens a Chrome-trace flow ('s') that the worker's receive closes
  /// ('f'), and every worker reply opens one the gather's read closes —
  /// stale replies drained by the gather or probation paths included, so
  /// a fault-free trace has no dangling flows (tools/check_trace.py
  /// enforces exactly that). Off by default and only meaningful for
  /// in-process simulations where master and workers share one tracer;
  /// over real TCP the halves would dangle in separate trace files.
  void set_flow_trace(bool enabled) { flow_trace_ = enabled; }

  /// Per-worker health scoring + circuit breaker (net/health.hpp): an open
  /// breaker keeps the worker out of dispatch and in probation, and an
  /// answered probe readmits it only after the breaker's cooldown.
  void enable_health(const HealthConfig& config);
  /// The tracker enabled by enable_health (nullptr before).
  const HealthTracker* health() const { return health_.get(); }

  /// Hedged dispatch (DESIGN.md §13): `backups[w]` is the channel to the
  /// static backup replica serving worker w's expert (nullptr = none).
  /// Once per query, after an adaptive delay — max of `min_delay_s` and
  /// `latency_factor` × the health EWMA of the slowest outstanding worker
  /// (worker_timeout_s/2 without health) — a gather that is still short of
  /// its answers re-issues the query to that worker's backup with the
  /// hedge flag set; whichever replica answers first wins and the
  /// duplicate is reconciled via the query-id echo.
  void set_hedging(std::vector<Channel*> backups, double min_delay_s,
                   double latency_factor);

  /// TEST-ONLY: re-introduces the pre-query-id gather, which had no id
  /// echo. Its only stale-reply defense was the deadline clock reading:
  /// whatever Result arrives while the deadline still reads unexpired is
  /// trusted as the current query's answer (whichever query it actually
  /// answers), and one arriving after the reading is treated as a miss.
  /// That makes acceptance a time-of-check race — the outcome depends on
  /// arrival order against the deadline, i.e. on the schedule — which is
  /// the ordering bug the id echo removed. Exists so the schedule
  /// explorer's mutation gate can prove the detector catches a real bug;
  /// never enable in production paths.
  void set_test_pre_qid_gather(bool enable) { test_pre_qid_gather_ = enable; }

  std::size_t size() const { return workers_.size(); }
  /// Workers currently marked failed (in probation).
  int failed_workers() const;
  /// Whether `worker_index` (0-based) is in the live set. Out-of-range
  /// indices throw InvariantError.
  bool worker_alive(int worker_index) const;
  const FleetStats& stats() const { return stats_; }

  /// Opens query `qid`: polls probation first, so a recovered worker
  /// rejoins in time for it, then anchors the shared deadline. The
  /// deadline anchors BEFORE dispatch: the budget is the query's SLO — it
  /// covers send + compute + gather — and its absolute expiry rides in
  /// every Infer frame of the query so workers can drop requests that
  /// outlive it (deadline propagation, DESIGN.md §13).
  void open(std::int64_t qid);
  /// The encoded Infer frame carrying `input` under the current query's id
  /// and deadline.
  std::string infer_frame(Tensor input, bool hedged = false) const;
  /// Sends `frame` to worker `w` if it is dispatchable (live and, with
  /// health, admitted by its breaker) and records it as asked. False when
  /// the worker is skipped or the send fails; a send error also puts the
  /// worker on probation.
  bool dispatch(std::size_t w, const std::string& frame);
  /// Closes dispatch: the time it returns at anchors health latencies and
  /// the hedge timer.
  void end_dispatch();
  /// Publishes the current query's master timeline mark for `phase`
  /// (DESIGN.md §15) when a recorder or tracer is listening.
  void mark(obs::QueryPhase phase) const;

  /// Step 4: collects answers to the current query until `quorum` answers
  /// are in — the master's local expert counts as one, and 0 (or any value
  /// above 1 + asked) means every asked worker — or every asked worker has
  /// answered or failed, or the deadline expires. Workers that miss the
  /// deadline or error are marked failed; workers still outstanding once
  /// the quorum is in are NOT — their late replies are discarded as stale
  /// later. Answers come back in acceptance order, valid until the next
  /// open(). `hedge_input` is the query's input, re-issued by hedges
  /// (nullptr = never hedge).
  std::span<const Answer> gather(int quorum,
                                 const Tensor* hedge_input = nullptr);

  /// Sends Shutdown to every live worker and every backup, then closes
  /// every channel (failed ones included) so wedged worker threads unblock
  /// and can be joined instead of leaking.
  void shutdown();

  /// Probe backoff never exceeds this many queries between Pings.
  static constexpr int kMaxProbeInterval = 64;

 private:
  /// Per-worker fault-tolerance state machine: live <-> probation.
  struct WorkerSlot {
    bool failed = false;
    int probe_countdown = 0;  ///< queries until the next probe action
    int probe_interval = 0;   ///< current backoff interval (queries)
    std::int64_t probe_id = 0;  ///< in-flight Ping id (0 = none)
  };

  /// Seconds left before the current query's shared deadline: however
  /// many workers are slow or dead, the total wait is bounded by one
  /// worker timeout (each receive gets whatever remains). 0 once expired,
  /// +infinity without a worker timeout.
  double remaining() const;
  /// Receives from `channel` within remaining() — blocking forever without
  /// a worker timeout, the pre-fault-tolerance behavior. nullopt = the
  /// deadline expired with no message. This is the only sanctioned
  /// blocking receive on the master side: tools/analyze.py (rule
  /// `unbounded-wait`) flags bare recv() calls so no gather can silently
  /// reintroduce an unbounded per-worker wait.
  std::optional<std::string> recv_within_deadline(Channel& channel) const;
  void mark_failed(std::size_t w);
  /// Stops waiting on worker w's primary replica; a worker whose answer
  /// was still needed is marked failed (never one whose backup answered).
  void give_up(std::size_t w);
  /// Polls probation workers for Pongs (rejoining the ones that answered)
  /// and sends fresh Pings on the backoff cadence.
  void probe_failed_workers();
  /// Accepts or discards one raw frame from worker `w`'s primary or
  /// backup replica, recording a fresh answer.
  void process_reply(const std::string& raw, std::size_t w, bool from_backup);
  /// A receive from worker w's primary (or backup) replica threw: stop
  /// waiting on that replica.
  void recv_failed(std::size_t w, bool backup, const Error& e);
  /// Re-issues the query to worker `w`'s backup with the hedge flag set.
  void hedge_to(std::size_t w, const Tensor& input);

  std::vector<Channel*> workers_;
  std::vector<Channel*> backups_;  ///< empty = hedging disabled
  std::vector<WorkerSlot> slots_;
  double worker_timeout_s_ = 0.0;
  int probe_interval_ = 4;
  TimeSource now_;
  bool flow_trace_ = false;
  std::unique_ptr<HealthTracker> health_;
  double hedge_min_delay_s_ = 0.0;
  double hedge_factor_ = 1.5;
  bool test_pre_qid_gather_ = false;  ///< test-only mutation hook
  std::int64_t probe_seq_ = 0;
  FleetStats stats_;

  /// Worker w's share of the current query.
  struct Flight {
    /// w's ANSWER is still needed (it was asked and has not answered,
    /// failed or errored).
    bool pending = false;
    /// w's primary replica has a dispatched request whose reply has not
    /// been seen — drained even after the answer arrived via the backup,
    /// so a same-query duplicate is reconciled here instead of surfacing
    /// as next query's stale.
    bool primary_outstanding = false;
    bool answered = false;
    /// In-flight hedges on w's backup: repeated hedge rounds stack sends
    /// on the same channel, and every one of them is drained.
    int backup_outstanding = 0;
  };
  InferInfo info_;
  double deadline_ = 0.0;  ///< absolute; +infinity without a worker timeout
  double t_sent_ = 0.0;
  int asked_count_ = 0;
  std::vector<Flight> flight_;
  /// The current query's answers, one slot per worker (each answers at
  /// most once), so a gather never allocates for them.
  int answered_count_ = 0;
  std::vector<Answer> answers_;
};

}  // namespace teamnet::net
