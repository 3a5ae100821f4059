// Distributed SG-MoE inference (§VI-A): each expert runs on its own edge
// node; the gate sits on node 0 alongside expert 0. For every query the
// master evaluates the gate, routes each row group to its top-1 expert's
// node (one request/response round trip per asked expert — or a local
// call for expert 0's rows), and returns those experts' predictions.
//
// Workers reuse net::CollaborativeWorker and the master reuses
// net::WorkerFleet — the Infer/Result protocol, the shared deadline and
// the probation/rejoin machinery are TeamNet's; only the routing differs
// from its broadcast. Because SG-MoE routes each row to exactly one expert
// there is no quorum: the gather needs every asked expert, and the one
// degraded mode is LOCAL FALLBACK — rows routed to an expert that is in
// probation, fails on send, misses the deadline or errors are answered by
// the master's expert 0 (a wrong-expert answer beats no answer), and the
// failed expert enters probation until it answers a Ping.
#pragma once

#include <vector>

#include "moe/sg_moe.hpp"
#include "net/collab.hpp"

namespace teamnet::moe {

class MoeMaster {
 public:
  /// `workers[i]` serves expert i+1; expert 0 runs locally on the master.
  MoeMaster(SgMoe& model, std::vector<net::Channel*> workers);

  struct Result {
    Tensor probs;
    std::vector<int> predictions;
    std::vector<int> routed;  ///< expert chosen per sample
    std::int64_t fallback_rows = 0;  ///< rows answered by local expert 0
  };

  Result infer(const Tensor& x);
  /// See net::WorkerFleet::shutdown.
  void shutdown() { fleet_.shutdown(); }

  void set_compute_hook(net::ComputeHook hook) { on_compute_ = std::move(hook); }

  /// The worker fleet: deadline, probation, flow tracing and the protocol
  /// counters are configured and read there.
  net::WorkerFleet& fleet() { return fleet_; }
  std::int64_t stale_replies_discarded() const {
    return fleet_.stats().stale_replies.value();
  }

 private:
  SgMoe& model_;
  net::WorkerFleet fleet_;
  net::ComputeHook on_compute_;
  std::int64_t query_seq_ = 0;
  obs::Tally queries_{"moe.queries_total"};
  obs::Tally fallback_rows_{"moe.fallback_rows_total"};
};

}  // namespace teamnet::moe
