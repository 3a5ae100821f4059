// The simulated mesh the scenario drivers run on.
//
// SimNet is the one seam the drivers talk to: a fully connected virtual
// mesh of DesChannels over one discrete-event engine, plus the clock and
// traffic surface. The protocol code underneath is the code that runs over
// TCP; the engine only admits its clock and channel calls in virtual-time
// order, so a same-seed run is bit-stable (DESIGN.md §8).
#pragma once

#include <cstdint>
#include <vector>

#include "net/link.hpp"
#include "net/transport.hpp"
#include "sim/des/engine.hpp"
#include "sim/des/grant_policy.hpp"

namespace teamnet::sim {

/// The discrete-event engine is the only virtual-time model, so this enum
/// has one value. It and ScenarioConfig::scheduler survive only because
/// perfbench/workloads.cpp (run_des) still assigns
/// `cfg.scheduler = sim::Scheduler::discrete_event`. The value stays 1, as
/// it was beside the removed free-running mode, so parameterized test ids
/// that print it keep their names.
enum class Scheduler { discrete_event = 1 };

/// Schedule-perturbation knobs for the mesh. The default (canonical, seed
/// 0) is the schedule every published number was taken under.
struct SimNetOptions {
  /// Grant tie-break (DESIGN.md §11): the non-canonical policies perturb
  /// which simultaneously eligible node acts first, so the explorer can
  /// hunt for schedule-dependent outcomes.
  des::GrantPolicyKind grant_policy = des::GrantPolicyKind::canonical;
  std::uint64_t schedule_seed = 0;  ///< seeds the non-canonical policies
  /// Eligibility window for the perturbing policies (virtual seconds; see
  /// des::GrantPolicy::slack). Ignored by canonical, so the default
  /// byte-identity guarantee is unaffected.
  double schedule_slack_s = 0.0;
};

/// A fully connected simulated mesh of `num_nodes` nodes.
class SimNet {
 public:
  SimNet(int num_nodes, const net::LinkProfile& link,
         const SimNetOptions& options = {});

  int num_nodes() const { return engine_.num_nodes(); }

  /// Node `from`'s channel to node `to`. Invalid after take_channel.
  net::Channel& channel(int from, int to);
  /// Transfers ownership of the (from, to) leg, e.g. to wrap it in a
  /// FaultyChannel. The slot becomes empty; close_all skips it.
  net::ChannelPtr take_channel(int from, int to);

  double node_time(int node) const { return engine_.node_time(node); }
  /// Charges `seconds` of local compute to `node`'s virtual clock.
  void advance(int node, double seconds) { engine_.advance(node, seconds); }
  std::int64_t bytes_delivered() const { return engine_.bytes_delivered(); }
  std::int64_t messages_delivered() const {
    return engine_.messages_delivered();
  }

  /// Declares `node` done with virtual time (see Engine::retire). Every
  /// driver must retire a node when its protocol role ends — workers when
  /// the serve loop exits, the master after shutdown and before any join —
  /// or pending deliveries stall behind the idle node's clock.
  void retire(int node) { engine_.retire(node); }

  /// Closes every channel leg still owned by the mesh (error teardown).
  void close_all();

  /// End-of-run check + fingerprint, called by drivers after every node
  /// thread joined: verifies every node retired (a protocol invariant — an
  /// unretired node means a worker exited without declaring itself done)
  /// and returns the engine's schedule digest.
  std::uint64_t finish();

 private:
  net::ChannelPtr& slot(int from, int to);

  des::Engine engine_;  // declared first: the mesh's channels reference it
  std::vector<std::vector<net::ChannelPtr>> mesh_;
};

}  // namespace teamnet::sim
