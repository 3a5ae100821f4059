// Scheduler selection for the scenario drivers.
//
// SimNet is the one seam the drivers talk to: a fully connected virtual
// mesh plus the clock/traffic surface, built either over free-running
// threads (VirtualClock + make_sim_mesh, the historical mode) or over the
// discrete-event engine (Engine + make_des_mesh, bit-stable virtual time).
// The protocol code underneath is identical; only message timing and
// thread admission differ.
#pragma once

#include <cstdint>
#include <memory>

#include "net/transport.hpp"
#include "net/virtual_clock.hpp"
#include "sim/des/grant_policy.hpp"

namespace teamnet::sim {

enum class Scheduler {
  free_running,    ///< node threads run unchecked; latency wobbles ≤ 1 link
                   ///< latency between runs (DESIGN.md §8)
  discrete_event,  ///< conservative DES; whole ScenarioResult is bit-stable
};

const char* to_string(Scheduler scheduler);

/// A simulated mesh of `num_nodes` nodes under one scheduler.
class SimNet {
 public:
  virtual ~SimNet() = default;

  virtual Scheduler scheduler() const = 0;
  virtual int num_nodes() const = 0;

  /// Node `from`'s channel to node `to`. Invalid after take_channel.
  virtual net::Channel& channel(int from, int to) = 0;
  /// Transfers ownership of the (from, to) leg, e.g. to wrap it in a
  /// FaultyChannel. The slot becomes empty; close_all skips it.
  virtual net::ChannelPtr take_channel(int from, int to) = 0;

  virtual double node_time(int node) const = 0;
  /// Charges `seconds` of local compute to `node`'s virtual clock.
  virtual void advance(int node, double seconds) = 0;
  virtual std::int64_t bytes_delivered() const = 0;
  virtual std::int64_t messages_delivered() const = 0;

  /// Declares `node` done with virtual time (see Engine::retire). Every
  /// driver must retire a node when its protocol role ends — workers when
  /// the serve loop exits, the master after shutdown and before any join —
  /// or pending deliveries stall behind the idle node's clock. No-op under
  /// free_running.
  virtual void retire(int node) = 0;

  /// Closes every channel leg still owned by the mesh (error teardown).
  virtual void close_all() = 0;

  /// End-of-run check + fingerprint, called by drivers after every node
  /// thread joined. Under discrete_event: verifies every node retired (a
  /// protocol invariant — an unretired node means a worker exited without
  /// declaring itself done) and returns the engine's schedule digest.
  /// Under free_running: no check, returns 0.
  virtual std::uint64_t finish() = 0;
};

/// Schedule-perturbation knobs for the discrete-event mesh; free_running
/// ignores them. The default (canonical, seed 0) is byte-compatible with
/// the historical two-argument factory.
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

std::unique_ptr<SimNet> make_sim_net(Scheduler scheduler, int num_nodes,
                                     const net::LinkProfile& link);
std::unique_ptr<SimNet> make_sim_net(Scheduler scheduler, int num_nodes,
                                     const net::LinkProfile& link,
                                     const SimNetOptions& options);

}  // namespace teamnet::sim
