// The one serving driver (DESIGN.md §16). Every TeamNet and SG-MoE run in
// the simulator — the paper tables, chaos, resilience and the load benches
// — is one FleetSpec run: the same SimNet, worker spawn, link wrap, query
// loop, error teardown and quiesce. A run returns one QueryRecord per
// query plus the run totals; ScenarioResult, ChaosResult,
// ResilienceResult and load::LoadResult are projections of that stream.
//
// Internal to the runners in sim/scenario.cpp and load/loadgen.cpp: only
// they fill a FleetSpec. The helpers at the end are shared with the MPI
// runner and the load runner's row sampling, so no runner can drift from
// the driver's clock-charging rules or the rows a seed replays.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "data/dataset.hpp"
#include "moe/sg_moe.hpp"
#include "net/collab.hpp"
#include "net/fault.hpp"
#include "obs/critpath.hpp"
#include "sim/device.hpp"
#include "sim/scenario.hpp"

namespace teamnet::sim {

/// One served query on the master's virtual clock. completion >= arrival
/// always (service cannot precede the arrival that triggered it).
struct QueryRecord {
  double arrival_s = 0.0;
  double completion_s = 0.0;
  int row = -1;       ///< dataset row served
  bool correct = false;
  /// net::DegradationLevel the serving path reported for this query (0 =
  /// full; SG-MoE reports 1 when local fallback recomputed any row).
  int degradation = 0;
  int live_nodes = 0;  ///< master + workers in the live set afterwards
};

/// Every master-side link wrapped in a net::FaultyChannel. Each link's seed
/// is forked from `profile.seed` by its node index, so one seed reproduces
/// the whole fleet's fault schedule and a primary keeps its stream whether
/// or not backups follow it.
struct FaultLayer {
  net::FaultProfile profile;
  /// Optional scripted two-way partition of one worker (0-based) over a
  /// query window; -1 = none / never heals.
  int partition_worker = -1;
  int partition_from_query = -1;
  int heal_at_query = -1;
};

/// Arrival pacing. Called once per query with the master's clock — the
/// previous query's completion instant, or the run's start — it returns
/// the query's arrival instant: one in the future idles the master until
/// then, one in the past means the query queued while the master was busy.
using Pacer = std::function<double(double now)>;

struct FleetSpec {
  std::string epoch;     ///< trace epoch label (obs::Tracer::begin_epoch)
  std::string approach;  ///< ScenarioResult::approach
  /// Node i serves experts[i]; experts[0] is the master's local expert.
  std::vector<nn::Module*> experts;
  /// Set: the master is SG-MoE's routed master over this model (experts
  /// are its experts). Null: TeamNet's broadcast master.
  moe::SgMoe* moe = nullptr;
  std::vector<DeviceProfile> devices;  ///< per expert (backups share it)
  /// One backup replica of worker i's expert on node k-1+i, and hedging.
  bool backups = false;
  /// Without a fault layer the run is flow-traced and its traffic is
  /// counted before shutdown; with one, every link is quiesced first and
  /// traffic is counted after the join.
  std::optional<FaultLayer> faults;
  double worker_timeout_s = 0.0;  ///< shared gather deadline; 0 = none
  int probe_interval = 4;         ///< probation probe cadence (queries)
  /// TeamNet gather quorum; 0 = full. run_fleet rejects a nonzero quorum
  /// with `moe` set.
  int quorum = 0;
  /// Degradation plane: per-worker breakers and expired-request drops.
  bool health = false;
  bool test_pre_qid_gather = false;  ///< see ChaosConfig
  std::vector<int> rows;             ///< dataset row per query
  /// Unset: back-to-back, each query arrives as the previous completes.
  /// Set: a load run, which also publishes the `load.*` metrics and the
  /// `load.arrival` trace instants.
  Pacer pacer;
};

struct FleetRun {
  std::vector<QueryRecord> records;
  /// records[i]'s exact latency attribution (query id i+1, DESIGN.md §15).
  std::vector<obs::QueryAttribution> attributions;
  /// Mean latency and accuracy over the records, the master's utilisation
  /// and the traffic per query.
  ScenarioResult scenario;
  FleetCounters counters;
  std::string fault_schedule;  ///< per-link schedules, "worker <node>:"
};

/// Runs `spec` over `config`'s link and schedule knobs. Every node thread is
/// joined before it returns or rethrows.
FleetRun run_fleet(const FleetSpec& spec, const data::Dataset& test,
                   const ScenarioConfig& config);

/// Compute hook that advances `node`'s virtual clock on `device` and, when
/// `compute_total` is non-null, accumulates that node's compute seconds.
/// Only `node`'s own thread runs its hook, so the total needs no lock; read
/// it from that thread or after joining it.
net::ComputeHook make_compute_hook(SimNet& net, int node,
                                   const DeviceProfile& device,
                                   double* compute_total);

/// Picks `n` query rows from `test` (deterministic per seed) — the
/// uniform-row sampling every scenario runner replays. Throws
/// InvariantError unless n >= 1, before any runner starts a thread.
std::vector<int> sample_query_rows(const data::Dataset& test, int n,
                                   std::uint64_t seed);

/// One-sample batch holding `test`'s row `row`.
Tensor query_row_tensor(const data::Dataset& test, int row);

}  // namespace teamnet::sim
