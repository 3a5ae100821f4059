// Paper-scenario runners: each approach's real protocol over simulated
// WiFi channels between simulated edge devices, reporting the paper's
// metrics (per-query latency, accuracy, memory/CPU/GPU usage, traffic).
//
// Every runner executes the genuine distributed code path — the same
// CollaborativeMaster/Worker, MoeMaster, Communicator and partitioned
// executors that run over real TCP in the examples — on real threads with
// in-process channels. Latency is virtual time: compute advances a node's
// clock by FLOPs / device throughput, messages advance the receiver by the
// WiFi link model. Queries are issued back to back with batch size 1,
// matching the paper's per-inference measurements. The TeamNet and SG-MoE
// runners are projections of one sim::run_fleet stream (sim/driver.hpp);
// the MPI runners keep their own rank-based loop.
#pragma once

#include <string>
#include <vector>

#include "data/dataset.hpp"
#include "moe/sg_moe.hpp"
#include "net/fault.hpp"
#include "nn/mlp.hpp"
#include "nn/shake_shake.hpp"
#include "sim/calibration.hpp"
#include "sim/des/runtime.hpp"
#include "sim/device.hpp"
#include "sim/resource.hpp"

namespace teamnet::sim {

/// One scenario run's setup. The inherited SimNetOptions are the
/// discrete-event schedule knobs (grant policy, schedule seed and slack),
/// which free_running ignores.
struct ScenarioConfig : SimNetOptions {
  DeviceProfile device = jetson_tx2_cpu();
  net::LinkProfile link = socket_link();
  int num_queries = 40;    ///< latency-measurement queries (>= 1, batch 1)
  std::uint64_t seed = 123;
  /// free_running keeps the historical threads-plus-VirtualClock mode;
  /// discrete_event runs the same protocol under sim/des for bit-stable
  /// results (latency_ms included). Discrete outcomes — selection,
  /// accuracy, fault schedules, traffic counts — agree between the two.
  Scheduler scheduler = Scheduler::free_running;
};

struct ScenarioResult {
  std::string approach;
  int num_nodes = 1;
  double latency_ms = 0.0;        ///< mean per-query latency (virtual)
  double accuracy_pct = 0.0;      ///< test accuracy of the approach's model
  ResourceUsage usage;            ///< master/rank-0 node
  double bytes_per_query = 0.0;
  double messages_per_query = 0.0;
  /// Engine fingerprint of the schedule that produced this result (0 under
  /// free_running). Not part of the benchmark JSON — used by the schedule
  /// explorer to prove a replayed counterexample is bit-identical.
  std::uint64_t schedule_digest = 0;
};

/// Single edge node running the full model locally — the Baseline column.
ScenarioResult run_baseline(nn::Module& model, const data::Dataset& test,
                            const ScenarioConfig& config);

/// TeamNet: one expert per node, Figure 1's broadcast/gather protocol.
/// `experts` are non-owning; experts.size() = number of nodes.
ScenarioResult run_teamnet(const std::vector<nn::Module*>& experts,
                           const data::Dataset& test,
                           const ScenarioConfig& config);

/// Heterogeneous fleet variant: node i runs on devices[i] (sizes must
/// match). Latency is gated by the slowest node per query, so matching
/// expert size to device capacity (capacity-weighted training, DESIGN.md
/// §2.1 #6) directly shortens the critical path.
ScenarioResult run_teamnet_heterogeneous(
    const std::vector<nn::Module*>& experts,
    const std::vector<DeviceProfile>& devices, const data::Dataset& test,
    const ScenarioConfig& config);

/// MPI-Matrix over an MLP, row-partitioned across `num_nodes` ranks.
ScenarioResult run_mpi_matrix(nn::MlpNet& model, const data::Dataset& test,
                              const ScenarioConfig& config, int num_nodes);

/// MPI-Kernel over a Shake-Shake CNN across `num_nodes` ranks.
ScenarioResult run_mpi_kernel(nn::ShakeShakeNet& model,
                              const data::Dataset& test,
                              const ScenarioConfig& config, int num_nodes);

/// MPI-Branch over a Shake-Shake CNN (exactly 2 ranks).
ScenarioResult run_mpi_branch(nn::ShakeShakeNet& model,
                              const data::Dataset& test,
                              const ScenarioConfig& config);

/// Distributed SG-MoE: gate + expert 0 on the master, one expert per worker
/// node. The link (gRPC vs MPI flavour) comes from `config.link`.
ScenarioResult run_sg_moe(moe::SgMoe& model, const data::Dataset& test,
                          const ScenarioConfig& config);

/// Protocol counters of a fleet run — the master's fleet, the workers and
/// the fault links — reported by the chaos and resilience runners.
struct FleetCounters {
  std::int64_t stale_replies = 0;    ///< master's discarded stale replies
  std::int64_t rejoins = 0;          ///< probed workers that came back
  std::int64_t faults_injected = 0;  ///< total faults across all links
  std::int64_t hedges_sent = 0;      ///< hedged re-issues to backups
  std::int64_t hedge_wins = 0;       ///< hedges whose reply was used
  std::int64_t hedge_duplicates = 0;  ///< both replicas answered
  std::int64_t breaker_opens = 0;
  std::int64_t expired_drops = 0;  ///< summed over workers and backups
};

/// Fault injection layered on the TeamNet scenario: every master<->worker
/// link is wrapped in a net::FaultyChannel whose seed is forked per worker
/// from `faults.seed`, so one seed reproduces the whole fleet's fault
/// schedule.
struct ChaosConfig {
  net::FaultProfile faults;  ///< per-link fault model (seed forked per worker)

  /// Optional scripted two-way partition of one worker (0-based index) over
  /// a query window — the crash/heal pattern the rejoin machinery targets.
  int partition_worker = -1;      ///< -1 = no scripted partition
  int partition_from_query = -1;  ///< query index at which the link goes dark
  int heal_at_query = -1;         ///< query index at which it heals (-1 = never)

  double worker_timeout_s = 0.05;  ///< shared gather deadline (virtual s)
  int probe_interval = 2;          ///< probation probe cadence (queries)

  /// TEST-ONLY mutation hook: re-introduces the pre-PR-3 gather, whose
  /// stale-reply defense was the deadline clock reading instead of a
  /// query-id echo — so acceptance races each reply's arrival time against
  /// the deadline (net::CollaborativeMaster::set_test_pre_qid_gather).
  /// Exists so the schedule explorer's mutation gate can prove it detects
  /// a real ordering bug; never enable outside tests.
  bool test_pre_qid_gather = false;
};

/// Per-query chaos telemetry on top of the usual scenario metrics.
/// `scenario.accuracy_pct` is accuracy over the chaos queries themselves
/// (not the full test set): degraded queries answer with fewer experts, and
/// that degradation is exactly what this scenario measures.
struct ChaosResult : FleetCounters {
  ScenarioResult scenario;
  std::vector<int> live_nodes;  ///< per query: master + workers in the live set
  std::vector<char> correct;    ///< per query: 1 = prediction was correct
  std::string fault_schedule;   ///< concatenated per-worker schedules
};

/// TeamNet's Figure-1 protocol under fault injection: same experts, same
/// virtual-time accounting as run_teamnet, but the master reaches each
/// worker through a FaultyChannel and runs with a gather deadline and
/// probation/rejoin enabled. Deterministic for a fixed (config, chaos) —
/// chaos_test asserts schedule equality byte for byte.
ChaosResult run_teamnet_chaos(const std::vector<nn::Module*>& experts,
                              const data::Dataset& test,
                              const ScenarioConfig& config,
                              const ChaosConfig& chaos);

/// Degradation-plane scenario (DESIGN.md §13): the chaos substrate plus the
/// SLO machinery — deadline propagation with expired-request drops, quorum
/// gather, per-worker circuit breakers (default net::HealthConfig) and
/// optionally one backup replica per worker for hedged dispatch (hedge
/// delay max(2 ms, 1.5 × the slowest outstanding worker's EWMA)).
struct ResilienceConfig {
  net::FaultProfile faults;  ///< per-link fault model (seed forked per link)

  double worker_timeout_s = 0.05;  ///< the query SLO (virtual seconds)
  int probe_interval = 2;          ///< probation probe cadence (queries)
  /// Gather quorum (total answers, local expert included); 0 = full gather.
  int quorum = 0;
  /// Spawn one backup replica node per worker expert and hedge to it. The
  /// backup links run the same fault model (independent streams).
  bool hedging = false;
};

/// Per-query degradation telemetry on top of the usual scenario metrics.
/// The three gather counters partition the queries
/// (full + quorum + local_only == num_queries).
struct ResilienceResult : FleetCounters {
  ScenarioResult scenario;
  std::vector<double> latency_ms;  ///< per query (virtual)
  double p50_ms = 0.0;             ///< median per-query latency
  double p99_ms = 0.0;             ///< nearest-rank 99th percentile
  std::vector<int> degradation;  ///< per query: net::DegradationLevel as int
  std::vector<char> correct;     ///< per query: 1 = prediction was correct
  std::int64_t full_gathers = 0;
  std::int64_t quorum_gathers = 0;
  std::int64_t local_only_gathers = 0;
};

/// TeamNet's Figure-1 protocol under fault injection with the degradation
/// plane enabled. Topology: master (node 0) + workers 1..K-1; with
/// `res.hedging` also one backup replica of worker i's expert on node
/// K-1+i. Deterministic for a fixed (config, res) under discrete_event —
/// byte-identical across same-seed runs, results included.
ResilienceResult run_teamnet_resilience(const std::vector<nn::Module*>& experts,
                                        const data::Dataset& test,
                                        const ScenarioConfig& config,
                                        const ResilienceConfig& res);

}  // namespace teamnet::sim
