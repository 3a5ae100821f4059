// Workload definitions and the two serving legs every workload runs:
//
//   * the modelled leg drives load::run_teamnet_load / run_sg_moe_load on
//     the discrete-event (DES) virtual clock — sim_* metrics — while the
//     host pays for it in wall and CPU time — host_* metrics;
//   * the real leg serves the workload's first kTcpNodes nodes through
//     net::CollaborativeMaster (or moe::MoeMaster) over loopback TCP, one
//     waiting caller — wall_*.
//
// Both legs are checked against an in-process reference computed from the
// same models on the same rows.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "load/loadgen.hpp"
#include "moe/moe_serving.hpp"
#include "net/collab.hpp"

namespace teamnet::perfbench {

/// TeamNet serves MNIST MLP experts; SG-MoE serves CIFAR Shake-Shake ones.
enum class Approach { teamnet, sgmoe };

struct WorkloadSpec {
  std::string name;
  Approach approach = Approach::teamnet;
  int k = 4;  ///< nodes (= experts)
  load::ArrivalKind arrival = load::ArrivalKind::open_poisson;
  double rate_qps = 50.0;       ///< open loop: offered virtual rate
  int clients = 4;              ///< closed loop: population
  double think_s = 0.01;        ///< closed loop: mean think time
  double worker_timeout_s = 0;  ///< shared gather deadline (0 = none)
  int quorum = 0;               ///< gather quorum (0 = full gather)
  int num_queries = 1100;       ///< queries in the full modelled replay
  int warmup = 100;             ///< excluded from steady-phase statistics
};

/// The repo's query SLO (DESIGN.md §13), seconds.
inline constexpr double kSloS = 0.050;

/// Nodes of the real TCP leg. Each node is a thread that works on every
/// query, so a fleet with more nodes than the host has cores measures the
/// scheduler rather than the serving path: on a 4-vCPU VM the wall p50 of
/// a k=8 loopback fleet spread 21-31% over ten consecutive runs, against
/// 8-13% for the k=4 fleets.
inline constexpr int kTcpNodes = 4;

const std::vector<WorkloadSpec>& workloads();
const WorkloadSpec* find_workload(const std::string& name);

/// Loopback TCP fleet: one listener + serving thread per worker expert and
/// the master dialled to all of them. The destructor shuts the master down
/// (Shutdown frames, channels closed) and joins every worker thread.
class TcpFleet {
 public:
  TcpFleet(const WorkloadSpec& spec, const std::vector<nn::Module*>& experts,
           moe::SgMoe* sgmoe);
  ~TcpFleet();
  TcpFleet(const TcpFleet&) = delete;
  TcpFleet& operator=(const TcpFleet&) = delete;

  struct Answer {
    int prediction = -1;
    int chosen = 0;        ///< answering node (0 = master)
    int degradation = 0;   ///< 0 full, else quorum/local-only/fallback
    int counted_replies = 0;
  };
  Answer infer(const Tensor& x);
  std::int64_t stale_replies() const;

 private:
  std::vector<net::ChannelPtr> master_channels_;
  std::vector<net::ChannelPtr> worker_channels_;
  std::unique_ptr<net::CollaborativeMaster> teamnet_;
  std::unique_ptr<moe::MoeMaster> sgmoe_;
  std::vector<std::thread> threads_;  // last: joined before the rest dies
};

/// Everything one set-up produces: data, models from the warmed cache and
/// the connected TCP fleet, plus the reference answers computed after it.
struct Loaded {
  data::Dataset test;
  bench::TrainedTeam team;            ///< TeamNet workloads
  std::unique_ptr<moe::SgMoe> sgmoe;  ///< SG-MoE workloads
  std::vector<nn::Module*> experts;   ///< node i's expert
  /// Per test row: the prediction a full gather must return.
  std::vector<int> reference;
  /// The same for a full gather of the TCP fleet's kTcpNodes nodes.
  std::vector<int> tcp_reference;
  /// Per test row and node: that expert's own argmax (degraded answers).
  std::vector<std::vector<int>> expert_argmax;
  std::unique_ptr<TcpFleet> tcp;
};

/// Trains (if absent) every model the workloads use into `cache_dir`.
void prepare_models(const std::string& cache_dir);

/// The timed set-up: synthesises the dataset, loads the models (training
/// if the cache is cold — the caller refuses to time such a process) and
/// connects the TCP fleet.
std::unique_ptr<Loaded> load_workload(const WorkloadSpec& spec,
                                      const std::string& cache_dir);

/// Fills Loaded::reference, tcp_reference and expert_argmax for every test
/// row.
void compute_reference(const WorkloadSpec& spec, Loaded& loaded);

/// One modelled replay of the workload on the DES clock plus its host cost.
struct DesReplay {
  load::LoadResult result;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double vcsw = 0.0;  ///< voluntary context switches during the call
};
/// Serves the first `num_queries` queries of the seeded workload. Arrivals
/// and rows are prefix-stable: a shorter replay serves exactly the first
/// queries of a longer one.
DesReplay run_des(const WorkloadSpec& spec, Loaded& loaded, std::uint64_t seed,
                  int num_queries);

/// Mismatches of a DES replay against the reference: full-gather records
/// whose correct bit disagrees with the reference answer's.
std::int64_t des_mismatches(const Loaded& loaded, const load::LoadResult& r);
/// Records of `replay` that differ from the same-index record of `full`,
/// a longer (or equal) replay of the same seed.
std::int64_t prefix_mismatches(const load::LoadResult& full,
                               const load::LoadResult& replay);

/// The real leg: one waiting caller over loopback TCP, cycling through the
/// workload's query rows. run_tcp appends `seconds` worth of queries.
struct TcpRun {
  std::size_t next = 0;  ///< index into the rows of the next query
  std::vector<double> latency_us;
  std::int64_t mismatches = 0;
  std::int64_t degraded = 0;
  std::int64_t counted_replies = 0;
  std::int64_t stale_replies = 0;
};
void run_tcp(Loaded& loaded, const std::vector<int>& rows, double seconds,
             TcpRun& out);

/// Host resource usage of the whole process (all threads).
struct Usage {
  double cpu_s = 0.0;
  double vcsw = 0.0;
};
Usage usage_now();
/// Peak resident memory of this program image (VmHWM). getrusage's
/// ru_maxrss is not used: it keeps the parent's peak across fork + exec.
double peak_rss_mb();
double wall_now_s();

}  // namespace teamnet::perfbench
