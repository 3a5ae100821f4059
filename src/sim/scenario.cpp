#include "sim/scenario.hpp"

#include <algorithm>
#include <array>
#include <thread>

#include "common/annotations.hpp"
#include "core/entropy.hpp"
#include "mpi/partitioned.hpp"
#include "nn/loss.hpp"
#include "obs/percentile.hpp"
#include "obs/trace.hpp"
#include "sim/driver.hpp"
#include "tensor/ops.hpp"

namespace teamnet::sim {

namespace {

double model_accuracy_pct(nn::Module& model, const data::Dataset& test) {
  model.set_training(false);
  return 100.0 * nn::accuracy(model.predict(test.images), test.labels);
}

/// A sequential paper run of `experts` on `config.device`: back to back
/// over `config.num_queries` seeded rows.
FleetSpec paper_spec(std::string label, std::string approach,
                     std::vector<nn::Module*> experts,
                     const data::Dataset& test, const ScenarioConfig& config) {
  FleetSpec spec;
  spec.epoch = std::move(label);
  spec.approach = std::move(approach);
  spec.devices.assign(experts.size(), config.device);
  spec.experts = std::move(experts);
  spec.rows = sample_query_rows(test, config.num_queries, config.seed);
  return spec;
}

/// Accuracy over the full test set via the same argmin-entropy rule the
/// protocol applies (protocol equivalence is covered by tests): each row
/// takes the prediction of its least-uncertain expert, the first on ties.
double argmin_entropy_accuracy_pct(const std::vector<nn::Module*>& experts,
                                   const data::Dataset& test) {
  std::vector<Tensor> probs;
  std::vector<Tensor> entropy;
  for (nn::Module* expert : experts) {
    probs.push_back(ops::softmax_rows(expert->predict(test.images)));
    entropy.push_back(core::predictive_entropy(probs.back()));
  }
  std::size_t ok = 0;
  for (std::int64_t r = 0; r < test.size(); ++r) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < experts.size(); ++i) {
      if (entropy[i][r] < entropy[best][r]) best = i;
    }
    const std::int64_t classes = probs[best].dim(1);
    const float* row = probs[best].data() + r * classes;
    const auto pred = std::max_element(row, row + classes) - row;
    if (pred == test.labels[static_cast<std::size_t>(r)]) ++ok;
  }
  return 100.0 * static_cast<double>(ok) / static_cast<double>(test.size());
}

}  // namespace

ScenarioResult run_baseline(nn::Module& model, const data::Dataset& test,
                            const ScenarioConfig& config) {
  model.set_training(false);
  const Shape sample_shape = test.sample_shape();
  const std::int64_t flops = model.analyze(sample_shape).flops;

  ScenarioResult result;
  result.approach = "Baseline(" + model.name() + ")";
  result.num_nodes = 1;
  result.latency_ms = 1e3 * config.device.compute_time(flops);
  result.accuracy_pct = model_accuracy_pct(model, test);
  result.usage = estimate_resources(
      config.device, model_working_set_bytes(model, sample_shape),
      /*busy_fraction=*/1.0);
  return result;
}

ScenarioResult run_teamnet(const std::vector<nn::Module*>& experts,
                           const data::Dataset& test,
                           const ScenarioConfig& config) {
  return run_teamnet_heterogeneous(
      experts,
      std::vector<DeviceProfile>(experts.size(), config.device), test,
      config);
}

ScenarioResult run_teamnet_heterogeneous(
    const std::vector<nn::Module*>& experts,
    const std::vector<DeviceProfile>& devices, const data::Dataset& test,
    const ScenarioConfig& config) {
  FleetSpec spec = paper_spec("teamnet", "TeamNet", experts, test, config);
  spec.devices = devices;
  ScenarioResult result = run_fleet(spec, test, config).scenario;
  result.accuracy_pct = argmin_entropy_accuracy_pct(experts, test);
  return result;
}

ChaosResult run_teamnet_chaos(const std::vector<nn::Module*>& experts,
                              const data::Dataset& test,
                              const ScenarioConfig& config,
                              const ChaosConfig& chaos) {
  TEAMNET_CHECK_MSG(
      chaos.partition_worker < static_cast<int>(experts.size()) - 1,
      "partition_worker must name a worker (0-based, < num_workers)");
  FleetSpec spec =
      paper_spec("teamnet-chaos", "TeamNet-Chaos", experts, test, config);
  spec.faults = FaultLayer{chaos.faults, chaos.partition_worker,
                           chaos.partition_from_query, chaos.heal_at_query};
  spec.worker_timeout_s = chaos.worker_timeout_s;
  spec.probe_interval = chaos.probe_interval;
  spec.test_pre_qid_gather = chaos.test_pre_qid_gather;
  const FleetRun run = run_fleet(spec, test, config);

  ChaosResult result;
  static_cast<FleetCounters&>(result) = run.counters;
  result.scenario = run.scenario;
  for (const QueryRecord& q : run.records) {
    result.live_nodes.push_back(q.live_nodes);
    result.correct.push_back(q.correct ? 1 : 0);
  }
  result.fault_schedule = run.fault_schedule;
  return result;
}

ResilienceResult run_teamnet_resilience(const std::vector<nn::Module*>& experts,
                                        const data::Dataset& test,
                                        const ScenarioConfig& config,
                                        const ResilienceConfig& res) {
  FleetSpec spec = paper_spec("teamnet-resilience", "TeamNet-Resilience",
                              experts, test, config);
  spec.faults = FaultLayer{res.faults};
  spec.backups = res.hedging;
  spec.worker_timeout_s = res.worker_timeout_s;
  spec.probe_interval = res.probe_interval;
  spec.quorum = res.quorum;
  spec.health = true;
  const FleetRun run = run_fleet(spec, test, config);

  ResilienceResult result;
  static_cast<FleetCounters&>(result) = run.counters;
  result.scenario = run.scenario;
  const std::array<std::int64_t*, 3> gathers{
      &result.full_gathers, &result.quorum_gathers, &result.local_only_gathers};
  for (const QueryRecord& q : run.records) {
    result.latency_ms.push_back(1e3 * (q.completion_s - q.arrival_s));
    result.degradation.push_back(q.degradation);
    result.correct.push_back(q.correct ? 1 : 0);
    ++*gathers[static_cast<std::size_t>(q.degradation)];  // a partition
  }
  result.p50_ms = obs::nearest_rank_percentile(result.latency_ms, 50.0);
  result.p99_ms = obs::nearest_rank_percentile(result.latency_ms, 99.0);
  return result;
}

namespace {

/// Shared runner for the MPI executors: spins `num_nodes` rank threads.
/// Each rank builds its executor once via `make_runner(comm, hook)` and
/// then, per query, receives the input bcast from rank 0 and runs it.
template <typename MakeRunner>
ScenarioResult run_mpi_generic(const std::string& approach, int num_nodes,
                               const data::Dataset& test,
                               const ScenarioConfig& config,
                               nn::Module& model_for_metrics,
                               MakeRunner make_runner) {
  model_for_metrics.set_training(false);  // before any rank thread starts
  obs::Tracer::instance().begin_epoch(approach);
  auto net = make_sim_net(config.scheduler, num_nodes, config.link, config);

  const auto queries = sample_query_rows(test, config.num_queries, config.seed);
  double rank0_compute = 0.0;

  auto rank_main = [&](int rank) {
    std::vector<net::Channel*> peers(static_cast<std::size_t>(num_nodes),
                                     nullptr);
    for (int r = 0; r < num_nodes; ++r) {
      if (r != rank) {
        peers[static_cast<std::size_t>(r)] = &net->channel(rank, r);
      }
    }
    mpi::Communicator comm(rank, peers);
    net::ComputeHook hook = make_compute_hook(*net, rank, config.device,
                                      rank == 0 ? &rank0_compute : nullptr);
    auto run_query = make_runner(comm, hook);
    for (int row : queries) {
      Tensor x;
      if (rank == 0) x = query_row_tensor(test, row);
      x = comm.bcast(x.defined() ? x : Tensor({1}), 0);
      run_query(x);
    }
  };

  // A rank that throws records the first error and closes the mesh so the
  // surviving ranks (blocked in collectives) fail fast instead of
  // deadlocking; every thread is always joined before the error resurfaces.
  // Each rank retires on exit, error or not, so remaining ranks' deliveries
  // keep flowing under discrete_event.
  // `error_mutex` (leaf lock) guards `first_error`; both are stack locals
  // whose lifetime spans every rank thread, joined below before either is
  // read. Locals cannot carry TN_GUARDED_BY, so the annotated wrappers
  // here buy the lint funnel rather than analysis coverage.
  Mutex error_mutex;
  std::exception_ptr first_error;
  auto rank_guarded = [&](int rank) {
    obs::TraceTrack track(
        rank, [&net, rank] { return net->node_time(rank); },
        "rank" + std::to_string(rank));
    try {
      rank_main(rank);
    } catch (...) {
      {
        MutexLock lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
      net->close_all();
    }
    net->retire(rank);
  };

  const std::int64_t bytes_before = net->bytes_delivered();
  const std::int64_t msgs_before = net->messages_delivered();
  const double t0 = net->node_time(0);
  std::vector<std::thread> threads;
  for (int r = 1; r < num_nodes; ++r) {
    threads.emplace_back(rank_guarded, r);
  }
  rank_guarded(0);
  for (auto& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
  const double total_latency = net->node_time(0) - t0;

  ScenarioResult result;
  result.schedule_digest = net->finish();
  result.approach = approach;
  result.num_nodes = num_nodes;
  result.latency_ms = 1e3 * total_latency / config.num_queries;
  result.accuracy_pct = model_accuracy_pct(model_for_metrics, test);
  const double share = 1.0 / num_nodes;  // rank 0 holds 1/K of the weights
  result.usage = estimate_resources(
      config.device,
      static_cast<std::int64_t>(
          share * static_cast<double>(model_working_set_bytes(
                      model_for_metrics, test.sample_shape()))),
      rank0_compute / total_latency);
  result.bytes_per_query =
      static_cast<double>(net->bytes_delivered() - bytes_before) /
      config.num_queries;
  result.messages_per_query =
      static_cast<double>(net->messages_delivered() - msgs_before) /
      config.num_queries;
  return result;
}

}  // namespace

ScenarioResult run_mpi_matrix(nn::MlpNet& model, const data::Dataset& test,
                              const ScenarioConfig& config, int num_nodes) {
  return run_mpi_generic(
      "MPI-Matrix", num_nodes, test, config, model,
      [&model](mpi::Communicator& comm, const net::ComputeHook& hook) {
        return [executor = std::make_shared<mpi::MpiMatrixMlp>(model, comm,
                                                               hook)](
                   const Tensor& x) { executor->infer(x); };
      });
}

ScenarioResult run_mpi_kernel(nn::ShakeShakeNet& model,
                              const data::Dataset& test,
                              const ScenarioConfig& config, int num_nodes) {
  return run_mpi_generic(
      "MPI-Kernel", num_nodes, test, config, model,
      [&model](mpi::Communicator& comm, const net::ComputeHook& hook) {
        return [executor = std::make_shared<mpi::MpiKernelShakeShake>(
                    model, comm, hook)](const Tensor& x) {
          executor->infer(x);
        };
      });
}

ScenarioResult run_mpi_branch(nn::ShakeShakeNet& model,
                              const data::Dataset& test,
                              const ScenarioConfig& config) {
  return run_mpi_generic(
      "MPI-Branch", 2, test, config, model,
      [&model](mpi::Communicator& comm, const net::ComputeHook& hook) {
        return [executor = std::make_shared<mpi::MpiBranchShakeShake>(
                    model, comm, hook)](const Tensor& x) {
          executor->infer(x);
        };
      });
}

ScenarioResult run_sg_moe(moe::SgMoe& model, const data::Dataset& test,
                          const ScenarioConfig& config) {
  std::vector<nn::Module*> experts;
  for (int i = 0; i < model.num_experts(); ++i) {
    experts.push_back(&model.expert(i));
  }
  FleetSpec spec =
      paper_spec("sg-moe", "SG-MoE", std::move(experts), test, config);
  spec.moe = &model;
  ScenarioResult result = run_fleet(spec, test, config).scenario;
  result.accuracy_pct = 100.0 * model.evaluate_accuracy(test);
  return result;
}

}  // namespace teamnet::sim
