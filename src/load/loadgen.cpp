#include "load/loadgen.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "sim/driver.hpp"

namespace teamnet::load {

namespace {

/// One load run of `experts` (SG-MoE's when `moe` is set) under `load`:
/// the arrival process paces the fleet driver, and the result is the
/// projection of its records.
LoadResult run_load(const std::string& approach,
                    std::vector<nn::Module*> experts, moe::SgMoe* moe,
                    const data::Dataset& test,
                    const sim::ScenarioConfig& config, const LoadConfig& load) {
  TEAMNET_CHECK_MSG(load.num_queries >= 1, "load.num_queries must be >= 1");
  TEAMNET_CHECK_MSG(
      load.warmup_queries >= 0 && load.warmup_queries < load.num_queries,
      "warmup_queries must be in [0, num_queries)");
  sim::FleetSpec spec;
  spec.epoch = approach + "-load";
  spec.approach = approach;
  spec.devices.assign(experts.size(), config.device);
  spec.experts = std::move(experts);
  spec.moe = moe;
  spec.worker_timeout_s = load.worker_timeout_s;
  spec.quorum = load.gather_quorum;
  spec.rows = sample_load_rows(test, load.num_queries, load.query_seed,
                               load.zipf_exponent);
  // The master's clock at each call is the previous completion, which a
  // closed-loop population needs to schedule its next think/submit cycle.
  auto process = make_arrival_process(load.arrival);
  spec.pacer = [&process, started = false](double now) mutable {
    if (started) process->on_complete(now);
    started = true;
    return process->next_arrival(now);
  };
  sim::FleetRun run = sim::run_fleet(spec, test, config);

  LoadResult result;
  result.schedule_digest = run.scenario.schedule_digest;
  result.approach = approach;
  result.num_nodes = run.scenario.num_nodes;
  result.arrival = process->name();
  result.num_queries = load.num_queries;
  result.warmup_queries = load.warmup_queries;
  result.records = std::move(run.records);
  result.attributions = std::move(run.attributions);

  const std::size_t warmup = static_cast<std::size_t>(load.warmup_queries);
  const LatencyHistogram::Config layout;
  result.warmup = make_phase_stats(result.records, 0, warmup, layout);
  result.steady = make_phase_stats(result.records, warmup,
                                   result.records.size(), layout);
  result.offered_qps = result.steady.offered_qps();
  result.achieved_qps = result.steady.achieved_qps();
  result.p50_ms = result.steady.latency.percentile(50.0);
  result.p90_ms = result.steady.latency.percentile(90.0);
  result.p99_ms = result.steady.latency.percentile(99.0);
  result.p999_ms = result.steady.latency.percentile(99.9);
  result.mean_ms = result.steady.latency.mean();
  result.max_ms = result.steady.latency.max();
  result.mean_inflight = result.steady.mean_inflight();
  result.accuracy_pct = run.scenario.accuracy_pct;
  result.bytes_per_query = run.scenario.bytes_per_query;
  result.messages_per_query = run.scenario.messages_per_query;
  auto& registry = obs::MetricsRegistry::instance();
  registry.gauge("load.achieved_qps").set(result.achieved_qps);
  registry.gauge("load.offered_qps").set(result.offered_qps);
  registry.gauge("load.mean_inflight").set(result.mean_inflight);
  registry.gauge("load.steady_window_s").set(result.steady.duration_s());
  registry.gauge("load.steady_queries")
      .set(static_cast<double>(result.steady.queries));
  // The steady-phase distribution at full resolution (the driver's
  // always-on "load.latency_ms" keeps coarse decade edges). Placing each
  // bucket at its inclusive upper edge reproduces the counts exactly (both
  // histograms bucket by lower_bound); overflow goes past the last edge.
  const auto& edges = result.steady.latency.upper_edges();
  auto& steady_histogram =
      registry.histogram("load.steady_latency_ms", edges);
  const auto counts = result.steady.latency.bucket_counts();
  for (std::size_t b = 0; b < counts.size(); ++b) {
    const double at = b < edges.size() ? edges[b] : edges.back() * 2.0;
    steady_histogram.observe_n(at, counts[b]);
  }
  return result;
}

}  // namespace

std::vector<int> sample_load_rows(const data::Dataset& test, int n,
                                  std::uint64_t seed, double zipf_exponent) {
  if (zipf_exponent <= 0.0) return sim::sample_query_rows(test, n, seed);
  int num_classes = 0;
  for (int label : test.labels) num_classes = std::max(num_classes, label + 1);
  TEAMNET_CHECK_MSG(num_classes >= 1, "dataset has no labels");
  std::vector<std::vector<int>> by_class(
      static_cast<std::size_t>(num_classes));
  for (std::size_t r = 0; r < test.labels.size(); ++r) {
    by_class[static_cast<std::size_t>(test.labels[r])].push_back(
        static_cast<int>(r));
  }
  // Fork the seed so class choice and row-within-class choice come from
  // independent streams (the same class sequence replays under a different
  // row pick and vice versa).
  Rng base(seed);
  ZipfClassSampler zipf(num_classes, zipf_exponent, base.fork(1).engine()());
  Rng row_rng = base.fork(2);
  std::vector<int> rows;
  rows.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const auto& bucket = by_class[static_cast<std::size_t>(zipf.sample())];
    if (bucket.empty()) {
      // A class with no test rows: fall back to a uniform row so skew
      // toward an unrepresented class cannot stall the generator.
      rows.push_back(
          row_rng.randint(0, static_cast<int>(test.size()) - 1));
      continue;
    }
    rows.push_back(bucket[static_cast<std::size_t>(
        row_rng.randint(0, static_cast<int>(bucket.size()) - 1))]);
  }
  return rows;
}

LoadResult run_teamnet_load(const std::vector<nn::Module*>& experts,
                            const data::Dataset& test,
                            const sim::ScenarioConfig& config,
                            const LoadConfig& load) {
  return run_load("TeamNet", experts, nullptr, test, config, load);
}

LoadResult run_sg_moe_load(moe::SgMoe& model, const data::Dataset& test,
                           const sim::ScenarioConfig& config,
                           const LoadConfig& load) {
  std::vector<nn::Module*> experts;
  for (int i = 0; i < model.num_experts(); ++i) {
    experts.push_back(&model.expert(i));
  }
  return run_load("SG-MoE", std::move(experts), &model, test, config, load);
}

}  // namespace teamnet::load
