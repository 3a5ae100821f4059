#include "load/loadgen.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "moe/moe_serving.hpp"
#include "net/collab.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "sim/driver_util.hpp"

namespace teamnet::load {

namespace {

/// Coarse decade edges (ms) for the always-on metrics-registry histogram.
/// Fixed independently of LoadConfig::histogram so repeated runs in one
/// process (different layouts) never trip the registry's same-name /
/// same-edges invariant; the fine-grained percentiles come from the
/// per-run LatencyHistogram instead.
const std::vector<double>& metrics_latency_edges() {
  static const std::vector<double> edges{0.1, 1.0, 10.0, 100.0, 1e3, 1e4};
  return edges;
}

/// Degradation level for a record, normalized across result types.
int result_degradation(const net::CollaborativeMaster::Result& r) {
  return static_cast<int>(r.degradation);
}
int result_degradation(const moe::MoeMaster::Result& r) {
  // SG-MoE has no quorum; local fallback is its (only) degraded mode.
  return r.fallback_rows > 0 ? 1 : 0;
}

/// The protocol plumbing is identical for both serving paths — only master
/// construction and the expert each worker serves differ, so both arrive
/// as callables. `make_master(channels)` returns a unique_ptr to a master
/// with infer/shutdown/set_compute_hook/fleet() (CollaborativeMaster and
/// MoeMaster share that surface by convention; fleet() is the shared
/// net::WorkerFleet both serve through).
template <typename GetExpert, typename MakeMaster>
LoadResult run_load_generic(const std::string& approach, int k,
                            GetExpert get_expert, const data::Dataset& test,
                            const sim::ScenarioConfig& config,
                            const LoadConfig& load, MakeMaster make_master) {
  TEAMNET_CHECK(k >= 2);
  TEAMNET_CHECK_MSG(load.num_queries >= 1, "load.num_queries must be >= 1");
  TEAMNET_CHECK_MSG(
      load.warmup_queries >= 0 && load.warmup_queries < load.num_queries,
      "warmup_queries must be in [0, num_queries)");

  obs::Tracer::instance().begin_epoch(approach + "-load");
  sim::SimNetOptions opts;
  opts.grant_policy = config.grant_policy;
  opts.schedule_seed = config.schedule_seed;
  opts.schedule_slack_s = config.schedule_slack_s;
  auto net = sim::make_sim_net(config.scheduler, k, config.link, opts);
  sim::SimNet* netp = net.get();

  std::atomic<double> master_compute{0.0};
  std::vector<std::thread> threads;
  std::vector<std::unique_ptr<net::CollaborativeWorker>> workers;
  for (int i = 1; i < k; ++i) {
    workers.push_back(std::make_unique<net::CollaborativeWorker>(
        get_expert(i), net->channel(i, 0)));
    workers.back()->set_compute_hook(
        sim::make_compute_hook(*net, i, config.device, nullptr));
    workers.back()->set_time_source([netp, i] { return netp->node_time(i); });
    workers.back()->set_trace_node(i);
    threads.push_back(sim::spawn_sim_worker(
        *net, i, [w = workers.back().get()] { w->serve(); }));
  }

  std::vector<net::Channel*> worker_channels;
  for (int i = 1; i < k; ++i) {
    worker_channels.push_back(&net->channel(0, i));
  }
  auto master = make_master(worker_channels);
  master->set_compute_hook(
      sim::make_compute_hook(*net, 0, config.device, &master_compute));
  // The master publishes timeline marks through its time source; the
  // steady-clock default would stamp wall time into a virtual-clock run.
  // Behavior-neutral otherwise: with timeout 0 no deadline ever reads it.
  master->fleet().set_time_source([netp] { return netp->node_time(0); });
  master->fleet().set_flow_trace(true);
  if (load.worker_timeout_s > 0.0) {
    master->fleet().set_worker_timeout(load.worker_timeout_s);
  }

  obs::TraceTrack track(0, [netp] { return netp->node_time(0); }, "master");
  const auto rows =
      sample_load_rows(test, load.num_queries, load.query_seed,
                       load.zipf_exponent);
  auto process = make_arrival_process(load.arrival);

  auto& registry = obs::MetricsRegistry::instance();
  auto& arrivals_counter = registry.counter("load.arrivals");
  auto& completions_counter = registry.counter("load.completions");
  auto& latency_histogram =
      registry.histogram("load.latency_ms", metrics_latency_edges());

  std::vector<QueryRecord> records;
  records.reserve(rows.size());
  int correct = 0;
  const std::int64_t bytes_before = net->bytes_delivered();
  const std::int64_t msgs_before = net->messages_delivered();
  auto& recorder = obs::TimelineRecorder::instance();
  recorder.start();
  try {
    for (std::size_t q = 0; q < rows.size(); ++q) {
      const double now = net->node_time(0);
      const double t_arrival = process->next_arrival(now);
      // Open-loop: an arrival in the past means the query queued while the
      // master was busy — serve immediately, latency absorbs the wait. An
      // arrival in the future means the master idles until it.
      if (t_arrival > now) net->advance(0, t_arrival - now);
      arrivals_counter.increment();
      obs::trace_instant("load.arrival");
      recorder.note_arrival(t_arrival);
      auto res = master->infer(sim::query_row_tensor(test, rows[q]));
      const double t_completion = net->node_time(0);
      process->on_complete(t_completion);
      completions_counter.increment();
      latency_histogram.observe(1e3 * (t_completion - t_arrival));

      QueryRecord record;
      record.arrival_s = t_arrival;
      record.completion_s = t_completion;
      record.row = rows[q];
      record.correct =
          res.predictions[0] ==
          test.labels[static_cast<std::size_t>(rows[q])];
      record.degradation = result_degradation(res);
      if (record.correct) ++correct;
      records.push_back(record);
    }
  } catch (...) {
    recorder.stop();
    recorder.take();
    net->close_all();
    net->retire(0);
    for (auto& t : threads) t.join();
    throw;
  }
  const std::int64_t bytes_used = net->bytes_delivered() - bytes_before;
  const std::int64_t msgs_used = net->messages_delivered() - msgs_before;
  master->shutdown();
  net->retire(0);
  for (auto& t : threads) t.join();
  recorder.stop();
  const std::vector<obs::QueryTimeline> timelines = recorder.take();

  LoadResult result;
  result.schedule_digest = net->finish();
  result.approach = approach;
  result.num_nodes = k;
  result.arrival = process->name();
  result.num_queries = load.num_queries;
  result.warmup_queries = load.warmup_queries;
  result.records = std::move(records);

  // Attribute every query's latency. Query ids are the master's monotone
  // sequence starting at 1, so records[q] is qid q+1; a qid the recorder
  // never saw (cannot happen on the in-process paths) degrades to an
  // all-zero attribution rather than misaligning the join.
  result.attributions.reserve(result.records.size());
  std::size_t ti = 0;
  for (std::size_t q = 0; q < result.records.size(); ++q) {
    const auto qid = static_cast<std::int64_t>(q) + 1;
    while (ti < timelines.size() && timelines[ti].qid < qid) ++ti;
    if (ti < timelines.size() && timelines[ti].qid == qid) {
      result.attributions.push_back(obs::attribute(timelines[ti]));
    } else {
      obs::QueryAttribution missing;
      missing.qid = qid;
      result.attributions.push_back(missing);
    }
  }

  const std::size_t warmup = static_cast<std::size_t>(load.warmup_queries);
  result.warmup = make_phase_stats(result.records, 0, warmup, load.histogram);
  result.steady = make_phase_stats(result.records, warmup,
                                   result.records.size(), load.histogram);
  result.offered_qps = result.steady.offered_qps();
  result.achieved_qps = result.steady.achieved_qps();
  result.p50_ms = result.steady.latency.percentile(50.0);
  result.p90_ms = result.steady.latency.percentile(90.0);
  result.p99_ms = result.steady.latency.percentile(99.0);
  result.p999_ms = result.steady.latency.percentile(99.9);
  result.mean_ms = result.steady.latency.mean();
  result.max_ms = result.steady.latency.max();
  result.mean_inflight = result.steady.mean_inflight();
  result.accuracy_pct = 100.0 * static_cast<double>(correct) /
                        static_cast<double>(load.num_queries);
  result.bytes_per_query =
      static_cast<double>(bytes_used) / load.num_queries;
  result.messages_per_query =
      static_cast<double>(msgs_used) / load.num_queries;
  registry.gauge("load.achieved_qps").set(result.achieved_qps);
  registry.gauge("load.offered_qps").set(result.offered_qps);
  registry.gauge("load.mean_inflight").set(result.mean_inflight);
  registry.gauge("load.steady_window_s").set(result.steady.duration_s());
  registry.gauge("load.steady_queries")
      .set(static_cast<double>(result.steady.queries));
  // Export the steady-phase distribution at full resolution (the always-on
  // "load.latency_ms" above keeps coarse decade edges). Guarded on the
  // default layout: a same-process run with a custom layout would otherwise
  // trip the registry's same-name/same-edges invariant.
  if (load.histogram == LatencyHistogram::Config{}) {
    auto& steady_histogram = registry.histogram(
        "load.steady_latency_ms", result.steady.latency.upper_edges());
    const auto& edges = result.steady.latency.upper_edges();
    const auto counts = result.steady.latency.bucket_counts();
    for (std::size_t b = 0; b < counts.size(); ++b) {
      // Placing each bucket at its inclusive upper edge reproduces the
      // counts exactly (both histograms bucket by lower_bound); overflow
      // goes past the last edge.
      const double at = b < edges.size() ? edges[b] : edges.back() * 2.0;
      steady_histogram.observe_n(at, counts[b]);
    }
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
  TEAMNET_CHECK(experts.size() >= 2);
  return run_load_generic(
      "TeamNet", static_cast<int>(experts.size()),
      [&experts](int i) -> nn::Module& {
        return *experts[static_cast<std::size_t>(i)];
      },
      test, config, load,
      [&experts, &load](const std::vector<net::Channel*>& channels) {
        auto master = std::make_unique<net::CollaborativeMaster>(*experts[0],
                                                                 channels);
        if (load.gather_quorum > 0) {
          master->set_gather_quorum(load.gather_quorum);
        }
        return master;
      });
}

LoadResult run_sg_moe_load(moe::SgMoe& model, const data::Dataset& test,
                           const sim::ScenarioConfig& config,
                           const LoadConfig& load) {
  return run_load_generic(
      "SG-MoE", model.num_experts(),
      [&model](int i) -> nn::Module& { return model.expert(i); },
      test, config, load,
      [&model](const std::vector<net::Channel*>& channels) {
        return std::make_unique<moe::MoeMaster>(model, channels);
      });
}

}  // namespace teamnet::load
