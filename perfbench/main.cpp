// perfbench: the repository's end-to-end benchmark (see README.md here).
//
//   perfbench prepare --cache DIR
//   perfbench run --workload NAME --seed N --seconds S --trace 0|1
//                 --cache DIR [--spans FILE] [--revision REV]
//
// `run` prints a table of every metric with its unit, clock and sample
// count, then, as its last line, one JSON object: {"correct", "attempted",
// "failed", "metrics"} — end-to-end metrics with --trace 0, per-layer
// metrics with --trace 1. It refuses to time a process that had to train.
#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "layers.hpp"
#include "load/breakdown.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace teamnet::perfbench {
namespace {

namespace fs = std::filesystem;

constexpr int kSetups = 9;  // set-up is repeated; setup_s is the median
constexpr int kShortQueries = 200;  // queries per host-timing replay
constexpr int kMinRounds = 4;       // host-timing rounds, however slow

struct Args {
  std::string command;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string cache;
  std::string spans_path;
  std::string revision = "unknown";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string clock;  ///< "virtual", "host" or "count"
  std::int64_t samples = 0;
  /// In the result JSON (BENCHMARK.json lists it). Unlisted metrics are
  /// printed only: they read 0 or a structural constant on some workload,
  /// which neither a relative bound nor a spread can judge.
  bool listed = true;
};

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: perfbench prepare --cache DIR\n"
               "       perfbench run --workload NAME --seed N --seconds S "
               "--trace 0|1 --cache DIR [--spans FILE] [--revision REV]\n");
  std::exit(2);
}

Args parse(int argc, char** argv) {
  if (argc < 2) usage();
  Args a;
  a.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage();
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::stoull(v);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(v);
    } else if (flag == "--trace") {
      a.trace = v == "1";
    } else if (flag == "--cache") {
      a.cache = v;
    } else if (flag == "--spans") {
      a.spans_path = v;
    } else if (flag == "--revision") {
      a.revision = v;
    } else {
      usage();
    }
  }
  if (a.cache.empty() || (a.command != "prepare" && a.command != "run")) {
    usage();
  }
  if (a.command == "run" && (a.workload.empty() || a.seconds <= 0.0)) usage();
  return a;
}

/// Name, size and modification time of every file in the model cache: any
/// difference after set-up means a model was trained in this process.
std::string cache_fingerprint(const std::string& dir) {
  std::map<std::string, std::string> files;
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(dir, ec)) {
    struct stat st {};
    if (::stat(e.path().c_str(), &st) != 0) continue;
    files[e.path().filename().string()] =
        std::to_string(st.st_size) + "@" + std::to_string(st.st_mtim.tv_sec) +
        "." + std::to_string(st.st_mtim.tv_nsec);
  }
  std::string out;
  for (const auto& [name, stamp] : files) out += name + "=" + stamp + ";";
  return out;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string provenance_json(const Args& a) {
  char buf[1024];
  std::snprintf(
      buf, sizeof buf,
      "{\"compiler\": \"%s\", \"flags\": \"%s\", \"build_type\": \"%s\", "
      "\"revision\": \"%s\", \"nproc\": %u, \"workload\": \"%s\", "
      "\"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
      "\"scheduler\": \"discrete_event\", \"grant_policy\": \"canonical\"}",
      json_escape(PERFBENCH_COMPILER).c_str(),
      json_escape(PERFBENCH_FLAGS).c_str(),
      json_escape(PERFBENCH_BUILD_TYPE).c_str(),
      json_escape(a.revision).c_str(), std::thread::hardware_concurrency(),
      json_escape(a.workload).c_str(),
      static_cast<unsigned long long>(a.seed), a.seconds, a.trace ? 1 : 0);
  return buf;
}

void print_table(const char* title, const std::vector<Metric>& metrics) {
  std::printf("\n%s (* = printed only)\n  %-34s %16s  %-10s %-8s %8s\n", title,
              "metric", "value", "unit", "clock", "samples");
  for (const auto& m : metrics) {
    std::printf("%c %-34s %16.6g  %-10s %-8s %8lld\n", m.listed ? ' ' : '*',
                m.name.c_str(), m.value, m.unit.c_str(), m.clock.c_str(),
                static_cast<long long>(m.samples));
  }
}

std::string result_json(bool correct, std::int64_t attempted,
                        std::int64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  const char* sep = "\"";
  for (const auto& m : metrics) {
    if (!m.listed) continue;
    char buf[128];
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    out += sep + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           m.unit + "\"}";
    sep = ", \"";
  }
  return out + "}}";
}

int run(const Args& a) {
  const WorkloadSpec* spec = find_workload(a.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 a.workload.c_str());
    return 2;
  }
  const std::string before = cache_fingerprint(a.cache);
  if (before.empty()) {
    std::fprintf(stderr,
                 "perfbench: model cache %s is empty; run `perfbench prepare` "
                 "first\n",
                 a.cache.c_str());
    return 3;
  }
  const std::string provenance = provenance_json(a);
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\nprovenance %s\n",
              spec->name.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds, a.trace ? 1 : 0, provenance.c_str());

  SpanRecorder spans(a.trace);
  const int root = spans.open("workload");

  // ---- set-up: dataset synthesis + model load + TCP fleet connect --------
  std::vector<double> setup_times;
  std::unique_ptr<Loaded> loaded;
  for (int i = 0; i < kSetups; ++i) {
    loaded.reset();  // tear the previous fleet down outside the clock
    ScopedSpan span(spans, "setup", root);
    const double t0 = wall_now_s();
    loaded = load_workload(*spec, a.cache);
    setup_times.push_back(wall_now_s() - t0);
  }
  if (cache_fingerprint(a.cache) != before) {
    std::fprintf(stderr,
                 "perfbench: a model had to be trained in this process; its "
                 "set-up time is not comparable. Run `perfbench prepare`.\n");
    return 3;
  }
  compute_reference(*spec, *loaded);

  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  // ---- measurement ---------------------------------------------------------
  // One full modelled replay gives every sim_* metric. Short replays of the
  // same seed (a prefix of the same queries) then alternate with chunks of
  // the real TCP leg until the budget is spent, so host_* and wall_* are
  // medians/percentiles over samples spread across the whole window.
  const double budget = (a.trace ? 0.7 : 1.0) * a.seconds;
  const double start = wall_now_s();
  std::vector<double> host_us, cpu_us, vcsw, traced_us, untraced_us;
  auto sample_host = [&](const DesReplay& rep, bool traced) {
    const double n = static_cast<double>(rep.result.num_queries);
    host_us.push_back(1e6 * rep.wall_s / n);
    cpu_us.push_back(1e6 * rep.cpu_s / n);
    vcsw.push_back(rep.vcsw / n);
    (traced ? traced_us : untraced_us).push_back(host_us.back());
    attempted += rep.result.num_queries;
  };

  DesReplay full = run_des(*spec, *loaded, a.seed, spec->num_queries);
  sample_host(full, false);
  const load::LoadResult& first = full.result;
  failed += des_mismatches(*loaded, first);

  const auto warmup = static_cast<std::size_t>(first.warmup_queries);
  std::vector<int> rows;
  std::vector<double> sim_ms;
  std::int64_t des_degraded = 0;
  for (std::size_t i = 0; i < first.records.size(); ++i) {
    const auto& r = first.records[i];
    rows.push_back(r.row);
    if (r.degradation != 0) ++des_degraded;
    if (i >= warmup) sim_ms.push_back(1e3 * (r.completion_s - r.arrival_s));
  }

  TcpRun tcp;
  std::uint64_t short_digest = 0;
  for (int i = 0; i < kMinRounds || wall_now_s() - start < budget; ++i) {
    const bool traced = a.trace && i % 2 == 1;
    const int des_span = traced ? spans.open("serve.des", root) : -1;
    DesReplay rep = run_des(*spec, *loaded, a.seed, kShortQueries);
    spans.close(des_span);
    sample_host(rep, traced);
    failed += prefix_mismatches(first, rep.result);
    if (i == 0) short_digest = rep.result.schedule_digest;
    if (rep.result.schedule_digest != short_digest) failed += kShortQueries;

    // About 30% of each round goes to the real leg.
    ScopedSpan tcp_span(spans, "serve.tcp", root);
    run_tcp(*loaded, rows, 0.45 * rep.wall_s, tcp);
  }
  attempted += static_cast<std::int64_t>(tcp.latency_us.size());
  failed += tcp.mismatches;

  const Sampled setup = median(setup_times);
  const Sampled host = median(host_us);
  const Sampled cpu = median(cpu_us);
  const Sampled p50 = nearest_rank(sim_ms, 50.0);
  double sim_mean = 0.0;
  for (double v : sim_ms) sim_mean += v / static_cast<double>(sim_ms.size());
  const Sampled p99 = nearest_rank(sim_ms, 99.0);
  const Sampled w50 = nearest_rank(tcp.latency_us, 50.0);
  const Sampled w99 = nearest_rank(tcp.latency_us, 99.0);
  const Sampled goodput = slo_goodput_qps(first.records, warmup, kSloS);
  const auto steady = static_cast<std::int64_t>(first.steady.queries);
  const auto served = static_cast<std::int64_t>(first.records.size()) +
                      static_cast<std::int64_t>(tcp.latency_us.size());
  const std::vector<Metric> e2e = {
      {"setup_s", setup.value, "s", "host", setup.samples},
      // Wall time doubles in episodes when a shared host is slow to wake
      // idle vCPUs, while CPU time holds (measured on a 4-vCPU VM): the
      // CPU figure is gated, the wall figure printed.
      {"host_us_per_query", host.value, "us", "host", host.samples, false},
      {"host_cpu_us_per_query", cpu.value, "us", "host", cpu.samples},
      {"peak_rss_mb", peak_rss_mb(), "MB", "host", 1},
      {"sim_achieved_qps", first.achieved_qps, "1/s", "virtual", steady},
      {"sim_mean_ms", sim_mean, "ms", "virtual", p50.samples},
      // Below capacity the median query never waits, so p50 is the fixed
      // service latency on quorum_light_k4: printed only.
      {"sim_p50_ms", p50.value, "ms", "virtual", p50.samples, false},
      {"sim_p99_ms", p99.value, "ms", "virtual", p99.samples},
      {"accuracy_pct", first.accuracy_pct, "%", "count",
       static_cast<std::int64_t>(first.records.size())},
      {"wire_bytes_per_query", first.bytes_per_query, "B", "virtual",
       static_cast<std::int64_t>(first.records.size())},
      {"wall_p50_us", w50.value, "us", "host", w50.samples},
      // The real tail swings with other tenants of a shared host (p90-p99
      // spreads of 30% to 3x between runs): printed only.
      {"wall_p99_us", w99.value, "us", "host", w99.samples, false},
      // No steady query meets the SLO under overload, and fault-free
      // gathers are rarely degraded: both read 0 on some workload.
      {"sim_slo_goodput_qps", goodput.value, "1/s", "virtual",
       goodput.samples, false},
      {"degraded_pct",
       100.0 * static_cast<double>(des_degraded + tcp.degraded) /
           static_cast<double>(served),
       "%", "count", served, false},
  };
  print_table("end-to-end", e2e);

  std::vector<Metric> per_layer;
  if (a.trace) {
    const int layers_span = spans.open("layers", root);
    const LayerReport lr =
        measure_layers(*spec, *loaded, rows, 0.25 * a.seconds, spans,
                       layers_span);
    spans.close(layers_span);
    failed += lr.mismatches;
    attempted += lr.replayed_queries;

    const double t0 = wall_now_s();
    const load::BreakdownSummary summary = load::summarize_attributions(
        first.attributions, warmup, load::LatencyHistogram::Config{});
    const double attribution_us =
        1e6 * (wall_now_s() - t0) / static_cast<double>(summary.queries);

    std::vector<double> slack_ms;
    for (std::size_t i = warmup; i < first.attributions.size(); ++i) {
      for (auto ns : first.attributions[i].straggler_slack_ns) {
        slack_ms.push_back(1e-6 * static_cast<double>(ns));
      }
    }
    const Sampled slack = nearest_rank(slack_ms, 50.0);
    const auto costs = layer_costs(lr);
    const double residual = residual_us_per_query(host.value, costs);
    const Sampled vcsw_q = median(vcsw);
    const Sampled traced = median(traced_us);
    const Sampled untraced = median(untraced_us);
    const double received =
        static_cast<double>(tcp.counted_replies + tcp.stale_replies);
    const auto nq = static_cast<std::int64_t>(first.records.size());
    const auto tq = static_cast<std::int64_t>(tcp.latency_us.size());
    const auto lq = lr.replayed_queries;

    per_layer = {
        {"des.vcsw_per_query", vcsw_q.value, "count", "host", vcsw_q.samples},
        {"des.engine_ns_per_msg", lr.engine_ns_per_msg, "ns", "host", 1},
        {"des.residual_us_per_query", residual, "us", "host", host.samples},
        {"tensor.gemm_gflops", lr.gemm_gflops, "GFLOP/s", "host", 1},
        {"nn.expert_predict_us", lr.predict_us, "us", "host",
         static_cast<std::int64_t>(lr.predicts_per_query *
                                   static_cast<double>(lq))},
        {"nn.expert_mflop_per_query", lr.mflop_per_query, "MFLOP", "count",
         lq},
        {"net.encode_ns_per_byte", lr.encode_ns_per_byte, "ns/B", "host", lq},
        {"net.decode_ns_per_byte", lr.decode_ns_per_byte, "ns/B", "host", lq},
        {"net.msgs_per_query", first.messages_per_query, "count", "virtual",
         nq},
        {"tcp.roundtrip_us", lr.tcp_roundtrip_us, "us", "host", 1},
        {"crit.queueing_share", summary.kind_share(obs::CritKind::queueing),
         "ratio", "virtual", summary.queries},
        {"crit.serialization_share",
         summary.kind_share(obs::CritKind::serialization), "ratio", "virtual",
         summary.queries, false},
        {"crit.compute_share", summary.kind_share(obs::CritKind::compute),
         "ratio", "virtual", summary.queries},
        {"crit.transit_share", summary.kind_share(obs::CritKind::transit),
         "ratio", "virtual", summary.queries},
    };
    for (int p = 0; p < obs::kNumAttrPhases; ++p) {
      const auto phase = static_cast<obs::AttrPhase>(p);
      // Only the queue wait varies with the seed; the other phases are 0
      // or fixed by the link and device models on some workload.
      per_layer.push_back({std::string("crit.") + obs::to_string(phase) + "_ms",
                           crit_phase_mean_ms(summary, phase), "ms", "virtual",
                           summary.queries,
                           phase == obs::AttrPhase::master_queue});
    }
    const std::vector<Metric> rest = {
        {"gather.useful_reply_ratio",
         received > 0 ? static_cast<double>(tcp.counted_replies) / received
                      : 1.0,
         "ratio", "count", tq},
        {"gather.straggler_slack_p50_ms", slack.value, "ms", "virtual",
         slack.samples, false},
        {"load.mean_inflight", first.mean_inflight, "count", "virtual",
         steady},
        {"gate.select_us", lr.select_us, "us", "host", lq},
        {"gate.remote_share", lr.remote_share, "ratio", "count", lq},
        {"obs.attribution_us_per_query", attribution_us, "us", "host",
         summary.queries},
        {"obs.trace_overhead_pct",
         100.0 * (traced.value - untraced.value) / untraced.value, "%", "host",
         traced.samples + untraced.samples},
    };
    per_layer.insert(per_layer.end(), rest.begin(), rest.end());
    print_table("per-layer", per_layer);

    std::printf("\nshare of host_us_per_query (%.1f us):\n", host.value);
    for (const auto& c : costs) {
      std::printf("  %-20s %10.2f us  %6.1f%%\n", c.layer.c_str(),
                  c.us_per_query(), 100.0 * c.us_per_query() / host.value);
    }
    std::printf("  %-20s %10.2f us  %6.1f%%\n", "residual", residual,
                100.0 * residual / host.value);
    std::printf("  (des.engine alone: %.2f us per query at %.0f msgs)\n",
                1e-3 * lr.engine_ns_per_msg * lr.engine_msgs_per_query,
                lr.engine_msgs_per_query);
    std::printf("\ncritical path kinds:");
    for (int k = 0; k < obs::kNumCritKinds; ++k) {
      const auto kind = static_cast<obs::CritKind>(k);
      std::printf(" %s=%.3f", obs::to_string(kind), summary.kind_share(kind));
    }
    std::printf("\n");
  }
  spans.close(root);

  if (a.trace) {
    std::printf("\nspan self time (ms):\n");
    for (const auto& [name, s] : self_time_by_name(spans.spans())) {
      std::printf("  %-20s %12.3f\n", name.c_str(), 1e3 * s);
    }
    if (!a.spans_path.empty()) {
      if (!spans.write(a.spans_path, provenance)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     a.spans_path.c_str());
        return 1;
      }
      std::printf("spans written to %s\n", a.spans_path.c_str());
    }
  }

  const auto& reported = a.trace ? per_layer : e2e;
  bool finite = true;
  for (const auto& m : reported) {
    finite = finite && (!m.listed || std::isfinite(m.value));
  }
  std::printf("\ncorrectness: %lld attempted, %lld failed\n",
              static_cast<long long>(attempted),
              static_cast<long long>(failed));
  std::printf("%s\n",
              result_json(finite && failed == 0, attempted, failed, reported)
                  .c_str());
  return 0;
}

}  // namespace
}  // namespace teamnet::perfbench

int main(int argc, char** argv) {
  using namespace teamnet::perfbench;
  try {
    const Args args = parse(argc, argv);
    if (args.command == "prepare") {
      std::filesystem::create_directories(args.cache);
      prepare_models(args.cache);
      std::printf("perfbench: models ready in %s\n", args.cache.c_str());
      return 0;
    }
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
