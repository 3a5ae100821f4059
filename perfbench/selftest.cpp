// Self-tests for the benchmark's own arithmetic (stats.hpp, spans.hpp).
// Run: `python3 perfbench/run.py --self-test` (it also runs before every
// benchmark run); exit 0 = all checks pass.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "spans.hpp"
#include "stats.hpp"

using namespace teamnet;
using namespace teamnet::perfbench;

namespace {

int g_failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::printf("FAIL %s\n", what.c_str());
  }
}

bool near(double a, double b) { return std::fabs(a - b) <= 1e-9 * (1 + std::fabs(b)); }

load::QueryRecord rec(double arrival, double completion, int degradation = 0) {
  load::QueryRecord r;
  r.arrival_s = arrival;
  r.completion_s = completion;
  r.degradation = degradation;
  return r;
}

void test_nearest_rank() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // 1..100, unsorted
  check(near(nearest_rank(v, 50).value, 50), "p50 of 1..100 is 50");
  check(near(nearest_rank(v, 99).value, 99), "p99 of 1..100 is 99");
  check(near(nearest_rank(v, 100).value, 100), "p100 is the max");
  check(near(nearest_rank(v, 0).value, 1), "p0 clamps to the min");
  check(nearest_rank(v, 99).samples == 100, "sample count carried");
  // Ten samples: p99 is rank ceil(9.9) = 10, the max; p90 is rank 9.
  std::vector<double> ten = {5, 3, 9, 1, 7, 2, 8, 4, 10, 6};
  check(near(nearest_rank(ten, 99).value, 10), "p99 of 10 is the max");
  check(near(nearest_rank(ten, 90).value, 9), "p90 of 10 is rank 9");
  check(near(nearest_rank(ten, 50).value, 5), "p50 of 10 is rank 5");
  const Sampled empty = nearest_rank({}, 50);
  check(empty.samples == 0 && empty.value == 0.0, "empty input");
}

void test_median() {
  check(near(median({3, 1, 2}).value, 2), "odd median");
  check(near(median({4, 1, 3, 2}).value, 2.5), "even median");
  check(median({4, 1, 3, 2}).samples == 4, "median count");
}

void test_goodput() {
  // Warmup record (excluded) then four steady records over [1.0, 3.0]:
  // one fast, one slow, one fast but degraded, one fast.
  std::vector<load::QueryRecord> r = {
      rec(0.0, 0.01),          // warmup
      rec(1.0, 1.02),          // good
      rec(1.5, 1.6),           // 100 ms: misses the 50 ms SLO
      rec(2.0, 2.01, 1),       // fast but quorum-degraded: a miss
      rec(2.9, 3.0),           // 100 ms: miss
      rec(2.95, 2.99),         // good (40 ms)
  };
  const Sampled g = slo_goodput_qps(r, 1, 0.050);
  check(g.samples == 5, "goodput counts steady queries");
  check(near(g.value, 2.0 / 2.0), "2 good queries over a 2 s window");
  const Sampled none = slo_goodput_qps(r, 6, 0.050);
  check(none.samples == 0 && none.value == 0.0, "no steady queries");
  // A query exactly at the SLO counts as met (binary-exact times).
  std::vector<load::QueryRecord> edge = {rec(0.0, 0.0625), rec(1.0, 1.0625)};
  check(near(slo_goodput_qps(edge, 0, 0.0625).value, 2.0 / 1.0625),
        "latency == SLO meets it");
}

void test_residual() {
  const std::vector<LayerCost> layers = {
      {"nn.predict", 34.0, 8.0},   // 272 us
      {"gate.select", 3.0, 1.0},   // 3 us
      {"net.codec", 10.5, 1.0},    // 10.5 us
  };
  check(near(residual_us_per_query(2500.0, layers), 2500.0 - 285.5),
        "residual subtracts calls x cost");
  check(near(residual_us_per_query(100.0, layers), 100.0 - 285.5),
        "residual may be negative");
  check(near(residual_us_per_query(42.0, {}), 42.0), "no layers: all residual");
}

void test_phase_means() {
  load::BreakdownSummary s;
  s.queries = 4;
  s.phases[static_cast<std::size_t>(obs::AttrPhase::master_queue)].crit_sum_ns =
      8'000'000;  // 8 ms over 4 queries
  s.phases[static_cast<std::size_t>(obs::AttrPhase::reply_transit)]
      .crit_sum_ns = 2'000'000;
  check(near(crit_phase_mean_ms(s, obs::AttrPhase::master_queue), 2.0),
        "queue mean 2 ms");
  check(near(crit_phase_mean_ms(s, obs::AttrPhase::reply_transit), 0.5),
        "transit mean 0.5 ms");
  check(near(crit_phase_mean_ms(s, obs::AttrPhase::argmin), 0.0),
        "absent phase is 0");
  load::BreakdownSummary empty;
  check(near(crit_phase_mean_ms(empty, obs::AttrPhase::master_queue), 0.0),
        "no queries");
}

void test_self_time() {
  std::vector<Span> spans = {
      {"root", 0.0, 10.0, -1, -1},
      {"a", 1.0, 3.0, 0, 7},
      {"b", 4.0, 8.0, 0, 7},
      {"a.child", 1.5, 2.0, 1, 7},
  };
  const std::vector<double> self = self_times_s(spans);
  check(near(self[0], 10.0 - 2.0 - 4.0), "root self time");
  check(near(self[1], 2.0 - 0.5), "nested self time");
  check(near(self[3], 0.5), "leaf self time");
  // Overlapping children are covered once.
  const std::vector<Span> overlap = {
      {"root", 0.0, 10.0, -1, -1}, {"x", 1.0, 5.0, 0, -1}, {"y", 3.0, 6.0, 0, -1}};
  check(near(self_times_s(overlap)[0], 10.0 - 5.0), "overlap covered once");
  const auto by_name = self_time_by_name(spans);
  check(near(by_name.at("b"), 4.0), "self time by name");
}

}  // namespace

int main() {
  test_nearest_rank();
  test_median();
  test_goodput();
  test_residual();
  test_phase_means();
  test_self_time();
  if (g_failures == 0) std::printf("perfbench self-test: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
