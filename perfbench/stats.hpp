// The benchmark's own arithmetic: exact nearest-rank percentiles, medians,
// SLO goodput, the per-layer residual and per-phase critical-path means.
// Header-only and free of I/O so selftest.cpp can check every formula on
// hand-built inputs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "load/breakdown.hpp"
#include "load/stats.hpp"
#include "obs/critpath.hpp"

namespace teamnet::perfbench {

/// A statistic together with the number of samples it was computed from.
struct Sampled {
  double value = 0.0;
  std::int64_t samples = 0;
};

/// Nearest-rank percentile: the smallest sample such that at least p% of
/// the samples are <= it (rank ceil(p/100 * n), 1-based). Exact — no
/// histogram buckets — so it moves with every sample. Empty input gives
/// {0, 0}.
inline Sampled nearest_rank(std::vector<double> samples, double p) {
  Sampled out;
  out.samples = static_cast<std::int64_t>(samples.size());
  if (samples.empty()) return out;
  const auto n = static_cast<double>(samples.size());
  auto rank = static_cast<std::int64_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<std::int64_t>(rank, 1, out.samples);
  const auto idx = static_cast<std::size_t>(rank - 1);
  std::nth_element(samples.begin(), samples.begin() + static_cast<long>(idx),
                   samples.end());
  out.value = samples[idx];
  return out;
}

/// Median of repeated measurements (mean of the middle two for even n).
inline Sampled median(std::vector<double> samples) {
  Sampled out;
  out.samples = static_cast<std::int64_t>(samples.size());
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  out.value = n % 2 == 1 ? samples[n / 2]
                         : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
  return out;
}

/// Steady-phase queries that completed within `slo_s` at full quality, per
/// second of the steady window [first steady arrival, last steady
/// completion]. A degraded query (degradation != 0) is a miss even when it
/// was fast. Records before `warmup` are excluded.
inline Sampled slo_goodput_qps(const std::vector<load::QueryRecord>& records,
                               std::size_t warmup, double slo_s) {
  Sampled out;
  if (records.size() <= warmup) return out;
  double start = records[warmup].arrival_s;
  double end = start;
  std::int64_t good = 0;
  for (std::size_t i = warmup; i < records.size(); ++i) {
    const auto& r = records[i];
    start = std::min(start, r.arrival_s);
    end = std::max(end, r.completion_s);
    if (r.degradation == 0 && r.completion_s - r.arrival_s <= slo_s) ++good;
  }
  out.samples = static_cast<std::int64_t>(records.size() - warmup);
  out.value = end > start ? static_cast<double>(good) / (end - start) : 0.0;
  return out;
}

/// One isolated layer's cost and how often one served query calls it.
struct LayerCost {
  std::string layer;
  double us_per_call = 0.0;
  double calls_per_query = 0.0;
  double us_per_query() const { return us_per_call * calls_per_query; }
};

/// Host time per query that the isolated layer costs do not explain:
/// host_us_per_query - sum(us_per_call * calls_per_query). Negative when
/// the isolated calls cost more than they do inside the serving path.
inline double residual_us_per_query(double host_us_per_query,
                                    const std::vector<LayerCost>& layers) {
  double explained = 0.0;
  for (const auto& l : layers) explained += l.us_per_query();
  return host_us_per_query - explained;
}

/// Mean critical-path contribution of `phase` per summarized query, in ms.
inline double crit_phase_mean_ms(const load::BreakdownSummary& summary,
                                 obs::AttrPhase phase) {
  if (summary.queries <= 0) return 0.0;
  const auto& p = summary.phases[static_cast<std::size_t>(phase)];
  return 1e-6 * static_cast<double>(p.crit_sum_ns) /
         static_cast<double>(summary.queries);
}

}  // namespace teamnet::perfbench
