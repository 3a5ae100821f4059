// In-memory host-clock spans for the traced run. Each span has a name, a
// start and end on the steady clock, the span that caused it and the query
// (dataset row) it served; nothing is written until the run ends.
// Single-threaded: the benchmark opens and closes spans from its own
// driver thread only, so children never overlap one another.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace teamnet::perfbench {

struct Span {
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  int parent = -1;         ///< index of the causing span, -1 for a root
  std::int64_t qid = -1;   ///< query (dataset row) the span served, -1 none
};

/// Self time of every span: its duration minus the part of it its direct
/// children cover.
inline std::vector<double> self_times_s(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const auto& s : spans) {
    if (s.parent >= 0) {
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_s, s.end_s);
    }
  }
  std::vector<double> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& k = kids[i];
    std::sort(k.begin(), k.end());
    double covered = 0.0;
    double cursor = spans[i].start_s;
    for (const auto& [a, b] : k) {
      const double lo = std::max(a, cursor);
      const double hi = std::min(b, spans[i].end_s);
      if (hi > lo) covered += hi - lo;
      cursor = std::max(cursor, b);
    }
    out[i] = (spans[i].end_s - spans[i].start_s) - covered;
  }
  return out;
}

/// Self time summed per span name, seconds.
inline std::map<std::string, double> self_time_by_name(
    const std::vector<Span>& spans) {
  const std::vector<double> self = self_times_s(spans);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) out[spans[i].name] += self[i];
  return out;
}

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled)
      : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

  /// Opens a span; returns its id (-1 when recording is off).
  int open(std::string name, int parent = -1, std::int64_t qid = -1) {
    if (!enabled_) return -1;
    spans_.push_back({std::move(name), now_s(), 0.0, parent, qid});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end_s = now_s();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes the spans as a JSON array (times in microseconds since the
  /// recorder started) after a `header` object. Returns false on I/O error.
  bool write(const std::string& path, const std::string& header) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"provenance\": %s,\n\"spans\": [\n", header.c_str());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const auto& s = spans_[i];
      std::fprintf(f,
                   "  {\"id\": %zu, \"name\": \"%s\", \"start_us\": %.3f, "
                   "\"end_us\": %.3f, \"parent\": %d, \"qid\": %lld}%s\n",
                   i, s.name.c_str(), 1e6 * s.start_s, 1e6 * s.end_s, s.parent,
                   static_cast<long long>(s.qid),
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  double now_s() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         origin_)
        .count();
  }

  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Opens a span for the enclosing scope.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, std::string name, int parent = -1,
             std::int64_t qid = -1)
      : rec_(rec), id_(rec.open(std::move(name), parent, qid)) {}
  ~ScopedSpan() { rec_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  SpanRecorder& rec_;
  int id_;
};

}  // namespace teamnet::perfbench
