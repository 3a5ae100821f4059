#include "obs/trace.hpp"

#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace teamnet::obs {

namespace {

/// Per-track buffer cap. A saturated track stops recording (events are
/// counted as dropped, never silently reordered) so a runaway emitter
/// cannot OOM a long bench.
constexpr std::size_t kMaxEventsPerTrack = 1u << 20;

struct Binding {
  int track = -1;
  TimeSource clock;
};

Binding& binding() {
  static thread_local Binding b;
  return b;
}

double bound_now() {
  const Binding& b = binding();
  // Unbound threads never reach here (callers check track >= 0), but keep
  // the fallback deterministic rather than UB.
  return b.clock ? b.clock() : 0.0;
}

}  // namespace

TraceArgs& TraceArgs::arg(const char* key, std::int64_t value) {
  if (!body_.empty()) body_ += ", ";
  body_ += '"';
  body_ += json_escape(key);
  body_ += "\": ";
  body_ += std::to_string(value);
  return *this;
}

TraceArgs& TraceArgs::arg(const char* key, double value) {
  if (!body_.empty()) body_ += ", ";
  body_ += '"';
  body_ += json_escape(key);
  body_ += "\": ";
  body_ += json_double(value);
  return *this;
}

TraceArgs& TraceArgs::arg(const char* key, const std::string& value) {
  if (!body_.empty()) body_ += ", ";
  body_ += '"';
  body_ += json_escape(key);
  body_ += "\": \"";
  body_ += json_escape(value);
  body_ += '"';
  return *this;
}

std::string TraceArgs::json() const {
  if (body_.empty()) return {};
  return "{" + body_ + "}";
}

Tracer& Tracer::instance() {
  // Leaked on purpose: emissions and the atexit trace writer may run during
  // static destruction.
  static Tracer* const tracer = new Tracer();
  return *tracer;
}

void Tracer::start() {
  detail::g_trace_active.store(true, std::memory_order_relaxed);
}

void Tracer::set_scheduler_events(bool on) {
  detail::g_sched_events.store(on, std::memory_order_relaxed);
}

void Tracer::reset_for_testing() {
  detail::g_trace_active.store(false, std::memory_order_relaxed);
  detail::g_sched_events.store(false, std::memory_order_relaxed);
  epoch_base_.store(0, std::memory_order_relaxed);
  MutexLock lock(registry_mutex_);
  tracks_.clear();
  epoch_names_.clear();
  drop_warned_.store(false, std::memory_order_relaxed);
}

void Tracer::begin_epoch(const std::string& name) {
  if (!active()) return;
  const int base =
      epoch_base_.load(std::memory_order_relaxed) + kTrackStride;
  epoch_base_.store(base, std::memory_order_relaxed);
  MutexLock lock(registry_mutex_);
  epoch_names_[base / kTrackStride] = name;
}

Tracer::Track& Tracer::track(int id) {
  MutexLock lock(registry_mutex_);
  auto& slot = tracks_[id];
  if (!slot) slot = std::make_unique<Track>();
  return *slot;
}

void Tracer::append(int track_id, TraceEvent event) {
  // Callers pass raw node ids; the current epoch namespaces them so
  // sequential scenarios never share a (pid, tid) row.
  track_id += epoch_base_.load(std::memory_order_relaxed);
  Track& t = track(track_id);
  bool warn = false;
  std::int64_t dropped_total = 0;
  {
    MutexLock lock(t.mutex);
    if (t.events.size() >= kMaxEventsPerTrack) {
      ++t.dropped;
      dropped_total = t.dropped;
      warn = !drop_warned_.exchange(true, std::memory_order_relaxed);
    } else {
      t.events.push_back(std::move(event));
    }
  }
  if (dropped_total > 0) {
    MetricsRegistry::instance().counter("obs.trace.dropped_events").increment();
  }
  if (warn) {
    // Outside the track lock — the log sink mutex and track mutexes are
    // both leaves; never hold one while taking the other.
    LOG_WARN("trace buffer saturated, dropping events "
             << log::Fields()
                    .kv("track", track_id)
                    .kv("cap", static_cast<long long>(kMaxEventsPerTrack)));
  }
}

void Tracer::set_track_name(int track_id, const std::string& name) {
  track_id += epoch_base_.load(std::memory_order_relaxed);
  Track& t = track(track_id);
  MutexLock lock(t.mutex);
  t.name = name;
}

void Tracer::instant_at(int track_id, double ts_s, const char* name,
                        const TraceArgs& args) {
  TraceEvent e;
  e.ts_us = ts_s * 1e6;
  e.ph = 'i';
  e.name = name;
  e.args = args.json();
  append(track_id, std::move(e));
}

void Tracer::counter_at(int track_id, double ts_s, const char* name,
                        double value) {
  TraceEvent e;
  e.ts_us = ts_s * 1e6;
  e.ph = 'C';
  e.name = name;
  e.args = "{\"value\": " + json_double(value) + "}";
  append(track_id, std::move(e));
}

void Tracer::begin_at(int track_id, double ts_s, const char* name,
                      const TraceArgs* args) {
  TraceEvent e;
  e.ts_us = ts_s * 1e6;
  e.ph = 'B';
  e.name = name;
  if (args != nullptr) e.args = args->json();
  append(track_id, std::move(e));
}

void Tracer::end_at(int track_id, double ts_s) {
  TraceEvent e;
  e.ts_us = ts_s * 1e6;
  e.ph = 'E';
  append(track_id, std::move(e));
}

void Tracer::flow_at(int track_id, double ts_s, char ph, const char* name,
                     std::int64_t id) {
  TraceEvent e;
  e.ts_us = ts_s * 1e6;
  e.ph = ph;
  e.name = name;
  e.flow_id = id;
  append(track_id, std::move(e));
}

std::int64_t Tracer::dropped_events() const {
  std::int64_t total = 0;
  MutexLock lock(registry_mutex_);
  for (const auto& [id, t] : tracks_) {
    MutexLock track_lock(t->mutex);
    total += t->dropped;
  }
  return total;
}

std::string Tracer::to_json() const {
  // Copy under the locks, format after releasing them: every emission
  // takes registry_mutex_ (track lookup), so formatting while holding it
  // would starve emitters behind a concurrent serializer.
  struct TrackCopy {
    int id;
    std::string name;
    std::vector<TraceEvent> events;
  };
  std::map<int, std::string> epoch_names;
  std::vector<TrackCopy> tracks;
  {
    MutexLock lock(registry_mutex_);
    epoch_names = epoch_names_;
    tracks.reserve(tracks_.size());
    for (const auto& [id, t] : tracks_) {
      MutexLock track_lock(t->mutex);
      tracks.push_back({id, t->name, t->events});
    }
  }
  std::ostringstream os;
  os << "{\"traceEvents\": [\n";
  os << "{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": 0, \"tid\": 0, "
        "\"args\": {\"name\": \"teamnet\"}}";
  // One Perfetto process row per epoch (= scenario run), ascending pid.
  for (const auto& [pid, name] : epoch_names) {
    os << ",\n{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": " << pid
       << ", \"tid\": 0, \"args\": {\"name\": \"" << json_escape(name)
       << "\"}}";
  }
  // std::map iteration = ascending real track id, i.e. grouped by epoch;
  // events in emission order.
  for (const TrackCopy& t : tracks) {
    const int pid = t.id / kTrackStride;
    const int tid = t.id % kTrackStride;
    if (!t.name.empty()) {
      os << ",\n{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": " << pid
         << ", \"tid\": " << tid << ", \"args\": {\"name\": \""
         << json_escape(t.name) << "\"}}";
    }
    for (const TraceEvent& e : t.events) {
      os << ",\n{\"ph\": \"" << e.ph << "\", \"pid\": " << pid
         << ", \"tid\": " << tid << ", \"ts\": " << json_double(e.ts_us);
      if (!e.name.empty()) {
        os << ", \"name\": \"" << json_escape(e.name) << "\"";
      }
      if (e.ph == 'i') {
        os << ", \"s\": \"t\"";  // thread-scoped instant
      }
      if (e.ph == 's' || e.ph == 'f') {
        // Chrome flow events need a category + binding id; "bp": "e" binds
        // the finish to its ENCLOSING slice (the receiver's span).
        os << ", \"cat\": \"flow\", \"id\": " << e.flow_id;
        if (e.ph == 'f') os << ", \"bp\": \"e\"";
      }
      if (!e.args.empty()) {
        os << ", \"args\": " << e.args;
      }
      os << "}";
    }
  }
  os << "\n]}\n";
  return os.str();
}

void Tracer::write(const std::string& path) const {
  std::ofstream os(path, std::ios::binary);
  if (!os.good()) {
    throw Error("cannot open --trace output file: " + path);
  }
  os << to_json();
  os.flush();
  if (!os.good()) {
    throw Error("failed writing --trace output file: " + path);
  }
}

TraceTrack::TraceTrack(int track, TimeSource clock, const std::string& name) {
  Binding& b = binding();
  saved_track_ = b.track;
  saved_clock_ = std::move(b.clock);
  b.track = track;
  b.clock = std::move(clock);
  if (Tracer::active() && !name.empty()) {
    Tracer::instance().set_track_name(track, name);
  }
}

TraceTrack::~TraceTrack() {
  Binding& b = binding();
  b.track = saved_track_;
  b.clock = std::move(saved_clock_);
}

int bound_track() { return binding().track; }

namespace detail {

void begin_slow(const char* name, const TraceArgs* args, bool* live,
                int* track) {
  const Binding& b = binding();
  if (b.track < 0) return;
  Tracer::instance().begin_at(b.track, bound_now(), name, args);
  *live = true;
  *track = b.track;
}

void end_slow(int track) {
  Tracer::instance().end_at(track, bound_now());
}

void instant_slow(const char* name, const TraceArgs* args) {
  const Binding& b = binding();
  if (b.track < 0) return;
  Tracer::instance().instant_at(b.track, bound_now(), name,
                                args != nullptr ? *args : TraceArgs());
}

void counter_slow(const char* name, double value) {
  const Binding& b = binding();
  if (b.track < 0) return;
  Tracer::instance().counter_at(b.track, bound_now(), name, value);
}

void flow_slow(char ph, const char* name, std::int64_t id) {
  const Binding& b = binding();
  if (b.track < 0) return;
  Tracer::instance().flow_at(b.track, bound_now(), ph, name, id);
}

}  // namespace detail
}  // namespace teamnet::obs
