#include "sim/driver.hpp"

#include <memory>
#include <thread>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "moe/moe_serving.hpp"
#include "net/collab.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "sim/resource.hpp"
#include "tensor/ops.hpp"

namespace teamnet::sim {

namespace {

/// Answers a Ping sent over `link`'s fault-free inner() path only after the
/// worker has processed (and replied to) everything queued before it, so
/// once the Pong is back that worker's deliveries are final: a duplicated
/// or hedged Infer on the last query can no longer race shutdown()'s close
/// and make the traffic totals nondeterministic. The sentinel id never
/// collides with the fleet's probe ids.
void quiesce(net::FaultyChannel& link) {
  try {
    net::Message ping;
    ping.type = net::MsgType::Ping;
    ping.ints = {-1};
    link.inner().send(ping.encode());
    while (auto raw = link.inner().recv_timeout(1.0)) {
      const net::Message msg = net::Message::decode(*raw);
      if (msg.type == net::MsgType::Pong && !msg.ints.empty() &&
          msg.ints[0] == -1) {
        break;
      }
    }
  } catch (const Error& e) {
    LOG_DEBUG("quiesce skipped a worker: " << e.what());
  }
}

}  // namespace

net::ComputeHook make_compute_hook(SimNet& net, int node,
                                   const DeviceProfile& device,
                                   double* compute_total) {
  return [&net, node, &device, compute_total](std::int64_t flops) {
    const double seconds = device.compute_time(flops);
    net.advance(node, seconds);
    if (compute_total != nullptr) *compute_total += seconds;
  };
}

std::vector<int> sample_query_rows(const data::Dataset& test, int n,
                                   std::uint64_t seed) {
  TEAMNET_CHECK_MSG(n >= 1, "num_queries must be >= 1, got " << n);
  Rng rng(seed);
  std::vector<int> rows(static_cast<std::size_t>(n));
  for (auto& r : rows) r = rng.randint(0, static_cast<int>(test.size()) - 1);
  return rows;
}

Tensor query_row_tensor(const data::Dataset& test, int row) {
  return ops::take_rows(test.images, {row});
}

FleetRun run_fleet(const FleetSpec& spec, const data::Dataset& test,
                   const ScenarioConfig& config) {
  const int k = static_cast<int>(spec.experts.size());
  TEAMNET_CHECK(k >= 2 && spec.devices.size() == spec.experts.size());
  TEAMNET_CHECK_MSG(spec.moe == nullptr || spec.quorum == 0,
                    "SG-MoE has no gather quorum; quorum must be 0");
  // Node map: master 0, primary workers 1..k-1; with backups, node k-1+i
  // is the replica serving worker i's expert.
  const int num_nodes = spec.backups ? 2 * k - 1 : k;
  // Before any node exists: each run gets its own track epoch so its
  // restarted virtual clock never rewinds a previous run's trace rows.
  obs::Tracer::instance().begin_epoch(spec.epoch);
  SimNet net(num_nodes, config.link, config);
  const auto master_clock = [&net] { return net.node_time(0); };

  // Serving nodes read their own virtual clock, so propagated deadlines
  // compare against the time base the master stamped them in. The fault
  // layer wraps every master-side leg; delay faults advance the master's
  // clock instead of sleeping, and its timeout budgets are measured on the
  // master's clock too (real-clock remainders differ run to run). Flow
  // tracing and trace nodes need every flow to pair, which a dropped
  // request would break, so they are on only without faults.
  std::vector<std::unique_ptr<net::CollaborativeWorker>> workers;
  std::vector<std::unique_ptr<net::FaultyChannel>> links;
  std::vector<net::Channel*> primaries;
  std::vector<net::Channel*> backups;
  Rng seeder(spec.faults ? spec.faults->profile.seed : 0);
  const net::DelayFn delay = [&net](double s) { net.advance(0, s); };
  for (int node = 1; node < num_nodes; ++node) {
    const auto e = static_cast<std::size_t>(node < k ? node : node - k + 1);
    auto& w = *workers.emplace_back(std::make_unique<net::CollaborativeWorker>(
        *spec.experts[e], net.channel(node, 0)));
    w.set_compute_hook(make_compute_hook(net, node, spec.devices[e], nullptr));
    w.set_time_source([&net, node] { return net.node_time(node); });
    w.set_drop_expired(spec.health);
    net::Channel* channel = nullptr;
    if (spec.faults) {
      net::FaultProfile profile = spec.faults->profile;
      profile.seed = seeder.fork(static_cast<std::uint64_t>(node)).engine()();
      auto& link = *links.emplace_back(std::make_unique<net::FaultyChannel>(
          net.take_channel(0, node), profile, delay));
      link.set_time_source(master_clock);
      channel = &link;
    } else {
      w.set_trace_node(node);
      channel = &net.channel(0, node);
    }
    (node < k ? primaries : backups).push_back(channel);
  }

  double master_compute = 0.0;
  const auto master_hook =
      make_compute_hook(net, 0, spec.devices[0], &master_compute);
  std::unique_ptr<net::CollaborativeMaster> team;
  std::unique_ptr<moe::MoeMaster> routed;
  if (spec.moe != nullptr) {
    routed = std::make_unique<moe::MoeMaster>(*spec.moe, primaries);
    routed->set_compute_hook(master_hook);
  } else {
    team = std::make_unique<net::CollaborativeMaster>(*spec.experts[0],
                                                      primaries);
    team->set_compute_hook(master_hook);
    team->set_gather_quorum(spec.quorum);
  }
  net::WorkerFleet& fleet = team ? team->fleet() : routed->fleet();
  fleet.set_time_source(master_clock);  // before enable_health copies it
  fleet.set_worker_timeout(spec.worker_timeout_s);
  fleet.set_probe_interval(spec.probe_interval);
  fleet.set_flow_trace(!spec.faults);
  fleet.set_test_pre_qid_gather(spec.test_pre_qid_gather);
  if (spec.health) fleet.enable_health(net::HealthConfig{});
  if (spec.backups) {
    fleet.set_hedging(backups, /*min_delay_s=*/0.002, /*latency_factor=*/1.5);
  }

  obs::TraceTrack track(0, master_clock, "master");
  // Load runs publish arrival/completion metrics; the coarse decade edges
  // of their registry histogram stay fixed, so repeated runs in one
  // process never trip its same-name / same-edges invariant.
  auto& registry = obs::MetricsRegistry::instance();
  obs::Counter* arrivals = nullptr;
  obs::Counter* completions = nullptr;
  obs::Histogram* latency_ms = nullptr;
  if (spec.pacer) {
    arrivals = &registry.counter("load.arrivals");
    completions = &registry.counter("load.completions");
    latency_ms = &registry.histogram("load.latency_ms",
                                     {0.1, 1.0, 10.0, 100.0, 1e3, 1e4});
  }
  // Recording only reads the clocks it is handed, so it moves no output.
  auto& recorder = obs::TimelineRecorder::instance();
  recorder.start();

  // Each worker thread binds a trace track to its node's clock, logs
  // (instead of escaping) the error a closed channel raises, and retires
  // its node on every exit path: an unretired node stalls every pending
  // delivery.
  std::vector<std::thread> threads;
  for (int node = 1; node < num_nodes; ++node) {
    auto* w = workers[static_cast<std::size_t>(node - 1)].get();
    threads.emplace_back([&net, node, w] {
      obs::TraceTrack track(
          node, [&net, node] { return net.node_time(node); },
          "node" + std::to_string(node));
      try {
        w->serve();
      } catch (const Error& e) {
        LOG_WARN("scenario worker thread exiting on error: " << e.what());
      }
      net.retire(node);
    });
  }

  FleetRun run;
  const std::int64_t bytes_before = net.bytes_delivered();
  const std::int64_t msgs_before = net.messages_delivered();
  try {
    for (std::size_t q = 0; q < spec.rows.size(); ++q) {
      const int qi = static_cast<int>(q);
      if (spec.faults && spec.faults->partition_worker >= 0) {
        auto& link = *links[static_cast<std::size_t>(
            spec.faults->partition_worker)];
        if (qi == spec.faults->partition_from_query) {
          link.set_partition(true, true);
        }
        if (qi == spec.faults->heal_at_query) link.set_partition(false, false);
      }
      QueryRecord& record = run.records.emplace_back();
      record.row = spec.rows[q];
      const double now = net.node_time(0);
      record.arrival_s = now;
      if (spec.pacer) {
        record.arrival_s = spec.pacer(now);
        if (record.arrival_s > now) net.advance(0, record.arrival_s - now);
        arrivals->increment();
        obs::trace_instant("load.arrival");
      }
      recorder.note_arrival(record.arrival_s);
      const Tensor x = query_row_tensor(test, record.row);
      int prediction = -1;
      if (team) {
        const auto r = team->infer(x);
        prediction = r.predictions[0];
        record.degradation = static_cast<int>(r.degradation);
      } else {
        // SG-MoE has no quorum; local fallback is its only degraded mode.
        const auto r = routed->infer(x);
        prediction = r.predictions[0];
        record.degradation = r.fallback_rows > 0 ? 1 : 0;
      }
      record.completion_s = net.node_time(0);
      if (spec.pacer) {
        completions->increment();
        latency_ms->observe(1e3 * (record.completion_s - record.arrival_s));
      }
      record.correct =
          prediction == test.labels[static_cast<std::size_t>(record.row)];
      record.live_nodes = k - fleet.failed_workers();
    }
  } catch (...) {
    // Wake every worker blocked in recv, release the master's virtual-time
    // floor, join them all, then surface the error.
    recorder.stop();
    recorder.take();
    for (auto& link : links) link->close();
    net.close_all();
    net.retire(0);
    for (auto& t : threads) t.join();
    throw;
  }
  // Fault-free traffic is final once the loop ends. Under faults it is
  // counted after the quiesce and join, so it is deterministic and
  // includes the quiesce Ping/Pong pairs and the Shutdown messages.
  std::int64_t bytes = net.bytes_delivered() - bytes_before;
  std::int64_t messages = net.messages_delivered() - msgs_before;
  for (auto& link : links) quiesce(*link);
  fleet.shutdown();  // closes every channel, waking every worker
  net.retire(0);
  for (auto& t : threads) t.join();
  recorder.stop();
  const std::vector<obs::QueryTimeline> timelines = recorder.take();
  ScenarioResult& result = run.scenario;
  result.schedule_digest = net.finish();
  if (spec.faults) {
    bytes = net.bytes_delivered() - bytes_before;
    messages = net.messages_delivered() - msgs_before;
  }

  // Query ids are the master's monotone sequence from 1, so records[q] is
  // qid q+1; a qid the recorder never saw (impossible in-process) gets an
  // all-zero attribution rather than misaligning the join.
  std::size_t ti = 0;
  double total_latency = 0.0;
  std::size_t correct = 0;
  for (std::size_t q = 0; q < run.records.size(); ++q) {
    const auto qid = static_cast<std::int64_t>(q) + 1;
    while (ti < timelines.size() && timelines[ti].qid < qid) ++ti;
    obs::QueryAttribution& a = run.attributions.emplace_back();
    a.qid = qid;
    if (ti < timelines.size() && timelines[ti].qid == qid) {
      a = obs::attribute(timelines[ti]);
    }
    total_latency += run.records[q].completion_s - run.records[q].arrival_s;
    correct += run.records[q].correct ? 1 : 0;
  }
  const auto n = static_cast<double>(run.records.size());
  result.approach = spec.approach;
  result.num_nodes = num_nodes;
  result.latency_ms = 1e3 * total_latency / n;
  result.accuracy_pct = 100.0 * static_cast<double>(correct) / n;
  result.usage = estimate_resources(
      spec.devices[0],
      model_working_set_bytes(*spec.experts[0], test.sample_shape()),
      total_latency > 0.0 ? master_compute / total_latency : 0.0);
  result.bytes_per_query = static_cast<double>(bytes) / n;
  result.messages_per_query = static_cast<double>(messages) / n;

  FleetCounters& counters = run.counters;
  const net::FleetStats& stats = fleet.stats();
  counters.stale_replies = stats.stale_replies.value();
  counters.rejoins = stats.rejoins.value();
  counters.hedges_sent = stats.hedges.value();
  counters.hedge_wins = stats.hedge_wins.value();
  counters.hedge_duplicates = stats.hedge_duplicates.value();
  counters.breaker_opens =
      fleet.health() ? fleet.health()->breaker_opens() : 0;
  for (const auto& w : workers) counters.expired_drops += w->expired_dropped();
  for (std::size_t i = 0; i < links.size(); ++i) {
    counters.faults_injected += links[i]->faults_injected();
    run.fault_schedule += "worker " + std::to_string(i + 1) + ":\n";
    run.fault_schedule += links[i]->fault_schedule();
  }
  return run;
}

}  // namespace teamnet::sim
