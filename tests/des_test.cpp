// Discrete-event engine tests: event-queue tie-breaking,
// quiescence / deadlock detection, virtual timeouts, link timing, and
// FaultyChannel composition over DesChannel. The DesCrossMode suite keeps
// the ids it had when a second, free-running scheduler existed to compare
// against; each test now pins a same-seed repeat of one scenario driver,
// whole result and schedule digest included.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "data/blobs.hpp"
#include "moe/sg_moe.hpp"
#include "net/fault.hpp"
#include "nn/mlp.hpp"
#include "sim/des/des_channel.hpp"
#include "sim/des/engine.hpp"
#include "sim/des/runtime.hpp"
#include "sim/scenario.hpp"

namespace teamnet {
namespace {

using sim::des::DeadlockError;
using sim::des::Engine;
using sim::des::Event;
using sim::des::EventKey;
using sim::des::EventQueue;

// ---- Event queue ordering ---------------------------------------------------

Event make_event(double time, int node, std::uint64_t seq) {
  return Event{EventKey{time, node, seq}, nullptr, std::string()};
}

TEST(DesEventQueue, OrdersByTimeFirst) {
  EventQueue q;
  q.push(make_event(2.0, 0, 0));
  q.push(make_event(1.0, 5, 7));
  q.push(make_event(3.0, 1, 1));
  EXPECT_EQ(q.pop().key.time, 1.0);
  EXPECT_EQ(q.pop().key.time, 2.0);
  EXPECT_EQ(q.pop().key.time, 3.0);
  EXPECT_TRUE(q.empty());
}

TEST(DesEventQueue, BreaksTimeTiesByDestinationNode) {
  EventQueue q;
  q.push(make_event(1.0, 3, 0));
  q.push(make_event(1.0, 1, 1));
  q.push(make_event(1.0, 2, 2));
  EXPECT_EQ(q.pop().key.node, 1);
  EXPECT_EQ(q.pop().key.node, 2);
  EXPECT_EQ(q.pop().key.node, 3);
}

TEST(DesEventQueue, BreaksFullTiesByScheduleOrder) {
  EventQueue q;
  q.push(make_event(1.0, 2, 9));
  q.push(make_event(1.0, 2, 4));
  q.push(make_event(1.0, 2, 6));
  EXPECT_EQ(q.pop().key.seq, 4u);
  EXPECT_EQ(q.pop().key.seq, 6u);
  EXPECT_EQ(q.pop().key.seq, 9u);
}

// ---- Engine semantics -------------------------------------------------------

net::LinkProfile test_link() {
  net::LinkProfile link;
  link.latency_s = 0.001;
  link.bandwidth_bps = 8000.0;  // 1 byte per millisecond of airtime
  link.per_message_overhead_s = 0.002;
  return link;
}

TEST(DesEngine, ComputeAdvancesOneNode) {
  Engine engine(2);
  EXPECT_EQ(engine.advance(0, 1.5), 1.5);
  EXPECT_EQ(engine.node_time(0), 1.5);
  EXPECT_EQ(engine.node_time(1), 0.0);
  EXPECT_EQ(engine.max_time(), 1.5);
  EXPECT_THROW(engine.advance(0, -1.0), InvariantError);
}

TEST(DesEngine, DeliveryImposesLinkDelay) {
  Engine engine(2);
  auto mb = engine.make_mailbox(1);
  const net::LinkProfile link{0.001, 8e6, 0.0};  // 1 ms prop + 1 us/byte
  engine.advance(0, 2.0);
  engine.advance(1, 2.0);  // node 0 wins the t=2 tie and may transmit
  engine.send(0, mb, std::string(1000, 'x'), link);
  engine.retire(0);
  EXPECT_EQ(engine.recv(1, *mb).size(), 1000u);
  EXPECT_NEAR(engine.node_time(1), 2.0 + 0.001 + 0.001, 1e-9);
  EXPECT_EQ(engine.bytes_delivered(), 1000);
  EXPECT_EQ(engine.messages_delivered(), 1);
}

TEST(DesEngine, SharedMediumSerializesConcurrentTransmissions) {
  // Two messages sent at the same instant contend for the half-duplex
  // medium: the second transmission starts only after the first's airtime.
  Engine engine(3);
  auto to1 = engine.make_mailbox(1);
  auto to2 = engine.make_mailbox(2);
  const net::LinkProfile link{0.001, 8e6, 0.0};  // 1 ms airtime per 1000 B
  std::vector<double> at1;
  double at2 = 0.0;
  std::thread node1([&] {
    for (int i = 0; i < 2; ++i) {
      engine.recv(1, *to1);
      at1.push_back(engine.node_time(1));
    }
    engine.retire(1);
  });
  std::thread node2([&] {
    engine.recv(2, *to2);
    at2 = engine.node_time(2);
    engine.retire(2);
  });
  engine.send(0, to1, std::string(1000, 'a'), link);
  engine.send(0, to2, std::string(1000, 'b'), link);
  engine.advance(0, 10.0);
  engine.send(0, to1, std::string(1000, 'c'), link);
  engine.retire(0);
  node1.join();
  node2.join();
  ASSERT_EQ(at1.size(), 2u);
  EXPECT_NEAR(at1[0], 0.002, 1e-9);
  EXPECT_NEAR(at2, 0.003, 1e-9) << "second message waits for the medium";
  // A later send on an idle medium pays no contention.
  EXPECT_NEAR(at1[1], 10.002, 1e-9);
}

TEST(DesEngine, DeliveryMatchesClosedFormArrivals) {
  // Back-to-back sends: each leaves the medium after its airtime and
  // arrives one propagation latency later; the second starts only when the
  // first frees the medium.
  const net::LinkProfile link = test_link();
  Engine engine(2);
  auto mb = engine.make_mailbox(1);
  engine.advance(0, 0.5);
  engine.advance(1, 0.5);  // grant order: node 1 must catch up before node 0
                           // may transmit at t=0.5
  engine.send(0, mb, std::string(10, 'x'), link);
  engine.send(0, mb, std::string(20, 'y'), link);
  engine.retire(0);
  EXPECT_EQ(engine.recv(1, *mb).size(), 10u);
  const double t_first = engine.node_time(1);
  EXPECT_EQ(engine.recv(1, *mb).size(), 20u);
  const double t_second = engine.node_time(1);

  const double air_first = link.transfer_time(10) - link.latency_s;
  const double air_second = link.transfer_time(20) - link.latency_s;
  const double second_start = 0.5 + air_first;
  EXPECT_EQ(t_first, 0.5 + air_first + link.latency_s);
  EXPECT_EQ(t_second, second_start + air_second + link.latency_s);
  EXPECT_EQ(engine.bytes_delivered(), 30);
  EXPECT_EQ(engine.messages_delivered(), 2);
}

TEST(DesEngine, ReceiverClockIsLamportMax) {
  // Node 0 receives, node 1 sends (node 0 wins the t=0 grant tie, so its
  // advance can run first single-threaded).
  Engine engine(2);
  auto mb = engine.make_mailbox(0);
  engine.advance(0, 10.0);  // receiver far ahead of the message's arrival
  engine.send(1, mb, "m", test_link());
  engine.retire(1);
  engine.recv(0, *mb);
  EXPECT_EQ(engine.node_time(0), 10.0);  // max(receiver, arrival) = receiver
}

TEST(DesEngine, ClosedMailboxDrainsInFlightThenThrows) {
  Engine engine(2);
  auto mb = engine.make_mailbox(1);
  engine.send(0, mb, "last", test_link());
  engine.close(*mb);
  engine.retire(0);
  EXPECT_EQ(engine.recv(1, *mb), "last");  // in-flight message drains first
  EXPECT_THROW(engine.recv(1, *mb), NetworkError);
  EXPECT_THROW(engine.send(0, mb, "late", test_link()), NetworkError);
}

TEST(DesEngine, TimeoutFiresAtQuiescenceAndChargesBudget) {
  Engine engine(2);
  auto mb = engine.make_mailbox(1);
  engine.retire(0);  // nothing will ever arrive
  engine.advance(1, 1.0);
  EXPECT_EQ(engine.recv_timeout(1, *mb, 0.25), std::nullopt);
  EXPECT_EQ(engine.node_time(1), 1.25);
  // A non-positive budget polls without charging.
  EXPECT_EQ(engine.recv_timeout(1, *mb, 0.0), std::nullopt);
  EXPECT_EQ(engine.node_time(1), 1.25);
}

TEST(DesEngine, InFlightMessageAlwaysBeatsTimeout) {
  // The delivery arrives later than the timeout budget would expire, but a
  // timeout may only fire at quiescence — with a message in flight the wait
  // must receive it (free-running has the same contract: real waits always
  // lose to a message that is actually coming).
  Engine engine(2);
  auto mb = engine.make_mailbox(1);
  engine.send(0, mb, "slow", test_link());
  engine.retire(0);
  const auto got = engine.recv_timeout(1, *mb, 1e-9);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, "slow");
}

TEST(DesEngine, EarliestVirtualDeadlineFiresFirst) {
  Engine engine(3);
  auto mb1 = engine.make_mailbox(1);
  auto mb2 = engine.make_mailbox(2);
  engine.retire(0);
  double done1 = -1.0;
  double done2 = -1.0;
  std::thread t1([&] {
    EXPECT_EQ(engine.recv_timeout(1, *mb1, 0.3), std::nullopt);
    done1 = engine.node_time(1);
    engine.retire(1);
  });
  std::thread t2([&] {
    EXPECT_EQ(engine.recv_timeout(2, *mb2, 0.2), std::nullopt);
    done2 = engine.node_time(2);
    engine.retire(2);
  });
  t1.join();
  t2.join();
  EXPECT_EQ(done1, 0.3);
  EXPECT_EQ(done2, 0.2);
}

TEST(DesEngine, DeadlockIsDiagnosedNotHung) {
  // Two nodes, each blocked on a mailbox nobody will ever write to: the
  // engine must fail the recv with a DeadlockError naming the stuck nodes
  // instead of hanging the process.
  Engine engine(2);
  auto mb0 = engine.make_mailbox(0);
  auto mb1 = engine.make_mailbox(1);
  std::string what0;
  std::string what1;
  std::thread t0([&] {
    try {
      engine.recv(0, *mb0);
    } catch (const DeadlockError& e) {
      what0 = e.what();
    }
  });
  std::thread t1([&] {
    try {
      engine.recv(1, *mb1);
    } catch (const DeadlockError& e) {
      what1 = e.what();
    }
  });
  t0.join();
  t1.join();
  EXPECT_NE(what0.find("deadlock"), std::string::npos);
  EXPECT_NE(what0.find("node 0"), std::string::npos);
  EXPECT_NE(what0.find("node 1"), std::string::npos);
  EXPECT_EQ(what0, what1);
}

TEST(DesEngine, GrantAdmitsMinimumTimeNodeOnly) {
  // Node 1 sits at an earlier virtual time; node 0's advance must not be
  // admitted until node 1 catches up past it, so sends/advances interleave
  // in virtual-time order no matter the thread schedule.
  Engine engine(2);
  engine.advance(0, 1.0);  // node 0 at t=1 while node 1 is at t=0
  std::vector<int> order;
  Mutex order_mutex;
  std::thread t1([&] {
    for (int i = 0; i < 3; ++i) {
      engine.advance(1, 0.25);
      MutexLock lock(order_mutex);
      order.push_back(1);
    }
    engine.retire(1);
  });
  engine.advance(0, 0.001);  // must wait for node 1 to pass t=1
  {
    MutexLock lock(order_mutex);
    order.push_back(0);
    // All three of node 1's sub-t=1 advances completed before node 0 moved.
    EXPECT_EQ(order.size(), 4u);
    EXPECT_EQ(order.back(), 0);
  }
  engine.retire(0);
  t1.join();
}

TEST(DesEngine, WakeupsSignalOnlyNodesThatCanProceed) {
  // K=8 ring with staggered advances: every node advances, sends to its
  // successor and receives from its predecessor. Most engine calls park,
  // and a state change must resume only the node that can now proceed
  // (the grant holder or a reader whose message landed). Waking every
  // parked node instead makes most resumes futile — the thread finds its
  // predicate still false and parks again. Counted, not timed.
  constexpr int kNodes = 8;
  constexpr int kRounds = 40;
  Engine engine(kNodes);
  std::vector<std::shared_ptr<sim::des::Mailbox>> mailboxes;
  for (int n = 0; n < kNodes; ++n) mailboxes.push_back(engine.make_mailbox(n));
  std::vector<std::thread> threads;
  for (int n = 0; n < kNodes; ++n) {
    threads.emplace_back([&engine, &mailboxes, n] {
      const auto next = static_cast<std::size_t>((n + 1) % kNodes);
      for (int round = 0; round < kRounds; ++round) {
        engine.advance(n, 1e-3 * (n + 1));
        engine.send(n, mailboxes[next], std::string(16, 'r'), test_link());
        (void)engine.recv(n, *mailboxes[static_cast<std::size_t>(n)]);
      }
      engine.retire(n);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(engine.messages_delivered(), kNodes * kRounds);
  const Engine::WakeStats stats = engine.wake_stats();
  EXPECT_EQ(stats.parks, stats.resumes);  // nobody is left parked
  ASSERT_GT(stats.resumes, kNodes * kRounds / 2);  // the ring really waits
  // Targeted wakeups leave only races between a signal and the woken
  // thread's re-check (measured: 0 futile in 200 runs, about 530 resumes
  // each); waking every parked node makes most resumes futile (measured:
  // 86-90%, about 4,200 resumes).
  EXPECT_LT(stats.futile * 5, stats.resumes)
      << stats.futile << " futile of " << stats.resumes << " resumes";
}

// ---- DesChannel + FaultyChannel composition ---------------------------------

TEST(DesChannel, ComposesUnderFaultyChannelWithDeterministicSchedule) {
  // A FaultyChannel wrapped around the DES endpoint sees pure payload bytes
  // (no timestamp header) and injects the exact same schedule as over any
  // other channel: seed-driven duplication doubles the delivery.
  Engine engine(2);
  auto [c0, c1] = sim::des::make_des_pair(engine, 0, 1, test_link());
  net::FaultProfile profile;
  profile.seed = 7;
  profile.duplicate_prob = 1.0;
  auto faulty = net::make_faulty_channel(std::move(c0), profile);
  faulty->send("payload");
  engine.retire(0);
  EXPECT_EQ(c1->recv(), "payload");
  EXPECT_EQ(c1->recv(), "payload");  // the duplicate
  EXPECT_EQ(engine.messages_delivered(), 2);
  EXPECT_EQ(engine.bytes_delivered(), 14);
}

TEST(DesChannel, CloseWakesPeerRecv) {
  Engine engine(2);
  auto [c0, c1] = sim::des::make_des_pair(engine, 0, 1, test_link());
  std::thread t1([&] {
    EXPECT_THROW(c1->recv(), NetworkError);
    engine.retire(1);
  });
  c0->close();
  engine.retire(0);
  t1.join();
}

// ---- Cross-mode agreement ---------------------------------------------------

data::Dataset blob_test_set() {
  data::BlobsConfig cfg;
  cfg.num_samples = 200;
  cfg.num_classes = 4;
  cfg.dims = 8;
  cfg.seed = 21;
  return data::make_blobs(cfg);
}

std::vector<std::unique_ptr<nn::MlpNet>> make_experts(int k) {
  std::vector<std::unique_ptr<nn::MlpNet>> experts;
  for (int i = 0; i < k; ++i) {
    nn::MlpConfig cfg;
    cfg.in_features = 8;
    cfg.num_classes = 4;
    cfg.depth = 2;
    cfg.hidden = 12;
    Rng rng(100 + i);
    experts.push_back(std::make_unique<nn::MlpNet>(cfg, rng));
  }
  return experts;
}

std::vector<nn::Module*> expert_ptrs(
    const std::vector<std::unique_ptr<nn::MlpNet>>& experts) {
  std::vector<nn::Module*> ptrs;
  for (const auto& e : experts) ptrs.push_back(e.get());
  return ptrs;
}

sim::ScenarioConfig fast_config() {
  sim::ScenarioConfig cfg;
  cfg.num_queries = 12;
  cfg.link = net::LinkProfile{0.0005, 0.0, 0.0};
  return cfg;
}

/// Same-seed repeat: the whole result, latency and schedule digest
/// included, must be bit-identical.
void expect_same_result(const sim::ScenarioResult& a,
                        const sim::ScenarioResult& b) {
  EXPECT_EQ(a.num_nodes, b.num_nodes);
  EXPECT_EQ(a.latency_ms, b.latency_ms);
  EXPECT_EQ(a.accuracy_pct, b.accuracy_pct);
  EXPECT_EQ(a.bytes_per_query, b.bytes_per_query);
  EXPECT_EQ(a.messages_per_query, b.messages_per_query);
  EXPECT_EQ(a.schedule_digest, b.schedule_digest);
}

TEST(DesCrossMode, TeamNetDiscreteOutcomesMatchFreeRunning) {
  const auto experts = make_experts(3);
  const auto ptrs = expert_ptrs(experts);
  const auto test = blob_test_set();
  expect_same_result(sim::run_teamnet(ptrs, test, fast_config()),
                     sim::run_teamnet(ptrs, test, fast_config()));
}

TEST(DesCrossMode, MpiMatrixDiscreteOutcomesMatchFreeRunning) {
  nn::MlpConfig cfg;
  cfg.in_features = 8;
  cfg.num_classes = 4;
  cfg.depth = 3;
  cfg.hidden = 12;
  Rng rng(7);
  nn::MlpNet model(cfg, rng);
  const auto test = blob_test_set();
  expect_same_result(sim::run_mpi_matrix(model, test, fast_config(), 3),
                     sim::run_mpi_matrix(model, test, fast_config(), 3));
}

TEST(DesCrossMode, SgMoeDiscreteOutcomesMatchFreeRunning) {
  moe::SgMoeConfig cfg;
  cfg.num_experts = 3;
  cfg.epochs = 1;
  moe::SgMoe model(cfg, 8, [](int /*index*/, Rng& rng) {
    nn::MlpConfig mc;
    mc.in_features = 8;
    mc.num_classes = 4;
    mc.depth = 2;
    mc.hidden = 10;
    return std::make_unique<nn::MlpNet>(mc, rng);
  });
  const auto test = blob_test_set();
  model.train(test);
  expect_same_result(sim::run_sg_moe(model, test, fast_config()),
                     sim::run_sg_moe(model, test, fast_config()));
}

std::string chaos_signature(const sim::ChaosResult& r) {
  std::string s = r.fault_schedule;
  s += "|stale=" + std::to_string(r.stale_replies);
  s += "|rejoins=" + std::to_string(r.rejoins);
  s += "|faults=" + std::to_string(r.faults_injected);
  s += "|acc=" + std::to_string(r.scenario.accuracy_pct);
  s += "|bytes=" + std::to_string(r.scenario.bytes_per_query);
  s += "|msgs=" + std::to_string(r.scenario.messages_per_query);
  s += "|live=";
  for (int v : r.live_nodes) s += std::to_string(v) + ",";
  s += "|ok=";
  for (char c : r.correct) s += c ? '1' : '0';
  return s;
}

TEST(DesCrossMode, ChaosScheduleMatchesFreeRunningUnderDropsAndPartition) {
  const auto experts = make_experts(3);
  const auto ptrs = expert_ptrs(experts);
  const auto test = blob_test_set();
  sim::ChaosConfig chaos;
  chaos.faults.seed = 42;
  chaos.faults.drop_prob = 0.25;
  chaos.faults.corrupt_prob = 0.1;
  chaos.worker_timeout_s = 0.25;
  chaos.probe_interval = 0;
  chaos.partition_worker = 0;
  chaos.partition_from_query = 4;
  chaos.heal_at_query = 8;
  const auto a = sim::run_teamnet_chaos(ptrs, test, fast_config(), chaos);
  const auto b = sim::run_teamnet_chaos(ptrs, test, fast_config(), chaos);
  EXPECT_FALSE(a.fault_schedule.empty());
  EXPECT_EQ(chaos_signature(a), chaos_signature(b));
  expect_same_result(a.scenario, b.scenario);
}

TEST(DesCrossMode, ChaosScheduleMatchesFreeRunningUnderDuplication) {
  const auto experts = make_experts(3);
  const auto ptrs = expert_ptrs(experts);
  const auto test = blob_test_set();
  sim::ChaosConfig chaos;
  chaos.faults.seed = 42;
  chaos.faults.duplicate_prob = 0.3;
  chaos.worker_timeout_s = 5.0;  // generous: no worker ever actually fails
  chaos.probe_interval = 2;
  const auto a = sim::run_teamnet_chaos(ptrs, test, fast_config(), chaos);
  const auto b = sim::run_teamnet_chaos(ptrs, test, fast_config(), chaos);
  EXPECT_FALSE(a.fault_schedule.empty());
  EXPECT_EQ(chaos_signature(a), chaos_signature(b));
  expect_same_result(a.scenario, b.scenario);
}

}  // namespace
}  // namespace teamnet
