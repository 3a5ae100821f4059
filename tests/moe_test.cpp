// SG-MoE baseline tests: routing ops gradients, noisy top-k behaviour,
// load balancing, joint training, and distributed serving equivalence.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "data/blobs.hpp"
#include "moe/moe_ops.hpp"
#include "moe/moe_serving.hpp"
#include "moe/sg_moe.hpp"
#include "net/fault.hpp"
#include "net/transport.hpp"
#include "nn/mlp.hpp"
#include "tensor/ops.hpp"

namespace teamnet {
namespace {

moe::ExpertFactory blob_expert_factory(std::int64_t dims, int classes) {
  return [dims, classes](int /*index*/, Rng& rng) -> nn::ModulePtr {
    nn::MlpConfig cfg;
    cfg.in_features = dims;
    cfg.num_classes = classes;
    cfg.depth = 2;
    cfg.hidden = 16;
    return std::make_unique<nn::MlpNet>(cfg, rng);
  };
}

TEST(MoeOps, GatherRowsForwardAndGrad) {
  ag::Var src(Tensor({3, 2}, {0, 1, 2, 3, 4, 5}), true);
  ag::Var out = moe::gather_rows(src, {2, 0});
  EXPECT_TRUE(out.value().allclose(Tensor({2, 2}, {4, 5, 0, 1})));
  ag::backward(ag::sum_all(out));
  EXPECT_TRUE(src.grad().allclose(Tensor({3, 2}, {1, 1, 0, 0, 1, 1})));
}

TEST(MoeOps, ScatterAddRowsForwardAndGrad) {
  ag::Var src(Tensor({2, 2}, {1, 2, 3, 4}), true);
  ag::Var out = moe::scatter_add_rows(src, {1, 1}, 3);
  EXPECT_TRUE(out.value().allclose(Tensor({3, 2}, {0, 0, 4, 6, 0, 0})));
  ag::backward(ag::sum_all(ag::mul(out, out)));
  // d/dsrc of sum(out^2): both source rows land on row 1 -> grad 2*out[1].
  EXPECT_TRUE(src.grad().allclose(Tensor({2, 2}, {8, 12, 8, 12})));
}

TEST(MoeOps, GatherElementsForwardAndGrad) {
  ag::Var m(Tensor({2, 3}, {0, 1, 2, 3, 4, 5}), true);
  ag::Var out = moe::gather_elements(m, {0, 1, 1}, {2, 0, 0});
  EXPECT_TRUE(out.value().allclose(Tensor({3, 1}, {2, 3, 3})));
  ag::backward(ag::sum_all(out));
  EXPECT_TRUE(m.grad().allclose(Tensor({2, 3}, {0, 0, 1, 2, 0, 0})));
}

TEST(SgMoe, ConfigValidation) {
  moe::SgMoeConfig cfg;
  cfg.num_experts = 1;
  EXPECT_THROW(moe::SgMoe(cfg, 8, blob_expert_factory(8, 4)), InvariantError);
  cfg.num_experts = 2;
  cfg.top_k = 3;
  EXPECT_THROW(moe::SgMoe(cfg, 8, blob_expert_factory(8, 4)), InvariantError);
}

TEST(SgMoe, TrainsToReasonableAccuracyOnBlobs) {
  data::BlobsConfig bc;
  bc.num_samples = 600;
  auto ds = data::make_blobs(bc);
  moe::SgMoeConfig cfg;
  cfg.num_experts = 2;
  cfg.epochs = 8;
  cfg.sgd.lr = 0.05f;
  moe::SgMoe model(cfg, bc.dims, blob_expert_factory(bc.dims, 4));
  model.train(ds);
  EXPECT_GT(model.evaluate_accuracy(ds), 0.8);
  // Loss should broadly decrease.
  const auto& losses = model.loss_history();
  ASSERT_EQ(losses.size(), 8u);
  EXPECT_LT(losses.back(), losses.front());
}

TEST(SgMoe, LoadBalancingSpreadsRouting) {
  data::BlobsConfig bc;
  bc.num_samples = 600;
  auto ds = data::make_blobs(bc);
  moe::SgMoeConfig cfg;
  cfg.num_experts = 4;
  cfg.epochs = 6;
  cfg.load_balance_weight = 0.2f;
  moe::SgMoe model(cfg, bc.dims, blob_expert_factory(bc.dims, 4));
  model.train(ds);
  auto routed = model.route(ds.images);
  std::vector<int> counts(4, 0);
  for (int r : routed) ++counts[static_cast<std::size_t>(r)];
  int active = 0;
  for (int c : counts) active += (c > 0);
  EXPECT_GE(active, 2) << "load balancing should keep several experts in use";
}

TEST(SgMoe, RoutingIsDeterministicAtInference) {
  data::BlobsConfig bc;
  bc.num_samples = 200;
  auto ds = data::make_blobs(bc);
  moe::SgMoeConfig cfg;
  cfg.num_experts = 2;
  cfg.epochs = 2;
  moe::SgMoe model(cfg, bc.dims, blob_expert_factory(bc.dims, 4));
  model.train(ds);
  EXPECT_EQ(model.route(ds.images), model.route(ds.images));
}

TEST(SgMoe, InferenceUsesExactlyOneExpertPerSample) {
  data::BlobsConfig bc;
  bc.num_samples = 100;
  auto ds = data::make_blobs(bc);
  moe::SgMoeConfig cfg;
  cfg.num_experts = 3;
  cfg.epochs = 2;
  moe::SgMoe model(cfg, bc.dims, blob_expert_factory(bc.dims, 4));
  model.train(ds);
  auto inf = model.infer(ds.images);
  ASSERT_EQ(inf.routed.size(), 100u);
  for (int r : inf.routed) {
    EXPECT_GE(r, 0);
    EXPECT_LT(r, 3);
  }
  // probs rows are valid distributions
  for (std::int64_t i = 0; i < inf.probs.dim(0); ++i) {
    float sum = 0.0f;
    for (std::int64_t c = 0; c < inf.probs.dim(1); ++c) {
      sum += inf.probs[i * inf.probs.dim(1) + c];
    }
    EXPECT_NEAR(sum, 1.0f, 1e-4f);
  }
}

TEST(MoeServing, DistributedMatchesLocalInference) {
  data::BlobsConfig bc;
  bc.num_samples = 300;
  auto ds = data::make_blobs(bc);
  moe::SgMoeConfig cfg;
  cfg.num_experts = 3;
  cfg.epochs = 3;
  moe::SgMoe model(cfg, bc.dims, blob_expert_factory(bc.dims, 4));
  model.train(ds);
  auto expected = model.infer(ds.images);

  // Two workers serve experts 1 and 2; expert 0 stays on the master.
  auto [m1, w1] = net::make_inproc_pair();
  auto [m2, w2] = net::make_inproc_pair();
  net::CollaborativeWorker worker1(model.expert(1), *w1);
  net::CollaborativeWorker worker2(model.expert(2), *w2);
  std::thread t1([&worker1] { worker1.serve(); });
  std::thread t2([&worker2] { worker2.serve(); });

  moe::MoeMaster master(model, {m1.get(), m2.get()});
  auto actual = master.infer(ds.images);
  master.shutdown();
  t1.join();
  t2.join();

  EXPECT_EQ(actual.routed, expected.routed);
  EXPECT_EQ(actual.predictions, expected.predictions);
  EXPECT_TRUE(actual.probs.allclose(expected.probs, 1e-5f));
}

/// SG-MoE's one degraded mode: the rows routed to an expert whose link is
/// partitioned are answered by the master's expert 0, the expert enters
/// the shared probation, and it rejoins once it answers a Ping.
TEST(MoeServing, PartitionedExpertFallsBackToLocalThenRejoins) {
  data::BlobsConfig bc;
  bc.num_samples = 300;
  auto ds = data::make_blobs(bc);
  moe::SgMoeConfig cfg;
  cfg.num_experts = 3;
  cfg.epochs = 3;
  moe::SgMoe model(cfg, bc.dims, blob_expert_factory(bc.dims, 4));
  model.train(ds);
  const auto expected = model.infer(ds.images);

  std::vector<std::unique_ptr<net::FaultyChannel>> links;
  std::vector<net::Channel*> channels;
  std::vector<std::unique_ptr<net::CollaborativeWorker>> workers;
  std::vector<net::ChannelPtr> worker_ends;
  std::vector<std::thread> threads;
  for (int i = 1; i < 3; ++i) {
    auto [m, w] = net::make_inproc_pair();
    links.push_back(std::make_unique<net::FaultyChannel>(std::move(m),
                                                         net::FaultProfile{}));
    channels.push_back(links.back().get());
    worker_ends.push_back(std::move(w));
    workers.push_back(std::make_unique<net::CollaborativeWorker>(
        model.expert(i), *worker_ends.back()));
    threads.emplace_back([w = workers.back().get()] {
      try {
        w->serve();
      } catch (const Error&) {
      }
    });
  }
  moe::MoeMaster master(model, channels);
  master.fleet().set_worker_timeout(0.2);
  master.fleet().set_probe_interval(1);

  // Partition the remote expert with the most routed rows.
  std::vector<int> rows_of[3];
  for (int r = 0; r < ds.size(); ++r) {
    rows_of[expected.routed[static_cast<std::size_t>(r)]].push_back(r);
  }
  const int dark = rows_of[1].size() >= rows_of[2].size() ? 1 : 2;
  const auto& dark_rows = rows_of[dark];
  ASSERT_FALSE(dark_rows.empty());
  links[static_cast<std::size_t>(dark - 1)]->set_partition(true, true);

  const auto degraded = master.infer(ds.images);
  EXPECT_EQ(degraded.fallback_rows,
            static_cast<std::int64_t>(dark_rows.size()));
  EXPECT_FALSE(master.fleet().worker_alive(dark - 1));
  const auto local = ops::argmax_rows(ops::softmax_rows(
      model.expert(0).predict(ops::take_rows(ds.images, dark_rows))));
  for (std::size_t j = 0; j < dark_rows.size(); ++j) {
    EXPECT_EQ(degraded.predictions[static_cast<std::size_t>(dark_rows[j])],
              local[j]);
  }
  for (int r : rows_of[3 - dark]) {
    EXPECT_EQ(degraded.predictions[static_cast<std::size_t>(r)],
              expected.predictions[static_cast<std::size_t>(r)]);
  }

  links[static_cast<std::size_t>(dark - 1)]->set_partition(false, false);
  for (int q = 0; q < 100 && !master.fleet().worker_alive(dark - 1); ++q) {
    master.infer(ds.images);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_TRUE(master.fleet().worker_alive(dark - 1));
  EXPECT_EQ(master.fleet().stats().rejoins.value(), 1);

  const auto healed = master.infer(ds.images);
  EXPECT_EQ(healed.fallback_rows, 0);
  EXPECT_EQ(healed.predictions, expected.predictions);
  master.shutdown();
  for (auto& t : threads) t.join();
}

TEST(MoeServing, RejectsWrongWorkerCount) {
  moe::SgMoeConfig cfg;
  cfg.num_experts = 3;
  moe::SgMoe model(cfg, 8, blob_expert_factory(8, 4));
  auto [a, b] = net::make_inproc_pair();
  EXPECT_THROW(moe::MoeMaster(model, {a.get()}), InvariantError);
}

}  // namespace
}  // namespace teamnet
