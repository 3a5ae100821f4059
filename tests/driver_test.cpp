// The one serving driver (sim/driver.hpp) seen through its entry points:
// a query count below 1 is rejected before any node thread starts, and an
// error raised mid-run reaches the caller through the driver's one
// teardown path with every node thread joined — under both schedulers. A
// thread left joinable would std::terminate this process, and a worker
// left blocked would hang it, so reaching the assertions is the check.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "data/blobs.hpp"
#include "load/loadgen.hpp"
#include "moe/sg_moe.hpp"
#include "nn/mlp.hpp"
#include "nn/shake_shake.hpp"
#include "sim/scenario.hpp"

namespace teamnet {
namespace {

data::Dataset blob_test_set() {
  data::BlobsConfig cfg;
  cfg.num_samples = 120;
  cfg.num_classes = 4;
  cfg.dims = 8;
  cfg.seed = 21;
  return data::make_blobs(cfg);
}

nn::MlpConfig tiny_mlp() {
  nn::MlpConfig cfg;
  cfg.in_features = 8;
  cfg.num_classes = 4;
  cfg.depth = 2;
  cfg.hidden = 12;
  return cfg;
}

/// Wraps an expert and throws on its `throw_on`-th forward pass. As expert
/// 0 it is the master's local expert, so the fault strikes inside a query
/// after every worker is serving.
class ThrowingExpert : public nn::Module {
 public:
  ThrowingExpert(nn::Module& inner, int throw_on)
      : inner_(inner), throw_on_(throw_on) {}

  ag::Var forward(const ag::Var& input) override {
    if (++forwards_ == throw_on_) {
      throw Error("expert fault on forward " + std::to_string(forwards_));
    }
    return inner_.forward(input);
  }
  std::vector<ag::Var> parameters() override { return inner_.parameters(); }
  nn::Analysis analyze(const Shape& input_shape) const override {
    return inner_.analyze(input_shape);
  }
  void set_training(bool training) override { inner_.set_training(training); }
  std::string name() const override { return "Throwing" + inner_.name(); }

  int forwards() const { return forwards_; }

 private:
  nn::Module& inner_;
  int throw_on_;
  int forwards_ = 0;
};

/// Three tiny experts (k = 3); expert 0 throws on its third forward.
struct Team {
  std::vector<std::unique_ptr<nn::MlpNet>> mlps;
  std::unique_ptr<ThrowingExpert> faulty;

  Team() {
    for (int i = 0; i < 3; ++i) {
      Rng rng(100 + i);
      mlps.push_back(std::make_unique<nn::MlpNet>(tiny_mlp(), rng));
    }
    faulty = std::make_unique<ThrowingExpert>(*mlps[0], 3);
  }
  std::vector<nn::Module*> experts() const {
    return {faulty.get(), mlps[1].get(), mlps[2].get()};
  }
};

class DriverTeardown : public ::testing::TestWithParam<sim::Scheduler> {
 protected:
  sim::ScenarioConfig config() const {
    sim::ScenarioConfig cfg;
    cfg.link = net::LinkProfile{0.0005, 0.0, 0.0};
    cfg.num_queries = 8;
    cfg.scheduler = GetParam();
    return cfg;
  }

  /// `run` must rethrow the expert's fault, raised on the third query.
  template <typename Run>
  void expect_rethrown(Run&& run) {
    Team team;
    try {
      run(team.experts());
      FAIL() << "the expert fault did not surface";
    } catch (const Error& e) {
      EXPECT_EQ(std::string(e.what()), "expert fault on forward 3");
    }
    EXPECT_EQ(team.faulty->forwards(), 3);  // no query ran past the fault
  }

  data::Dataset test_ = blob_test_set();
};

TEST_P(DriverTeardown, RunTeamnetRethrowsAndJoins) {
  expect_rethrown([&](const std::vector<nn::Module*>& experts) {
    sim::run_teamnet(experts, test_, config());
  });
}

TEST_P(DriverTeardown, ChaosRethrowsAndJoins) {
  expect_rethrown([&](const std::vector<nn::Module*>& experts) {
    sim::ChaosConfig chaos;
    chaos.faults.drop_prob = 0.1;
    chaos.faults.seed = 5;
    sim::run_teamnet_chaos(experts, test_, config(), chaos);
  });
}

TEST_P(DriverTeardown, ResilienceWithBackupsRethrowsAndJoins) {
  expect_rethrown([&](const std::vector<nn::Module*>& experts) {
    sim::ResilienceConfig res;
    res.faults.drop_prob = 0.1;
    res.faults.seed = 5;
    res.quorum = 2;
    res.hedging = true;  // backup replicas: five node threads to join
    sim::run_teamnet_resilience(experts, test_, config(), res);
  });
}

TEST_P(DriverTeardown, LoadRunRethrowsAndJoins) {
  expect_rethrown([&](const std::vector<nn::Module*>& experts) {
    load::LoadConfig load;
    load.arrival.rate_qps = 200.0;
    load.num_queries = 8;
    load.warmup_queries = 1;
    load::run_teamnet_load(experts, test_, config(), load);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Schedulers, DriverTeardown,
    ::testing::Values(sim::Scheduler::discrete_event,
                      sim::Scheduler::free_running),
    [](const ::testing::TestParamInfo<sim::Scheduler>& info) {
      return std::string(sim::to_string(info.param));
    });

/// Every entry point that replays `num_queries` rows rejects 0 and -1 with
/// a TEAMNET_CHECK error before a node serves anything.
TEST(QueryCount, EveryEntryPointRejectsCountsBelowOne) {
  const auto test = blob_test_set();
  Team team;
  const auto experts = team.experts();
  moe::SgMoeConfig moe_cfg;
  moe_cfg.num_experts = 2;
  moe::SgMoe moe(moe_cfg, 8, [](int, Rng& rng) -> nn::ModulePtr {
    return std::make_unique<nn::MlpNet>(tiny_mlp(), rng);
  });
  nn::ShakeShakeConfig ss_cfg;
  ss_cfg.depth = 8;
  ss_cfg.image_size = 8;
  ss_cfg.base_channels = 4;
  Rng rng(3);
  nn::ShakeShakeNet shake(ss_cfg, rng);

  for (const int n : {0, -1}) {
    SCOPED_TRACE("num_queries = " + std::to_string(n));
    sim::ScenarioConfig cfg;
    cfg.scheduler = sim::Scheduler::discrete_event;
    cfg.num_queries = n;
    const std::vector<sim::DeviceProfile> devices(experts.size(), cfg.device);
    EXPECT_THROW(sim::run_teamnet(experts, test, cfg), InvariantError);
    EXPECT_THROW(sim::run_teamnet_heterogeneous(experts, devices, test, cfg),
                 InvariantError);
    EXPECT_THROW(sim::run_teamnet_chaos(experts, test, cfg, {}),
                 InvariantError);
    EXPECT_THROW(sim::run_teamnet_resilience(experts, test, cfg, {}),
                 InvariantError);
    EXPECT_THROW(sim::run_sg_moe(moe, test, cfg), InvariantError);
    EXPECT_THROW(sim::run_mpi_matrix(*team.mlps[1], test, cfg, 2),
                 InvariantError);
    EXPECT_THROW(sim::run_mpi_kernel(shake, test, cfg, 2), InvariantError);
    EXPECT_THROW(sim::run_mpi_branch(shake, test, cfg), InvariantError);

    load::LoadConfig load;
    load.num_queries = n;
    load.warmup_queries = 0;
    cfg.num_queries = 8;
    EXPECT_THROW(load::run_teamnet_load(experts, test, cfg, load),
                 InvariantError);
    EXPECT_THROW(load::run_sg_moe_load(moe, test, cfg, load), InvariantError);
  }
  EXPECT_EQ(team.faulty->forwards(), 0);  // no query was ever served
}

}  // namespace
}  // namespace teamnet
