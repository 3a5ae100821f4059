#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <limits>
#include <utility>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "core/entropy.hpp"
#include "net/tcp.hpp"
#include "sim/driver_util.hpp"
#include "tensor/ops.hpp"

namespace teamnet::perfbench {

namespace {

/// Quick-mode model options rooted at the benchmark's own cache.
bench::Options model_options(const std::string& cache_dir) {
  bench::Options opts;
  opts.quick = true;
  opts.cache_dir = cache_dir;
  return opts;
}

int argmax_row(const Tensor& t) {
  int best = 0;
  for (std::int64_t j = 1; j < t.dim(1); ++j) {
    if (t[j] > t[best]) best = static_cast<int>(j);
  }
  return best;
}

/// Full-gather entropy argmin over the first `nodes` experts (TeamNet) or
/// SgMoe::infer (SG-MoE).
int reference_prediction(const WorkloadSpec& spec, Loaded& loaded, int row,
                         int nodes) {
  const Tensor x = sim::query_row_tensor(loaded.test, row);
  if (spec.approach == Approach::sgmoe) {
    return loaded.sgmoe->infer(x).predictions[0];
  }
  // Figure 1's selection: the expert with the least predictive entropy
  // answers; ties go to the lowest node, as in the sequential gather.
  float best = 0.0f;
  Tensor best_probs;
  for (std::size_t i = 0; i < static_cast<std::size_t>(nodes); ++i) {
    Tensor probs = ops::softmax_rows(loaded.experts[i]->predict(x));
    const float h = core::predictive_entropy(probs)[0];
    if (i == 0 || h < best) {
      best = h;
      best_probs = std::move(probs);
    }
  }
  return argmax_row(best_probs);
}

load::LoadConfig load_config(const WorkloadSpec& spec, std::uint64_t seed,
                             int num_queries) {
  load::LoadConfig cfg;
  cfg.arrival.kind = spec.arrival;
  cfg.arrival.rate_qps = spec.rate_qps;
  cfg.arrival.clients = spec.clients;
  cfg.arrival.think_mean_s = spec.think_s;
  cfg.arrival.seed = seed;
  cfg.query_seed = seed * 0x9E3779B97F4A7C15ULL + 1;
  cfg.num_queries = num_queries;
  cfg.warmup_queries = spec.warmup < num_queries ? spec.warmup : 0;
  cfg.worker_timeout_s = spec.worker_timeout_s;
  cfg.gather_quorum = spec.quorum;
  return cfg;
}

}  // namespace

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> specs = [] {
    std::vector<WorkloadSpec> v;
    WorkloadSpec overload;
    overload.name = "overload_k8";
    overload.k = 8;
    overload.rate_qps = 360.0;  // ~3x the k=8 serial-master capacity
    v.push_back(overload);

    WorkloadSpec quorum;
    quorum.name = "quorum_light_k4";
    quorum.k = 4;
    quorum.rate_qps = 50.0;
    quorum.worker_timeout_s = kSloS;
    quorum.quorum = 3;
    // Light load leaves the tail to rare Poisson bursts: more queries keep
    // p99 and the achieved rate from swinging with the seed.
    quorum.num_queries = 5000;
    v.push_back(quorum);

    WorkloadSpec sgmoe;
    sgmoe.name = "sgmoe_cifar_closed";
    sgmoe.approach = Approach::sgmoe;
    sgmoe.k = 4;
    sgmoe.arrival = load::ArrivalKind::closed_loop;
    sgmoe.clients = 4;
    v.push_back(sgmoe);
    return v;
  }();
  return specs;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const auto& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

// ---- TCP fleet --------------------------------------------------------------

TcpFleet::TcpFleet(const WorkloadSpec& spec,
                   const std::vector<nn::Module*>& experts,
                   moe::SgMoe* sgmoe) {
  try {
    // connect() completes against the listen backlog, so the accepting
    // side can run on this thread too; the listener is done after accept.
    for (std::size_t i = 1; i < experts.size(); ++i) {
      net::TcpListener listener(0);
      master_channels_.push_back(net::tcp_connect("127.0.0.1", listener.port()));
      worker_channels_.push_back(listener.accept());
    }
    for (std::size_t i = 1; i < experts.size(); ++i) {
      nn::Module* expert = experts[i];
      net::Channel* channel = worker_channels_[i - 1].get();
      threads_.emplace_back([expert, channel] {
        try {
          net::CollaborativeWorker worker(*expert, *channel);
          worker.serve();
        } catch (const std::exception& e) {
          LOG_WARN("perfbench tcp worker stopped: " << e.what());
        }
      });
    }
    std::vector<net::Channel*> channels;
    for (auto& c : master_channels_) channels.push_back(c.get());
    if (spec.approach == Approach::sgmoe) {
      sgmoe_ = std::make_unique<moe::MoeMaster>(*sgmoe, channels);
    } else {
      teamnet_ = std::make_unique<net::CollaborativeMaster>(*experts[0],
                                                            channels);
      if (spec.worker_timeout_s > 0.0) {
        teamnet_->set_worker_timeout(spec.worker_timeout_s);
      }
      if (spec.quorum > 0) teamnet_->set_gather_quorum(spec.quorum);
    }
  } catch (...) {
    for (auto& c : master_channels_) c->close();
    for (auto& t : threads_) t.join();
    throw;
  }
}

TcpFleet::~TcpFleet() {
  try {
    if (teamnet_) teamnet_->shutdown();
    if (sgmoe_) sgmoe_->shutdown();
  } catch (const std::exception& e) {
    LOG_WARN("perfbench tcp shutdown: " << e.what());
  }
  for (auto& c : master_channels_) c->close();
  for (auto& t : threads_) t.join();
}

TcpFleet::Answer TcpFleet::infer(const Tensor& x) {
  Answer a;
  if (teamnet_) {
    const auto r = teamnet_->infer(x);
    a.prediction = r.predictions[0];
    a.chosen = r.chosen[0];
    a.degradation = static_cast<int>(r.degradation);
    a.counted_replies = r.answered - 1;
  } else {
    const auto r = sgmoe_->infer(x);
    a.prediction = r.predictions[0];
    a.chosen = r.routed[0];
    a.degradation = r.fallback_rows > 0 ? 1 : 0;
    a.counted_replies = a.chosen != 0 ? 1 : 0;
  }
  return a;
}

std::int64_t TcpFleet::stale_replies() const {
  return teamnet_ ? teamnet_->stale_replies_discarded()
                  : sgmoe_->stale_replies_discarded();
}

// ---- set-up -----------------------------------------------------------------

void prepare_models(const std::string& cache_dir) {
  // load_workload trains whatever the cache lacks; building each workload
  // once here leaves every model in the cache.
  for (const auto& spec : workloads()) load_workload(spec, cache_dir);
}


std::unique_ptr<Loaded> load_workload(const WorkloadSpec& spec,
                                      const std::string& cache_dir) {
  const bench::Options opts = model_options(cache_dir);
  auto loaded = std::make_unique<Loaded>();
  if (spec.approach == Approach::sgmoe) {
    auto setup = bench::cifar_setup(opts);
    loaded->test = std::move(setup.test);
    loaded->sgmoe = bench::train_cifar_sgmoe(setup, spec.k, opts);
  } else {
    auto setup = bench::mnist_setup(opts);
    loaded->test = std::move(setup.test);
    loaded->team = bench::train_mnist_teamnet(setup, spec.k, opts);
  }
  if (loaded->sgmoe) {
    for (int i = 0; i < spec.k; ++i) {
      loaded->experts.push_back(&loaded->sgmoe->expert(i));
    }
  } else {
    loaded->experts = loaded->team.expert_ptrs();
  }
  TEAMNET_CHECK(static_cast<int>(loaded->experts.size()) == spec.k);
  // MoeMaster routes over every expert, so SG-MoE fleets must fit whole.
  TEAMNET_CHECK(spec.approach == Approach::teamnet || spec.k <= kTcpNodes);
  const std::vector<nn::Module*> tcp_experts(
      loaded->experts.begin(),
      loaded->experts.begin() + std::min(spec.k, kTcpNodes));
  loaded->tcp = std::make_unique<TcpFleet>(spec, tcp_experts,
                                           loaded->sgmoe.get());
  return loaded;
}

void compute_reference(const WorkloadSpec& spec, Loaded& loaded) {
  const auto rows = static_cast<std::size_t>(loaded.test.size());
  loaded.reference.assign(rows, -1);
  loaded.expert_argmax.assign(rows, {});
  for (std::size_t r = 0; r < rows; ++r) {
    loaded.reference[r] =
        reference_prediction(spec, loaded, static_cast<int>(r), spec.k);
    const Tensor x = sim::query_row_tensor(loaded.test, static_cast<int>(r));
    for (auto* e : loaded.experts) {
      loaded.expert_argmax[r].push_back(argmax_row(e->predict(x)));
    }
  }
  loaded.tcp_reference = loaded.reference;
  const int tcp_nodes = std::min(spec.k, kTcpNodes);
  if (tcp_nodes < spec.k) {
    for (std::size_t r = 0; r < rows; ++r) {
      loaded.tcp_reference[r] =
          reference_prediction(spec, loaded, static_cast<int>(r), tcp_nodes);
    }
  }
}

// ---- modelled leg -----------------------------------------------------------

DesReplay run_des(const WorkloadSpec& spec, Loaded& loaded, std::uint64_t seed,
                  int num_queries) {
  sim::ScenarioConfig cfg;
  cfg.link = sim::socket_link();
  cfg.scheduler = sim::Scheduler::discrete_event;
  const load::LoadConfig lc = load_config(spec, seed, num_queries);

  DesReplay out;
  const Usage u0 = usage_now();
  const double t0 = wall_now_s();
  out.result = spec.approach == Approach::sgmoe
                   ? load::run_sg_moe_load(*loaded.sgmoe, loaded.test, cfg, lc)
                   : load::run_teamnet_load(loaded.experts, loaded.test, cfg,
                                            lc);
  out.wall_s = wall_now_s() - t0;
  const Usage u1 = usage_now();
  out.cpu_s = u1.cpu_s - u0.cpu_s;
  out.vcsw = u1.vcsw - u0.vcsw;
  return out;
}

std::int64_t des_mismatches(const Loaded& loaded, const load::LoadResult& r) {
  std::int64_t bad = 0;
  for (const auto& rec : r.records) {
    if (rec.degradation != 0) continue;  // only full answers have a reference
    const auto row = static_cast<std::size_t>(rec.row);
    const bool ref_correct = loaded.reference[row] == loaded.test.labels[row];
    if (rec.correct != ref_correct) ++bad;
  }
  return bad;
}

std::int64_t prefix_mismatches(const load::LoadResult& full,
                               const load::LoadResult& replay) {
  if (replay.records.size() > full.records.size()) {
    return static_cast<std::int64_t>(replay.records.size());
  }
  std::int64_t bad = 0;
  for (std::size_t i = 0; i < replay.records.size(); ++i) {
    const auto& x = full.records[i];
    const auto& y = replay.records[i];
    if (x.arrival_s != y.arrival_s || x.completion_s != y.completion_s ||
        x.row != y.row || x.correct != y.correct ||
        x.degradation != y.degradation) {
      ++bad;
    }
  }
  return bad;
}

// ---- real leg ---------------------------------------------------------------

void run_tcp(Loaded& loaded, const std::vector<int>& rows, double seconds,
             TcpRun& out) {
  TEAMNET_CHECK(!rows.empty());
  const std::int64_t stale0 = loaded.tcp->stale_replies();
  const double start = wall_now_s();
  double now = start;
  while (now - start < seconds) {
    const auto row = static_cast<std::size_t>(rows[out.next]);
    out.next = (out.next + 1) % rows.size();
    const Tensor x = sim::query_row_tensor(loaded.test, static_cast<int>(row));
    const double t0 = wall_now_s();
    const auto a = loaded.tcp->infer(x);
    now = wall_now_s();
    out.latency_us.push_back(1e6 * (now - t0));
    // A full gather must equal the reference; a degraded one must be the
    // chosen node's own answer.
    const int expected =
        a.degradation == 0
            ? loaded.tcp_reference[row]
            : loaded.expert_argmax[row][static_cast<std::size_t>(a.chosen)];
    if (a.prediction != expected) ++out.mismatches;
    if (a.degradation != 0) ++out.degraded;
    out.counted_replies += a.counted_replies;
  }
  out.stale_replies += loaded.tcp->stale_replies() - stale0;
}

// ---- host clocks ------------------------------------------------------------

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
  u.vcsw = static_cast<double>(ru.ru_nvcsw);
  return u;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kb = 0.0;
      status >> kb;
      return kb / 1024.0;
    }
    status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  throw Error("VmHWM not found in /proc/self/status");
}

double wall_now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace teamnet::perfbench
