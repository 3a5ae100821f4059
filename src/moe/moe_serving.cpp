#include "moe/moe_serving.hpp"

#include <algorithm>

#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "tensor/ops.hpp"

namespace teamnet::moe {

MoeMaster::MoeMaster(SgMoe& model, std::vector<net::Channel*> workers)
    : model_(model), fleet_(std::move(workers), "moe") {
  TEAMNET_CHECK_MSG(
      static_cast<int>(fleet_.size()) == model.num_experts() - 1,
      "need one worker channel per remote expert");
}

// analyze:hot  (per-query path: hot-path allocation audit root)
MoeMaster::Result MoeMaster::infer(const Tensor& x) {
  const std::int64_t n = x.dim(0);
  const std::int64_t qid = ++query_seq_;
  queries_.add();
  obs::TraceSpan query_span("query", [&] {
    return obs::TraceArgs().arg("qid", qid).arg("batch", n);
  });
  fleet_.open(qid);

  // Gate evaluation on the master (tiny linear layer).
  Result result;
  {
    obs::TraceSpan span("route", [&] {
      return obs::TraceArgs().arg("qid", qid);
    });
    if (on_compute_) {
      on_compute_(2 * x.numel() / n * model_.num_experts() * n);
    }
    result.routed = model_.route(x);
  }

  // Group rows per expert; remote groups cost one round trip each.
  std::vector<std::vector<int>> groups(
      static_cast<std::size_t>(model_.num_experts()));
  for (std::int64_t r = 0; r < n; ++r) {
    groups[static_cast<std::size_t>(
               result.routed[static_cast<std::size_t>(r)])]
        .push_back(static_cast<int>(r));
  }

  // Dispatch remote requests first so the remote nodes compute while the
  // master handles its local group.
  std::vector<char> asked(groups.size(), 0);
  {
    obs::TraceSpan span("dispatch", [&] {
      return obs::TraceArgs().arg("qid", qid);
    });
    for (std::size_t i = 1; i < groups.size(); ++i) {
      if (groups[i].empty()) continue;
      asked[i] = fleet_.dispatch(
          i - 1, fleet_.infer_frame(ops::take_rows(x, groups[i])));
    }
  }
  fleet_.end_dispatch();

  Tensor probs;
  auto place = [&](const std::vector<int>& rows, const Tensor& pi) {
    if (!probs.defined()) probs = Tensor({n, pi.dim(1)});
    for (std::size_t r = 0; r < rows.size(); ++r) {
      std::copy(pi.data() + static_cast<std::int64_t>(r) * pi.dim(1),
                pi.data() + static_cast<std::int64_t>(r + 1) * pi.dim(1),
                probs.data() + rows[r] * pi.dim(1));
    }
  };
  auto run_local = [&](const std::vector<int>& rows) {
    Tensor xi = ops::take_rows(x, rows);
    if (on_compute_) on_compute_(net::batch_flops(model_.expert(0), xi));
    place(rows, ops::softmax_rows(model_.expert(0).predict(xi)));
  };
  // Local fallback: expert 0 answers the rows routed to expert i.
  auto fall_back = [&](std::size_t i) {
    const auto rows = static_cast<std::int64_t>(groups[i].size());
    result.fallback_rows += rows;
    fallback_rows_.add(rows);
    run_local(groups[i]);
  };

  // Local expert 0: its own rows, then those of every expert the fleet
  // could not ask (probation, open breaker, send error).
  if (!groups[0].empty()) {
    obs::TraceSpan span("expert_forward", [&] {
      return obs::TraceArgs().arg("qid", qid).arg(
          "rows", static_cast<std::int64_t>(groups[0].size()));
    });
    run_local(groups[0]);
  }
  for (std::size_t i = 1; i < groups.size(); ++i) {
    if (!groups[i].empty() && !asked[i]) fall_back(i);
  }
  fleet_.mark(obs::QueryPhase::local_compute_end);

  // Every asked expert's answer is needed: the routed expert's answer IS
  // the answer for its rows. The rows of an expert that missed the shared
  // deadline or errored (now in probation) fall back too.
  for (const net::Answer& a : fleet_.gather(0)) {
    place(groups[a.worker + 1], a.probs);
    asked[a.worker + 1] = 0;
  }
  for (std::size_t i = 1; i < groups.size(); ++i) {
    if (asked[i]) fall_back(i);
  }
  fleet_.mark(obs::QueryPhase::gather_end);
  result.probs = std::move(probs);
  result.predictions = ops::argmax_rows(result.probs);
  if (obs::qtl_active()) {
    // Map onto the shared degradation vocabulary: any row that fell back
    // to the local expert degrades the query (quorum-equivalent).
    obs::qtl_degradation(qid, result.fallback_rows > 0 ? 1 : 0);
  }
  fleet_.mark(obs::QueryPhase::complete);
  return result;
}

}  // namespace teamnet::moe
