#include "net/collab.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "core/entropy.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "tensor/ops.hpp"

namespace teamnet::net {

std::int64_t batch_flops(nn::Module& model, const Tensor& x) {
  Shape sample_shape(x.shape().begin() + 1, x.shape().end());
  return model.analyze(sample_shape).flops * x.dim(0);
}

namespace {

/// Local expert evaluation: probabilities + per-sample entropy.
std::pair<Tensor, Tensor> evaluate(nn::Module& expert, const Tensor& x) {
  Tensor probs = ops::softmax_rows(expert.predict(x));
  Tensor entropy = core::predictive_entropy(probs);
  return {std::move(probs), std::move(entropy)};
}

}  // namespace

CollaborativeWorker::CollaborativeWorker(nn::Module& expert, Channel& channel)
    : expert_(expert), channel_(channel), now_(&steady_seconds) {
  expert_.set_training(false);
}

void CollaborativeWorker::set_time_source(TimeSource now) {
  now_ = now ? std::move(now) : TimeSource(&steady_seconds);
}

void CollaborativeWorker::set_trace_node(int node) {
  TEAMNET_CHECK_MSG(node >= 1, "worker trace node must be >= 1");
  trace_node_ = node;
}

// analyze:hot  (per-query path: hot-path allocation audit root)
void CollaborativeWorker::serve() {
  for (;;) {
    // Worker side: blocking on the master is the serving contract; the
    // deadline discipline (analyze.py rule unbounded-wait) exists for
    // master-side gathers, where one slow peer must not starve the rest.
    std::string raw = channel_.recv();
    Message request;
    try {
      request = Message::decode(raw);
    } catch (const SerializationError& e) {
      LOG_WARN("worker: dropping malformed frame (" << e.what() << ")");
      continue;
    }
    if (request.type == MsgType::Shutdown) return;
    if (request.type == MsgType::Ping) {
      Message pong;
      pong.type = MsgType::Pong;
      pong.ints = request.ints;  // echo the probe id
      channel_.send(pong.encode());
      ++pongs_;
      continue;
    }
    if (request.type != MsgType::Infer || request.tensors.size() != 1) {
      LOG_WARN("worker: dropping unexpected message type "
               << static_cast<int>(request.type));
      continue;
    }
    const InferInfo info = infer_info(request);
    // Hedged requests answer under the primary worker's identity, so only
    // the primary replica publishes marks/flows for a query (DESIGN.md
    // §15) — a backup doing the same would double-book the lane.
    const bool marked = trace_node_ >= 1 && !info.hedged && obs::qtl_active();
    const auto mark = [&](obs::WorkerMark m) {
      if (marked) obs::qtl_worker_mark(info.qid, trace_node_ - 1, m, now_());
    };
    if (marked) {
      obs::trace_flow_finish("infer", obs::flow_id(info.qid, trace_node_, 0));
    }
    mark(obs::WorkerMark::request_recv);
    if (drop_expired_ && info.deadline_us != kNoDeadlineUs &&
        now_() * 1e6 > static_cast<double>(info.deadline_us)) {
      // The propagated deadline already passed on this node's clock: the
      // master has stopped listening, so computing a reply could only feed
      // the stale-discard path. Drop the request instead (DESIGN.md §13).
      expired_dropped_.add();
      obs::trace_instant("expired_request_dropped", [&] {
        return obs::TraceArgs().arg("qid", info.qid);
      });
      continue;
    }
    const Tensor& x = request.tensors[0];
    try {
      obs::TraceSpan span("expert_forward", [&] {
        return obs::TraceArgs().arg(
            "qid", request.ints.empty() ? std::int64_t{-1} : request.ints[0]);
      });
      // compute_begin BEFORE the compute hook: under simulation the hook
      // advances this node's virtual clock by the modeled compute time, so
      // the begin/end pair brackets exactly that interval.
      mark(obs::WorkerMark::compute_begin);
      if (on_compute_) on_compute_(batch_flops(expert_, x));
      auto [probs, entropy] = evaluate(expert_, x);
      mark(obs::WorkerMark::compute_end);
      Message reply;
      reply.type = MsgType::Result;
      reply.ints = request.ints;  // echo the query id
      reply.tensors = {std::move(probs), std::move(entropy)};
      channel_.send(reply.encode());
      if (marked) {
        obs::trace_flow_start("result", obs::flow_id(info.qid, trace_node_, 1));
      }
      mark(obs::WorkerMark::reply_sent);
      ++served_;
    } catch (const NetworkError&) {
      throw;  // broken channel: the serving loop cannot continue
    } catch (const Error& e) {
      // A corrupted frame can decode into an Infer the expert cannot run
      // (bad shapes); skip it — the master's deadline covers the answer.
      LOG_WARN("worker: dropping Infer it cannot evaluate (" << e.what()
                                                             << ")");
    }
  }
}

CollaborativeMaster::CollaborativeMaster(nn::Module& local_expert,
                                         std::vector<Channel*> workers)
    : expert_(local_expert), fleet_(std::move(workers), "collab") {
  expert_.set_training(false);
}

void CollaborativeMaster::set_gather_quorum(int answers) {
  TEAMNET_CHECK_MSG(answers >= 0, "gather quorum must be >= 0");
  quorum_ = answers;
}

// analyze:hot  (per-query path: hot-path allocation audit root)
CollaborativeMaster::Result CollaborativeMaster::infer(const Tensor& x) {
  TEAMNET_CHECK(x.rank() >= 2);
  const std::int64_t n = x.dim(0);
  const std::int64_t qid = ++query_seq_;
  queries_.add();
  obs::TraceSpan query_span("query", [&] {
    return obs::TraceArgs().arg("qid", qid).arg("batch", n);
  });
  fleet_.open(qid);

  // Step 2: broadcast the sensor data to every dispatchable worker. Channel
  // errors mark the worker failed rather than aborting the query.
  const std::string encoded = fleet_.infer_frame(x);
  {
    obs::TraceSpan span("broadcast", [&] {
      return obs::TraceArgs().arg("qid", qid).arg("bytes_per_worker",
                                                  encoded.size());
    });
    for (std::size_t w = 0; w < fleet_.size(); ++w) fleet_.dispatch(w, encoded);
  }
  fleet_.end_dispatch();

  // Step 3 (local share): the master evaluates its own expert while the
  // workers evaluate theirs.
  std::pair<Tensor, Tensor> local;
  {
    obs::TraceSpan span("expert_forward", [&] {
      return obs::TraceArgs().arg("qid", qid);
    });
    if (on_compute_) on_compute_(batch_flops(expert_, x));
    local = evaluate(expert_, x);
  }
  fleet_.mark(obs::QueryPhase::local_compute_end);

  // Step 4: gather the workers' answers before ONE shared deadline — all
  // of them, or a quorum counting the local expert as one.
  const auto answers = fleet_.gather(quorum_, &x);
  fleet_.mark(obs::QueryPhase::gather_end);

  // Step 5: per sample, the least-uncertain answering node wins (ties go
  // to the local expert, then to the earliest answer).
  const int answered = 1 + static_cast<int>(answers.size());
  obs::TraceSpan argmin_span("argmin", [&] {
    return obs::TraceArgs().arg("qid", qid).arg("answered", answered);
  });
  const std::int64_t c = local.first.dim(1);
  Result result;
  result.probs = Tensor({n, c});
  result.chosen.resize(static_cast<std::size_t>(n));
  for (std::int64_t r = 0; r < n; ++r) {
    const Tensor* best_probs = &local.first;
    float best = local.second[r];
    int node = 0;
    for (const Answer& a : answers) {
      if (a.entropy[r] < best) {
        best = a.entropy[r];
        best_probs = &a.probs;
        node = static_cast<int>(a.worker) + 1;
      }
    }
    result.chosen[static_cast<std::size_t>(r)] = node;
    const float* src = best_probs->data() + r * c;
    std::copy(src, src + c, result.probs.data() + r * c);
  }
  result.predictions = ops::argmax_rows(result.probs);
  result.answered = answered;
  // Degradation level is fleet-relative (DESIGN.md §13): `full` means every
  // expert contributed — a worker skipped at broadcast (probation, open
  // breaker) degrades the query exactly like one that missed the deadline.
  if (answered == 1 + static_cast<int>(fleet_.size())) {
    result.degradation = DegradationLevel::full;
  } else if (answered == 1) {
    result.degradation = DegradationLevel::local_only;
  } else {
    result.degradation = DegradationLevel::quorum;
  }
  gathers_[static_cast<std::size_t>(result.degradation)].add();
  if (obs::qtl_active()) {
    obs::qtl_degradation(qid, static_cast<int>(result.degradation));
  }
  fleet_.mark(obs::QueryPhase::complete);
  return result;
}

}  // namespace teamnet::net
