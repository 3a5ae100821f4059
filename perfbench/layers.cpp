#include "layers.hpp"

#include <algorithm>
#include <set>
#include <string>
#include <thread>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/entropy.hpp"
#include "net/message.hpp"
#include "net/tcp.hpp"
#include "sim/calibration.hpp"
#include "sim/des/engine.hpp"
#include "sim/driver_util.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"

namespace teamnet::perfbench {

namespace {

constexpr std::size_t kReplayQueries = 1100;  // per-query layer replay

/// Calls `body` until `seconds` of wall time have passed (at least
/// `min_calls` times); returns the number of calls.
template <typename Body>
std::int64_t repeat_for(double seconds, std::int64_t min_calls, Body body) {
  const double start = wall_now_s();
  std::int64_t calls = 0;
  while (calls < min_calls || wall_now_s() - start < seconds) {
    body(calls);
    ++calls;
  }
  return calls;
}

/// Times one call of `fn`, in seconds, inside a span named `name`.
template <typename Fn>
double timed(SpanRecorder& spans, const char* name, int parent,
             std::int64_t qid, Fn fn) {
  ScopedSpan span(spans, name, parent, qid);
  const double t0 = wall_now_s();
  fn();
  return wall_now_s() - t0;
}

net::Message infer_frame(const Tensor& x, std::int64_t qid) {
  net::Message m;
  m.type = net::MsgType::Infer;
  net::InferInfo info;
  info.qid = qid;
  info.deadline_us = 50000;
  net::set_infer_info(m, info);
  m.tensors = {x};
  return m;
}

net::Message result_frame(const Tensor& probs, std::int64_t qid) {
  net::Message m;
  m.type = net::MsgType::Result;
  m.ints = {qid};
  m.tensors = {probs, core::predictive_entropy(probs)};
  return m;
}

struct GemmShape {
  std::int64_t m = 0, k = 0, n = 0;
  double flops() const { return 2.0 * static_cast<double>(m * k * n); }
};

/// GEMM shapes of one forward pass of `model` on `x`, read off the autograd
/// graph (matmul and conv2d nodes; conv2d is im2col rows x kernel).
std::vector<GemmShape> gemm_shapes(nn::Module& model, const Tensor& x) {
  const ag::Var out = model.forward(ag::constant(x));
  std::vector<GemmShape> shapes;
  std::vector<const ag::Node*> stack{out.node().get()};
  std::set<const ag::Node*> seen;
  while (!stack.empty()) {
    const ag::Node* n = stack.back();
    stack.pop_back();
    if (!seen.insert(n).second) continue;
    const std::string op = n->op;
    if (op == "matmul" && n->parents.size() >= 2) {
      const Tensor& a = n->parents[0]->value;
      const Tensor& b = n->parents[1]->value;
      shapes.push_back({a.dim(0), a.dim(1), b.dim(1)});
    } else if (op == "conv2d" && n->parents.size() >= 2) {
      const Tensor& w = n->parents[1]->value;
      const Tensor& y = n->value;  // [N, Cout, Ho, Wo]
      shapes.push_back({y.dim(0) * y.dim(2) * y.dim(3), w.dim(0), w.dim(1)});
    }
    for (const auto& p : n->parents) stack.push_back(p.get());
  }
  return shapes;
}

double gemm_gflops(const std::vector<GemmShape>& shapes, double seconds,
                   SpanRecorder& spans, int parent) {
  Rng rng(17);
  std::vector<Tensor> a, b, c;
  for (const auto& s : shapes) {
    a.push_back(Tensor::randn({s.m, s.k}, rng));
    b.push_back(Tensor::randn({s.k, s.n}, rng));
    c.emplace_back(Shape{s.m, s.n});
  }
  double flops = 0.0;
  double busy = 0.0;
  repeat_for(seconds, 3, [&](std::int64_t) {
    busy += timed(spans, "tensor.gemm", parent, -1, [&] {
      for (std::size_t i = 0; i < shapes.size(); ++i) {
        gemm(a[i].data(), b[i].data(), c[i].data(), shapes[i].m, shapes[i].k,
             shapes[i].n);
        flops += shapes[i].flops();
      }
    });
  });
  return busy > 0.0 ? flops / busy / 1e9 : 0.0;
}

/// Round trip of `frame` over a loopback TcpChannel pair whose far end
/// echoes every frame back.
double tcp_roundtrip_us(const std::string& frame, double seconds,
                        SpanRecorder& spans, int parent) {
  net::TcpListener listener(0);
  net::ChannelPtr near = net::tcp_connect("127.0.0.1", listener.port());
  net::ChannelPtr far = listener.accept();
  std::thread echo([&far] {
    try {
      for (;;) {
        std::string bytes = far->recv();
        if (bytes.empty()) break;
        far->send(std::move(bytes));
      }
    } catch (const Error&) {
      // peer closed: the benchmark is done with the pair
    }
  });
  double busy = 0.0;
  std::int64_t calls = 0;
  try {
    calls = repeat_for(seconds, 50, [&](std::int64_t) {
      busy += timed(spans, "tcp.roundtrip", parent, -1, [&] {
        near->send(frame);
        (void)near->recv();
      });
    });
    near->send(std::string());
  } catch (...) {
    near->close();
    echo.join();
    throw;
  }
  echo.join();
  return 1e6 * busy / static_cast<double>(calls);
}

/// sim::des::Engine with `k` node threads: per query node 0 sends an empty
/// message to `fanout` workers and gathers as many replies.
double engine_ns_per_msg(int k, int fanout, double seconds,
                         SpanRecorder& spans, int parent) {
  sim::des::Engine engine(k);
  std::vector<std::shared_ptr<sim::des::Mailbox>> mb;
  for (int i = 0; i < k; ++i) mb.push_back(engine.make_mailbox(i));
  const net::LinkProfile link = sim::socket_link();
  const std::string stop = "x";
  std::vector<std::thread> workers;
  for (int w = 1; w < k; ++w) {
    workers.emplace_back([&engine, &mb, &link, &stop, w] {
      try {
        for (;;) {
          if (engine.recv(w, *mb[static_cast<std::size_t>(w)]) == stop) break;
          engine.send(w, mb[0], std::string(), link);
        }
      } catch (const Error&) {
        // closed: fall through to retire
      }
      engine.retire(w);
    });
  }
  std::int64_t queries = 0;
  double busy = 0.0;
  try {
    queries = repeat_for(seconds, 50, [&](std::int64_t q) {
      busy += timed(spans, "des.engine", parent, -1, [&] {
        for (int f = 0; f < fanout; ++f) {
          const auto w = static_cast<std::size_t>(1 + (q + f) % (k - 1));
          engine.send(0, mb[w], std::string(), link);
        }
        for (int f = 0; f < fanout; ++f) (void)engine.recv(0, *mb[0]);
      });
    });
    for (int w = 1; w < k; ++w) {
      engine.send(0, mb[static_cast<std::size_t>(w)], stop, link);
    }
  } catch (...) {
    for (auto& m : mb) engine.close(*m);
    engine.retire(0);
    for (auto& t : workers) t.join();
    throw;
  }
  engine.retire(0);
  for (auto& t : workers) t.join();
  return 1e9 * busy / static_cast<double>(2 * fanout * queries);
}

}  // namespace

LayerReport measure_layers(const WorkloadSpec& spec, Loaded& loaded,
                           const std::vector<int>& rows, double seconds,
                           SpanRecorder& spans, int parent) {
  TEAMNET_CHECK(!rows.empty());
  LayerReport r;
  const int k = spec.k;
  const Tensor x0 = sim::query_row_tensor(loaded.test, rows[0]);
  const Shape sample(x0.shape().begin() + 1, x0.shape().end());
  const std::int64_t expert_flops = loaded.experts[0]->analyze(sample).flops;

  // Per-query replay: predict, select and the frames one query exchanges.
  double predict_s = 0.0, select_s = 0.0, enc_s = 0.0, dec_s = 0.0;
  double codec_bytes = 0.0, infer_bytes = 0.0, result_bytes = 0.0;
  std::int64_t predicts = 0, remote = 0;
  // The workload's first rows, each once, so the counts are a property of
  // the seed, not of host speed.
  r.replayed_queries = static_cast<std::int64_t>(
      std::min<std::size_t>(rows.size(), kReplayQueries));
  for (std::int64_t q = 0; q < r.replayed_queries; ++q) {
    const int row = rows[static_cast<std::size_t>(q)];
    ScopedSpan query(spans, "query", parent, row);
    const Tensor x = sim::query_row_tensor(loaded.test, row);
    int chosen = 0;
    std::vector<Tensor> logits;
    if (spec.approach == Approach::sgmoe) {
      select_s += timed(spans, "gate.select", query.id(), row,
                        [&] { chosen = loaded.sgmoe->route(x)[0]; });
      predict_s += timed(spans, "nn.predict", query.id(), row, [&] {
        logits.push_back(
            loaded.experts[static_cast<std::size_t>(chosen)]->predict(x));
      });
      ++predicts;
    } else {
      for (int i = 0; i < k; ++i) {
        predict_s += timed(spans, "nn.predict", query.id(), row, [&] {
          logits.push_back(loaded.experts[static_cast<std::size_t>(i)]->predict(x));
        });
        ++predicts;
      }
      select_s += timed(spans, "gate.select", query.id(), row, [&] {
        float best = 0.0f;
        for (int i = 0; i < k; ++i) {
          const Tensor probs =
              ops::softmax_rows(logits[static_cast<std::size_t>(i)]);
          const float h = core::predictive_entropy(probs)[0];
          if (i == 0 || h < best) {
            best = h;
            chosen = i;
          }
        }
      });
    }
    if (chosen != 0) ++remote;
    const auto& answer = spec.approach == Approach::sgmoe
                             ? logits.back()
                             : logits[static_cast<std::size_t>(chosen)];
    if (ops::argmax_rows(answer)[0] !=
        loaded.reference[static_cast<std::size_t>(row)]) {
      ++r.mismatches;
    }

    // The frames this query puts on the wire, encoded and decoded once each.
    const net::Message infer = infer_frame(x, q + 1);
    const net::Message result =
        result_frame(ops::softmax_rows(logits.back()), q + 1);
    std::string infer_bytes_s, result_bytes_s;
    enc_s += timed(spans, "net.encode", query.id(), row, [&] {
      infer_bytes_s = infer.encode();
      result_bytes_s = result.encode();
    });
    dec_s += timed(spans, "net.decode", query.id(), row, [&] {
      (void)net::Message::decode(infer_bytes_s);
      (void)net::Message::decode(result_bytes_s);
    });
    infer_bytes = static_cast<double>(infer_bytes_s.size());
    result_bytes = static_cast<double>(result_bytes_s.size());
    codec_bytes += infer_bytes + result_bytes;
  }
  const auto nq = static_cast<double>(r.replayed_queries);
  r.predict_us = 1e6 * predict_s / static_cast<double>(predicts);
  r.predicts_per_query = static_cast<double>(predicts) / nq;
  r.select_us = 1e6 * select_s / nq;
  r.remote_share = static_cast<double>(remote) / nq;
  r.encode_ns_per_byte = 1e9 * enc_s / codec_bytes;
  r.decode_ns_per_byte = 1e9 * dec_s / codec_bytes;
  // Frames per query: TeamNet encodes the Infer once and each of the K-1
  // workers decodes it, encodes a Result, and the master decodes that;
  // SG-MoE does one Infer/Result exchange when the routed expert is remote.
  const double workers = spec.approach == Approach::sgmoe
                             ? r.remote_share
                             : static_cast<double>(k - 1);
  const double infer_encodes = spec.approach == Approach::sgmoe ? workers : 1.0;
  r.codec_us_per_query =
      1e-3 * (r.encode_ns_per_byte *
                  (infer_encodes * infer_bytes + workers * result_bytes) +
              r.decode_ns_per_byte * workers * (infer_bytes + result_bytes));
  r.mflop_per_query =
      1e-6 * static_cast<double>(expert_flops) * r.predicts_per_query;
  if (spec.approach == Approach::sgmoe) {
    // The gate is a Linear over the flattened sample.
    const Shape flat{x0.numel() / x0.dim(0)};
    r.mflop_per_query +=
        1e-6 * static_cast<double>(loaded.sgmoe->gate().analyze(flat).flops);
  }

  const auto shapes = gemm_shapes(*loaded.experts[0], x0);
  TEAMNET_CHECK_MSG(!shapes.empty(), "no GEMM found in the expert's forward");
  r.gemm_gflops = gemm_gflops(shapes, seconds / 3, spans, parent);

  const std::string frame = infer_frame(x0, 1).encode();
  r.tcp_roundtrip_us = tcp_roundtrip_us(frame, seconds / 3, spans, parent);

  const int fanout = spec.approach == Approach::sgmoe ? 1 : k - 1;
  r.engine_ns_per_msg =
      engine_ns_per_msg(k, fanout, seconds / 3, spans, parent);
  r.engine_msgs_per_query = 2.0 * fanout;
  return r;
}

std::vector<LayerCost> layer_costs(const LayerReport& r) {
  return {{"nn.predict", r.predict_us, r.predicts_per_query},
          {"gate.select", r.select_us, 1.0},
          {"net.codec", r.codec_us_per_query, 1.0}};
}

}  // namespace teamnet::perfbench
