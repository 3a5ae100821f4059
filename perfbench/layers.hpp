// Isolated per-layer measurements for the traced run. Each one replays the
// workload's own inputs through one module's public functions, timed on the
// host clock from the benchmark's files (nothing inside src/ is touched):
//
//   tensor  gemm() at the GEMM shapes one expert forward performs
//   nn      Module::predict on the query rows, Module::analyze FLOPs
//   gate    TeamNet entropy argmin / SgMoe::route on the same rows
//   net     Message::encode / decode of the workload's Infer/Result frames
//   tcp     a framed echo of the Infer frame over a loopback pair
//   des     sim::des::Engine driven by K threads in the workload's
//           broadcast/gather pattern with empty payloads
#pragma once

#include <vector>

#include "spans.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace teamnet::perfbench {

struct LayerReport {
  double gemm_gflops = 0.0;
  double predict_us = 0.0;           ///< per Module::predict call
  double predicts_per_query = 0.0;
  double mflop_per_query = 0.0;      ///< Module::analyze, all experts asked
  double select_us = 0.0;            ///< per query
  double remote_share = 0.0;         ///< answers produced by a remote expert
  double encode_ns_per_byte = 0.0;
  double decode_ns_per_byte = 0.0;
  double codec_us_per_query = 0.0;   ///< encode+decode at per-query counts
  double tcp_roundtrip_us = 0.0;
  double engine_ns_per_msg = 0.0;
  double engine_msgs_per_query = 0.0;
  std::int64_t replayed_queries = 0;
  std::int64_t mismatches = 0;  ///< replayed selections != reference
};

/// Replays every row of `rows` once through nn/gate/net (one span per
/// query, children per layer call), then times gemm, the TCP echo and the
/// DES engine for `seconds` in total, all under span `parent`.
LayerReport measure_layers(const WorkloadSpec& spec, Loaded& loaded,
                           const std::vector<int>& rows, double seconds,
                           SpanRecorder& spans, int parent);

/// The isolated costs whose sum the residual subtracts from host time.
std::vector<LayerCost> layer_costs(const LayerReport& r);

}  // namespace teamnet::perfbench
