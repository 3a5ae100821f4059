// Link timing model for the edge-network simulation.
//
// A LinkProfile prices one message on a point-to-point link: fixed latency,
// per-message protocol overhead and serialization at the link's bandwidth.
// The discrete-event engine (sim/des/engine.hpp) charges every simulated
// transfer with it; sim/calibration.hpp derives the per-stack profiles.
#pragma once

#include <cstdint>

#include "common/error.hpp"

namespace teamnet::net {

/// A point-to-point link's timing model (e.g. WiFi between edge boards).
struct LinkProfile {
  double latency_s = 0.0;        ///< fixed per-message cost (propagation + stack)
  double bandwidth_bps = 0.0;    ///< bits per second; 0 means infinite
  double per_message_overhead_s = 0.0;  ///< protocol cost (RPC marshalling etc.)

  /// Seconds to deliver `bytes` over this link.
  double transfer_time(std::int64_t bytes) const {
    TEAMNET_CHECK(bytes >= 0);
    double t = latency_s + per_message_overhead_s;
    if (bandwidth_bps > 0.0) {
      t += static_cast<double>(bytes) * 8.0 / bandwidth_bps;
    }
    return t;
  }
};

/// Canonical WiFi link between edge devices (calibrated in sim/calibration).
LinkProfile wifi_link();

}  // namespace teamnet::net
