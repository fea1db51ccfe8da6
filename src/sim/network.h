// Simulated interconnect between processors.
//
// Models the paper testbed's 100 Mbps switched Ethernet as a point-to-point
// latency: every message between distinct processors is delivered after
// `LatencyModel::latency(from, to)`.  Messages between co-located endpoints
// (same processor) are delivered after the loopback latency (default zero).
// Delivery preserves per-(from,to) FIFO order because latency is
// deterministic per link and the engine breaks time ties by insertion order.
#pragma once

#include <cstdint>
#include <memory>

#include "sim/simulator.h"
#include "util/ids.h"
#include "util/time.h"

namespace rtcm::sim {

/// Pluggable link-latency policy.
class LatencyModel {
 public:
  virtual ~LatencyModel() = default;
  [[nodiscard]] virtual Duration latency(ProcessorId from,
                                         ProcessorId to) const = 0;
};

/// Uniform latency for all remote links; separate loopback value.
class ConstantLatency final : public LatencyModel {
 public:
  explicit ConstantLatency(Duration remote,
                           Duration loopback = Duration::zero())
      : remote_(remote), loopback_(loopback) {}

  [[nodiscard]] Duration latency(ProcessorId from,
                                 ProcessorId to) const override {
    return from == to ? loopback_ : remote_;
  }

 private:
  Duration remote_;
  Duration loopback_;
};

/// Base latency plus seeded uniform jitter in [0, jitter] per remote
/// message — models switch/queueing variance on the paper's Ethernet.
/// Deterministic for a given seed and draw sequence.  Note that unequal
/// per-message draws can reorder messages on one link (real UDP-style
/// behaviour); protocols in this codebase tolerate that.
class UniformJitterLatency final : public LatencyModel {
 public:
  UniformJitterLatency(Duration base, Duration jitter, std::uint64_t seed,
                       Duration loopback = Duration::zero());

  [[nodiscard]] Duration latency(ProcessorId from,
                                 ProcessorId to) const override;

 private:
  Duration base_;
  Duration jitter_;
  Duration loopback_;
  /// mutable: latency() is logically const but consumes the jitter stream.
  mutable std::uint64_t state_;
};

struct NetworkStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t remote_messages = 0;
};

class Network {
 public:
  /// The paper's measured mean one-way delay on its testbed (Figure 8).
  static constexpr Duration kPaperOneWayDelay = Duration::microseconds(322);

  Network(Simulator& sim, std::unique_ptr<LatencyModel> model);

  /// Deliver `on_deliver` at the destination after the link latency.
  void send(ProcessorId from, ProcessorId to, EventFn on_deliver);

  [[nodiscard]] const NetworkStats& stats() const { return stats_; }
  [[nodiscard]] const LatencyModel& model() const { return *model_; }

 private:
  Simulator& sim_;
  std::unique_ptr<LatencyModel> model_;
  NetworkStats stats_;
};

}  // namespace rtcm::sim
