#include "sim/network.h"

#include <cassert>
#include <utility>

namespace rtcm::sim {

Network::Network(Simulator& sim, std::unique_ptr<LatencyModel> model)
    : sim_(sim), model_(std::move(model)) {
  assert(model_ && "network needs a latency model");
}

UniformJitterLatency::UniformJitterLatency(Duration base, Duration jitter,
                                           std::uint64_t seed,
                                           Duration loopback)
    : base_(base), jitter_(jitter), loopback_(loopback), state_(seed | 1) {
  assert(!base.is_negative() && !jitter.is_negative());
}

Duration UniformJitterLatency::latency(ProcessorId from,
                                       ProcessorId to) const {
  if (from == to) return loopback_;
  if (jitter_.is_zero()) return base_;
  // xorshift64*: cheap, deterministic, good enough for latency noise.
  std::uint64_t x = state_;
  x ^= x >> 12;
  x ^= x << 25;
  x ^= x >> 27;
  state_ = x;
  const std::uint64_t draw = (x * 0x2545F4914F6CDD1DULL) >>
                             32;  // 32 high-quality bits
  const auto offset = static_cast<std::int64_t>(
      draw % static_cast<std::uint64_t>(jitter_.usec() + 1));
  return base_ + Duration(offset);
}

void Network::send(ProcessorId from, ProcessorId to, EventFn on_deliver) {
  assert(on_deliver);
  const Duration lat = model_->latency(from, to);
  assert(!lat.is_negative());
  ++stats_.messages_sent;
  if (from != to) ++stats_.remote_messages;
  sim_.schedule_after(lat, std::move(on_deliver));
}

}  // namespace rtcm::sim
