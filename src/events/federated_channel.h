// Federated event channel (paper §3, Figure 1).
//
// "All processors are connected by TAO's federated event channel which
// pushes events through local event channels, gateways and remote event
// channels to the events' consumers sitting on different processors."
//
// This implementation keeps one LocalEventChannel per processor and routes
// each event by the addresses its payload already carries:
//   - Trigger: placement[stage], for the subscription keyed (task, stage);
//   - Accept: the arrival processor and placement.front(), de-duplicated;
//   - Reject: the arrival processor;
//   - TaskArrive, IdleReset: every channel holding a subscription of that
//     type (the AC's), kept in a listener table as subscriptions come and go.
// A destination channel receives the event only if it holds a subscription
// for the event's key; it gets one network message (loopback latency when
// it is the source's own channel), so push costs O(destinations).
// Destinations are sent to in ascending processor order, which fixes the
// order of the network's per-message latency draws.
#pragma once

#include <array>
#include <map>
#include <memory>
#include <vector>

#include "events/local_channel.h"
#include "events/placement_table.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace rtcm::events {

struct FederationStats {
  std::uint64_t events_pushed = 0;
  std::uint64_t local_deliveries = 0;
  std::uint64_t remote_deliveries = 0;
};

class FederatedEventChannel {
 public:
  FederatedEventChannel(sim::Simulator& sim, sim::Network& network)
      : sim_(sim), network_(network) {}
  FederatedEventChannel(const FederatedEventChannel&) = delete;
  FederatedEventChannel& operator=(const FederatedEventChannel&) = delete;

  /// The local channel of `processor`, created on first use.
  LocalEventChannel& channel(ProcessorId processor);

  /// Push an event from `source`; stamps `published` and routes it to every
  /// addressed channel that holds a subscription for it (including the
  /// source's own).
  void push(ProcessorId source, EventPayload payload);

  /// The run's interned placements.  Accept and Trigger payloads view into
  /// it, and it lives as long as the channel that carries them.
  [[nodiscard]] PlacementTable& placements() { return placements_; }

  [[nodiscard]] const FederationStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t channel_count() const { return channels_.size(); }

 private:
  friend class LocalEventChannel;

  /// Called by a channel gaining its first, or losing its last,
  /// subscription for `key`; only broadcast types are tabled.
  void add_listener(const RouteKey& key, LocalEventChannel& channel);
  void remove_listener(const RouteKey& key, LocalEventChannel& channel);

  /// Ship one copy of `event` to `dest` through the network.
  void send(LocalEventChannel& dest, Event event);

  sim::Simulator& sim_;
  sim::Network& network_;
  std::map<ProcessorId, std::unique_ptr<LocalEventChannel>> channels_;
  /// Per broadcast event type, the channels subscribed to it, in ascending
  /// processor order.
  std::array<std::vector<LocalEventChannel*>,
             std::variant_size_v<EventPayload>>
      listeners_;
  FederationStats stats_;
  PlacementTable placements_;
};

}  // namespace rtcm::events
