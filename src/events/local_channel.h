// Local event channel: per-processor pub/sub endpoint.
//
// Every subscription carries the address it listens on, a RouteKey: a
// Trigger subscription names the Subtask stage (task, stage) it executes,
// and every other event type is addressed by type alone on the channel's
// processor.  The federated channel reads an event's destination
// processors off its payload and asks only those channels whether they
// hold a subscription for the event's key.  That query is the gateway-side
// filter of TAO's federated event channel, where gateways subscribe on
// behalf of remote consumers, and it runs no consumer code.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>

#include "events/event.h"
#include "util/ids.h"
#include "util/inline_fn.h"

namespace rtcm::events {

class FederatedEventChannel;

/// A consumer callback.  The middleware's consumers capture only their
/// component's `this`, so every one of them is stored inline.
using ConsumerFn = InlineFunction<void(const Event&), 16>;

/// The address a subscription listens on and an event is delivered under.
struct RouteKey {
  EventType type = EventType::kTaskArrive;
  TaskId task;            // kTrigger only
  std::size_t stage = 0;  // kTrigger only

  /// Every event of `type` that reaches this channel.  Triggers are always
  /// addressed to a stage: use trigger().
  [[nodiscard]] static RouteKey of(EventType type);
  /// Triggers that start stage `stage` of `task` on this channel.
  [[nodiscard]] static RouteKey trigger(TaskId task, std::size_t stage) {
    return {EventType::kTrigger, task, stage};
  }
  /// The key `event` is delivered under.
  [[nodiscard]] static RouteKey of(const Event& event);

  auto operator<=>(const RouteKey&) const = default;
};

class SubscriptionId {
 public:
  constexpr SubscriptionId() = default;
  [[nodiscard]] constexpr bool valid() const { return v_ != 0; }
  constexpr auto operator<=>(const SubscriptionId&) const = default;

 private:
  friend class LocalEventChannel;
  constexpr explicit SubscriptionId(std::uint64_t v) : v_(v) {}
  std::uint64_t v_ = 0;
};

class LocalEventChannel {
 public:
  explicit LocalEventChannel(ProcessorId processor) : processor_(processor) {}
  LocalEventChannel(const LocalEventChannel&) = delete;
  LocalEventChannel& operator=(const LocalEventChannel&) = delete;

  [[nodiscard]] ProcessorId processor() const { return processor_; }

  /// Register a consumer for the events addressed to `key` on this channel.
  SubscriptionId subscribe(RouteKey key, ConsumerFn consumer);
  bool unsubscribe(SubscriptionId id);

  /// Does any subscription listen on `key`?  (The routing query.)
  [[nodiscard]] bool subscribed(const RouteKey& key) const;

  /// Run every consumer subscribed to the event's key, in subscription
  /// order.  A subscription made during the delivery does not receive the
  /// event; one removed before its turn is skipped.  A consumer may
  /// subscribe and unsubscribe others while it runs, but not itself.
  void deliver(const Event& event);

  [[nodiscard]] std::size_t subscription_count() const {
    return subscriptions_.size();
  }
  [[nodiscard]] std::uint64_t delivered_count() const { return delivered_; }

 private:
  friend class FederatedEventChannel;

  /// Ordered by key, then by subscription order within a key, so one key's
  /// consumers are adjacent.  Map nodes never move, so a consumer may
  /// subscribe while it runs.
  struct Slot {
    RouteKey key;
    std::uint64_t id;
    auto operator<=>(const Slot&) const = default;
  };

  ProcessorId processor_;
  /// Set when the federated channel owns this channel: it keeps the table
  /// of broadcast listeners that subscribe() and unsubscribe() update.
  FederatedEventChannel* federation_ = nullptr;
  std::uint64_t next_id_ = 1;
  std::uint64_t delivered_ = 0;
  std::map<Slot, ConsumerFn> subscriptions_;
};

}  // namespace rtcm::events
