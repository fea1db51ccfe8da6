#include "events/local_channel.h"

#include <cassert>
#include <utility>

#include "events/federated_channel.h"

namespace rtcm::events {

RouteKey RouteKey::of(EventType type) {
  assert(type != EventType::kTrigger && "triggers are addressed to a stage");
  return {type, TaskId(), 0};
}

RouteKey RouteKey::of(const Event& event) {
  if (const auto* p = std::get_if<TriggerPayload>(&event.payload)) {
    return trigger(p->task, p->stage);
  }
  return {event.type(), TaskId(), 0};
}

SubscriptionId LocalEventChannel::subscribe(RouteKey key,
                                            ConsumerFn consumer) {
  assert(consumer && "subscription needs a consumer callback");
  if (federation_ != nullptr && !subscribed(key)) {
    federation_->add_listener(key, *this);
  }
  const std::uint64_t id = next_id_++;
  subscriptions_.emplace(Slot{key, id}, std::move(consumer));
  return SubscriptionId(id);
}

bool LocalEventChannel::unsubscribe(SubscriptionId id) {
  for (auto it = subscriptions_.begin(); it != subscriptions_.end(); ++it) {
    if (it->first.id != id.v_) continue;
    const RouteKey key = it->first.key;
    subscriptions_.erase(it);
    if (federation_ != nullptr && !subscribed(key)) {
      federation_->remove_listener(key, *this);
    }
    return true;
  }
  return false;
}

bool LocalEventChannel::subscribed(const RouteKey& key) const {
  const auto it = subscriptions_.lower_bound(Slot{key, 0});
  return it != subscriptions_.end() && it->first.key == key;
}

void LocalEventChannel::deliver(const Event& event) {
  const RouteKey key = RouteKey::of(event);
  // Ids only grow, so subscriptions made by the consumers below sort after
  // `last` and miss this event.
  const std::uint64_t last = next_id_ - 1;
  auto it = subscriptions_.lower_bound(Slot{key, 0});
  while (it != subscriptions_.end() && it->first.key == key &&
         it->first.id <= last) {
    const Slot done = it->first;
    ++delivered_;
    it->second(event);
    // Search afresh: the consumer may have unsubscribed the next in line.
    it = subscriptions_.upper_bound(done);
  }
}

}  // namespace rtcm::events
