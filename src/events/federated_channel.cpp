#include "events/federated_channel.h"

#include <algorithm>
#include <cassert>
#include <span>
#include <utility>

namespace rtcm::events {

namespace {

/// Types whose payload names no destination: they go to every channel
/// holding a subscription of the type.
bool is_broadcast(EventType type) {
  return type == EventType::kTaskArrive || type == EventType::kIdleReset;
}

std::size_t type_index(EventType type) {
  return static_cast<std::size_t>(type);
}

bool by_processor(const LocalEventChannel* a, const LocalEventChannel* b) {
  return a->processor() < b->processor();
}

}  // namespace

LocalEventChannel& FederatedEventChannel::channel(ProcessorId processor) {
  assert(processor.valid());
  auto it = channels_.find(processor);
  if (it == channels_.end()) {
    it = channels_
             .emplace(processor,
                      std::make_unique<LocalEventChannel>(processor))
             .first;
    it->second->federation_ = this;
  }
  return *it->second;
}

void FederatedEventChannel::add_listener(const RouteKey& key,
                                         LocalEventChannel& channel) {
  if (!is_broadcast(key.type)) return;
  auto& table = listeners_[type_index(key.type)];
  table.insert(std::upper_bound(table.begin(), table.end(), &channel,
                                by_processor),
               &channel);
}

void FederatedEventChannel::remove_listener(const RouteKey& key,
                                            LocalEventChannel& channel) {
  if (!is_broadcast(key.type)) return;
  std::erase(listeners_[type_index(key.type)], &channel);
}

void FederatedEventChannel::push(ProcessorId source, EventPayload payload) {
  assert(source.valid());
  Event event{source, sim_.now(), std::move(payload)};
  ++stats_.events_pushed;

  // Gateway filter: of the processors the payload addresses, only channels
  // holding a subscription for the event's key get a copy.
  const RouteKey key = RouteKey::of(event);
  std::array<LocalEventChannel*, 2> addressed{};
  std::size_t count = 0;
  const auto address = [&](ProcessorId processor) {
    const auto it = channels_.find(processor);
    if (it != channels_.end() && it->second->subscribed(key)) {
      addressed[count++] = it->second.get();
    }
  };
  switch (event.type()) {
    case EventType::kTrigger: {
      const auto& p = payload_as<TriggerPayload>(event);
      if (p.stage < p.placement.size()) address(p.placement[p.stage]);
      break;
    }
    case EventType::kAccept: {
      const auto& p = payload_as<AcceptPayload>(event);
      ProcessorId first = p.arrival_processor;
      ProcessorId second =
          p.placement.empty() ? first : p.placement.front();
      if (second < first) std::swap(first, second);
      address(first);
      if (second != first) address(second);
      break;
    }
    case EventType::kReject:
      address(payload_as<RejectPayload>(event).arrival_processor);
      break;
    case EventType::kTaskArrive:
    case EventType::kIdleReset:
      break;
  }
  const std::span<LocalEventChannel* const> dests =
      is_broadcast(event.type())
          ? std::span<LocalEventChannel* const>(
                listeners_[type_index(event.type())])
          : std::span<LocalEventChannel* const>(addressed.data(), count);
  if (dests.empty()) return;

  // One wire copy per destination; the last one takes the event itself.
  for (std::size_t i = 0; i + 1 < dests.size(); ++i) {
    send(*dests[i], Event(event));
  }
  send(*dests.back(), std::move(event));
}

void FederatedEventChannel::send(LocalEventChannel& dest, Event event) {
  const ProcessorId source = event.source;
  if (dest.processor() == source) ++stats_.local_deliveries;
  else ++stats_.remote_deliveries;
  auto deliver = [to = &dest, event = std::move(event)] {
    to->deliver(event);
  };
  // This is the hottest delegate in the middleware (one per event per
  // destination); growing events::Event past EventFn's inline capacity
  // would silently put a heap allocation back on every delivery.
  static_assert(sim::EventFn::fits_inline<decltype(deliver)>);
  network_.send(source, dest.processor(), std::move(deliver));
}

}  // namespace rtcm::events
