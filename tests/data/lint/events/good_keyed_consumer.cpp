// Fixture: the sanctioned event-channel shape: a consumer stored in an
// InlineFunction delegate under the key it listens on, and deliveries
// that walk the subscriptions in place rather than collecting them.
#include <cstddef>
#include <cstdint>
#include <map>

template <typename Sig, std::size_t Cap>
class InlineFunction;

struct Event {
  int id;
};

struct Key {
  int type;
  int task;
  auto operator<=>(const Key&) const = default;
};

using ConsumerFn = InlineFunction<void(const Event&), 16>;

std::size_t count_routes(const std::map<Key, std::uint64_t>& routes,
                         const Key& key) {
  return routes.count(key);
}
