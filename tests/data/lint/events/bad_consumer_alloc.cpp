// Fixture: the event channel (any file under an events/ directory) runs
// once per pushed event, so it is an event path too: std::function
// consumers and raw new are flagged exactly as under sim/.
// lint-expect: sim-path-alloc
#include <functional>
#include <vector>

struct Event {
  int id;
};

struct Subscription {
  std::function<void(const Event&)> consumer;
};

std::vector<int>* snapshot_matches() {
  return new std::vector<int>();
}
