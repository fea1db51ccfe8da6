// Fixture: middleware components and the admission/placement code (any
// file under a core/ or sched/ directory) run their handlers on every
// arrival inside the simulation, so they are event paths too: a
// std::function pick hook and a raw-new private arena are flagged exactly
// as under sim/ and events/.
// lint-expect: sim-path-alloc
// lint-expect: sim-path-alloc
#include <cstddef>
#include <functional>
#include <memory>

struct Arena {};

class Balancer {
 public:
  void set_pick(std::function<std::size_t(std::size_t)> pick);

 private:
  std::unique_ptr<Arena> own_arena_{new Arena()};
};
