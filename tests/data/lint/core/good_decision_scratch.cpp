// Fixture: the sanctioned decision-path shape: a pick hook stored in an
// InlineFunction delegate, a private arena made with std::make_unique, and
// per-decision scratch owned by the component and reused across calls.
#include <cstddef>
#include <memory>
#include <vector>

template <typename Sig, std::size_t Cap>
class InlineFunction;

struct Arena {};

class Balancer {
 public:
  using PickFn = InlineFunction<std::size_t(std::size_t), 16>;

  void place(std::size_t stages) {
    scratch_.clear();  // keeps its capacity: no allocation once warm
    for (std::size_t j = 0; j < stages; ++j) scratch_.push_back(j);
  }

 private:
  std::unique_ptr<Arena> own_arena_ = std::make_unique<Arena>();
  std::vector<std::size_t> scratch_;
};
