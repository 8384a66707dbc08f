#include "quest/opt/frontier.hpp"

#include <algorithm>
#include <limits>
#include <queue>
#include <utility>
#include <vector>

#include "quest/common/bitset64.hpp"
#include "quest/common/error.hpp"
#include "quest/opt/search_control.hpp"

namespace quest::opt {

using model::Plan;
using model::Service_id;
using model::stage_term;

namespace {

/// (subset mask, last service) packed into one key.
constexpr std::uint64_t state_key(std::uint64_t mask, std::size_t last) {
  return (mask << 5) | last;
}

/// Open-addressing table from a packed key — a (mask, last) state key or
/// a bare mask — to a Value: linear probing over a power-of-two slot
/// array that starts small and doubles at half load, so memory follows
/// the states the search reaches, never the 2^n * n of the full space.
template <class Value>
class Flat_table {
 public:
  /// The value stored under `key`, or nullptr.
  Value* find(std::uint64_t key) {
    if (size_ == 0) return nullptr;
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      if (slots_[i].key == key) return &slots_[i].value;
      if (slots_[i].key == empty_key) return nullptr;
    }
  }

  /// The value under `key`, value-initialized first when absent (then
  /// the flag is true). The pointer is valid until the next insert.
  std::pair<Value*, bool> try_emplace(std::uint64_t key) {
    if (2 * (size_ + 1) > slots_.size()) grow();
    std::size_t i = home(key);
    for (; slots_[i].key != empty_key; i = (i + 1) & mask_) {
      if (slots_[i].key == key) return {&slots_[i].value, false};
    }
    slots_[i].key = key;
    ++size_;
    return {&slots_[i].value, true};
  }

 private:
  /// No packed key reaches it: masks hold at most max_services bits.
  static constexpr std::uint64_t empty_key = ~std::uint64_t{0};
  static constexpr std::size_t initial_slots = 256;

  struct Slot {
    std::uint64_t key = empty_key;
    Value value{};
  };

  /// Fibonacci hashing: the multiply's top bits index the slot array.
  std::size_t home(std::uint64_t key) const noexcept {
    return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ull) >> shift_);
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    const std::size_t slots = old.empty() ? initial_slots : 2 * old.size();
    slots_.assign(slots, Slot{});
    mask_ = slots - 1;
    shift_ = 64 - static_cast<unsigned>(lowest_bit(slots));
    for (const Slot& slot : old) {
      if (slot.key == empty_key) continue;
      std::size_t i = home(slot.key);
      while (slots_[i].key != empty_key) i = (i + 1) & mask_;
      slots_[i] = slot;
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
  unsigned shift_ = 64;
};

/// A reached (mask, last) state: its best epsilon so far and the last
/// service of the state it was reached from.
struct State {
  double best;
  std::uint8_t parent;
};

/// A queued state, or a goal: a full state whose priority includes its
/// sink term. Packed into 16 bytes — the heap is the search's largest
/// structure, and its order depends on the priorities alone.
struct Entry {
  double priority;  // epsilon of the state; final cost for goal entries
  std::uint64_t key;  // state_key(mask, last), plus goal_bit for goals

  static constexpr std::uint64_t goal_bit = std::uint64_t{1} << 63;

  std::uint64_t mask() const noexcept { return (key & ~goal_bit) >> 5; }
  std::size_t last() const noexcept { return key & 31; }
  bool goal() const noexcept { return (key & goal_bit) != 0; }

  bool operator>(const Entry& other) const {
    return priority > other.priority;
  }
};

}  // namespace

Result Frontier_optimizer::optimize(const Request& request) {
  validate_request(request);
  const auto& instance = *request.instance;
  const std::size_t n = instance.size();
  QUEST_EXPECTS(n <= max_services,
                "frontier search is limited to max_services services");
  const auto& cost_model = request.model;
  const auto policy = cost_model.policy();
  const bool independent = cost_model.is_independent();
  Result result;
  Search_stats stats;
  Search_control control(request, stats);

  // The warm plan, costed once (one work unit), bounds the search: a
  // child or goal whose value reaches its cost cannot lead to a cheaper
  // plan. A cost target it meets stops the run at the first check.
  const Plan* const warm = request.warm_start;
  double warm_cost = std::numeric_limits<double>::infinity();
  if (warm != nullptr) {
    ++stats.complete_plans;
    warm_cost = model::bottleneck_cost(instance, *warm, cost_model);
    control.note_incumbent(*warm, warm_cost);
  }
  auto pruned = [&](double value) {
    return warm != nullptr && value >= warm_cost;
  };

  const std::uint64_t full = full_mask64(n);

  std::vector<std::uint64_t> pred_mask(n, 0);
  if (request.precedence != nullptr) {
    for (Service_id v = 0; v < n; ++v) {
      for (const Service_id p : request.precedence->predecessors(v)) {
        pred_mask[v] |= bit64(p);
      }
    }
  }

  // Conditional-selectivity product over a mask, multiplied in
  // ascending-bit order. Well-defined as a set function for both
  // structures (the correlated interaction matrix is symmetric). Each
  // correlated factor is a walk of its own, so those products are
  // memoized per mask; independent ones are cheaper to recompute.
  Flat_table<double> products;
  auto product_of = [&](std::uint64_t mask) {
    double* memo = nullptr;
    if (!independent) {
      const auto [slot, fresh] = products.try_emplace(mask);
      if (!fresh) return *slot;
      memo = slot;
    }
    double product = 1.0;
    std::uint64_t built = 0;
    for (std::uint64_t bits = mask; bits != 0; bits = drop_lowest(bits)) {
      const auto low = static_cast<Service_id>(lowest_bit(bits));
      product *= independent
                     ? instance.selectivity(low)
                     : cost_model.conditional_selectivity(instance, low,
                                                          built);
      built = with_bit(built, low);
    }
    if (memo != nullptr) *memo = product;
    return product;
  };

  Flat_table<State> states;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> frontier;

  for (Service_id a = 0; a < n; ++a) {
    if (pred_mask[a] != 0) continue;
    const std::uint64_t mask = bit64(a);
    *states.try_emplace(state_key(mask, a)).first = State{0.0, 0};
    // Even a single-service state flows through the full-mask branch so
    // the sink term is accounted for before the goal is closed.
    frontier.push({0.0, state_key(mask, a)});
  }

  while (!frontier.empty()) {
    if (control.should_stop()) break;
    const Entry entry = frontier.top();
    frontier.pop();

    if (entry.goal()) {
      // First closed goal = optimum: every other frontier entry already
      // costs at least this much and costs never decrease.
      std::vector<Service_id> order(n);
      std::uint64_t mask = entry.mask();
      std::size_t last = entry.last();
      for (std::size_t position = n; position-- > 0;) {
        order[position] = static_cast<Service_id>(last);
        const std::uint8_t p = states.find(state_key(mask, last))->parent;
        mask = without_bit(mask, last);
        last = p;
      }
      result.plan = Plan(std::move(order));
      result.cost = entry.priority;
      control.note_final_incumbent(result.plan, result.cost);
      result.stats = stats;
      control.finish(result, true);
      return result;
    }

    const State* known = states.find(entry.key);
    if (known == nullptr || entry.priority > known->best) {
      continue;  // stale entry
    }
    ++stats.nodes_expanded;

    const std::uint64_t mask = entry.mask();
    const auto last = static_cast<Service_id>(entry.last());
    const std::uint64_t without_last = without_bit(mask, last);
    const double product_before_last = product_of(without_last);
    const double sigma_last =
        independent ? instance.selectivity(last)
                    : cost_model.conditional_selectivity(instance, last,
                                                         without_last);
    const double last_cost = cost_model.effective_cost(instance, last);

    if (mask == full) {
      const double final_term =
          product_before_last *
          stage_term(last_cost, sigma_last, instance.sink_transfer(last),
                     policy);
      ++stats.complete_plans;
      const double cost = std::max(entry.priority, final_term);
      if (!pruned(cost)) frontier.push({cost, entry.key | Entry::goal_bit});
      continue;
    }

    for (std::size_t u = 0; u < n; ++u) {
      if (has_bit(mask, u)) continue;
      if (!contains_all(mask, pred_mask[u])) continue;
      const double fixed =
          product_before_last *
          stage_term(last_cost, sigma_last,
                     instance.transfer(last, static_cast<Service_id>(u)),
                     policy);
      const double value = std::max(entry.priority, fixed);
      if (pruned(value)) continue;
      const std::uint64_t child = state_key(with_bit(mask, u), u);
      const auto [state, fresh] = states.try_emplace(child);
      if (fresh || value < state->best) {
        *state = State{value, static_cast<std::uint8_t>(last)};
        frontier.push({value, child});
      }
    }
  }

  result.stats = stats;
  if (warm != nullptr) {
    // Drained: no plan is cheaper than the warm plan, so it is optimal.
    // Stopped: it is still the best complete plan known (finish() voids
    // the optimality claim).
    result.plan = *warm;
    result.cost = warm_cost;
    control.finish(result, true);
    return result;
  }
  QUEST_ASSERT(control.stopped(),
               "frontier search must reach a goal state");
  control.finish(result, false);
  return result;
}

}  // namespace quest::opt
