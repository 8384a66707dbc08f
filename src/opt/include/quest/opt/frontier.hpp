// quest/opt/frontier.hpp
//
// Best-first (Dijkstra-style) exact search over (subset, last-service)
// states with bottleneck relaxation — the frontier variant of the subset
// DP. Where the DP (dp.hpp) sweeps every one of the 2^n * n states, the
// frontier search pops states in non-decreasing epsilon order and stops at
// the first closed goal, so easy instances finish long before the full
// state space is touched; the worst case matches the DP.
//
// State dominance is sound for the bottleneck metric: two orderings of
// the same subset ending in the same service present identical options to
// every completion (same remaining set, same selectivity product, same
// last service), so only the cheaper epsilon needs to survive.
//
// A Request::warm_start bounds the search: its cost (one work unit,
// streamed as an incumbent, so a cost target it meets stops the run) caps
// every state and goal. Children and goals whose value reaches it are
// never queued; a queue that drains without a cheaper goal proves the
// warm plan optimal, and a stopped search returns the warm plan instead
// of nothing.

#pragma once

#include "quest/opt/optimizer.hpp"

namespace quest::opt {

/// Exact best-first search; memory O(reached states), capped below.
class Frontier_optimizer final : public Optimizer {
 public:
  /// Instances above this size are rejected (same state space as the DP).
  static constexpr std::size_t max_services = 24;

  std::string name() const override { return "frontier"; }

  Result optimize(const Request& request) override;
};

}  // namespace quest::opt
