// quest/core/bounds.hpp
//
// The bounds layer of the search kernel: everything the branch-and-bound
// drivers prune with beyond epsilon itself — Lemma-2 closure through
// Epsilon_bar and the quest admissible Lower_bound — resolved once per
// optimize() call behind one provider.
//
// Construction runs the soundness gate that used to live inside the
// monolithic search: the cost model's attainable-selectivity bounds are
// computed once; closure stays off unless the *upper* bounds are sound
// (hi_sound), the lower bound only needs the always-finite lower bounds.
// Lemma 1/3 need no bounds and stay exact regardless.
//
// Construction also builds the instance's Transfer_rows (every service's
// outgoing links, presorted): the drivers expand children along them and
// exact epsilon-bar walks them.
//
// A Bound_provider is immutable after construction and its evaluations
// are stateless, so a single instance is shared read-only by every worker
// of the parallel driver (bnb-par) — the bounds and the rows are computed
// once, not once per thread.

#pragma once

#include <optional>
#include <span>

#include "quest/core/measures.hpp"

namespace quest::core {

/// Which bounds to arm. The enables are requests, not guarantees: the
/// provider still turns a bound off when the cost model cannot support it
/// soundly (see the file comment).
struct Bound_config {
  Epsilon_bar_mode ebar_mode = Epsilon_bar_mode::exact;
  bool enable_closure = true;
  bool enable_lower_bound = false;
};

/// Per-optimize() bound computation, shared read-only across workers.
class Bound_provider {
 public:
  Bound_provider(const model::Instance& instance,
                 const model::Cost_model& model, const Bound_config& config);

  /// True when Lemma-2 closure survived the soundness gate.
  bool closure_enabled() const noexcept { return ebar_.has_value(); }
  /// True when the admissible lower bound is armed.
  bool lower_bound_enabled() const noexcept { return lower_.has_value(); }

  /// The instance's presorted outgoing links (see Transfer_rows).
  const Transfer_rows& rows() const noexcept { return rows_; }

  /// Epsilon-bar for the partial plan held by `eval` (see Epsilon_bar).
  /// Precondition: closure_enabled().
  double epsilon_bar(const model::Partial_plan_evaluator& eval,
                     std::span<const model::Service_id> remaining) const {
    return ebar_->evaluate(eval, remaining, rows_);
  }

  /// Admissible lower bound on the undetermined terms (see Lower_bound).
  /// Precondition: lower_bound_enabled().
  double lower_bound(const model::Partial_plan_evaluator& eval,
                     std::span<const model::Service_id> remaining) const {
    return lower_->evaluate(eval, remaining);
  }

 private:
  Transfer_rows rows_;
  std::optional<Epsilon_bar> ebar_;
  std::optional<Lower_bound> lower_;
};

}  // namespace quest::core
