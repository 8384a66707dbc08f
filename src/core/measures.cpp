#include "quest/core/measures.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "quest/common/error.hpp"

namespace quest::core {

using model::Cost_model;
using model::Instance;
using model::Partial_plan_evaluator;
using model::Service_id;
using model::stage_term;

Epsilon_bar::Epsilon_bar(const Instance& instance, const Cost_model& model,
                         Epsilon_bar_mode mode)
    : Epsilon_bar(instance, model,
                  [&] {
                    auto bounds = model.selectivity_bounds(instance);
                    QUEST_EXPECTS(
                        bounds.has_value() && bounds->hi_sound,
                        "epsilon-bar needs sound selectivity upper bounds "
                        "from the cost model (search with Lemma 2 "
                        "disabled instead)");
                    return std::move(*bounds);
                  }(),
                  mode) {}

Epsilon_bar::Epsilon_bar(const Instance& instance, const Cost_model& model,
                         model::Selectivity_bounds bounds,
                         Epsilon_bar_mode mode)
    : instance_(&instance), policy_(model.policy()), mode_(mode) {
  sigma_hi_ = std::move(bounds.hi);
  all_hi_selective_ = bounds.all_hi_selective;
  const std::size_t n = instance.size();
  cost_.resize(n);
  for (Service_id u = 0; u < n; ++u) {
    cost_[u] = model.effective_cost(instance, u);
  }
  if (mode_ == Epsilon_bar_mode::loose) {
    loose_term_bound_.resize(n);
    for (Service_id u = 0; u < n; ++u) {
      const double t_max = instance.max_outgoing_transfer(
          u, [](Service_id) { return true; });
      loose_term_bound_[u] = stage_term(cost_[u], sigma_hi_[u], t_max,
                                        policy_);
    }
  }
}

namespace {

/// max(floor, the costliest link in `row` into a service `eval` has not
/// placed) — the same value as folding std::max over those links from
/// `floor`, since a max is exact. The row is sorted ascending, so the walk
/// from its costly end stops at the first unplaced service.
double costliest_open_link(std::span<const Candidate> row,
                           const Partial_plan_evaluator& eval, double floor) {
  for (auto link = row.rbegin(); link != row.rend(); ++link) {
    if (!eval.contains(link->id)) return std::max(floor, link->transfer);
  }
  return floor;
}

}  // namespace

double Epsilon_bar::evaluate(const Partial_plan_evaluator& eval,
                             std::span<const Service_id> remaining,
                             const Transfer_rows& rows) const {
  QUEST_EXPECTS(!eval.empty(), "epsilon-bar needs a non-empty partial plan");
  QUEST_EXPECTS(!remaining.empty(),
                "epsilon-bar is defined while services remain");
  const Instance& instance = *instance_;
  const bool exact = mode_ == Epsilon_bar_mode::exact;

  // Dangling term of the current last service: its conditional selectivity
  // is already determined by the prefix; its successor will be drawn from
  // `remaining`, so the worst case is the costliest outgoing link.
  const Service_id last = eval.last();
  double bound = eval.product_before_last() *
                 stage_term(cost_[last], eval.last_selectivity(),
                            costliest_open_link(rows.row(last), eval, 0.0),
                            policy_);

  // Amplification product over the remaining set (only > 1 when some
  // service can still expand the stream — the paper's sigma > 1
  // modification, via the model's attainable upper bounds).
  const double product_through = eval.product_through();

  for (std::size_t i = 0; i < remaining.size(); ++i) {
    const Service_id u = remaining[i];

    // Exact: worst transfer out of u into the live remaining set or the
    // sink (u may be placed last).
    const double term_bound =
        exact ? stage_term(cost_[u], sigma_hi_[u],
                           costliest_open_link(rows.row(u), eval,
                                               instance.sink_transfer(u)),
                           policy_)
              : loose_term_bound_[u];

    double amplification = 1.0;
    if (!all_hi_selective_) {
      if (!exact) {
        // Sound but looser: include u's own factor.
        for (const Service_id w : remaining) {
          amplification *= std::max(1.0, sigma_hi_[w]);
        }
      } else {
        for (const Service_id w : remaining) {
          if (w != u) amplification *= std::max(1.0, sigma_hi_[w]);
        }
      }
    }

    bound = std::max(bound, product_through * amplification * term_bound);
  }
  return bound;
}

Lower_bound::Lower_bound(const Instance& instance, const Cost_model& model)
    : instance_(&instance), policy_(model.policy()) {
  // Only the lower bounds are needed, and those are always finite —
  // admissible pruning survives even when the upper bounds overflow.
  auto bounds = model.selectivity_bounds(instance);
  QUEST_EXPECTS(bounds.has_value(),
                "the admissible lower bound needs selectivity bounds from "
                "the cost model");
  sigma_lo_ = std::move(bounds->lo);
  cost_.resize(instance.size());
  for (Service_id u = 0; u < instance.size(); ++u) {
    cost_[u] = model.effective_cost(instance, u);
  }
}

Lower_bound::Lower_bound(const Instance& instance, const Cost_model& model,
                         const model::Selectivity_bounds& bounds)
    : instance_(&instance), policy_(model.policy()), sigma_lo_(bounds.lo) {
  cost_.resize(instance.size());
  for (Service_id u = 0; u < instance.size(); ++u) {
    cost_[u] = model.effective_cost(instance, u);
  }
}

double Lower_bound::evaluate(
    const Partial_plan_evaluator& eval,
    std::span<const Service_id> remaining) const {
  QUEST_EXPECTS(!eval.empty(), "lower bound needs a non-empty partial plan");
  QUEST_EXPECTS(!remaining.empty(),
                "lower bound is defined while services remain");
  const Instance& instance = *instance_;

  // Dangling term: the last placed service must forward to something in
  // the remaining set; its conditional selectivity is already fixed.
  const Service_id last = eval.last();
  double t_dangling = std::numeric_limits<double>::infinity();
  for (const Service_id u : remaining) {
    t_dangling = std::min(t_dangling, instance.transfer(last, u));
  }
  double bound = eval.product_before_last() *
                 stage_term(cost_[last], eval.last_selectivity(),
                            t_dangling, policy_);

  // Smallest possible selectivity attenuation between the plan's end and
  // any later position: only sub-unit conditional selectivities can shrink
  // a product, and lo_w bounds each from below. Computed exactly per
  // candidate (no division) so floating-point rounding can never overstate
  // the bound — admissibility is what keeps the search exact.
  const double product_through = eval.product_through();
  for (const Service_id u : remaining) {
    double t_min = instance.sink_transfer(u);  // u may be placed last
    double shrink = 1.0;
    for (const Service_id v : remaining) {
      if (v == u) continue;
      t_min = std::min(t_min, instance.transfer(u, v));
      shrink *= std::min(1.0, sigma_lo_[v]);
    }
    bound = std::max(bound,
                     product_through * shrink *
                         stage_term(cost_[u], sigma_lo_[u], t_min, policy_));
  }
  return bound;
}

}  // namespace quest::core
