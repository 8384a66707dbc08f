// quest/core/measures.hpp
//
// The second of the paper's two guiding measures: epsilon-bar, "the maximum
// possible cost that may be incurred by WSs not currently included in the
// partial plan". epsilon itself (the bottleneck cost of the determined
// terms) lives in model::Partial_plan_evaluator.
//
// For a partial plan C = (s_0 .. s_{k-1}) with remaining set R, epsilon-bar
// upper-bounds every stage term a completion of C can still create:
//
//  * the *dangling* term of s_{k-1}, whose successor is not fixed yet:
//      P_{k-1} * term(c, sigma(s_{k-1} | prefix), max_{u in R} t(s_{k-1}, u))
//  * the term of each u in R, wherever it lands:
//      P_k * A_u * term(c_u, hi_u, T_u)
//    with P_k the conditional-selectivity product of all of C, T_u the
//    largest transfer out of u into R \ {u} or the sink, hi_u the cost
//    model's upper bound on the conditional selectivity u can attain
//    (sigma_u itself under independence), and A_u an amplification factor
//    that is 1 when every hi is <= 1 and otherwise
//    prod_{w in R \ {u}} max(1, hi_w) — the paper's "slightly modified"
//    computation for expanding services, generalized to model-provided
//    bounds.
//
// Lemma 2 then reads: if epsilon >= epsilon-bar, every completion of C
// costs exactly epsilon. Both measures require the cost model to provide
// sound selectivity bounds (Cost_model::selectivity_bounds); when it
// cannot, callers must search without them (branch-and-bound falls back
// to Lemma-2-disabled search automatically).

#pragma once

#include <span>
#include <vector>

#include "quest/core/search_kernel.hpp"
#include "quest/model/cost.hpp"
#include "quest/model/cost_model.hpp"
#include "quest/model/instance.hpp"

namespace quest::core {

/// How tight the epsilon-bar upper bound is. Both modes are sound (they
/// never under-estimate); tighter bounds trigger Lemma-2 closures earlier
/// at a higher per-node price. Ablated in experiment E2/E4.
enum class Epsilon_bar_mode {
  /// T_u over the live remaining set, read off the presorted
  /// Transfer_rows: each row is walked from its costly end to the first
  /// unplaced service, so an evaluation costs O(|R|) row steps plus the
  /// placed services skipped, not the O(|R|^2) of a pairwise scan.
  exact,
  /// T_u precomputed over all services: O(|R|) per evaluation, looser.
  loose,
};

/// Stateless-per-call evaluator for epsilon-bar. Construct once per
/// instance; evaluate() per search node. Precondition: the model provides
/// sound selectivity bounds for the instance.
class Epsilon_bar {
 public:
  Epsilon_bar(const model::Instance& instance, const model::Cost_model& model,
              Epsilon_bar_mode mode);

  /// As above with the model's bounds already computed — the
  /// branch-and-bound computes them once per optimize() call and shares
  /// them between the gate, this measure and Lower_bound. Precondition:
  /// `bounds.hi_sound`.
  Epsilon_bar(const model::Instance& instance,
              const model::Cost_model& model,
              model::Selectivity_bounds bounds, Epsilon_bar_mode mode);

  /// Upper bound over every not-yet-determined stage term for the partial
  /// plan held by `eval`. `remaining` must list exactly the services not in
  /// the plan and be non-empty; `eval` must use the same cost model, and
  /// `rows` must be built from the same instance (the dangling link, and
  /// in exact mode each T_u, is read off them).
  double evaluate(const model::Partial_plan_evaluator& eval,
                  std::span<const model::Service_id> remaining,
                  const Transfer_rows& rows) const;

  Epsilon_bar_mode mode() const noexcept { return mode_; }

 private:
  const model::Instance* instance_;
  model::Send_policy policy_;
  Epsilon_bar_mode mode_;
  /// Upper bounds on the attainable conditional selectivities.
  std::vector<double> sigma_hi_;
  /// Per-service effective costs under the model's objective (equal to
  /// the instance costs under the mean objective).
  std::vector<double> cost_;
  /// True when every sigma_hi_ entry is <= 1 (no amplification possible).
  bool all_hi_selective_;
  /// loose mode: term(c_u, hi_u, max_global_transfer_out_of_u).
  std::vector<double> loose_term_bound_;
};

/// quest extension (not part of the paper's description): an *admissible
/// lower bound* on the stage terms a completion of the partial plan must
/// still create. Mirrors Epsilon_bar with every max replaced by a min and
/// the model's attainable-selectivity lower bounds in place of the upper
/// ones:
///
///  * the dangling term of the last placed service is at least
///      P_{k-1} * term(c, sigma(last | prefix), min_{u in R} t(last, u));
///  * the term of each unplaced u is at least
///      P_k * (prod_{w in R \ {u}} min(1, lo_w))
///          * term(c_u, lo_u, min(min_{v in R \ {u}} t(u, v), sink_u)).
///
/// Joining this with epsilon tightens Lemma-1 pruning — decisive in the
/// sigma > 1 regime where epsilon alone stays small while the selectivity
/// product (and therefore every future term) must grow. Ablated in E11.
class Lower_bound {
 public:
  Lower_bound(const model::Instance& instance,
              const model::Cost_model& model);

  /// Precomputed-bounds flavor; see the Epsilon_bar counterpart.
  Lower_bound(const model::Instance& instance,
              const model::Cost_model& model,
              const model::Selectivity_bounds& bounds);

  /// Greatest provable lower bound over the not-yet-determined stage terms
  /// of any completion. Preconditions as Epsilon_bar::evaluate.
  double evaluate(const model::Partial_plan_evaluator& eval,
                  std::span<const model::Service_id> remaining) const;

 private:
  const model::Instance* instance_;
  model::Send_policy policy_;
  /// Lower bounds on the attainable conditional selectivities.
  std::vector<double> sigma_lo_;
  /// Per-service effective costs under the model's objective.
  std::vector<double> cost_;
};

}  // namespace quest::core
