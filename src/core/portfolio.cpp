#include "quest/core/portfolio.hpp"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

#include "quest/core/engines.hpp"
#include "quest/opt/frontier.hpp"
#include "quest/opt/search_control.hpp"
#include "quest/workload/analysis.hpp"

namespace quest::core {

using workload::Hardness_regime;

std::string Portfolio_optimizer::chosen_engine(
    const model::Instance& instance) const {
  const auto profile = workload::analyze(instance);
  switch (profile.regime) {
    case Hardness_regime::selective:
      return "bnb";
    case Hardness_regime::expanding:
      return instance.size() <= options_.hard_exact_size_limit
                 ? "bnb-lb"
                 : "heuristic-only";
    case Hardness_regime::near_tsp:
      if (instance.size() <= opt::Frontier_optimizer::max_services) {
        return "frontier";
      }
      return instance.size() <= options_.hard_exact_size_limit
                 ? "bnb"
                 : "heuristic-only";
  }
  return "bnb";
}

opt::Result Portfolio_optimizer::optimize(const opt::Request& request) {
  opt::validate_request(request);
  opt::Search_stats stats;
  opt::Search_control control(request, stats);

  // Sub-requests share the problem, seed, stop token and cost target, but
  // get the budget left at launch time and a filtered incumbent stream:
  // only genuine portfolio-level improvements reach the caller (phase 2
  // re-announces the phase-1 plan it is warm-started with).
  double streamed_best = std::numeric_limits<double>::infinity();
  opt::Request sub = request;
  if (request.on_incumbent) {
    sub.on_incumbent = [&](const model::Plan& plan, double cost,
                           const opt::Search_stats& sub_stats) {
      if (cost < streamed_best) {
        streamed_best = cost;
        request.on_incumbent(plan, cost, sub_stats);
      }
    };
  }

  // Phase 1: fast incumbent (greedy + local-search polish) via the
  // registry, like every other engine the portfolio runs.
  const auto polish = engine_registry().make("local-search");
  sub.budget = control.remaining_budget();
  opt::Result incumbent = polish->optimize(sub);
  stats.nodes_expanded += incumbent.stats.nodes_expanded;
  stats.complete_plans += incumbent.stats.complete_plans;
  if (opt::stopped_early(incumbent.termination)) {
    // Budget (or the caller) ended the run during the polish; hand back
    // whatever it produced with its honest reason.
    incumbent.elapsed_seconds = control.elapsed_seconds();
    return incumbent;
  }

  // Phase 2: profile-driven exact (or bounded-suboptimal) engine, built
  // from its registry spec and run under the remaining budget.
  const std::string engine = chosen_engine(*request.instance);
  opt::Result exact;
  bool ran_exact = false;
  if (engine != "heuristic-only") {
    std::string spec = engine;
    if (engine == "bnb" || engine == "bnb-lb") {
      // Parallel exact phase: bnb-par subsumes both sequential
      // branch-and-bound variants (lower-bound=1 is the bnb-lb
      // configuration) but proves optimality only — a suboptimality
      // relaxation stays on the sequential engines that honor it.
      if (options_.exact_threads >= 2 && options_.suboptimality == 0.0) {
        spec = "bnb-par:threads=" + std::to_string(options_.exact_threads) +
               ",warm-start=1";
        if (engine == "bnb-lb") spec += ",lower-bound=1";
      } else {
        spec += ":warm-start=1";
        if (options_.suboptimality > 0.0) {
          spec += ",subopt=" + std::to_string(options_.suboptimality);
        }
      }
    }
    const auto exact_engine = engine_registry().make(spec);
    sub.budget = control.remaining_budget();
    // Phase 1's plan is a feasible upper bound: the exact engine prunes
    // against it from its first node (frontier can also prove it optimal
    // by draining, or hand it back when stopped).
    sub.warm_start = &incumbent.plan;
    exact = exact_engine->optimize(sub);
    ran_exact = true;
  }

  // Phase 3: best of both; never worse than the heuristic.
  opt::Result result;
  const bool exact_usable =
      ran_exact && exact.plan.size() == request.instance->size() &&
      exact.cost <= incumbent.cost;
  if (exact_usable) {
    // Keep the exact engine's full counters (lemma cutoffs etc.) and add
    // the polish phase's work on top.
    result = std::move(exact);
    result.stats.nodes_expanded += incumbent.stats.nodes_expanded;
    result.stats.complete_plans += incumbent.stats.complete_plans;
  } else {
    result = std::move(incumbent);
    result.proven_optimal = false;
    if (ran_exact) {
      result.stats.nodes_expanded += exact.stats.nodes_expanded;
      result.stats.complete_plans += exact.stats.complete_plans;
      // The heuristic plan stands, but the exact phase's early stop is
      // what kept it unproven — report that reason.
      if (opt::stopped_early(exact.termination)) {
        result.termination = exact.termination;
      }
    }
  }
  result.elapsed_seconds = control.elapsed_seconds();
  return result;
}

}  // namespace quest::core
