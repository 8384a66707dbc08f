#include <gtest/gtest.h>

#include "quest/core/portfolio.hpp"
#include "quest/opt/dp.hpp"
#include "quest/opt/exhaustive.hpp"
#include "quest/opt/local_search.hpp"
#include "quest/workload/generators.hpp"
#include "quest/workload/scenarios.hpp"
#include "support/helpers.hpp"

namespace quest {
namespace {

using core::Portfolio_optimizer;
using model::Instance;
using opt::Request;

Request request_for(const Instance& instance) {
  Request request;
  request.instance = &instance;
  return request;
}

TEST(Portfolio_test, OptimalOnEveryRegimeAtTestableSizes) {
  Portfolio_optimizer portfolio;
  opt::Exhaustive_optimizer exhaustive;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    for (const auto& instance :
         {test::selective_instance(8, seed), test::expanding_instance(8, seed),
          test::sink_instance(8, seed)}) {
      const auto request = request_for(instance);
      const auto got = portfolio.optimize(request);
      const auto want = exhaustive.optimize(request);
      EXPECT_TRUE(test::costs_equal(got.cost, want.cost)) << "seed " << seed;
      EXPECT_TRUE(got.proven_optimal);
      EXPECT_TRUE(test::costs_equal(
          got.cost, model::bottleneck_cost(instance, got.plan)));
    }
  }
}

TEST(Portfolio_test, EngineDispatchFollowsTheProfile) {
  const Portfolio_optimizer portfolio;
  EXPECT_EQ(portfolio.chosen_engine(test::selective_instance(10, 1)), "bnb");
  EXPECT_EQ(portfolio.chosen_engine(test::expanding_instance(10, 1)),
            "bnb-lb");

  Rng rng(2);
  workload::Uniform_spec near;
  near.n = 10;
  near.selectivity_min = 0.9;
  EXPECT_EQ(portfolio.chosen_engine(workload::make_uniform(near, rng)),
            "frontier");

  // Oversized expanding instances fall back to the heuristic.
  core::Portfolio_options options;
  options.hard_exact_size_limit = 8;
  const Portfolio_optimizer capped(options);
  EXPECT_EQ(capped.chosen_engine(test::expanding_instance(10, 3)),
            "heuristic-only");
}

TEST(Portfolio_test, HeuristicOnlyModeStillReturnsValidPlans) {
  core::Portfolio_options options;
  options.hard_exact_size_limit = 4;
  Portfolio_optimizer portfolio(options);
  const Instance instance = test::expanding_instance(9, 5);
  const auto result = portfolio.optimize(request_for(instance));
  EXPECT_FALSE(result.proven_optimal);
  EXPECT_TRUE(result.plan.is_permutation_of(9));
  // Never worse than the polished heuristic it is built on.
  opt::Local_search_optimizer polish;
  const auto baseline = polish.optimize(request_for(instance));
  EXPECT_LE(result.cost, baseline.cost * (1.0 + test::cost_tolerance));
}

TEST(Portfolio_test, SuboptimalityForwardedToTheSearch) {
  core::Portfolio_options options;
  options.suboptimality = 0.25;
  Portfolio_optimizer relaxed(options);
  const Instance instance = test::selective_instance(9, 7);
  const auto request = request_for(instance);
  const auto result = relaxed.optimize(request);
  EXPECT_FALSE(result.proven_optimal);
  opt::Exhaustive_optimizer exhaustive;
  const auto optimal = exhaustive.optimize(request);
  EXPECT_LE(result.cost, optimal.cost * 1.25 * (1.0 + test::cost_tolerance));
}

TEST(Portfolio_test, ParallelExactPhaseStaysOptimalOnEveryRegime) {
  // threads >= 2 swaps the exact phase onto bnb-par (lower-bound=1 for
  // the bnb-lb dispatch); the result must stay bit-for-bit optimal and
  // report the parallel engine's thread count.
  core::Portfolio_options options;
  options.exact_threads = 4;
  Portfolio_optimizer parallel(options);
  opt::Exhaustive_optimizer exhaustive;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    for (const auto& instance : {test::selective_instance(9, seed),
                                 test::expanding_instance(9, seed)}) {
      const auto request = request_for(instance);
      const auto got = parallel.optimize(request);
      const auto want = exhaustive.optimize(request);
      EXPECT_TRUE(test::costs_equal(got.cost, want.cost)) << "seed " << seed;
      EXPECT_TRUE(got.proven_optimal);
      EXPECT_EQ(got.stats.engine_threads, 4u);
    }
  }
}

TEST(Portfolio_test, SuboptimalityKeepsTheSequentialExactPhase) {
  // The relaxation is a sequential-engine contract; asking for both
  // threads and subopt must not silently drop the relaxation.
  core::Portfolio_options options;
  options.exact_threads = 4;
  options.suboptimality = 0.25;
  Portfolio_optimizer relaxed(options);
  const Instance instance = test::selective_instance(9, 7);
  const auto result = relaxed.optimize(request_for(instance));
  EXPECT_FALSE(result.proven_optimal);
  EXPECT_NE(result.stats.engine_threads, 4u);
  opt::Exhaustive_optimizer exhaustive;
  const auto optimal = exhaustive.optimize(request_for(instance));
  EXPECT_LE(result.cost, optimal.cost * 1.25 * (1.0 + test::cost_tolerance));
}

TEST(Portfolio_test, AnOptimalPhaseOnePlanIsProvenByTheBoundedFrontier) {
  // A near-TSP instance whose local-search plan is already optimal. The
  // frontier phase, warm-started with it, prunes every state that
  // reaches its cost and drains inside a budget that an unbounded
  // frontier phase runs out of.
  Rng rng(28);
  workload::Bottleneck_tsp_spec spec;
  spec.n = 12;
  const Instance instance = workload::make_bottleneck_tsp(spec, rng);
  Portfolio_optimizer portfolio;
  ASSERT_EQ(portfolio.chosen_engine(instance), "frontier");
  Request request = request_for(instance);
  const auto optimum = opt::Dp_optimizer().optimize(request);
  request.budget.node_limit = 1450;
  const auto polished = opt::Local_search_optimizer().optimize(request);
  ASSERT_EQ(polished.cost, optimum.cost);

  const auto result = portfolio.optimize(request);
  EXPECT_TRUE(result.proven_optimal);
  EXPECT_EQ(result.termination, opt::Termination::optimal);
  EXPECT_EQ(result.cost, optimum.cost);
  EXPECT_LE(result.stats.work(), request.budget.node_limit);
}

TEST(Portfolio_test, RespectsPrecedenceAcrossPhases) {
  const auto scenario = workload::sky_survey();
  Request request;
  request.instance = &scenario.instance;
  request.precedence = &scenario.precedence;
  Portfolio_optimizer portfolio;
  const auto result = portfolio.optimize(request);
  EXPECT_TRUE(scenario.precedence.respects(result.plan.order()));
  EXPECT_TRUE(result.proven_optimal);
}

TEST(Portfolio_test, ScenariosSolveOptimally) {
  Portfolio_optimizer portfolio;
  opt::Exhaustive_optimizer exhaustive;
  for (const auto& scenario :
       {workload::credit_screening(), workload::sky_survey(),
        workload::log_analytics()}) {
    Request request;
    request.instance = &scenario.instance;
    request.precedence = &scenario.precedence;
    const auto got = portfolio.optimize(request);
    const auto want = exhaustive.optimize(request);
    EXPECT_TRUE(test::costs_equal(got.cost, want.cost))
        << scenario.instance.name();
  }
}

}  // namespace
}  // namespace quest
