// Direct verification of the paper's three lemmas on random instances.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "quest/core/branch_and_bound.hpp"
#include "quest/core/measures.hpp"
#include "quest/model/cost.hpp"
#include "quest/opt/exhaustive.hpp"
#include "support/helpers.hpp"

namespace quest {
namespace {

using core::Epsilon_bar;
using core::Epsilon_bar_mode;
using model::Instance;
using model::Partial_plan_evaluator;
using model::Plan;
using model::Service_id;

// Lemma 1: epsilon never decreases as a partial plan grows, and the final
// cost is at least the epsilon of every prefix.
TEST(Lemma1, EpsilonIsMonotoneUnderExtension) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const std::size_t n = 10;
    const Instance instance = test::expanding_instance(n, seed);
    Rng rng(seed);
    const auto order = rng.permutation(n);
    Partial_plan_evaluator eval(instance);
    double previous = 0.0;
    for (const std::size_t id : order) {
      eval.append(static_cast<Service_id>(id));
      EXPECT_GE(eval.epsilon(), previous - 1e-15);
      previous = eval.epsilon();
    }
    EXPECT_GE(eval.complete_cost(), previous - 1e-15);
  }
}

// Lemma 2: when epsilon >= epsilon-bar, *every* completion of the partial
// plan has cost exactly epsilon. Verified by enumerating all completions.
TEST(Lemma2, AllCompletionsCostEpsilonAfterClosure) {
  std::size_t closures_checked = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const std::size_t n = 7;
    const Instance instance = test::selective_instance(n, seed);
    const Epsilon_bar ebar(instance, model::Cost_model{},
                           Epsilon_bar_mode::exact);
    const core::Transfer_rows rows(instance);
    Rng rng(seed * 131);
    for (int trial = 0; trial < 30; ++trial) {
      const auto order = rng.permutation(n);
      const std::size_t prefix_len =
          2 + static_cast<std::size_t>(rng.uniform_int(n - 2));
      Partial_plan_evaluator eval(instance);
      for (std::size_t p = 0; p < prefix_len; ++p) {
        eval.append(static_cast<Service_id>(order[p]));
      }
      std::vector<Service_id> remaining;
      for (std::size_t p = prefix_len; p < n; ++p) {
        remaining.push_back(static_cast<Service_id>(order[p]));
      }
      if (eval.epsilon() < ebar.evaluate(eval, remaining, rows)) continue;
      ++closures_checked;
      std::sort(remaining.begin(), remaining.end());
      do {
        Plan full = eval.plan();
        for (const Service_id id : remaining) full.append(id);
        EXPECT_TRUE(test::costs_equal(
            model::bottleneck_cost(instance, full), eval.epsilon()))
            << "seed " << seed << " trial " << trial;
      } while (std::next_permutation(remaining.begin(), remaining.end()));
    }
  }
  // The sweep must actually exercise the lemma.
  EXPECT_GT(closures_checked, 10u);
}

// Lemma 3: no plan extending a prefix stored in V beats the final optimum.
TEST(Lemma3, StoredPrefixesCannotBeatTheOptimum) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const std::size_t n = 7;
    const Instance instance = test::selective_instance(n, seed * 17);
    core::Bnb_options options;
    options.record_pruned_prefixes = true;
    core::Bnb_optimizer bnb(options);
    opt::Request request;
    request.instance = &instance;
    const auto result = bnb.optimize(request);
    ASSERT_TRUE(result.proven_optimal);

    const auto& store = bnb.pruned_prefixes();
    ASSERT_EQ(store.dropped(), 0u);
    for (const auto& prefix : store.prefixes()) {
      // Enumerate every completion of the stored prefix.
      std::vector<Service_id> remaining;
      for (Service_id u = 0; u < n; ++u) {
        if (std::find(prefix.begin(), prefix.end(), u) == prefix.end()) {
          remaining.push_back(u);
        }
      }
      std::sort(remaining.begin(), remaining.end());
      do {
        Plan full{std::vector<Service_id>(prefix.begin(), prefix.end())};
        for (const Service_id id : remaining) full.append(id);
        EXPECT_GE(model::bottleneck_cost(instance, full),
                  result.cost * (1.0 - test::cost_tolerance))
            << "prefix extension beats the optimum";
      } while (std::next_permutation(remaining.begin(), remaining.end()));
    }
  }
}

// The hardness reduction quoted in the paper: with unit selectivities and
// zero costs the bottleneck metric is the largest transfer on the path.
TEST(Reduction, BottleneckTspCostIsMaxPathEdge) {
  Rng rng(77);
  workload::Bottleneck_tsp_spec spec;
  spec.n = 9;
  const Instance instance = workload::make_bottleneck_tsp(spec, rng);
  for (int trial = 0; trial < 50; ++trial) {
    const auto order = rng.permutation(spec.n);
    Plan plan;
    for (const std::size_t id : order) {
      plan.append(static_cast<Service_id>(id));
    }
    double max_edge = 0.0;
    for (std::size_t p = 0; p + 1 < spec.n; ++p) {
      max_edge =
          std::max(max_edge, instance.transfer(plan[p], plan[p + 1]));
    }
    EXPECT_TRUE(
        test::costs_equal(model::bottleneck_cost(instance, plan), max_edge));
  }
}

}  // namespace
}  // namespace quest
