// Property tests for the epsilon-bar measure: it must upper-bound every
// stage term any completion of a partial plan can still produce (this is
// exactly what Lemma 2's soundness needs), and its presorted-row walk
// must reproduce the pairwise O(|R|^2) formula bit for bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <span>
#include <vector>

#include "quest/core/measures.hpp"
#include "quest/model/cost.hpp"
#include "support/helpers.hpp"
#include "support/property.hpp"

namespace quest {
namespace {

using core::Epsilon_bar;
using core::Epsilon_bar_mode;
using model::Instance;
using model::Partial_plan_evaluator;
using model::Plan;
using model::Send_policy;
using model::Service_id;

struct Param {
  std::uint64_t seed;
  Send_policy policy;
  bool expanding;
  /// Run the property under a correlated cost model too: the measures
  /// must stay sound for any structure with sound selectivity bounds.
  bool correlated = false;
};

model::Cost_model make_model(const Param& param, std::size_t n) {
  return param.correlated
             ? model::Cost_model::correlated_seeded(n, 0.6,
                                                    param.seed * 11 + 3,
                                                    param.policy)
             : model::Cost_model::independent(param.policy);
}

class Epsilon_bar_property : public ::testing::TestWithParam<Param> {};

/// For a random prefix of a random full ordering, every stage term of the
/// completed plan that was not already determined by the prefix must be
/// <= epsilon-bar.
TEST_P(Epsilon_bar_property, BoundsEveryUndeterminedTerm) {
  const auto param = GetParam();
  const std::size_t n = 9;
  const Instance instance =
      param.expanding ? test::expanding_instance(n, param.seed)
                      : test::sink_instance(n, param.seed);
  const model::Cost_model cost_model = make_model(param, n);
  const core::Transfer_rows rows(instance);
  Rng rng(param.seed * 31 + 7);

  for (int trial = 0; trial < 40; ++trial) {
    const auto order = rng.permutation(n);
    const std::size_t prefix_len =
        2 + static_cast<std::size_t>(rng.uniform_int(n - 2));  // [2, n-1]

    Partial_plan_evaluator eval(instance, cost_model);
    for (std::size_t p = 0; p < prefix_len; ++p) {
      eval.append(static_cast<Service_id>(order[p]));
    }
    std::vector<Service_id> remaining;
    for (std::size_t p = prefix_len; p < n; ++p) {
      remaining.push_back(static_cast<Service_id>(order[p]));
    }

    for (const auto mode :
         {Epsilon_bar_mode::exact, Epsilon_bar_mode::loose}) {
      const Epsilon_bar ebar(instance, cost_model, mode);
      const double bound = ebar.evaluate(eval, remaining, rows);

      // Complete the plan in the sampled order and compare each stage term
      // from position prefix_len-1 (the dangling term) onwards.
      Plan full;
      for (const std::size_t id : order) {
        full.append(static_cast<Service_id>(id));
      }
      const auto breakdown =
          model::cost_breakdown(instance, full, cost_model);
      for (std::size_t p = prefix_len - 1; p < n; ++p) {
        EXPECT_LE(breakdown.stage_costs[p],
                  bound * (1.0 + test::cost_tolerance) + 1e-12)
            << "mode " << static_cast<int>(mode) << " position " << p
            << " trial " << trial;
      }
    }
  }
}

/// exact is never looser than loose.
TEST_P(Epsilon_bar_property, ExactAtMostLoose) {
  const auto param = GetParam();
  const std::size_t n = 8;
  const Instance instance =
      param.expanding ? test::expanding_instance(n, param.seed)
                      : test::selective_instance(n, param.seed);
  const model::Cost_model cost_model = make_model(param, n);
  Rng rng(param.seed);
  const Epsilon_bar exact(instance, cost_model, Epsilon_bar_mode::exact);
  const Epsilon_bar loose(instance, cost_model, Epsilon_bar_mode::loose);
  const core::Transfer_rows rows(instance);

  for (int trial = 0; trial < 25; ++trial) {
    const auto order = rng.permutation(n);
    const std::size_t prefix_len =
        2 + static_cast<std::size_t>(rng.uniform_int(n - 2));
    Partial_plan_evaluator eval(instance, cost_model);
    for (std::size_t p = 0; p < prefix_len; ++p) {
      eval.append(static_cast<Service_id>(order[p]));
    }
    std::vector<Service_id> remaining;
    for (std::size_t p = prefix_len; p < n; ++p) {
      remaining.push_back(static_cast<Service_id>(order[p]));
    }
    EXPECT_LE(exact.evaluate(eval, remaining, rows),
              loose.evaluate(eval, remaining, rows) * (1.0 + 1e-12));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Epsilon_bar_property,
    ::testing::Values(Param{3, Send_policy::sequential, false},
                      Param{4, Send_policy::sequential, true},
                      Param{5, Send_policy::overlapped, false},
                      Param{6, Send_policy::overlapped, true},
                      Param{7, Send_policy::sequential, false},
                      Param{8, Send_policy::sequential, true},
                      Param{9, Send_policy::sequential, false, true},
                      Param{10, Send_policy::sequential, true, true},
                      Param{11, Send_policy::overlapped, false, true},
                      Param{12, Send_policy::overlapped, true, true}),
    [](const auto& param_info) {
      return "seed" + std::to_string(param_info.param.seed) +
             (param_info.param.policy == Send_policy::overlapped ? "_ovl"
                                                                 : "_seq") +
             (param_info.param.expanding ? "_exp" : "_sel") +
             (param_info.param.correlated ? "_corr" : "");
    });

/// Admissibility of the quest-extension lower bound: no completion of the
/// partial plan may cost less than the bound.
TEST_P(Epsilon_bar_property, LowerBoundIsAdmissible) {
  const auto param = GetParam();
  const std::size_t n = 9;
  const Instance instance =
      param.expanding ? test::expanding_instance(n, param.seed)
                      : test::sink_instance(n, param.seed);
  const model::Cost_model cost_model = make_model(param, n);
  const core::Lower_bound lower(instance, cost_model);
  const core::Transfer_rows rows(instance);
  Rng rng(param.seed * 53 + 1);

  for (int trial = 0; trial < 40; ++trial) {
    const auto order = rng.permutation(n);
    const std::size_t prefix_len =
        2 + static_cast<std::size_t>(rng.uniform_int(n - 2));
    Partial_plan_evaluator eval(instance, cost_model);
    for (std::size_t p = 0; p < prefix_len; ++p) {
      eval.append(static_cast<Service_id>(order[p]));
    }
    std::vector<Service_id> remaining;
    for (std::size_t p = prefix_len; p < n; ++p) {
      remaining.push_back(static_cast<Service_id>(order[p]));
    }
    const double bound = lower.evaluate(eval, remaining);

    Plan full;
    for (const std::size_t id : order) {
      full.append(static_cast<Service_id>(id));
    }
    const double cost =
        model::bottleneck_cost(instance, full, cost_model);
    EXPECT_GE(cost, bound * (1.0 - test::cost_tolerance) - 1e-12)
        << "trial " << trial;
    // The lower bound never exceeds the upper bound.
    const Epsilon_bar ebar(instance, cost_model, Epsilon_bar_mode::exact);
    EXPECT_LE(bound, ebar.evaluate(eval, remaining, rows) * (1.0 + 1e-12));
  }
}

TEST(Epsilon_bar_test, RequiresNonEmptyPlanAndRemaining) {
  const Instance instance = test::selective_instance(4, 1);
  const Epsilon_bar ebar(instance, model::Cost_model{},
                         Epsilon_bar_mode::exact);
  const core::Transfer_rows rows(instance);
  Partial_plan_evaluator eval(instance);
  const std::vector<Service_id> remaining{2, 3};
  EXPECT_THROW(ebar.evaluate(eval, remaining, rows), Precondition_error);
  eval.append(0);
  EXPECT_THROW(ebar.evaluate(eval, {}, rows), Precondition_error);
}

/// The pairwise epsilon-bar formula as it stood before the row walk: T_u
/// and the dangling link are scanned over `remaining` directly, O(|R|^2)
/// per evaluation. Kept as the reference Epsilon_bar::evaluate must
/// reproduce bit for bit (a max is exact, so only the walk order moved).
double reference_epsilon_bar(const Instance& instance,
                             const model::Cost_model& cost_model,
                             Epsilon_bar_mode mode,
                             const Partial_plan_evaluator& eval,
                             std::span<const Service_id> remaining) {
  const auto bounds = cost_model.selectivity_bounds(instance);
  const std::vector<double>& hi = bounds->hi;
  const auto policy = cost_model.policy();
  auto cost = [&](Service_id u) {
    return cost_model.effective_cost(instance, u);
  };
  const Service_id last = eval.last();
  double t_dangling = 0.0;
  for (const Service_id u : remaining) {
    t_dangling = std::max(t_dangling, instance.transfer(last, u));
  }
  double bound = eval.product_before_last() *
                 model::stage_term(cost(last), eval.last_selectivity(),
                                   t_dangling, policy);
  const double product_through = eval.product_through();
  for (const Service_id u : remaining) {
    double term_bound;
    if (mode == Epsilon_bar_mode::loose) {
      term_bound = model::stage_term(
          cost(u), hi[u],
          instance.max_outgoing_transfer(u, [](Service_id) { return true; }),
          policy);
    } else {
      double t_max = instance.sink_transfer(u);
      for (const Service_id v : remaining) {
        if (v != u) t_max = std::max(t_max, instance.transfer(u, v));
      }
      term_bound = model::stage_term(cost(u), hi[u], t_max, policy);
    }
    double amplification = 1.0;
    if (!bounds->all_hi_selective) {
      for (const Service_id w : remaining) {
        if (mode == Epsilon_bar_mode::loose || w != u) {
          amplification *= std::max(1.0, hi[w]);
        }
      }
    }
    bound = std::max(bound, product_through * amplification * term_bound);
  }
  return bound;
}

struct Reference_case {
  std::uint64_t seed;
  std::size_t n;
  /// 0 selective, 1 expanding (sigma up to 3), 2 sink links,
  /// 3 bottleneck-TSP, 4 heavy-tailed.
  int shape;
  bool correlated;
  Send_policy policy;
};

Instance reference_instance(const Reference_case& c) {
  switch (c.shape) {
    case 1:
      return test::expanding_instance(c.n, c.seed);
    case 2:
      return test::sink_instance(c.n, c.seed);
    case 3: {
      Rng rng(c.seed);
      workload::Bottleneck_tsp_spec spec;
      spec.n = c.n;
      return workload::make_bottleneck_tsp(spec, rng);
    }
    case 4: {
      Rng rng(c.seed);
      workload::Heavy_tail_spec spec;
      spec.n = c.n;
      return workload::make_heavy_tailed(spec, rng);
    }
    default:
      return test::selective_instance(c.n, c.seed);
  }
}

TEST(Epsilon_bar_test, RowWalkMatchesThePairwiseFormulaBitForBit) {
  std::size_t wide_cases = 0;
  test::check_property<Reference_case>(
      "epsilon-bar equals the pairwise reference", {},
      [&](Rng& rng) {
        Reference_case c;
        c.seed = rng();
        // One case in eight spans more than one mask word.
        c.n = rng.uniform_int(8) == 0
                  ? 70
                  : 3 + static_cast<std::size_t>(rng.uniform_int(14));
        c.shape = static_cast<int>(rng.uniform_int(5));
        c.correlated = rng.uniform_int(3) == 0;
        c.policy = rng.uniform_int(2) == 0 ? Send_policy::sequential
                                           : Send_policy::overlapped;
        return c;
      },
      [&](const Reference_case& c) {
        const Instance instance = reference_instance(c);
        const model::Cost_model cost_model =
            c.correlated ? model::Cost_model::correlated_seeded(
                               c.n, 0.6, c.seed ^ 0x5eed, c.policy)
                         : model::Cost_model::independent(c.policy);
        const auto bounds = cost_model.selectivity_bounds(instance);
        if (!bounds || !bounds->hi_sound) return QUEST_PROP(true);
        if (c.n > 64) ++wide_cases;
        const core::Transfer_rows rows(instance);
        Rng rng(c.seed * 7 + 1);
        const auto order = rng.permutation(c.n);
        for (std::size_t prefix = 1; prefix < c.n;
             prefix += 1 + prefix / 4) {
          Partial_plan_evaluator eval(instance, cost_model);
          for (std::size_t p = 0; p < prefix; ++p) {
            eval.append(static_cast<Service_id>(order[p]));
          }
          std::vector<Service_id> remaining;
          for (std::size_t p = prefix; p < c.n; ++p) {
            remaining.push_back(static_cast<Service_id>(order[p]));
          }
          for (const auto mode :
               {Epsilon_bar_mode::exact, Epsilon_bar_mode::loose}) {
            const double got = Epsilon_bar(instance, cost_model, mode)
                                   .evaluate(eval, remaining, rows);
            const double want = reference_epsilon_bar(
                instance, cost_model, mode, eval, remaining);
            if (std::bit_cast<std::uint64_t>(got) !=
                std::bit_cast<std::uint64_t>(want)) {
              return QUEST_PROP(false)
                     << "n " << c.n << " shape " << c.shape << " correlated "
                     << c.correlated << " prefix " << prefix << " mode "
                     << static_cast<int>(mode) << ": " << got << " vs "
                     << want;
            }
          }
        }
        return QUEST_PROP(true);
      });
  EXPECT_GT(wide_cases, 0u) << "no instance above 64 services was checked";
}

}  // namespace
}  // namespace quest
