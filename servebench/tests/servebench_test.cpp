// Unit tests for the benchmark's own code: order statistics, the /proc
// parsers, and the answer checker.
//
//   python3 servebench/run.py --self-test

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "checks.hpp"
#include "procfs.hpp"
#include "quest/common/rng.hpp"
#include "quest/core/engines.hpp"
#include "quest/io/fingerprint.hpp"
#include "quest/model/cost.hpp"
#include "quest/serve/protocol.hpp"
#include "quest/workload/generators.hpp"
#include "sampling.hpp"

namespace servebench {
namespace {

using namespace quest;

std::vector<double> one_to(std::size_t n) {
  std::vector<double> samples;
  for (std::size_t i = n; i >= 1; --i) {
    samples.push_back(static_cast<double>(i));
  }
  return samples;
}

TEST(Sampling, NearestRankPercentiles) {
  const std::vector<double> samples = one_to(100);
  EXPECT_EQ(percentile(samples, 0.50), 50.0);
  EXPECT_EQ(percentile(samples, 0.99), 99.0);
  EXPECT_EQ(percentile(samples, 1.00), 100.0);
  EXPECT_EQ(percentile({7.0}, 0.99), 7.0);
  EXPECT_EQ(percentile(one_to(1000), 0.99), 990.0);
}

TEST(Sampling, FailedRequestsSortPastEveryLatency) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> samples = one_to(99);
  samples.push_back(inf);
  samples.push_back(inf);
  EXPECT_EQ(percentile(samples, 0.50), 51.0);
  EXPECT_EQ(percentile(samples, 0.99), inf);
}

TEST(Sampling, TailSampleCounts) {
  EXPECT_EQ(samples_beyond(100, 0.99), 1u);
  EXPECT_EQ(samples_beyond(999, 0.99), 9u);
  EXPECT_EQ(samples_beyond(1000, 0.99), 10u);
  EXPECT_EQ(samples_beyond(1000, 0.50), 500u);
  EXPECT_EQ(samples_beyond(0, 0.99), 0u);
  EXPECT_EQ(samples_needed(0.99), 1000u);
  EXPECT_EQ(samples_needed(0.999), 10000u);
}

TEST(Sampling, LowestShareKeepsTiesWithItsLastMember) {
  using Indices = std::vector<std::size_t>;
  // A quarter of 8 is 2: the keys 1 and 2 (indices 4 and 1).
  EXPECT_EQ(lowest_share({9, 2, 7, 5, 1, 8, 3, 6}, 0.25), (Indices{1, 4}));
  // Index 6 ties the second-lowest key and joins.
  EXPECT_EQ(lowest_share({9, 2, 7, 5, 1, 8, 2, 6}, 0.25), (Indices{1, 4, 6}));
  // No steal anywhere: every slice.
  EXPECT_EQ(lowest_share({0, 0, 0, 0}, 0.25), (Indices{0, 1, 2, 3}));
  // Never empty.
  EXPECT_EQ(lowest_share({4, 3}, 0.1), (Indices{1}));
  EXPECT_TRUE(lowest_share({}, 0.25).empty());
}

TEST(Procfs, StatCpuTicksCountFromTheLastParenthesis) {
  // pid (comm) state ppid pgrp session tty tpgid flags minflt cminflt
  // majflt cmajflt utime stime ...; the comm holds spaces and a ')'.
  const std::string line =
      "4242 (quest s) rv) S 1 4242 4242 0 -1 4194560 1093 0 0 0 150 30 0 0 "
      "20 0 3 0 123456 12345678 900 18446744073709551615\n";
  EXPECT_EQ(parse_stat_cpu_ticks(line), 180u);
  EXPECT_THROW(parse_stat_cpu_ticks("4242 quest_serve S 1"),
               std::runtime_error);
  EXPECT_THROW(parse_stat_cpu_ticks("4242 (quest_serve) S 1 2 3"),
               std::runtime_error);
}

TEST(Procfs, StealAndStatusFields) {
  const std::string stat =
      "cpu  10 20 30 40 50 60 70 88 0 0\ncpu0 1 2 3 4 5 6 7 8 0 0\n";
  EXPECT_EQ(parse_steal_ticks(stat), 88u);
  const std::string status =
      "Name:\tquest_serve\nVmPeak:\t  20000 kB\nVmHWM:\t    9344 kB\n";
  EXPECT_EQ(parse_status_kb(status, "VmHWM"), 9344u);
  EXPECT_THROW(parse_status_kb(status, "VmRSS"), std::runtime_error);
}

class Checker : public ::testing::Test {
 protected:
  Checker()
      : entry_(make()),
        request_{Op_kind::optimize, 0, "q0", "{}\n"},
        registration_{Op_kind::register_op, 0, "", "{}\n"} {}

  static Catalog_entry make() {
    Rng rng(11);
    workload::Uniform_spec spec;
    spec.n = 8;
    model::Instance instance = workload::make_uniform(spec, rng);
    const std::uint64_t print = io::fingerprint(instance);
    Catalog_entry entry{"c0", std::move(instance), print};
    opt::Request request;
    request.instance = &entry.instance;
    optimum_ = core::make_optimizer("dp")->optimize(request).plan;
    entry.reference = model::bottleneck_cost(entry.instance, optimum_);
    return entry;
  }

  std::string result(const model::Plan& plan, double cost,
                     opt::Termination termination) const {
    return serve::result_event("q0", termination, plan, cost, true,
                               termination == opt::Termination::optimal,
                               false, false, "sequential/independent", 0.0,
                               nullptr)
        .dump();
  }

  static inline model::Plan optimum_;
  Catalog_entry entry_;
  Request request_;
  Request registration_;
};

TEST_F(Checker, AcceptsTheOptimum) {
  const Verdict verdict = check_answer(
      request_, entry_,
      result(optimum_, entry_.reference, opt::Termination::optimal));
  EXPECT_TRUE(verdict.ok) << verdict.reason;
  EXPECT_TRUE(verdict.optimal);
}

TEST_F(Checker, RejectsAnAlteredCost) {
  EXPECT_FALSE(check_answer(request_, entry_,
                            result(optimum_, entry_.reference * 1.001,
                                   opt::Termination::completed))
                   .ok);
}

TEST_F(Checker, RejectsAnAlteredPlan) {
  // A different order reported at the optimum's cost.
  model::Plan worse;
  for (std::size_t i = 0; i + 1 < optimum_.size() && worse.empty(); ++i) {
    std::vector<model::Service_id> order = optimum_.order();
    std::swap(order[i], order[i + 1]);
    const model::Plan candidate(order);
    if (!same_cost(model::bottleneck_cost(entry_.instance, candidate),
                   entry_.reference)) {
      worse = candidate;
    }
  }
  ASSERT_FALSE(worse.empty());
  EXPECT_FALSE(check_answer(request_, entry_,
                            result(worse, entry_.reference,
                                   opt::Termination::completed))
                   .ok);
  // Its true cost is accepted, unless it claims optimality.
  const double cost = model::bottleneck_cost(entry_.instance, worse);
  EXPECT_TRUE(check_answer(request_, entry_,
                           result(worse, cost, opt::Termination::completed))
                  .ok);
  EXPECT_FALSE(check_answer(request_, entry_,
                            result(worse, cost, opt::Termination::optimal))
                   .ok);
}

TEST_F(Checker, RejectsAPlanThatIsNotAPermutation) {
  std::vector<model::Service_id> order = optimum_.order();
  order[1] = order[0];
  EXPECT_FALSE(check_answer(request_, entry_,
                            result(model::Plan(order), entry_.reference,
                                   opt::Termination::completed))
                   .ok);
  order.pop_back();
  EXPECT_FALSE(check_answer(request_, entry_,
                            result(model::Plan(order), entry_.reference,
                                   opt::Termination::completed))
                   .ok);
}

TEST_F(Checker, RejectsErrorsAndForeignIds) {
  EXPECT_FALSE(check_answer(request_, entry_,
                            serve::overloaded_event("q0", 3, 3).dump())
                   .ok);
  const std::string other =
      serve::result_event("q9", opt::Termination::optimal, optimum_,
                          entry_.reference, true, true, false, false,
                          "sequential/independent", 0.0, nullptr)
          .dump();
  EXPECT_FALSE(check_answer(request_, entry_, other).ok);
  EXPECT_FALSE(check_answer(request_, entry_, "not json").ok);
}

TEST_F(Checker, RegisteredFingerprintMustMatchTheClients) {
  const std::string good =
      serve::registered_event("c0", 8, entry_.fingerprint, false).dump();
  EXPECT_TRUE(check_answer(registration_, entry_, good).ok);
  const std::string bad =
      serve::registered_event("c0", 8, entry_.fingerprint ^ 1, false).dump();
  EXPECT_FALSE(check_answer(registration_, entry_, bad).ok);
}

}  // namespace
}  // namespace servebench
