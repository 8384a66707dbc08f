// Pins the search tree of the exact engines on hard-search's shapes: a
// kernel may get cheaper per node, but it must not search differently.
//
// A dozen seeded instances (bottleneck-TSP at n = 12..14, one with tied
// transfers, heavy-tailed at n = 15, a correlated model, a precedence
// DAG, sink transfers, sigma > 1 and the overlapped policy). For bnb, bnb-lb and frontier without a warm
// start, at node_limit 4000 and unbudgeted, each run's plan, the bit
// pattern of its cost, its termination and every Search_stats counter
// must equal the recorded line. bnb-par at 1 and 4 threads pins its
// (canonical) plan and cost only: its counters depend on the
// interleaving. A mismatch prints the run's actual line in the table's
// own syntax.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "quest/core/engines.hpp"
#include "quest/workload/generators.hpp"
#include "support/helpers.hpp"

namespace quest {
namespace {

struct Golden_case {
  std::string name;
  model::Instance instance;
  model::Cost_model model;
  std::optional<constraints::Precedence_graph> precedence;
};

model::Instance btsp(std::size_t n, std::uint64_t seed, bool symmetric) {
  Rng rng(seed);
  workload::Bottleneck_tsp_spec spec;
  spec.n = n;
  spec.symmetric = symmetric;
  return workload::make_bottleneck_tsp(spec, rng);
}

/// `base` with every transfer rounded to a multiple of `step`: ties
/// everywhere, so the children's (transfer, id) order is pinned too.
model::Instance with_tied_transfers(const model::Instance& base,
                                    double step) {
  Matrix<double> transfer = base.transfer_matrix();
  for (std::size_t i = 0; i < base.size(); ++i) {
    for (std::size_t j = 0; j < base.size(); ++j) {
      transfer.at_unchecked(i, j) =
          std::round(transfer.at_unchecked(i, j) / step) * step;
    }
  }
  return model::Instance(base.services(), std::move(transfer),
                         base.sink_transfers());
}

model::Instance heavy(std::size_t n, std::uint64_t seed,
                      workload::Tail_family tail) {
  Rng rng(seed);
  workload::Heavy_tail_spec spec;
  spec.n = n;
  spec.tail = tail;
  return workload::make_heavy_tailed(spec, rng);
}

std::vector<Golden_case> golden_cases() {
  std::vector<Golden_case> cases;
  auto add = [&](std::string name, model::Instance instance,
                 model::Cost_model model = {},
                 std::optional<constraints::Precedence_graph> dag = {}) {
    cases.push_back({std::move(name), std::move(instance), std::move(model),
                     std::move(dag)});
  };
  add("btsp12a", btsp(12, 101, true));
  add("btsp12b", btsp(12, 102, true));
  add("btsp13", btsp(13, 106, true));
  add("btsp14a", btsp(14, 100, true));
  add("btsp14asym", btsp(14, 105, false));
  add("btsp13ties", with_tied_transfers(btsp(13, 113, true), 10.0));
  add("heavy15pareto", heavy(15, 106, workload::Tail_family::pareto));
  add("heavy15lognormal", heavy(15, 107, workload::Tail_family::lognormal));
  add("correlated12", test::selective_instance(12, 108),
      model::Cost_model::correlated_seeded(12, 0.5, 7));
  {
    Rng rng(109);
    auto dag = workload::make_random_dag(12, 0.3, rng);
    add("dag12", test::selective_instance(12, 109), {}, std::move(dag));
  }
  add("sink12", test::sink_instance(12, 110));
  add("expanding11", test::expanding_instance(11, 111));
  add("overlapped12", test::selective_instance(12, 112),
      model::Cost_model::independent(model::Send_policy::overlapped));
  return cases;
}

std::string hex(std::uint64_t bits) {
  static const char* const digits = "0123456789abcdef";
  std::string text = "0x";
  for (int shift = 60; shift >= 0; shift -= 4) {
    text += digits[(bits >> shift) & 0xF];
  }
  return text;
}

/// The run as one line: plan, cost bits, and (with_stats) the
/// termination and every Search_stats counter in declaration order.
std::string describe(const opt::Result& result, bool with_stats) {
  std::string line = "plan=";
  for (std::size_t i = 0; i < result.plan.size(); ++i) {
    if (i > 0) line += ',';
    line += std::to_string(result.plan.order()[i]);
  }
  line += " cost=" + hex(std::bit_cast<std::uint64_t>(result.cost));
  if (!with_stats) return line;
  line += std::string(" ") + opt::to_string(result.termination);
  const opt::Search_stats& s = result.stats;
  for (const std::uint64_t counter :
       {s.nodes_expanded, s.complete_plans, s.incumbent_updates,
        s.lemma1_cutoffs, s.lemma1_children_skipped, s.lemma2_closures,
        s.lemma3_backjumps, s.lemma3_siblings_skipped, s.pairs_total,
        s.pairs_explored, s.ebar_evaluations, s.lower_bound_prunes,
        s.engine_threads}) {
    line += ' ' + std::to_string(counter);
  }
  return line;
}

/// Recorded before the kernel changes; see the file comment.
const std::map<std::string, std::string>& golden_table() {
  static const std::map<std::string, std::string> table = {
    {"btsp12a/bnb/4000",
     "plan=0,11,5,3,4,7,1,8,2,9,6,10 cost=0x403aae5613668aa5 budget-exhausted 3993 7 7 3924 14608 7 7 90 132 20 3972 0 0"},
    {"btsp12a/bnb/0",
     "plan=0,11,5,3,4,7,1,8,2,9,6,10 cost=0x403aae5613668aa5 optimal 6604 7 7 6519 25814 7 7 65 132 40 6564 0 0"},
    {"btsp12a/bnb-lb/4000",
     "plan=0,11,5,3,4,7,1,8,2,9,6,10 cost=0x403aae5613668aa5 budget-exhausted 3993 7 7 2346 8572 7 7 90 132 20 2394 1578 0"},
    {"btsp12a/bnb-lb/0",
     "plan=0,11,5,3,4,7,1,8,2,9,6,10 cost=0x403aae5613668aa5 optimal 6604 7 7 3764 14453 7 7 65 132 40 3809 2755 0"},
    {"btsp12a/frontier/4000",
     "plan=8,1,7,0,11,5,3,4,2,9,6,10 cost=0x403aae5613668aa5 optimal 2509 1 1 0 0 0 0 0 0 0 0 0 0"},
    {"btsp12a/frontier/0",
     "plan=8,1,7,0,11,5,3,4,2,9,6,10 cost=0x403aae5613668aa5 optimal 2509 1 1 0 0 0 0 0 0 0 0 0 0"},
    {"btsp12a/bnb-par:threads=1/0",
     "plan=0,11,5,3,4,7,1,8,2,9,6,10 cost=0x403aae5613668aa5"},
    {"btsp12a/bnb-par:threads=4/0",
     "plan=0,11,5,3,4,7,1,8,2,9,6,10 cost=0x403aae5613668aa5"},
    {"btsp12b/bnb/4000",
     "plan=6,11,8,5,9,10,2,7,3,4,0,1 cost=0x403362defb0babb7 optimal 3225 11 11 3132 12230 9 11 77 132 30 3193 0 0"},
    {"btsp12b/bnb/0",
     "plan=6,11,8,5,9,10,2,7,3,4,0,1 cost=0x403362defb0babb7 optimal 3225 11 11 3132 12230 9 11 77 132 30 3193 0 0"},
    {"btsp12b/bnb-lb/4000",
     "plan=6,11,8,5,9,10,2,7,3,4,0,1 cost=0x403362defb0babb7 optimal 3225 11 11 2015 8031 9 11 77 132 30 2076 1117 0"},
    {"btsp12b/bnb-lb/0",
     "plan=6,11,8,5,9,10,2,7,3,4,0,1 cost=0x403362defb0babb7 optimal 3225 11 11 2015 8031 9 11 77 132 30 2076 1117 0"},
    {"btsp12b/frontier/4000",
     "plan=6,11,8,9,5,10,2,7,3,4,0,1 cost=0x403362defb0babb7 optimal 701 1 1 0 0 0 0 0 0 0 0 0 0"},
    {"btsp12b/frontier/0",
     "plan=6,11,8,9,5,10,2,7,3,4,0,1 cost=0x403362defb0babb7 optimal 701 1 1 0 0 0 0 0 0 0 0 0 0"},
    {"btsp12b/bnb-par:threads=1/0",
     "plan=1,0,4,3,7,2,10,5,9,8,11,6 cost=0x403362defb0babb7"},
    {"btsp12b/bnb-par:threads=4/0",
     "plan=1,0,4,3,7,2,10,5,9,8,11,6 cost=0x403362defb0babb7"},
    {"btsp13/bnb/4000",
     "plan=3,12,0,4,10,11,5,9,1,2,7,8,6 cost=0x40435fa8e0cd72ae budget-exhausted 3994 6 6 3967 12734 4 6 49 156 1 3990 0 0"},
    {"btsp13/bnb/0",
     "plan=3,12,0,4,10,11,5,9,1,2,7,8,6 cost=0x40435fa8e0cd72ae optimal 110077 6 6 110005 399167 4 6 6 156 56 110019 0 0"},
    {"btsp13/bnb-lb/4000",
     "plan=3,12,0,4,10,11,5,9,1,2,7,8,6 cost=0x40435fa8e0cd72ae budget-exhausted 3994 6 6 2349 7283 4 6 49 156 1 2372 1618 0"},
    {"btsp13/bnb-lb/0",
     "plan=3,12,0,4,10,11,5,9,1,2,7,8,6 cost=0x40435fa8e0cd72ae optimal 110077 6 6 63871 223485 4 6 6 156 56 63885 46134 0"},
    {"btsp13/frontier/4000",
     "plan= cost=0x7ff0000000000000 budget-exhausted 4000 0 0 0 0 0 0 0 0 0 0 0 0"},
    {"btsp13/frontier/0",
     "plan=6,8,7,0,4,10,12,3,2,1,9,5,11 cost=0x40435fa8e0cd72ae optimal 8755 1 1 0 0 0 0 0 0 0 0 0 0"},
    {"btsp13/bnb-par:threads=1/0",
     "plan=0,4,10,11,5,9,1,2,3,12,7,8,6 cost=0x40435fa8e0cd72ae"},
    {"btsp13/bnb-par:threads=4/0",
     "plan=0,4,10,11,5,9,1,2,3,12,7,8,6 cost=0x40435fa8e0cd72ae"},
    {"btsp13ties/bnb/4000",
     "plan=1,7,11,12,5,10,4,3,6,0,2,8,9 cost=0x4034000000000000 optimal 2305 4 4 2252 8429 4 4 94 156 22 2283 0 0"},
    {"btsp13ties/bnb/0",
     "plan=1,7,11,12,5,10,4,3,6,0,2,8,9 cost=0x4034000000000000 optimal 2305 4 4 2252 8429 4 4 94 156 22 2283 0 0"},
    {"btsp13ties/bnb-lb/4000",
     "plan=1,7,11,12,5,10,4,3,6,0,2,8,9 cost=0x4034000000000000 optimal 2305 4 4 1438 5377 4 4 94 156 22 1469 814 0"},
    {"btsp13ties/bnb-lb/0",
     "plan=1,7,11,12,5,10,4,3,6,0,2,8,9 cost=0x4034000000000000 optimal 2305 4 4 1438 5377 4 4 94 156 22 1469 814 0"},
    {"btsp13ties/frontier/4000",
     "plan=11,12,2,1,7,4,10,5,3,6,0,8,9 cost=0x4034000000000000 optimal 354 1 1 0 0 0 0 0 0 0 0 0 0"},
    {"btsp13ties/frontier/0",
     "plan=11,12,2,1,7,4,10,5,3,6,0,8,9 cost=0x4034000000000000 optimal 354 1 1 0 0 0 0 0 0 0 0 0 0"},
    {"btsp13ties/bnb-par:threads=1/0",
     "plan=0,6,3,4,5,10,12,11,7,1,2,8,9 cost=0x4034000000000000"},
    {"btsp13ties/bnb-par:threads=4/0",
     "plan=0,6,3,4,5,10,12,11,7,1,2,8,9 cost=0x4034000000000000"},
    {"btsp14a/bnb/4000",
     "plan=2,12,6,4,8,11,3,10,1,5,7,0,9,13 cost=0x403c08ac9ec5ab7d budget-exhausted 3991 9 9 3931 16838 7 9 98 182 13 3975 0 0"},
    {"btsp14a/bnb/0",
     "plan=2,12,6,4,8,11,3,10,1,5,7,0,9,13 cost=0x403c08ac9ec5ab7d optimal 15889 9 9 15811 62574 7 9 38 182 42 15845 0 0"},
    {"btsp14a/bnb-lb/4000",
     "plan=2,12,6,4,8,11,3,10,1,5,7,0,9,13 cost=0x403c08ac9ec5ab7d budget-exhausted 3991 9 9 2647 11631 7 9 98 182 13 2691 1284 0"},
    {"btsp14a/bnb-lb/0",
     "plan=2,12,6,4,8,11,3,10,1,5,7,0,9,13 cost=0x403c08ac9ec5ab7d optimal 15889 9 9 10953 44990 7 9 38 182 42 10987 4858 0"},
    {"btsp14a/frontier/4000",
     "plan= cost=0x7ff0000000000000 budget-exhausted 4000 0 0 0 0 0 0 0 0 0 0 0 0"},
    {"btsp14a/frontier/0",
     "plan=6,12,2,4,8,11,3,10,1,5,7,0,9,13 cost=0x403c08ac9ec5ab7d optimal 5964 1 1 0 0 0 0 0 0 0 0 0 0"},
    {"btsp14a/bnb-par:threads=1/0",
     "plan=0,7,5,1,10,3,11,6,4,8,2,12,9,13 cost=0x403c08ac9ec5ab7d"},
    {"btsp14a/bnb-par:threads=4/0",
     "plan=0,7,5,1,10,3,11,6,4,8,2,12,9,13 cost=0x403c08ac9ec5ab7d"},
    {"btsp14asym/bnb/4000",
     "plan=3,8,13,0,11,7,9,5,6,1,12,2,10,4 cost=0x403302d7b49f43c7 optimal 3774 8 8 3703 18847 5 8 84 182 34 3737 0 0"},
    {"btsp14asym/bnb/0",
     "plan=3,8,13,0,11,7,9,5,6,1,12,2,10,4 cost=0x403302d7b49f43c7 optimal 3774 8 8 3703 18847 5 8 84 182 34 3737 0 0"},
    {"btsp14asym/bnb-lb/4000",
     "plan=3,8,13,0,11,7,9,5,6,1,12,2,10,4 cost=0x403302d7b49f43c7 optimal 3774 8 8 2166 10792 5 8 84 182 34 2200 1537 0"},
    {"btsp14asym/bnb-lb/0",
     "plan=3,8,13,0,11,7,9,5,6,1,12,2,10,4 cost=0x403302d7b49f43c7 optimal 3774 8 8 2166 10792 5 8 84 182 34 2200 1537 0"},
    {"btsp14asym/frontier/4000",
     "plan=1,12,2,3,8,13,0,11,7,9,5,6,10,4 cost=0x403302d7b49f43c7 optimal 2906 1 1 0 0 0 0 0 0 0 0 0 0"},
    {"btsp14asym/frontier/0",
     "plan=1,12,2,3,8,13,0,11,7,9,5,6,10,4 cost=0x403302d7b49f43c7 optimal 2906 1 1 0 0 0 0 0 0 0 0 0 0"},
    {"btsp14asym/bnb-par:threads=1/0",
     "plan=1,12,2,3,8,13,0,11,7,9,5,6,10,4 cost=0x403302d7b49f43c7"},
    {"btsp14asym/bnb-par:threads=4/0",
     "plan=1,12,2,3,8,13,0,11,7,9,5,6,10,4 cost=0x403302d7b49f43c7"},
    {"heavy15pareto/bnb/4000",
     "plan=0,12,5,1,2,3,4,6,7,8,9,10,11,13,14 cost=0x3ff248f5d7e91704 optimal 3 1 1 0 0 1 1 12 210 1 2 0 0"},
    {"heavy15pareto/bnb/0",
     "plan=0,12,5,1,2,3,4,6,7,8,9,10,11,13,14 cost=0x3ff248f5d7e91704 optimal 3 1 1 0 0 1 1 12 210 1 2 0 0"},
    {"heavy15pareto/bnb-lb/4000",
     "plan=0,12,5,1,2,3,4,6,7,8,9,10,11,13,14 cost=0x3ff248f5d7e91704 optimal 3 1 1 0 0 1 1 12 210 1 2 0 0"},
    {"heavy15pareto/bnb-lb/0",
     "plan=0,12,5,1,2,3,4,6,7,8,9,10,11,13,14 cost=0x3ff248f5d7e91704 optimal 3 1 1 0 0 1 1 12 210 1 2 0 0"},
    {"heavy15pareto/frontier/4000",
     "plan=0,12,6,1,14,8,13,11,10,4,9,7,5,3,2 cost=0x3ff248f5d7e91704 optimal 177 1 1 0 0 0 0 0 0 0 0 0 0"},
    {"heavy15pareto/frontier/0",
     "plan=0,12,6,1,14,8,13,11,10,4,9,7,5,3,2 cost=0x3ff248f5d7e91704 optimal 177 1 1 0 0 0 0 0 0 0 0 0 0"},
    {"heavy15pareto/bnb-par:threads=1/0",
     "plan=0,12,4,1,2,3,5,6,7,8,9,10,11,13,14 cost=0x3ff248f5d7e91704"},
    {"heavy15pareto/bnb-par:threads=4/0",
     "plan=0,12,4,1,2,3,5,6,7,8,9,10,11,13,14 cost=0x3ff248f5d7e91704"},
    {"heavy15lognormal/bnb/4000",
     "plan=3,1,0,2,4,5,6,7,8,9,10,11,12,13,14 cost=0x3fda68f014cd386e optimal 2 1 1 0 0 1 1 0 210 1 1 0 0"},
    {"heavy15lognormal/bnb/0",
     "plan=3,1,0,2,4,5,6,7,8,9,10,11,12,13,14 cost=0x3fda68f014cd386e optimal 2 1 1 0 0 1 1 0 210 1 1 0 0"},
    {"heavy15lognormal/bnb-lb/4000",
     "plan=3,1,0,2,4,5,6,7,8,9,10,11,12,13,14 cost=0x3fda68f014cd386e optimal 2 1 1 0 0 1 1 0 210 1 1 0 0"},
    {"heavy15lognormal/bnb-lb/0",
     "plan=3,1,0,2,4,5,6,7,8,9,10,11,12,13,14 cost=0x3fda68f014cd386e optimal 2 1 1 0 0 1 1 0 210 1 1 0 0"},
    {"heavy15lognormal/frontier/4000",
     "plan=3,1,2,11,14,13,12,4,10,8,5,6,9,7,0 cost=0x3fda68f014cd386e optimal 163 4 1 0 0 0 0 0 0 0 0 0 0"},
    {"heavy15lognormal/frontier/0",
     "plan=3,1,2,11,14,13,12,4,10,8,5,6,9,7,0 cost=0x3fda68f014cd386e optimal 163 4 1 0 0 0 0 0 0 0 0 0 0"},
    {"heavy15lognormal/bnb-par:threads=1/0",
     "plan=3,1,0,2,4,5,6,7,8,9,10,11,12,13,14 cost=0x3fda68f014cd386e"},
    {"heavy15lognormal/bnb-par:threads=4/0",
     "plan=3,1,0,2,4,5,6,7,8,9,10,11,12,13,14 cost=0x3fda68f014cd386e"},
    {"correlated12/bnb/4000",
     "plan=0,7,9,3,5,6,10,8,1,2,4,11 cost=0x40114d424926e05f optimal 8 1 1 0 0 1 1 39 132 1 7 0 0"},
    {"correlated12/bnb/0",
     "plan=0,7,9,3,5,6,10,8,1,2,4,11 cost=0x40114d424926e05f optimal 8 1 1 0 0 1 1 39 132 1 7 0 0"},
    {"correlated12/bnb-lb/4000",
     "plan=0,7,9,3,5,6,10,8,1,2,4,11 cost=0x40114d424926e05f optimal 8 1 1 0 0 1 1 39 132 1 7 0 0"},
    {"correlated12/bnb-lb/0",
     "plan=0,7,9,3,5,6,10,8,1,2,4,11 cost=0x40114d424926e05f optimal 8 1 1 0 0 1 1 39 132 1 7 0 0"},
    {"correlated12/frontier/4000",
     "plan=0,7,5,8,1,10,11,3,9,6,4,2 cost=0x40114d424926e05f optimal 78 1 1 0 0 0 0 0 0 0 0 0 0"},
    {"correlated12/frontier/0",
     "plan=0,7,5,8,1,10,11,3,9,6,4,2 cost=0x40114d424926e05f optimal 78 1 1 0 0 0 0 0 0 0 0 0 0"},
    {"correlated12/bnb-par:threads=1/0",
     "plan=0,7,1,2,3,4,5,6,8,9,10,11 cost=0x40114d424926e05f"},
    {"correlated12/bnb-par:threads=4/0",
     "plan=0,7,1,2,3,4,5,6,8,9,10,11 cost=0x40114d424926e05f"},
    {"dag12/bnb/4000",
     "plan=7,2,3,8,4,0,5,6,1,11,9,10 cost=0x4010334659567611 optimal 2 1 1 0 0 1 1 0 5 1 1 0 0"},
    {"dag12/bnb/0",
     "plan=7,2,3,8,4,0,5,6,1,11,9,10 cost=0x4010334659567611 optimal 2 1 1 0 0 1 1 0 5 1 1 0 0"},
    {"dag12/bnb-lb/4000",
     "plan=7,2,3,8,4,0,5,6,1,11,9,10 cost=0x4010334659567611 optimal 2 1 1 0 0 1 1 0 5 1 1 0 0"},
    {"dag12/bnb-lb/0",
     "plan=7,2,3,8,4,0,5,6,1,11,9,10 cost=0x4010334659567611 optimal 2 1 1 0 0 1 1 0 5 1 1 0 0"},
    {"dag12/frontier/4000",
     "plan=7,2,3,8,4,6,11,5,0,9,1,10 cost=0x4010334659567611 optimal 43 2 1 0 0 0 0 0 0 0 0 0 0"},
    {"dag12/frontier/0",
     "plan=7,2,3,8,4,6,11,5,0,9,1,10 cost=0x4010334659567611 optimal 43 2 1 0 0 0 0 0 0 0 0 0 0"},
    {"dag12/bnb-par:threads=1/0",
     "plan=7,2,3,8,4,0,5,6,1,11,9,10 cost=0x4010334659567611"},
    {"dag12/bnb-par:threads=4/0",
     "plan=7,2,3,8,4,0,5,6,1,11,9,10 cost=0x4010334659567611"},
    {"sink12/bnb/4000",
     "plan=10,5,6,0,1,2,3,4,7,8,9,11 cost=0x4000000a068fd44c optimal 11 4 4 0 0 4 4 34 132 3 8 0 0"},
    {"sink12/bnb/0",
     "plan=10,5,6,0,1,2,3,4,7,8,9,11 cost=0x4000000a068fd44c optimal 11 4 4 0 0 4 4 34 132 3 8 0 0"},
    {"sink12/bnb-lb/4000",
     "plan=10,5,6,0,1,2,3,4,7,8,9,11 cost=0x4000000a068fd44c optimal 11 4 4 0 0 4 4 34 132 3 8 0 0"},
    {"sink12/bnb-lb/0",
     "plan=10,5,6,0,1,2,3,4,7,8,9,11 cost=0x4000000a068fd44c optimal 11 4 4 0 0 4 4 34 132 3 8 0 0"},
    {"sink12/frontier/4000",
     "plan=10,5,6,0,1,9,7,11,4,8,2,3 cost=0x4000000a068fd44c optimal 83 1 1 0 0 0 0 0 0 0 0 0 0"},
    {"sink12/frontier/0",
     "plan=10,5,6,0,1,9,7,11,4,8,2,3 cost=0x4000000a068fd44c optimal 83 1 1 0 0 0 0 0 0 0 0 0 0"},
    {"sink12/bnb-par:threads=1/0",
     "plan=10,5,6,0,1,2,3,4,7,8,9,11 cost=0x4000000a068fd44c"},
    {"sink12/bnb-par:threads=4/0",
     "plan=10,5,6,0,1,2,3,4,7,8,9,11 cost=0x4000000a068fd44c"},
    {"expanding11/bnb/4000",
     "plan=5,10,4,0,3,7,6,2,9,8,1 cost=0x40268cb4028e9287 budget-exhausted 3910 90 18 2794 5345 16 17 109 110 3 3832 0 0"},
    {"expanding11/bnb/0",
     "plan=3,6,7,10,0,5,4,2,9,8,1 cost=0x402509241a8dd163 optimal 1398422 17860 20 1039420 1856003 18 19 90 110 75 1380505 0 0"},
    {"expanding11/bnb-lb/4000",
     "plan=5,10,4,0,3,7,6,2,9,8,1 cost=0x40268cb4028e9287 budget-exhausted 3982 18 18 191 296 16 17 105 110 3 1288 2688 0"},
    {"expanding11/bnb-lb/0",
     "plan=3,6,7,10,0,5,4,2,9,8,1 cost=0x402509241a8dd163 optimal 760253 20 20 38230 60057 18 19 90 110 75 233668 526508 0"},
    {"expanding11/frontier/4000",
     "plan= cost=0x7ff0000000000000 budget-exhausted 4000 0 0 0 0 0 0 0 0 0 0 0 0"},
    {"expanding11/frontier/0",
     "plan=3,4,7,6,0,10,5,2,9,8,1 cost=0x402509241a8dd164 optimal 5620 2 1 0 0 0 0 0 0 0 0 0 0"},
    {"expanding11/bnb-par:threads=1/0",
     "plan=0,3,4,5,6,7,10,2,9,8,1 cost=0x402509241a8dd163"},
    {"expanding11/bnb-par:threads=4/0",
     "plan=0,3,4,5,6,7,10,2,9,8,1 cost=0x402509241a8dd163"},
    {"overlapped12/bnb/4000",
     "plan=11,1,0,2,3,4,5,6,7,8,9,10 cost=0x3fe8f60465babe81 optimal 5 2 2 0 0 2 2 9 132 2 3 0 0"},
    {"overlapped12/bnb/0",
     "plan=11,1,0,2,3,4,5,6,7,8,9,10 cost=0x3fe8f60465babe81 optimal 5 2 2 0 0 2 2 9 132 2 3 0 0"},
    {"overlapped12/bnb-lb/4000",
     "plan=11,1,0,2,3,4,5,6,7,8,9,10 cost=0x3fe8f60465babe81 optimal 5 2 2 0 0 2 2 9 132 2 3 0 0"},
    {"overlapped12/bnb-lb/0",
     "plan=11,1,0,2,3,4,5,6,7,8,9,10 cost=0x3fe8f60465babe81 optimal 5 2 2 0 0 2 2 9 132 2 3 0 0"},
    {"overlapped12/frontier/4000",
     "plan=11,5,8,0,2,1,10,9,7,6,4,3 cost=0x3fe8f60465babe81 optimal 138 2 1 0 0 0 0 0 0 0 0 0 0"},
    {"overlapped12/frontier/0",
     "plan=11,5,8,0,2,1,10,9,7,6,4,3 cost=0x3fe8f60465babe81 optimal 138 2 1 0 0 0 0 0 0 0 0 0 0"},
    {"overlapped12/bnb-par:threads=1/0",
     "plan=11,1,0,2,3,4,5,6,7,8,9,10 cost=0x3fe8f60465babe81"},
    {"overlapped12/bnb-par:threads=4/0",
     "plan=11,1,0,2,3,4,5,6,7,8,9,10 cost=0x3fe8f60465babe81"},
  };
  return table;
}

TEST(Search_golden_test, ExactEnginesSearchTheRecordedTree) {
  struct Run {
    const char* spec;
    std::uint64_t node_limit;
    bool with_stats;
  };
  const Run runs[] = {
      {"bnb", 4000, true},
      {"bnb", 0, true},
      {"bnb-lb", 4000, true},
      {"bnb-lb", 0, true},
      {"frontier", 4000, true},
      {"frontier", 0, true},
      {"bnb-par:threads=1", 0, false},
      {"bnb-par:threads=4", 0, false},
  };
  const auto& table = golden_table();
  std::size_t checked = 0;
  for (const Golden_case& golden : golden_cases()) {
    for (const Run& run : runs) {
      const std::string label = golden.name + "/" + run.spec + "/" +
                                std::to_string(run.node_limit);
      opt::Request request;
      request.instance = &golden.instance;
      request.model = golden.model;
      if (golden.precedence) request.precedence = &*golden.precedence;
      request.budget.node_limit = run.node_limit;
      const opt::Result result =
          core::make_optimizer(run.spec)->optimize(request);
      const std::string actual = describe(result, run.with_stats);
      const auto found = table.find(label);
      const std::string expected =
          found == table.end() ? std::string("<missing>") : found->second;
      EXPECT_EQ(actual, expected)
          << "    {\"" << label << "\",\n     \"" << actual << "\"},";
      ++checked;
    }
  }
  EXPECT_EQ(checked, table.size());
}

}  // namespace
}  // namespace quest
