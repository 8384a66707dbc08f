// quest/core/portfolio.hpp
//
// The "just give me a good plan" entry point: a portfolio that
//  1. builds a fast incumbent (greedy + local-search polish),
//  2. picks the exact engine the instance profile favours — the paper's
//     branch-and-bound for selective workloads (E1), the frontier search
//     near the bottleneck-TSP regime (E7), and the branch-and-bound with
//     the admissible lower bound for expanding workloads (E11a) —
//  3. runs it under the request's limits with the phase-1 plan as its
//     warm start (an upper bound every exact engine prunes against),
//     falling back to the polished heuristic plan when the budget
//     expires first.
//
// The profile-driven dispatch is exactly the guidance EXPERIMENTS.md
// derives from E1/E4/E7; this class just encodes it.

#pragma once

#include "quest/opt/optimizer.hpp"

namespace quest::core {

struct Portfolio_options {
  /// Exact engines are skipped above this size when the profile predicts
  /// a hard (near-TSP or expanding) search; the polished heuristic is
  /// returned with proven_optimal = false.
  std::size_t hard_exact_size_limit = 14;
  /// Accept this relative suboptimality to cut the exact search's cost
  /// (forwarded to Bnb_options::suboptimality).
  double suboptimality = 0.0;
  /// Threads for the exact phase. >= 2 dispatches the bnb/bnb-lb phase
  /// to the parallel engine (bnb-par, with lower-bound=1 standing in
  /// for bnb-lb); 0 or 1 keeps the sequential engines. Exact searches
  /// only — a suboptimality > 0.0 forces the sequential engines, which
  /// are the ones that honor the relaxation. A server embedding caps
  /// this at admission (Server_options::engine_threads), so the nested
  /// parallelism of `workers` concurrent portfolios stays bounded.
  std::size_t exact_threads = 0;
};

class Portfolio_optimizer final : public opt::Optimizer {
 public:
  explicit Portfolio_optimizer(Portfolio_options options = {})
      : options_(options) {}

  std::string name() const override { return "portfolio"; }

  opt::Result optimize(const opt::Request& request) override;

  /// Which engine the profile dispatch picks for this instance
  /// ("bnb", "bnb-lb", "frontier", or "heuristic-only"), exposed for
  /// tests and reporting.
  std::string chosen_engine(const model::Instance& instance) const;

 private:
  Portfolio_options options_;
};

}  // namespace quest::core
