// quest/core/search_driver.hpp
//
// The search-driver layer of the kernel: one templated DFS implementing
// the paper's pair-seeded branch-and-bound (Lemma 1/2/3 pruning, the
// quest lower-bound and bounded-suboptimality extensions), parameterized
// on two policies so the sequential and parallel engines share every line
// of the hot path without a virtual call on it:
//
//   Incumbent — `double rho()` (the current prune bound) and
//     `void offer(std::span<const Service_id> order, double cost)`.
//     Local_incumbent (below) backs bnb/bnb-lb with plain fields; the
//     parallel engine substitutes a shared atomic incumbent whose rho()
//     is a relaxed load and whose offer() is a CAS on the cost bits.
//
//   Control — `bool should_stop()` / `bool stopped()`.
//     opt::Search_control backs the sequential engines;
//     opt::Worker_control adds the thread-safe budget/cancellation
//     plumbing for parallel workers.
//
// Each driver owns private node state (evaluator, placed set, candidate
// arena) and shares only the read-only Bound_provider and its
// Transfer_rows — which is exactly what makes K drivers over one instance
// race-free.

#pragma once

#include <algorithm>
#include <limits>
#include <span>
#include <vector>

#include "quest/common/error.hpp"
#include "quest/core/bounds.hpp"
#include "quest/core/prefix_store.hpp"
#include "quest/core/search_kernel.hpp"
#include "quest/opt/search_control.hpp"

namespace quest::core {

/// Driver-level knobs (the bound-level ones live in Bound_config).
struct Driver_config {
  /// 1 + suboptimality: subtrees are pruned when their bound times this
  /// reaches the incumbent. 1 searches exactly.
  double relax = 1.0;
  /// Lemma 3 back-jump past the bottleneck service.
  bool enable_backjump = true;
  /// Record back-jumped prefixes into the Prefix_store (observability).
  bool record_pruned_prefixes = false;
};

/// Sequential incumbent policy: plain fields, improvements visible to the
/// next rho() immediately, streaming through the bound Search_control.
class Local_incumbent {
 public:
  explicit Local_incumbent(opt::Search_control& control)
      : control_(&control) {}

  double rho() const noexcept { return rho_; }

  void offer(std::span<const model::Service_id> order, double cost) {
    if (cost < rho_) {
      rho_ = cost;
      best_ = model::Plan(
          std::vector<model::Service_id>(order.begin(), order.end()));
      control_->note_incumbent(best_, rho_);
    }
  }

  double cost() const noexcept { return rho_; }
  const model::Plan& best() const noexcept { return best_; }

 private:
  opt::Search_control* control_;
  double rho_ = std::numeric_limits<double>::infinity();
  model::Plan best_;
};

/// One DFS engine over the pair-seeded search tree. Drivers are built per
/// optimize() call (per worker, for the parallel engine); all scratch
/// state lives here. See the file comment for the policy concepts.
template <class Incumbent, class Control>
class Search_driver {
 public:
  Search_driver(const model::Instance& instance,
                const model::Cost_model& model,
                const constraints::Precedence_graph* precedence,
                const Driver_config& config, const Bound_provider& bounds,
                Incumbent& incumbent, Control& control,
                opt::Search_stats& stats, Prefix_store* store = nullptr)
      : instance_(instance),
        model_(model),
        precedence_(precedence),
        config_(config),
        bounds_(bounds),
        incumbent_(incumbent),
        control_(control),
        stats_(stats),
        store_(store),
        eval_(instance, model),
        placed_(instance.size()),
        arena_(instance.size()) {}

  /// Expands the subtree rooted at the seed prefix (pair.a, pair.b).
  /// Returns the resume size from expand(): 0 means a root back-jump
  /// closed pair.a as a leader (every costlier pair starting with it is
  /// pruned — the root flavor of Lemma 3).
  std::size_t run_pair(const Pair_seed& pair) {
    append(pair.a);
    append(pair.b);
    stats_.nodes_expanded += 2;
    const std::size_t target = expand();
    pop();
    pop();
    return target;
  }

  /// Cheapest-successor descent from the cheapest feasible pair: exactly
  /// the search's first path, run ahead of time so sorted-pair
  /// enumeration can cut earlier. `pairs` must be the sorted
  /// build_pair_seeds list for this instance.
  void greedy_warm_start(std::span<const Pair_seed> pairs) {
    if (pairs.empty()) return;
    append(pairs.front().a);
    append(pairs.front().b);
    while (!eval_.full()) {
      model::Service_id next = model::invalid_service;
      for (const Candidate& link : bounds_.rows().row(eval_.last())) {
        if (feasible(link.id)) {
          next = link.id;
          break;
        }
      }
      QUEST_ASSERT(next != model::invalid_service,
                   "greedy descent found no feasible successor");
      append(next);
    }
    incumbent_.offer(eval_.order(), eval_.complete_cost());
    while (!eval_.empty()) pop();
  }

 private:
  // ---- plan mutation ----------------------------------------------------

  void append(model::Service_id id) {
    eval_.append(id);
    placed_.set(id);
  }
  void pop() {
    placed_.reset(eval_.last());
    eval_.pop();
  }

  bool feasible(model::Service_id id) const {
    return !placed_.test(id) &&
           (!precedence_ || precedence_->feasible_next(id, placed_.chars()));
  }

  /// Completes the current partial plan with any precedence-feasible
  /// ordering of the remaining services (smallest id first) and returns
  /// it — the Lemma-2 closure certificate.
  model::Plan feasible_completion() const {
    std::vector<model::Service_id> order = eval_.order();
    std::vector<char> placed = placed_.chars();
    const std::size_t n = instance_.size();
    while (order.size() < n) {
      bool appended = false;
      for (model::Service_id u = 0; u < n; ++u) {
        if (placed[u]) continue;
        if (precedence_ && !precedence_->feasible_next(u, placed)) continue;
        order.push_back(u);
        placed[u] = 1;
        appended = true;
        break;
      }
      QUEST_ASSERT(appended, "precedence graph admits no completion");
    }
    return model::Plan(std::move(order));
  }

  // ---- the DFS ----------------------------------------------------------

  /// Expands the node for the current partial plan (size >= 2). Returns
  /// the plan size at which sibling iteration resumes: invocations whose
  /// plan is larger unwind ("the plan is pruned up to, without including,
  /// the bottleneck service"); the invocation at that size continues with
  /// its next sibling.
  std::size_t expand() {
    if (control_.should_stop()) return 0;
    const std::size_t k = eval_.size();

    if (eval_.full()) {
      ++stats_.complete_plans;
      const double cost = eval_.complete_cost();
      incumbent_.offer(eval_.order(), cost);
      // Lemma-3 back-jump driven by the complete plan's bottleneck: every
      // untried successor of the bottleneck service is costlier (children
      // are expanded cheapest-first), so every such plan costs >= rho.
      if (cost > eval_.epsilon()) return k - 1;  // bottleneck is the sink term
      return backjump_target(k);
    }

    auto& remaining = scratch_remaining_;
    if (bounds_.closure_enabled() || bounds_.lower_bound_enabled()) {
      remaining.clear();
      for (model::Service_id u = 0; u < instance_.size(); ++u) {
        if (!placed_.test(u)) remaining.push_back(u);
      }
    }

    if (bounds_.lower_bound_enabled()) {
      // quest extension: admissible lower bound on the undetermined terms
      // (see core::Lower_bound). A Lemma-1-style prune with a view of the
      // future, not just the past.
      const double bound =
          std::max(eval_.epsilon(), bounds_.lower_bound(eval_, remaining));
      if (bound * config_.relax >= incumbent_.rho()) {
        ++stats_.lower_bound_prunes;
        return k - 1;
      }
    }

    if (bounds_.closure_enabled()) {
      ++stats_.ebar_evaluations;
      const double ebar = bounds_.epsilon_bar(eval_, remaining);
      if (eval_.epsilon() >= ebar) {
        // Lemma 2: the ordering of the remaining services cannot affect
        // the bottleneck cost; every completion costs exactly epsilon.
        ++stats_.lemma2_closures;
        if (eval_.epsilon() < incumbent_.rho()) {
          const model::Plan certificate = feasible_completion();
          ++stats_.complete_plans;
          incumbent_.offer(
              certificate.order(),
              model::bottleneck_cost(instance_, certificate, model_));
        }
        return backjump_target(k);
      }
    }

    // Children: precedence-feasible remaining services, cheapest transfer
    // from the current last service first (the paper's expansion policy —
    // Lemma 3's correctness depends on this order). The last service's
    // presorted row already holds that order; filtering keeps it.
    auto& candidates = arena_.row(k);
    candidates.clear();
    for (const Candidate& link : bounds_.rows().row(eval_.last())) {
      if (feasible(link.id)) candidates.push_back(link);
    }

    const double eps = eval_.epsilon();
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      if (control_.should_stop()) return 0;
      const Candidate& candidate = candidates[i];
      // Lemma 1: the term this append would fix is non-decreasing along
      // the sorted sibling list; once it reaches rho, nothing that starts
      // here (or with any later sibling) can improve (by more than the
      // suboptimality factor, when relaxation is on).
      if (std::max(eps, eval_.term_if_appended(candidate.id)) *
              config_.relax >=
          incumbent_.rho()) {
        ++stats_.lemma1_cutoffs;
        stats_.lemma1_children_skipped += candidates.size() - i;
        break;
      }
      append(candidate.id);
      ++stats_.nodes_expanded;
      const std::size_t target = expand();
      pop();
      if (target < k) {
        stats_.lemma3_siblings_skipped += candidates.size() - i - 1;
        return target;
      }
    }
    return k - 1;
  }

  /// Implements the Lemma-3 unwind for the current plan: records the
  /// prefix up to and including the bottleneck service in V and returns
  /// the bottleneck's position (the size at which the search resumes).
  std::size_t backjump_target(std::size_t k) {
    const std::size_t bottleneck = eval_.bottleneck_position();
    QUEST_ASSERT(bottleneck + 2 <= k, "bottleneck must have a successor");
    if (!config_.enable_backjump) return k - 1;
    if (config_.record_pruned_prefixes && store_ != nullptr) {
      const auto& order = eval_.order();
      store_->record(std::span(order.data(), bottleneck + 1));
    }
    ++stats_.lemma3_backjumps;
    return bottleneck;
  }

  const model::Instance& instance_;
  const model::Cost_model& model_;
  const constraints::Precedence_graph* precedence_;
  Driver_config config_;
  const Bound_provider& bounds_;
  Incumbent& incumbent_;
  Control& control_;
  opt::Search_stats& stats_;
  Prefix_store* store_;

  model::Partial_plan_evaluator eval_;
  Placed_set placed_;
  Candidate_arena arena_;
  std::vector<model::Service_id> scratch_remaining_;
};

}  // namespace quest::core
