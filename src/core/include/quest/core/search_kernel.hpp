// quest/core/search_kernel.hpp
//
// The node/frontier layer of the search kernel: the flat data structures
// a branch-and-bound driver walks. A DFS "node" here is implicit — its
// immutable half is the evaluator frame at that depth
// (model::Partial_plan_evaluator), its mutable half is the sorted
// candidate row in the Candidate_arena. Everything is allocated once per
// optimize() call and reused across the whole tree: no per-node heap
// churn, and each parallel worker owns one private copy of each — except
// the Transfer_rows, which are read-only and shared by every worker.

#pragma once

#include <span>
#include <vector>

#include "quest/common/bitset64.hpp"
#include "quest/constraints/precedence.hpp"
#include "quest/model/cost.hpp"
#include "quest/model/instance.hpp"

namespace quest::core {

/// A size-two seed prefix of the root enumeration: `first_term` is the
/// plan's position-0 stage cost, a lower bound (Lemma 1) on any plan
/// starting with (a, b).
struct Pair_seed {
  double first_term;
  model::Service_id a;
  model::Service_id b;
};

/// Every precedence-feasible ordered pair, sorted ascending by
/// (first_term, a, b) — the canonical root ordering both the sequential
/// pair loop (sorted, so Lemma 1 turns into a global exit) and the
/// parallel task distribution consume. Empty for instances of size < 2.
std::vector<Pair_seed> build_pair_seeds(
    const model::Instance& instance, const model::Cost_model& model,
    const constraints::Precedence_graph* precedence);

/// A not-yet-expanded child during node expansion, keyed by the transfer
/// cost out of the node's last service (the paper's cheapest-first
/// expansion order — Lemma 3's correctness depends on it).
struct Candidate {
  double transfer;
  model::Service_id id;
};

/// Every service's outgoing links, each row sorted ascending by
/// (transfer, id) once per optimize() call. A node's children are its
/// last service's row filtered by feasibility — exactly the order the
/// expansion policy asks for, with no per-node sort — and epsilon-bar
/// reads a service's costliest link into the remaining set as the first
/// unplaced entry from the row's costly end. Read-only
/// after construction; the Bound_provider owns one that every driver
/// (and every bnb-par worker) shares.
class Transfer_rows {
 public:
  explicit Transfer_rows(const model::Instance& instance);

  /// The n - 1 other services, cheapest link out of `from` first.
  std::span<const Candidate> row(model::Service_id from) const noexcept {
    return {links_.data() + from * width_, width_};
  }

 private:
  std::size_t width_;
  std::vector<Candidate> links_;
};

/// Flat per-depth storage for the DFS's sorted-children rows. Row k backs
/// the node whose partial plan has size k; the recursion reuses rows as
/// it unwinds, so the whole tree costs n+1 vectors that each reach
/// capacity n once and never reallocate again.
class Candidate_arena {
 public:
  explicit Candidate_arena(std::size_t n) : rows_(n + 1) {
    for (auto& row : rows_) row.reserve(n);
  }

  std::vector<Candidate>& row(std::size_t depth) noexcept {
    return rows_[depth];
  }

 private:
  std::vector<std::vector<Candidate>> rows_;
};

/// The prefix set of the current search node: a bitmask membership test
/// (single-word fast path for n <= 64) kept in lockstep with the
/// vector<char> mirror the precedence API consumes.
class Placed_set {
 public:
  explicit Placed_set(std::size_t n) : mask_(n), chars_(n, 0) {}

  bool test(model::Service_id id) const noexcept { return mask_.test(id); }

  void set(model::Service_id id) noexcept {
    mask_.set(id);
    chars_[id] = 1;
  }

  void reset(model::Service_id id) noexcept {
    mask_.reset(id);
    chars_[id] = 0;
  }

  /// The n-length membership mask Precedence_graph::feasible_next takes.
  const std::vector<char>& chars() const noexcept { return chars_; }

 private:
  Member_mask mask_;
  std::vector<char> chars_;
};

}  // namespace quest::core
