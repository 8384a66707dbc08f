// quest/model/instance.hpp
//
// A problem instance: N services, the pairwise per-tuple transfer-cost
// matrix t_{i,j} of the decentralized (choreography) setting, and an
// optional per-service transfer cost back to the query originator ("sink").

#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "quest/common/error.hpp"
#include "quest/common/matrix.hpp"
#include "quest/model/service.hpp"

namespace quest::model {

/// Immutable problem instance.
///
/// Invariants (validated on construction):
///  * at least one service;
///  * every cost, selectivity, transfer and sink-transfer value is finite
///    and non-negative;
///  * the transfer matrix is square, n x n, with a zero diagonal.
///
/// The matrix need not be symmetric — decentralized links may be
/// asymmetric — and need not satisfy the triangle inequality.
class Instance {
 public:
  /// Builds an instance; `sink_transfer` may be empty (treated as all-zero:
  /// the paper's Eq. 1, where the last service pays no transfer).
  Instance(std::vector<Service> services, Matrix<double> transfer,
           std::vector<double> sink_transfer = {}, std::string name = {});

  std::size_t size() const noexcept { return services_.size(); }

  // Inline: the search kernels read these once per candidate.
  const Service& service(Service_id id) const {
    QUEST_EXPECTS(id < services_.size(), "service id out of range");
    return services_[id];
  }
  double cost(Service_id id) const { return service(id).cost; }
  double selectivity(Service_id id) const { return service(id).selectivity; }

  /// Per-tuple cost of shipping one tuple from service `from` to `to`.
  double transfer(Service_id from, Service_id to) const {
    QUEST_EXPECTS(from < size() && to < size(), "service id out of range");
    return transfer_.at_unchecked(from, to);
  }

  /// Per-tuple cost of shipping a result tuple from `from` back to the
  /// query originator. Zero unless the instance models the return link.
  double sink_transfer(Service_id from) const {
    return sink_transfer_[from];
  }

  const std::vector<Service>& services() const noexcept { return services_; }
  const Matrix<double>& transfer_matrix() const noexcept { return transfer_; }
  const std::vector<double>& sink_transfers() const noexcept {
    return sink_transfer_;
  }
  const std::string& name() const noexcept { return name_; }

  /// True when every selectivity is <= 1 (all services act as filters) —
  /// the restricted setting of the brief announcement's Section 2.
  bool all_selective() const noexcept { return all_selective_; }

  /// True when t_{i,j} is identical for every i != j and the sink links are
  /// zero — the centralized special case of Srivastava et al. [1] for which
  /// a polynomial algorithm exists.
  bool uniform_transfer() const noexcept;

  /// Largest transfer cost out of `from` into any service of `allowed`
  /// (callable with signature bool(Service_id)), including the sink link.
  template <typename Pred>
  double max_outgoing_transfer(Service_id from, Pred allowed) const {
    double best = sink_transfer_[from];
    for (Service_id to = 0; to < size(); ++to) {
      if (to == from || !allowed(to)) continue;
      best = std::max(best, transfer_.at_unchecked(from, to));
    }
    return best;
  }

  friend bool operator==(const Instance& a, const Instance& b) {
    return a.services_ == b.services_ && a.transfer_ == b.transfer_ &&
           a.sink_transfer_ == b.sink_transfer_;
  }

 private:
  std::vector<Service> services_;
  Matrix<double> transfer_;
  std::vector<double> sink_transfer_;
  std::string name_;
  bool all_selective_ = true;
};

}  // namespace quest::model
