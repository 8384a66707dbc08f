// servebench/src/checks.hpp
//
// The answer checker. Every terminal event the client reads is checked
// against what the client knows independently of the server:
//
//  * an optimize result must be complete, its plan a permutation of the
//    instance's services, and its cost equal to model::bottleneck_cost of
//    that plan under the request's model (relative 1e-9); no plan may
//    cost less than the dp optimum, and a result terminated "optimal"
//    must equal it;
//  * a "registered" event must carry the fingerprint io::fingerprint
//    gives for the document the client sent.
//
// Anything else — an error or overloaded event, a missing field — fails.

#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "load.hpp"
#include "outcome.hpp"
#include "workloads.hpp"

namespace servebench {

struct Verdict {
  bool ok = false;
  /// Why the answer was refused (empty when ok).
  std::string reason;
  /// Optimize results only: the returned cost, and whether the run
  /// claimed optimality.
  double cost = 0.0;
  bool optimal = false;
};

/// True when `a` and `b` agree to a relative 1e-9.
bool same_cost(double a, double b);

/// Checks the terminal event `line` the server sent for `request`.
Verdict check_answer(const Request& request, const Catalog_entry& entry,
                     std::string_view line);

struct Checked {
  /// Per exchange: the answer passed every check.
  std::vector<bool> ok;
  /// Optimize costs relative to the dp optimum.
  std::vector<double> ratios;
};

/// Checks every answer of one driven `sequence`, counting each in
/// `outcome` (attempted, and failed with its reason).
Checked check_exchanges(const Workload& workload,
                        const std::vector<Request>& sequence,
                        const Load_result& load, Outcome& outcome);

}  // namespace servebench
