#include "quest/core/search_kernel.hpp"

#include <algorithm>
#include <tuple>

namespace quest::core {

std::vector<Pair_seed> build_pair_seeds(
    const model::Instance& instance, const model::Cost_model& model,
    const constraints::Precedence_graph* precedence) {
  const model::Send_policy policy = model.policy();
  const std::size_t n = instance.size();
  std::vector<Pair_seed> pairs;
  if (n < 2) return pairs;
  pairs.reserve(n * (n - 1));
  for (model::Service_id a = 0; a < n; ++a) {
    if (precedence && !precedence->predecessors(a).empty()) continue;
    const auto& sa = instance.service(a);
    for (model::Service_id b = 0; b < n; ++b) {
      if (b == a) continue;
      if (precedence) {
        const auto& preds = precedence->predecessors(b);
        const bool ok =
            std::all_of(preds.begin(), preds.end(),
                        [a](model::Service_id p) { return p == a; });
        if (!ok) continue;
      }
      pairs.push_back({model::stage_term(model.effective_cost(instance, a),
                                         sa.selectivity,
                                         instance.transfer(a, b), policy),
                       a, b});
    }
  }
  std::sort(pairs.begin(), pairs.end(),
            [](const Pair_seed& x, const Pair_seed& y) {
              return std::tie(x.first_term, x.a, x.b) <
                     std::tie(y.first_term, y.a, y.b);
            });
  return pairs;
}

Transfer_rows::Transfer_rows(const model::Instance& instance)
    : width_(instance.size() - 1) {
  const std::size_t n = instance.size();
  links_.reserve(n * width_);
  for (model::Service_id from = 0; from < n; ++from) {
    for (model::Service_id to = 0; to < n; ++to) {
      if (to != from) links_.push_back({instance.transfer(from, to), to});
    }
    std::sort(links_.end() - static_cast<std::ptrdiff_t>(width_), links_.end(),
              [](const Candidate& x, const Candidate& y) {
                return std::tie(x.transfer, x.id) < std::tie(y.transfer, y.id);
              });
  }
}

}  // namespace quest::core
