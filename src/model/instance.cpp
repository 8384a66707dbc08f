#include "quest/model/instance.hpp"

#include <cmath>

#include "quest/common/error.hpp"

namespace quest::model {

namespace {

void require_finite_non_negative(double value, const char* what) {
  QUEST_EXPECTS(std::isfinite(value), what);
  QUEST_EXPECTS(value >= 0.0, what);
}

}  // namespace

Instance::Instance(std::vector<Service> services, Matrix<double> transfer,
                   std::vector<double> sink_transfer, std::string name)
    : services_(std::move(services)),
      transfer_(std::move(transfer)),
      sink_transfer_(std::move(sink_transfer)),
      name_(std::move(name)) {
  const std::size_t n = services_.size();
  QUEST_EXPECTS(n >= 1, "an instance needs at least one service");
  QUEST_EXPECTS(transfer_.rows() == n && transfer_.cols() == n,
                "transfer matrix must be n x n");
  if (sink_transfer_.empty()) sink_transfer_.assign(n, 0.0);
  QUEST_EXPECTS(sink_transfer_.size() == n,
                "sink transfer vector must have one entry per service");

  for (const Service& s : services_) {
    require_finite_non_negative(s.cost, "service cost must be finite >= 0");
    require_finite_non_negative(
        s.selectivity, "service selectivity must be finite >= 0");
    if (s.selectivity > 1.0) all_selective_ = false;
  }
  for (std::size_t i = 0; i < n; ++i) {
    QUEST_EXPECTS(transfer_.at_unchecked(i, i) == 0.0,
                  "transfer matrix diagonal must be zero");
    for (std::size_t j = 0; j < n; ++j) {
      require_finite_non_negative(transfer_.at_unchecked(i, j),
                                  "transfer cost must be finite >= 0");
    }
    require_finite_non_negative(sink_transfer_[i],
                                "sink transfer must be finite >= 0");
  }
}

bool Instance::uniform_transfer() const noexcept {
  const std::size_t n = size();
  for (const double s : sink_transfer_) {
    if (s != 0.0) return false;
  }
  if (n < 2) return true;
  const double reference = transfer_.at_unchecked(0, 1);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      if (transfer_.at_unchecked(i, j) != reference) return false;
    }
  }
  return true;
}

}  // namespace quest::model
