#include "sampling.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

namespace servebench {

namespace {

std::size_t nearest_rank(std::size_t n, double q) {
  // The epsilon keeps q * n that is an integer in exact arithmetic
  // (0.99 * 1000) from rounding up to the next rank.
  const double rank = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(rank), 1, n);
}

}  // namespace

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  const std::size_t index = nearest_rank(samples.size(), q) - 1;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(index),
                   samples.end());
  return samples[index];
}

std::size_t samples_beyond(std::size_t n, double q) {
  if (n == 0) return 0;
  return n - nearest_rank(n, q);
}

std::size_t samples_needed(double q, std::size_t tail) {
  std::size_t n = tail + 1;
  while (samples_beyond(n, q) < tail) ++n;
  return n;
}

std::vector<std::size_t> lowest_share(const std::vector<std::uint64_t>& keys,
                                      double share) {
  if (keys.empty()) return {};
  const std::size_t k = std::clamp<std::size_t>(
      static_cast<std::size_t>(
          std::lround(share * static_cast<double>(keys.size()))),
      1, keys.size());
  std::vector<std::uint64_t> sorted = keys;
  std::nth_element(sorted.begin(),
                   sorted.begin() + static_cast<std::ptrdiff_t>(k - 1),
                   sorted.end());
  const std::uint64_t threshold = sorted[k - 1];
  std::vector<std::size_t> chosen;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (keys[i] <= threshold) chosen.push_back(i);
  }
  return chosen;
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

}  // namespace servebench
