// servebench/src/sampling.hpp
//
// Order statistics for the benchmark's latency samples. A failed request
// enters a sample as +infinity, so it sorts past every real latency and
// counts as missing any limit; a percentile is reported only when the
// sample holds at least ten values beyond it.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace servebench {

/// Nearest-rank percentile: the smallest sample with at least a `q`
/// share of the samples at or below it. `q` in (0, 1]; an empty sample
/// gives NaN.
double percentile(std::vector<double> samples, double q);

/// How many samples rank strictly beyond the nearest-rank `q` percentile
/// of `n` samples.
std::size_t samples_beyond(std::size_t n, double q);

/// The smallest sample size whose `q` percentile has at least `tail`
/// samples beyond it.
std::size_t samples_needed(double q, std::size_t tail = 10);

/// Arithmetic mean; NaN for an empty sample.
double mean(const std::vector<double>& samples);

/// Indices, in order, of the `share` of `keys` with the lowest values
/// (at least one), plus every other index whose key ties the highest of
/// those: when all keys are equal, every index.
std::vector<std::size_t> lowest_share(const std::vector<std::uint64_t>& keys,
                                      double share);

}  // namespace servebench
