// servebench/src/outcome.hpp
//
// What one benchmark run hands back to main(): the verdict, the request
// counts and the named metrics, in print order.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace servebench {

struct Run_options {
  double seconds = 10.0;
  std::string bin_dir;   ///< where quest_serve / quest_router live
  std::string work_dir;  ///< the run directory, inside the checkout
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// Samples behind the value (0 when it is a count or a single reading).
  std::size_t samples = 0;
  /// False for metrics that are printed but left out of the result
  /// object (and so carry no bound).
  bool in_result = true;
};

struct Outcome {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> metrics;
  /// Failed answer checks, cross-check mismatches and similar, one line
  /// each (the first few are printed).
  std::vector<std::string> failures;
  /// Steal ticks of the whole machine over the timed window(s).
  std::uint64_t steal_ticks = 0;
  /// Extra report lines (sample counts, environment during the window).
  std::vector<std::string> notes;

  void fail(std::string reason) {
    ++failed;
    failures.push_back(std::move(reason));
  }
  void add(std::string name, double value, std::string unit,
           std::size_t samples = 0) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit),
                             samples, true});
  }
  void add_printed_only(std::string name, double value, std::string unit,
                        std::size_t samples) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit),
                             samples, false});
  }
};

/// The untraced run: end-to-end metrics over TCP (measure.cpp).
Outcome run_end_to_end(const Workload& workload, const Run_options& options);

/// The traced run: per-layer metrics (trace.cpp).
Outcome run_traced(const Workload& workload, const Run_options& options);

}  // namespace servebench
