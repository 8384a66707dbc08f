// servebench — end-to-end serving benchmark for quest_serve /
// quest_router. See servebench/README.md; run it through run.py, which
// builds this binary and the quest tools first:
//
//   python3 servebench/run.py --workload inline-hits --seed 1 --trace 0
//
// The last stdout line is one JSON object:
//   {"correct":...,"attempted":...,"failed":...,"metrics":{name:{value,unit}}}
// --trace 0 reports the end-to-end metrics (measure.cpp), --trace 1 the
// per-layer metrics (traced_run.cpp). Any failed answer check exits 1.

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <thread>

#include "fleet.hpp"
#include "outcome.hpp"
#include "procfs.hpp"
#include "quest/common/cli.hpp"
#include "quest/common/error.hpp"
#include "quest/io/json.hpp"
#include "workloads.hpp"

namespace {

using namespace servebench;
using quest::io::Json;

Json metrics_object(const Outcome& outcome) {
  Json metrics;
  for (const Metric& metric : outcome.metrics) {
    if (!metric.in_result) continue;
    Json entry;
    entry.set("value", Json(metric.value));
    entry.set("unit", Json(metric.unit));
    metrics.set(metric.name, std::move(entry));
  }
  return metrics;
}

void print_report(const std::string& workload, const Outcome& outcome) {
  for (const Metric& metric : outcome.metrics) {
    std::printf("servebench %s %-28s %14.6g %-6s", workload.c_str(),
                metric.name.c_str(), metric.value, metric.unit.c_str());
    if (metric.samples > 0) std::printf(" (%zu samples)", metric.samples);
    std::printf("\n");
  }
  for (const std::string& note : outcome.notes) {
    std::printf("servebench %s note: %s\n", workload.c_str(), note.c_str());
  }
  const std::size_t shown = std::min<std::size_t>(outcome.failures.size(), 10);
  for (std::size_t i = 0; i < shown; ++i) {
    std::printf("servebench %s FAILED: %s\n", workload.c_str(),
                outcome.failures[i].c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  install_signal_teardown();
  quest::Cli cli("servebench",
                 "end-to-end serving benchmark over quest_serve/quest_router");
  auto& workload_name = cli.add_string(
      "workload", "", "inline-hits | hard-search | fleet-sharded | "
                      "fleet-replicated");
  auto& seed = cli.add_int("seed", 1, "workload seed (>= 0)");
  auto& seconds = cli.add_double("seconds", 10.0, "timed window length");
  auto& trace = cli.add_int("trace", 0, "0 = end-to-end, 1 = per-layer");
  auto& bin_dir = cli.add_string("bin-dir", "", "quest_serve/quest_router dir");
  auto& work_dir = cli.add_string("work-dir", "",
                                  "run directory (temp files, span CSV)");
  auto& commit = cli.add_string("commit", "unknown", "source revision");
  auto& digest = cli.add_string("source-digest", "unknown",
                                "hash of the quest sources");
  try {
    cli.parse(argc, argv);
    if (std::string(SERVEBENCH_BUILD_TYPE) != "Release") {
      throw quest::Parse_error(std::string("refusing a ") +
                               SERVEBENCH_BUILD_TYPE +
                               " build: timings need Release");
    }
#ifndef NDEBUG
    throw quest::Parse_error("refusing a build without NDEBUG");
#endif
    if (seed.value < 0) throw quest::Parse_error("--seed must be >= 0");
    if (!(seconds.value > 0.0) || seconds.value > 120.0) {
      throw quest::Parse_error("--seconds must be in (0, 120]");
    }
    if (trace.value != 0 && trace.value != 1) {
      throw quest::Parse_error("--trace must be 0 or 1");
    }
    if (bin_dir.value.empty() || work_dir.value.empty()) {
      throw quest::Parse_error("--bin-dir and --work-dir are required");
    }
  } catch (const quest::Parse_error& error) {
    std::cerr << "servebench: " << error.what() << '\n';
    return 2;
  }

  try {
    refuse_stale_processes();
    Run_options options;
    options.seconds = seconds.value;
    options.bin_dir = bin_dir.value;
    options.work_dir = work_dir.value;

    Json env;
    env.set("workload", Json(workload_name.value));
    env.set("seed", Json(static_cast<double>(seed.value)));
    env.set("seconds", Json(seconds.value));
    env.set("trace", Json(static_cast<double>(trace.value)));
    env.set("nproc", Json(static_cast<double>(
                         std::thread::hardware_concurrency())));
    env.set("cpu_model", Json(cpu_model()));
    env.set("load_average_before", Json(load_average()));
    env.set("commit", Json(commit.value));
    env.set("source_digest", Json(digest.value));
    env.set("build_type", Json(SERVEBENCH_BUILD_TYPE));

    Workload workload = make_workload(workload_name.value,
                                      static_cast<std::uint64_t>(seed.value));
    // References before any quest process exists, off the measured path.
    compute_references(workload, std::thread::hardware_concurrency());
    const Outcome outcome = trace.value == 0
                                ? run_end_to_end(workload, options)
                                : run_traced(workload, options);

    env.set("load_average_after", Json(load_average()));
    env.set("steal_ticks_window",
            Json(static_cast<double>(outcome.steal_ticks)));
    Json env_line;
    env_line.set("env", std::move(env));
    std::printf("%s\n", env_line.dump().c_str());
    print_report(workload.name, outcome);

    Json result;
    result.set("correct", Json(outcome.failed == 0));
    result.set("attempted", Json(outcome.attempted));
    result.set("failed", Json(outcome.failed));
    result.set("metrics", metrics_object(outcome));
    std::printf("%s\n", result.dump().c_str());
    std::fflush(stdout);
    return outcome.failed == 0 ? 0 : 1;
  } catch (const std::exception& error) {
    std::cerr << "servebench: " << error.what() << '\n';
    return 1;
  }
}
