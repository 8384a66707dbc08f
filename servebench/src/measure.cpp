// The untraced run: set the deployment up several times (set-up time is
// the median), then drive the timed window over TCP and derive every
// end-to-end metric from what the client and /proc observed.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <sstream>

#include "checks.hpp"
#include "fleet.hpp"
#include "load.hpp"
#include "outcome.hpp"
#include "procfs.hpp"
#include "sampling.hpp"

namespace servebench {

namespace {

using Clock = std::chrono::steady_clock;

// Set-ups per run; setup_s is their median, so one slow process start
// does not move it.
constexpr std::size_t k_setups = 5;
// The window is cut into slices of this length; the timing metrics are
// taken over the quarter of them in which the host stole the least CPU
// time from this machine (see README.md, Steadiness).
constexpr double k_slice_seconds = 1.0;
constexpr double k_quiet_share = 0.25;

/// One slice of the window: what was answered in it, by arrival time of
/// the answer, and the CPU ticks spent meanwhile.
struct Slice {
  double seconds = 0.0;
  double completed = 0.0;
  std::vector<double> latencies_ms;  ///< a failure as +infinity
  std::uint64_t cpu_ticks = 0;       ///< the quest processes'
  std::uint64_t steal_ticks = 0;     ///< the whole machine's
};

/// The timing metrics over a set of slices.
struct Timing {
  double throughput = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double cpu_us_per_op = 0.0;
  std::size_t samples = 0;
};

Timing timing_of(const std::vector<Slice>& slices,
                 const std::vector<std::size_t>& chosen) {
  double seconds = 0.0;
  double completed = 0.0;
  std::uint64_t ticks = 0;
  std::vector<double> latencies_ms;
  for (const std::size_t k : chosen) {
    seconds += slices[k].seconds;
    completed += slices[k].completed;
    ticks += slices[k].cpu_ticks;
    latencies_ms.insert(latencies_ms.end(), slices[k].latencies_ms.begin(),
                        slices[k].latencies_ms.end());
  }
  Timing timing;
  timing.samples = latencies_ms.size();
  timing.throughput = completed / seconds;
  timing.p50_ms = percentile(latencies_ms, 0.50);
  timing.p95_ms = percentile(latencies_ms, 0.95);
  timing.p99_ms = percentile(latencies_ms, 0.99);
  timing.cpu_us_per_op = static_cast<double>(ticks) * 1e6 /
                         static_cast<double>(clock_ticks_per_second()) /
                         std::max(completed, 1.0);
  return timing;
}

double median_of(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

}  // namespace

Outcome run_end_to_end(const Workload& workload, const Run_options& options) {
  Outcome outcome;
  std::vector<double> setup_seconds;
  std::unique_ptr<Fleet> fleet;
  std::vector<std::unique_ptr<Connection>> clients;
  for (std::size_t round = 0; round < k_setups; ++round) {
    if (fleet != nullptr) {
      clients.clear();
      if (fleet->shutdown() != 0) outcome.fail("unclean set-up teardown");
      fleet.reset();
    }
    const Clock::time_point start = Clock::now();
    fleet = std::make_unique<Fleet>(workload.deployment, options.bin_dir,
                                    options.work_dir);
    clients = connect_clients(fleet->front_port());
    for (const std::vector<Request>& phase : workload.setup) {
      check_exchanges(workload, phase, run_all(clients, phase), outcome);
    }
    setup_seconds.push_back(
        std::chrono::duration<double>(Clock::now() - start).count());
  }

  const std::size_t slice_count = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::lround(options.seconds / k_slice_seconds)));
  Connection control(fleet->front_port());
  const Server_counters before = query_stats(control);
  std::vector<std::uint64_t> boundary_ticks;
  std::vector<std::uint64_t> boundary_steal;
  const Load_result window = run_for(
      clients, workload.timed, options.seconds, slice_count,
      [&](std::size_t) {
        std::uint64_t ticks = 0;
        for (const pid_t pid : fleet->pids()) ticks += process_cpu_ticks(pid);
        boundary_ticks.push_back(ticks);
        boundary_steal.push_back(steal_ticks());
      });
  const Server_counters after = query_stats(control);
  double rss_kb = 0.0;
  for (const pid_t pid : fleet->pids()) {
    rss_kb += static_cast<double>(process_peak_rss_kb(pid));
  }
  clients.clear();
  if (fleet->shutdown() != 0) outcome.fail("a quest process exited uncleanly");

  const std::size_t setup_attempted = outcome.attempted;
  const std::size_t setup_failed = outcome.failed;
  const Checked checked =
      check_exchanges(workload, workload.timed, window, outcome);
  const std::size_t window_attempted = outcome.attempted - setup_attempted;
  const std::size_t window_failed = outcome.failed - setup_failed;

  // The server's own counters must agree with the client's.
  std::size_t optimizes = 0;
  for (const Exchange& exchange : window.exchanges) {
    if (workload.timed[exchange.request].kind == Op_kind::optimize) {
      ++optimizes;
    }
  }
  const double admitted = after.admitted - before.admitted;
  const double completed_by_server = after.completed - before.completed;
  if (admitted != static_cast<double>(optimizes) ||
      completed_by_server != admitted || after.failed != before.failed ||
      after.shed != before.shed) {
    std::ostringstream reason;
    reason << "stats cross-check: client sent " << optimizes
           << " optimizes, server admitted " << admitted << ", completed "
           << completed_by_server << ", failed "
           << after.failed - before.failed << ", shed "
           << after.shed - before.shed;
    outcome.fail(reason.str());
  }

  // Slices by arrival time of the answer; the last one also takes the
  // requests in flight at the deadline.
  const double length = options.seconds / static_cast<double>(slice_count);
  std::vector<Slice> slices(slice_count);
  for (std::size_t k = 0; k < slice_count; ++k) {
    const double begin = static_cast<double>(k) * length;
    slices[k].seconds = k + 1 == slice_count
                            ? std::max(window.seconds, begin + length) - begin
                            : length;
    slices[k].cpu_ticks = boundary_ticks[k + 1] - boundary_ticks[k];
    slices[k].steal_ticks = boundary_steal[k + 1] - boundary_steal[k];
  }
  for (std::size_t i = 0; i < window.exchanges.size(); ++i) {
    const Exchange& exchange = window.exchanges[i];
    Slice& slice = slices[std::min(
        slice_count - 1,
        static_cast<std::size_t>(exchange.done_seconds / length))];
    slice.latencies_ms.push_back(
        checked.ok[i] ? exchange.latency_seconds * 1e3
                      : std::numeric_limits<double>::infinity());
    if (checked.ok[i]) slice.completed += 1.0;
  }
  std::vector<std::size_t> all(slice_count);
  for (std::size_t k = 0; k < slice_count; ++k) all[k] = k;
  std::vector<std::uint64_t> steal;
  for (const Slice& slice : slices) steal.push_back(slice.steal_ticks);
  const std::vector<std::size_t> quiet = lowest_share(steal, k_quiet_share);
  const Timing whole = timing_of(slices, all);
  const Timing timing = timing_of(slices, quiet);
  if (timing.samples < samples_needed(0.99)) {
    outcome.fail("the quiet slices hold only " +
                 std::to_string(timing.samples) +
                 " latency samples; p99 needs " +
                 std::to_string(samples_needed(0.99)));
  }

  outcome.add("throughput_rps", timing.throughput, "1/s", timing.samples);
  outcome.add("latency_p50_ms", timing.p50_ms, "ms", timing.samples);
  outcome.add("latency_p95_ms", timing.p95_ms, "ms", timing.samples);
  // p99 is printed but not bounded: a contended host preempts a few
  // percent of requests for milliseconds, which lands inside the top 1%
  // and moved hard-search's p99 from 5.5 to 7.2 ms between runs; p95
  // sits below that share.
  outcome.add_printed_only("latency_p99_ms", timing.p99_ms, "ms",
                           timing.samples);
  outcome.add("cpu_us_per_op", timing.cpu_us_per_op, "us", timing.samples);
  outcome.add("rss_mb", rss_kb / 1024.0, "MB");
  outcome.add("setup_s", median_of(setup_seconds), "s", setup_seconds.size());
  outcome.add("plan_cost_ratio", mean(checked.ratios), "ratio",
              checked.ratios.size());
  // Printed only: the result object carries the same counts as
  // "attempted" / "failed", and a metric that reads 0 on every correct
  // run cannot be compared as a share of its median.
  outcome.add_printed_only(
      "error_rate",
      static_cast<double>(window_failed) /
          static_cast<double>(std::max<std::size_t>(window_attempted, 1)),
      "ratio", window_attempted);

  outcome.steal_ticks = boundary_steal.back() - boundary_steal.front();
  std::ostringstream note;
  note << "window " << window.seconds << " s, " << whole.samples
       << " requests; timing metrics over the " << quiet.size() << " of "
       << slice_count << " slices with the least steal ("
       << timing.samples << " requests; p95 rank leaves "
       << samples_beyond(timing.samples, 0.95)
       << " samples beyond it and p99 rank "
       << samples_beyond(timing.samples, 0.99)
       << "); over the whole window: throughput " << whole.throughput
       << " 1/s, p50 " << whole.p50_ms << " ms, p95 " << whole.p95_ms
       << " ms, cpu " << whole.cpu_us_per_op << " us/op";
  outcome.notes.push_back(note.str());
  std::ostringstream per_slice;
  per_slice << "{\"slices\":{\"seconds\":" << length << ",\"rps\":[";
  for (std::size_t k = 0; k < slice_count; ++k) {
    per_slice << (k == 0 ? "" : ",")
              << slices[k].completed / slices[k].seconds;
  }
  per_slice << "],\"steal\":[";
  for (std::size_t k = 0; k < slice_count; ++k) {
    per_slice << (k == 0 ? "" : ",") << slices[k].steal_ticks;
  }
  per_slice << "]}}";
  outcome.notes.push_back(per_slice.str());
  std::ostringstream setups;
  setups << "set-up seconds:";
  for (const double s : setup_seconds) setups << ' ' << s;
  outcome.notes.push_back(setups.str());
  return outcome;
}

}  // namespace servebench
