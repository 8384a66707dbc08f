// quest/cluster/health.hpp
//
// Active fleet health: a single probe thread that keeps a live/dead
// verdict per backend shard, so the router never has to "discover death
// on the next forward" with a lazy reconnect. Live shards are
// probed at a fixed cadence (a TCP dial that is immediately closed —
// the cheapest question the transport layer can answer); dead shards
// are re-probed with exponential backoff (interval * 2^failures, capped)
// so a long-dead backend costs a bounded trickle of SYNs, not a busy
// loop.
//
// The monitor is the *authority* on shard liveness but not the only
// informant: the replica router calls mark_dead() the instant a forward
// fails (a dead or stuck link), so routing decisions never wait a probe
// period to learn what a failed write already proved. A probe that sees
// a dead shard answer again fires the shard_up callback on the probe
// thread — the router posts it to its loop, where it triggers
// journal-replay repair of the rejoining backend.

#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace quest::cluster {

/// Configuration of a Health_monitor.
struct Health_options {
  /// Backend addresses, "host:port"; index = shard id.
  std::vector<std::string> backends;
  /// Cadence for probing live shards and base interval for dead ones.
  std::chrono::milliseconds probe_interval{500};
  /// Cap on the dead-shard backoff (interval * 2^failures, clamped here).
  std::chrono::milliseconds max_backoff{8000};
};

/// Probe-thread shard liveness with exponential backoff on the dead.
/// All public methods are thread-safe.
class Health_monitor {
 public:
  /// `shard_up` fires on the probe thread on every dead->live transition
  /// (never while the monitor's lock is held, so it may call back into
  /// the monitor); it may be empty. Shards start *live* — the fleet is
  /// assumed healthy until a probe or a send failure proves otherwise.
  Health_monitor(Health_options options,
                 std::function<void(std::size_t)> shard_up);
  ~Health_monitor();

  Health_monitor(const Health_monitor&) = delete;
  Health_monitor& operator=(const Health_monitor&) = delete;

  /// Starts the probe thread. Idempotent.
  void start();
  /// Stops and joins the probe thread. Idempotent; also run by ~.
  void stop();

  /// Reports a shard dead *now* (a forward failed) and schedules its
  /// next re-probe one backoff step out.
  void mark_dead(std::size_t shard);

  /// Traffic wants a dead shard: pull its next probe in to one base
  /// interval after its last probe (now, if that has passed), so a
  /// backend that restarts under load is seen within probe_interval
  /// rather than after a long backoff. Never probes a shard more than
  /// once per interval; no-op for a live shard.
  void expedite(std::size_t shard);

  bool alive(std::size_t shard) const;
  /// Shards currently dead — the "shards_degraded" stats gauge.
  std::size_t degraded_count() const;

 private:
  using Clock = std::chrono::steady_clock;

  struct Shard_state {
    bool alive = true;
    std::size_t failures = 0;
    Clock::time_point last_probe = Clock::time_point::min();  // never
    Clock::time_point next_probe{};
  };

  void probe_loop();
  std::chrono::milliseconds backoff(std::size_t failures) const;

  Health_options options_;
  std::function<void(std::size_t)> shard_up_;

  mutable std::mutex mutex_;
  std::condition_variable wake_;
  std::vector<Shard_state> shards_;
  bool running_ = false;
  bool stopping_ = false;
  std::thread prober_;
};

}  // namespace quest::cluster
