#include "quest/cluster/health.hpp"

#include <unistd.h>

#include <algorithm>
#include <utility>

#include "quest/serve/tcp_transport.hpp"

namespace quest::cluster {

Health_monitor::Health_monitor(Health_options options,
                               std::function<void(std::size_t)> shard_up)
    : options_(std::move(options)),
      shard_up_(std::move(shard_up)),
      shards_(options_.backends.size()) {
  const auto now = Clock::now();
  for (auto& shard : shards_) shard.next_probe = now;
}

Health_monitor::~Health_monitor() { stop(); }

void Health_monitor::start() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (running_) return;
  running_ = true;
  stopping_ = false;
  prober_ = std::thread([this] { probe_loop(); });
}

void Health_monitor::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!running_) return;
    stopping_ = true;
  }
  wake_.notify_all();
  if (prober_.joinable()) prober_.join();
  std::lock_guard<std::mutex> lock(mutex_);
  running_ = false;
}

void Health_monitor::mark_dead(std::size_t shard) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shard >= shards_.size()) return;
    Shard_state& state = shards_[shard];
    if (state.alive) {
      state.alive = false;
      state.failures = 1;
    }
    state.next_probe = Clock::now() + backoff(state.failures);
  }
  wake_.notify_all();
}

void Health_monitor::expedite(std::size_t shard) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shard >= shards_.size() || shards_[shard].alive) return;
    Shard_state& state = shards_[shard];
    const Clock::time_point soonest =
        std::max(Clock::now(), state.last_probe + options_.probe_interval);
    if (state.next_probe <= soonest) return;
    state.next_probe = soonest;
  }
  wake_.notify_all();
}

bool Health_monitor::alive(std::size_t shard) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return shard < shards_.size() && shards_[shard].alive;
}

std::size_t Health_monitor::degraded_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t dead = 0;
  for (const auto& shard : shards_) dead += shard.alive ? 0 : 1;
  return dead;
}

std::chrono::milliseconds Health_monitor::backoff(
    std::size_t failures) const {
  auto interval = options_.probe_interval;
  // interval * 2^(failures-1), saturating at max_backoff.
  for (std::size_t i = 1; i < failures; ++i) {
    interval *= 2;
    if (interval >= options_.max_backoff) return options_.max_backoff;
  }
  return std::min(interval, options_.max_backoff);
}

void Health_monitor::probe_loop() {
  for (;;) {
    std::vector<std::size_t> due;
    Clock::time_point next_due;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      const auto now = Clock::now();
      next_due = now + options_.max_backoff;
      for (std::size_t i = 0; i < shards_.size(); ++i) {
        if (shards_[i].next_probe <= now) {
          due.push_back(i);
        } else {
          next_due = std::min(next_due, shards_[i].next_probe);
        }
      }
      if (due.empty()) {
        // Any notify re-plans: mark_dead and expedite move a shard's next
        // probe, so waiting on for stopping_ alone would sleep past it.
        wake_.wait_until(lock, next_due);
        if (stopping_) return;
        continue;
      }
      if (stopping_) return;
    }

    for (std::size_t shard : due) {
      // Dial outside the lock — a probe against a black-holed address can
      // block, and mark_dead/alive must not wait behind it.
      const int fd = serve::dial_tcp(options_.backends[shard]);
      const bool reachable = fd >= 0;
      if (reachable) ::close(fd);

      bool went_up = false;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        if (stopping_) return;
        if (shard >= shards_.size()) continue;
        Shard_state& state = shards_[shard];
        state.last_probe = Clock::now();
        if (reachable) {
          went_up = !state.alive;
          state.alive = true;
          state.failures = 0;
          state.next_probe = Clock::now() + options_.probe_interval;
        } else {
          state.alive = false;
          ++state.failures;
          state.next_probe = Clock::now() + backoff(state.failures);
        }
      }
      if (went_up && shard_up_) shard_up_(shard);
    }
  }
}

}  // namespace quest::cluster
