// Health_monitor: probe-driven dead/live verdicts against a real
// loopback listener, immediate mark_dead reporting, and the dead->live
// transition hook the replica router hangs journal repair on (it posts
// the repair to its loop). Timing
// assertions are deadline-polls (no exact-interval checks), so a loaded
// CI machine only makes the test slower, not flaky.

#include "quest/cluster/health.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "quest/serve/tcp_transport.hpp"

namespace quest {
namespace {

using cluster::Health_monitor;
using cluster::Health_options;

/// Polls `done` for up to five seconds.
template <typename Predicate>
bool eventually(Predicate&& done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return done();
}

TEST(Health_monitor_test, ProbesSeparateLiveFromDead) {
  // A bound, listening socket (the transport need not run for the TCP
  // handshake to complete) next to a port nothing listens on.
  serve::Tcp_options tcp;
  tcp.port = 0;
  serve::Tcp_transport listener(tcp);

  Health_options options;
  options.backends = {"127.0.0.1:" + std::to_string(listener.port()),
                      "127.0.0.1:1"};
  options.probe_interval = std::chrono::milliseconds(20);
  options.max_backoff = std::chrono::milliseconds(100);

  Health_monitor monitor(options, nullptr);
  // Optimistic start: everything is live until proven otherwise.
  EXPECT_TRUE(monitor.alive(0));
  EXPECT_TRUE(monitor.alive(1));
  EXPECT_EQ(monitor.degraded_count(), 0u);

  monitor.start();
  EXPECT_TRUE(eventually([&] { return !monitor.alive(1); }));
  EXPECT_TRUE(monitor.alive(0));
  EXPECT_EQ(monitor.degraded_count(), 1u);
  monitor.stop();
}

TEST(Health_monitor_test, MarkDeadIsImmediateAndProbesRevive) {
  serve::Tcp_options tcp;
  tcp.port = 0;
  serve::Tcp_transport listener(tcp);

  Health_options options;
  options.backends = {"127.0.0.1:" + std::to_string(listener.port())};
  options.probe_interval = std::chrono::milliseconds(20);
  options.max_backoff = std::chrono::milliseconds(100);

  std::atomic<int> revived{0};
  Health_monitor monitor(options, [&](std::size_t) { ++revived; });
  monitor.start();

  // A send failure reports death without waiting for a probe...
  monitor.mark_dead(0);
  EXPECT_FALSE(monitor.alive(0));
  EXPECT_EQ(monitor.degraded_count(), 1u);
  // ...and the prober revives it (the listener is still there), firing
  // the dead->live hook the router repairs on.
  EXPECT_TRUE(eventually([&] { return monitor.alive(0); }));
  EXPECT_GE(revived.load(), 1);
  monitor.stop();
}

TEST(Health_monitor_test, ExpediteProbesADeadShardWithinOneInterval) {
  serve::Tcp_options tcp;
  tcp.port = 0;
  serve::Tcp_transport listener(tcp);

  // Interval and backoff far beyond the test's five-second polls: any
  // probe seen here was pulled in by expedite().
  Health_options options;
  options.backends = {"127.0.0.1:" + std::to_string(listener.port())};
  options.probe_interval = std::chrono::minutes(1);
  options.max_backoff = std::chrono::minutes(1);
  Health_monitor monitor(options, nullptr);

  monitor.expedite(0);  // live: no-op
  monitor.mark_dead(0);  // next scheduled probe a minute out
  monitor.start();
  EXPECT_FALSE(monitor.alive(0));
  // Never probed yet, so the expedited probe runs now and finds the
  // listener.
  monitor.expedite(0);
  EXPECT_TRUE(eventually([&] { return monitor.alive(0); }));

  // Just probed: expedite may not pull the next probe in closer than
  // one interval after it, so the shard stays dead.
  monitor.mark_dead(0);
  monitor.expedite(0);
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_FALSE(monitor.alive(0));
  monitor.stop();
}

TEST(Health_monitor_test, OutOfRangeShardsAreIgnored) {
  Health_options options;
  options.backends = {"127.0.0.1:1"};
  Health_monitor monitor(options, nullptr);
  monitor.mark_dead(7);  // no crash, no state change
  monitor.expedite(7);
  EXPECT_FALSE(monitor.alive(7));
  EXPECT_TRUE(monitor.alive(0));
  EXPECT_EQ(monitor.degraded_count(), 0u);
}

}  // namespace
}  // namespace quest
