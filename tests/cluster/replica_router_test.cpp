// Replica_router in process: a router on a Tcp_transport in front of
// in-process backends (Server + Session_manager on a Tcp_transport each,
// tests/support/loopback.hpp), driven over real loopback sockets. Pins
// the construction contracts, and what the router's single event loop
// promises: a drain shutdown delivers every drained result before the
// merged pair and reports the backends' counts, also when the requester
// leaves at once; a backend that stops reading costs only its own keys;
// and the thread count does not grow with clients. The kill -9 / rejoin
// behaviour is process-level and lives in serve/router_smoke and
// serve/replication_smoke (scripts/loadgen.py). Every wait is bounded,
// so a broken router fails these tests instead of hanging them.

#include "quest/cluster/replica_router.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <thread>

#include "quest/common/error.hpp"
#include "quest/common/timer.hpp"
#include "quest/io/fingerprint.hpp"
#include "quest/io/instance_io.hpp"
#include "quest/serve/tcp_transport.hpp"
#include "quest/store/shard_map.hpp"
#include "support/helpers.hpp"
#include "support/loopback.hpp"

namespace quest {
namespace {

using cluster::Replica_options;
using cluster::Replica_router;
using test::Client;
using test::Stack;

Replica_options three_backends() {
  Replica_options options;
  // Port 1: nothing listens there — constructing a router never dials
  // (connections are on-demand), so unreachable backends are fine.
  options.backends = {"127.0.0.1:1", "127.0.0.1:1", "127.0.0.1:1"};
  options.replicas = 2;
  // Keep the probe thread quiet for the test's lifetime.
  options.probe_interval = std::chrono::minutes(1);
  options.max_backoff = std::chrono::minutes(1);
  return options;
}

/// R=1 over the given backends, with the prober quiet: after its first
/// pass a shard the router marks dead stays dead for the test.
Replica_options fleet(std::vector<std::string> backends) {
  Replica_options options;
  options.backends = std::move(backends);
  options.replicas = 1;
  options.probe_interval = std::chrono::minutes(1);
  options.max_backoff = std::chrono::minutes(1);
  return options;
}

/// A router serving on an ephemeral port, its loop on its own thread.
class Router {
 public:
  explicit Router(Replica_options options)
      : transport_(serve::Tcp_options{}),
        router_(std::move(options), transport_),
        loop_([this] {
          shutdown_served_ = router_.serve();
          finished_.store(true);
        }) {}

  ~Router() {
    if (!loop_.joinable()) return;
    transport_.stop();
    loop_.join();
  }

  std::uint16_t port() const { return transport_.port(); }

  /// Waits up to `seconds` for a shutdown op to end the serve.
  bool wait_shutdown_served(double seconds) {
    if (!test::eventually([this] { return finished_.load(); }, seconds)) {
      return false;
    }
    loop_.join();
    return shutdown_served_;
  }

 private:
  serve::Tcp_transport transport_;
  Replica_router router_;
  bool shutdown_served_ = false;
  std::atomic<bool> finished_{false};
  std::thread loop_;
};

/// The JSON document of the first instance with n services, trying
/// seeds upward from `seed`, that the router's ring puts on `shard`.
std::string document_on(std::size_t shard, std::size_t n, std::uint64_t seed,
                        const Replica_options& options) {
  const store::Shard_map ring(options.backends.size(), options.ring_points);
  for (;; ++seed) {
    const model::Instance instance = test::selective_instance(n, seed);
    if (ring.shard_of(io::fingerprint(instance, nullptr)) == shard) {
      return io::to_json(instance).dump();
    }
  }
}

std::string register_on(std::size_t shard, const std::string& name,
                        std::size_t n, std::uint64_t seed,
                        const Replica_options& options) {
  return R"({"op":"register","name":")" + name + R"(","instance":)" +
         document_on(shard, n, seed, options) + "}";
}

std::size_t thread_count() {
  std::size_t count = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++count;
  }
  return count;
}

TEST(Replica_router_test, ValidatesItsOptions) {
  serve::Tcp_transport transport(serve::Tcp_options{});

  Replica_options no_backends = three_backends();
  no_backends.backends.clear();
  EXPECT_THROW(Replica_router(no_backends, transport), Error);

  Replica_options zero_replicas = three_backends();
  zero_replicas.replicas = 0;
  EXPECT_THROW(Replica_router(zero_replicas, transport), Error);

  Replica_options too_many = three_backends();
  too_many.replicas = 4;  // more than the three backends
  EXPECT_THROW(Replica_router(too_many, transport), Error);

  Replica_options tiny_lines = three_backends();
  tiny_lines.max_line_bytes = 1;
  EXPECT_THROW(Replica_router(tiny_lines, transport), Error);
}

TEST(Replica_router_test, ConstructsWithFullReplication) {
  serve::Tcp_transport transport(serve::Tcp_options{});
  Replica_options options = three_backends();
  options.replicas = 3;  // R == K: every key everywhere
  Replica_router router(options, transport);
  EXPECT_EQ(router.replica_failovers(), 0u);
  EXPECT_EQ(router.repairs(), 0u);
  EXPECT_EQ(router.replica_lag(), 0u);
}

TEST(Replica_router_test, CountersStartAtZero) {
  serve::Tcp_transport transport(serve::Tcp_options{});
  // R=1 (quest_router's default: one owner per key) and R=2.
  for (const std::size_t replicas : {std::size_t{1}, std::size_t{2}}) {
    Replica_options options = three_backends();
    options.replicas = replicas;
    Replica_router router(options, transport);
    EXPECT_EQ(router.replica_failovers(), 0u);
    EXPECT_EQ(router.repairs(), 0u);
    EXPECT_EQ(router.replica_lag(), 0u);
  }
}

TEST(Replica_router_test, DrainShutdownDeliversEveryResultBeforeTheMergedPair) {
  serve::Server_options two_workers;
  two_workers.workers = 2;
  Stack shard0(two_workers);
  Stack shard1(two_workers);
  const Replica_options options = fleet({shard0.address(), shard1.address()});
  Router router(options);

  Client client(router.port());
  client.send_line(register_on(0, "left", 12, 1, options));
  ASSERT_TRUE(client.wait_event("registered", {}, 10.0).is_object());
  client.send_line(register_on(1, "right", 12, 1, options));
  ASSERT_TRUE(client.wait_event("registered", {}, 10.0).is_object());

  // Two streamed jobs per shard fill both pools; each runs out its
  // deadline, so the drain is bounded.
  const std::vector<std::pair<std::string, std::string>> jobs = {
      {"j0", "left"}, {"j1", "left"}, {"j2", "right"}, {"j3", "right"}};
  for (const auto& [id, name] : jobs) {
    client.send_line(R"({"op":"optimize","id":")" + id +
                     R"(","instance":")" + name +
                     R"(","optimizer":"annealing:iterations=2000000000",)"
                     R"("budget":{"deadline_ms":300},"stream":true,)"
                     R"("cache":false})");
  }
  std::set<std::string> running;
  std::set<std::string> finished;
  while (running.size() < jobs.size()) {
    const std::string line = client.read_line(10.0);
    ASSERT_FALSE(line.empty()) << "jobs never all started";
    const io::Json event = io::Json::parse(line);
    const std::string kind = event.at("event").as_string();
    if (kind == "incumbent") running.insert(event.at("id").as_string());
    if (kind == "result") finished.insert(event.at("id").as_string());
  }
  ASSERT_TRUE(finished.empty()) << "a job finished before the shutdown";

  client.send_line(R"({"op":"shutdown","drain":true})");
  std::optional<io::Json> down;
  std::optional<io::Json> done;
  while (!done) {
    const std::string line = client.read_line(20.0);
    ASSERT_FALSE(line.empty()) << "no shutdown-complete through the router";
    io::Json event = io::Json::parse(line);
    const std::string kind = event.at("event").as_string();
    if (kind == "result") {
      EXPECT_FALSE(down.has_value()) << "result after shutting-down";
      finished.insert(event.at("id").as_string());
    } else if (kind == "shutting-down") {
      down = std::move(event);
    } else if (kind == "shutdown-complete") {
      done = std::move(event);
    }
  }
  EXPECT_EQ(finished, (std::set<std::string>{"j0", "j1", "j2", "j3"}));
  ASSERT_TRUE(down.has_value());
  EXPECT_EQ(down->at("outstanding").as_number(), 4.0);
  EXPECT_TRUE(down->at("drain").as_bool());
  EXPECT_EQ(done->at("completed").as_number(), 4.0);
  EXPECT_EQ(done->at("cancelled").as_number(), 0.0);
  EXPECT_TRUE(client.at_eof());
  EXPECT_TRUE(router.wait_shutdown_served(10.0));
  EXPECT_TRUE(shard0.wait_shutdown_served(10.0));
  EXPECT_TRUE(shard1.wait_shutdown_served(10.0));
}

TEST(Replica_router_test, ShutdownFinishesAfterTheRequesterLeaves) {
  Stack shard0;
  Stack shard1;
  Router router(fleet({shard0.address(), shard1.address()}));
  {
    Client client(router.port());
    client.send_line(R"({"op":"shutdown","drain":true})");
  }  // gone before any answer
  EXPECT_TRUE(router.wait_shutdown_served(10.0));
  EXPECT_TRUE(shard0.wait_shutdown_served(10.0));
  EXPECT_TRUE(shard1.wait_shutdown_served(10.0));
}

TEST(Replica_router_test, AStuckBackendCostsOnlyItsOwnKeys) {
  // Declared first, destroyed last: the listener below goes before the
  // router, which unblocks any write the router might be stuck in.
  std::optional<Router> router;
  Stack live;
  // Listens (the kernel completes handshakes) but never accepts or
  // reads: a backend that stopped, as under SIGSTOP.
  serve::Tcp_transport stuck(serve::Tcp_options{});
  const Replica_options options =
      fleet({"127.0.0.1:" + std::to_string(stuck.port()), live.address()});
  router.emplace(options);

  Client fast(router->port());
  fast.send_line(register_on(1, "warm", 8, 1, options));
  ASSERT_TRUE(fast.wait_event("registered", {}, 10.0).is_object());
  const auto hit = [&](const std::string& id) {
    fast.send_line(R"({"op":"optimize","id":")" + id +
                   R"(","instance":"warm","optimizer":"bnb"})");
    return fast.wait_event("result", id, 1.0).is_object();
  };
  ASSERT_TRUE(hit("w"));

  // ~140 KB inline documents owned by the stuck shard, each followed by
  // a cancel of an id the router never routed: its answer, which the
  // router gives itself, proves the document before it was forwarded.
  // The flood goes on until the router gives up on the stuck link and
  // sheds; every few documents the other shard must still answer within
  // a second.
  const std::string document = document_on(0, 90, 1, options);
  Client flood(router->port());
  std::set<std::string> sent;
  std::set<std::string> shed;
  // Reads the flood's events until the answer to `sync` (or, with an
  // empty `sync`, until `seconds` pass); false when it never came.
  const auto read_flood = [&](const std::string& sync, double seconds) {
    for (;;) {
      const std::string line = flood.read_line(seconds, /*quiet=*/true);
      if (line.empty()) return sync.empty();
      const io::Json event = io::Json::parse(line);
      const std::string kind = event.at("event").as_string();
      const std::string id = event.at("id").as_string();
      if (kind == "cancel-requested" && id == sync) return true;
      EXPECT_EQ(kind, "error") << line;
      EXPECT_EQ(event.at("code").as_string(), "overloaded") << line;
      shed.insert(id);
    }
  };
  for (int index = 0; shed.empty() && index < 400; ++index) {
    const std::string id = "f" + std::to_string(index);
    const std::string sync = "sync" + std::to_string(index);
    ASSERT_TRUE(flood.send_within(
        R"({"op":"optimize","id":")" + id + R"(","instance":)" + document +
            R"(,"optimizer":"bnb"})" + "\n" + R"({"op":"cancel","id":")" +
            sync + "\"}\n",
        5.0))
        << "the router stopped reading a client after " << index
        << " documents";
    sent.insert(id);
    ASSERT_TRUE(read_flood(sync, 5.0))
        << "the router stalled after " << index << " documents";
    if (index % 4 == 3) {
      ASSERT_TRUE(hit("h" + std::to_string(index)))
          << "the other shard stalled after " << index << " documents";
    }
  }
  ASSERT_FALSE(shed.empty()) << "the stuck link never overflowed";
  EXPECT_TRUE(hit("after"));

  // Every flooded request is shed with the typed error — those already
  // on the dropped link as well as the one that overflowed it.
  test::eventually(
      [&] {
        read_flood({}, 0.05);
        return shed.size() == sent.size();
      },
      10.0);
  EXPECT_EQ(shed, sent);
}

TEST(Replica_router_test, ThreadCountDoesNotGrowWithClients) {
  Stack shard0;
  Stack shard1;
  const Replica_options options = fleet({shard0.address(), shard1.address()});
  Router router(options);
  {
    Client setup(router.port());
    setup.send_line(register_on(0, "a", 8, 1, options));
    ASSERT_TRUE(setup.wait_event("registered", {}, 10.0).is_object());
    setup.send_line(register_on(1, "b", 8, 1, options));
    ASSERT_TRUE(setup.wait_event("registered", {}, 10.0).is_object());
  }
  const std::size_t before = thread_count();

  std::vector<std::unique_ptr<Client>> clients;
  for (int index = 0; index < 8; ++index) {
    clients.push_back(std::make_unique<Client>(router.port()));
    Client& client = *clients.back();
    for (const char* name : {"a", "b"}) {
      const std::string id = std::string(name) + std::to_string(index);
      client.send_line(R"({"op":"optimize","id":")" + id +
                       R"(","instance":")" + name +
                       R"(","optimizer":"bnb"})");
      ASSERT_TRUE(client.wait_event("result", id, 10.0).is_object());
    }
  }
  EXPECT_EQ(thread_count(), before)
      << "threads grew with 8 clients on 2 shards";
}

}  // namespace
}  // namespace quest
