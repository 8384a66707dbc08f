// The TCP transport end to end, over real loopback sockets: the full
// stack (Tcp_transport event loop -> Session_manager -> Server) serves
// connect/optimize/result, streaming + cancellation, concurrent clients
// with colliding request ids, write-side backpressure (reads pause when
// a client stops draining), load shedding at the admission queue and at
// the connection limit (both as typed "overloaded" errors), oversized
// and malformed lines, optimize_batch, and a clean network shutdown —
// plus the transport's outbound links and posted tasks, which the
// replica router runs on.

#include "quest/serve/tcp_transport.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "quest/common/timer.hpp"
#include "quest/io/instance_io.hpp"
#include "quest/io/json.hpp"
#include "quest/serve/server.hpp"
#include "quest/serve/session.hpp"
#include "support/helpers.hpp"
#include "support/loopback.hpp"

namespace quest {
namespace {

using namespace quest::serve;
using test::Client;
using test::Stack;

std::string register_line(const std::string& name, std::size_t n,
                          std::uint64_t seed) {
  return std::string(R"({"op":"register","name":")") + name +
         R"(","instance":)" +
         io::to_json(test::selective_instance(n, seed)).dump() + "}";
}

constexpr const char* k_long_job =
    R"("optimizer":"annealing:iterations=2000000000",)"
    R"("budget":{"deadline_ms":60000},"cache":false)";

TEST(Tcp_transport_test, ConnectOptimizeResultOverARealSocket) {
  Stack stack;
  Client client(stack.port());
  client.send_line(register_line("prod", 10, 3));
  const io::Json registered = client.wait_event("registered");
  ASSERT_TRUE(registered.is_object());
  EXPECT_EQ(registered.at("services").as_number(), 10.0);

  client.send_line(
      R"({"op":"optimize","id":"r1","instance":"prod","optimizer":"bnb"})");
  const io::Json admitted = client.wait_event("admitted", "r1");
  ASSERT_TRUE(admitted.is_object());
  const io::Json result = client.wait_event("result", "r1");
  ASSERT_TRUE(result.is_object());
  EXPECT_EQ(result.at("termination").as_string(), "optimal");
  EXPECT_EQ(result.at("plan").as_array().size(), 10u);
}

TEST(Tcp_transport_test, StreamedIncumbentsAndCancellation) {
  Stack stack;
  Client client(stack.port());
  client.send_line(register_line("prod", 12, 7));
  client.wait_event("registered");

  client.send_line(std::string(R"({"op":"optimize","id":"slow",)") +
                   R"("instance":"prod","stream":true,)" + k_long_job + "}");
  ASSERT_TRUE(client.wait_event("incumbent", "slow").is_object());

  client.send_line(R"({"op":"cancel","id":"slow"})");
  const io::Json result = client.wait_event("result", "slow");
  ASSERT_TRUE(result.is_object());
  EXPECT_EQ(result.at("termination").as_string(), "cancelled");
  EXPECT_TRUE(result.at("complete").as_bool());  // best incumbent
}

TEST(Tcp_transport_test, ConcurrentClientsWithCollidingIdsGetTheirOwnResults) {
  Server_options options;
  options.workers = 4;
  Stack stack(options);

  // Eight clients, every one calling its request "r1" on its own
  // instance size — per-session id scoping plus correct event fan-out
  // means each client reads exactly its own plan back.
  constexpr int k_clients = 8;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int index = 0; index < k_clients; ++index) {
    threads.emplace_back([&, index] {
      const std::size_t n = 6 + static_cast<std::size_t>(index);
      Client client(stack.port());
      const std::string name = "i" + std::to_string(index);
      client.send_line(register_line(name, n, 100 + index));
      client.wait_event("registered");
      client.send_line(std::string(R"({"op":"optimize","id":"r1",)") +
                       R"("instance":")" + name +
                       R"(","optimizer":"bnb","cache":false})");
      const io::Json result = client.wait_event("result", "r1");
      if (!result.is_object() ||
          result.at("plan").as_array().size() != n ||
          result.at("termination").as_string() != "optimal") {
        ++failures;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(stack.server().stats().completed,
            static_cast<std::uint64_t>(k_clients));
}

TEST(Tcp_transport_test, BackpressurePausesReadsUntilTheClientDrains) {
  Tcp_options tcp;
  tcp.write_buffer_cap = 2048;   // a few stats replies fill it
  tcp.send_buffer_bytes = 4096;  // pin the kernel pipe small
  Stack stack(Server_options{}, tcp);
  Client client(stack.port(), /*receive_buffer_bytes=*/4096);

  // Burst stats ops without reading a single reply: the replies
  // overflow the pinned kernel buffers into the transport's outbound
  // buffer, blow past the cap, and the transport stops reading us.
  constexpr int k_ops = 300;
  std::string burst;
  for (int index = 0; index < k_ops; ++index) {
    burst += "{\"op\":\"stats\"}\n";
  }
  client.send_raw(burst);

  Timer timer;
  while (stack.transport().stats().reads_paused == 0 &&
         timer.seconds() < 20.0) {
    std::this_thread::yield();
  }
  EXPECT_GT(stack.transport().stats().reads_paused, 0u);

  // Drain: every single reply must still arrive, in order.
  for (int index = 0; index < k_ops; ++index) {
    const std::string line = client.read_line();
    ASSERT_FALSE(line.empty()) << "reply " << index;
    EXPECT_EQ(io::Json::parse(line).at("event").as_string(), "stats");
  }
}

TEST(Tcp_transport_test, AdmissionQueueOverloadIsShedWithATypedError) {
  Server_options options;
  options.workers = 1;
  options.queue_cap = 1;
  Stack stack(options);
  Client client(stack.port());
  client.send_line(register_line("prod", 12, 9));
  client.wait_event("registered");

  // One running + one queued fills the stack; the third must shed.
  // Sequenced via events so the outcome is deterministic: the streamed
  // incumbent proves "a" occupies the worker (not the queue) before "b"
  // is queued, and "b"'s admitted ack precedes "c".
  client.send_line(std::string(R"({"op":"optimize","id":"a",)") +
                   R"("instance":"prod","stream":true,)" + k_long_job + "}");
  ASSERT_TRUE(client.wait_event("incumbent", "a").is_object());
  client.send_line(std::string(R"({"op":"optimize","id":"b",)") +
                   R"("instance":"prod",)" + k_long_job + "}");
  ASSERT_TRUE(client.wait_event("admitted", "b").is_object());
  client.send_line(std::string(R"({"op":"optimize","id":"c",)") +
                   R"("instance":"prod",)" + k_long_job + "}");
  const io::Json shed = client.wait_event("error", "c");
  ASSERT_TRUE(shed.is_object());
  EXPECT_EQ(shed.at("code").as_string(), "overloaded");
  EXPECT_EQ(shed.at("queue_cap").as_number(), 1.0);

  // The bounded-queue counters appear on the stats event.
  client.send_line(R"({"op":"stats"})");
  const io::Json stats = client.wait_event("stats");
  ASSERT_TRUE(stats.is_object());
  EXPECT_EQ(stats.at("shed").as_number(), 1.0);
  EXPECT_EQ(stats.at("queue_cap").as_number(), 1.0);
  EXPECT_EQ(stats.at("sessions").as_number(), 1.0);

  for (const char* id : {"a", "b"}) {
    client.send_line(std::string(R"({"op":"cancel","id":")") + id + "\"}");
    client.wait_event("result", id);
  }
}

TEST(Tcp_transport_test, ConnectionLimitRefusesWithATypedErrorLine) {
  Tcp_options tcp;
  tcp.max_connections = 2;
  Stack stack(Server_options{}, tcp);

  Client first(stack.port());
  Client second(stack.port());
  // Both are live; prove it before the refusal case.
  first.send_line(R"({"op":"stats"})");
  ASSERT_TRUE(first.wait_event("stats").is_object());

  Client refused(stack.port());
  const std::string line = refused.read_line();
  ASSERT_FALSE(line.empty());
  const io::Json error = io::Json::parse(line);
  EXPECT_EQ(error.at("event").as_string(), "error");
  EXPECT_EQ(error.at("code").as_string(), "overloaded");
  EXPECT_TRUE(refused.at_eof());
  EXPECT_EQ(stack.transport().stats().refused, 1u);

  // The refusal freed nothing: the two real connections still serve.
  second.send_line(R"({"op":"stats"})");
  EXPECT_TRUE(second.wait_event("stats").is_object());
}

TEST(Tcp_transport_test, MalformedAndOversizedLinesGetTypedErrors) {
  Session_options session;
  session.max_line_bytes = 256;
  Stack stack(Server_options{}, Tcp_options{}, session);
  Client client(stack.port());

  client.send_line("this is not json");
  const io::Json parse_error = client.wait_event("error");
  ASSERT_TRUE(parse_error.is_object());
  EXPECT_EQ(parse_error.at("code").as_string(), "parse");

  client.send_line(std::string(1000, 'x'));
  const io::Json overflow = client.wait_event("error");
  ASSERT_TRUE(overflow.is_object());
  EXPECT_EQ(overflow.at("code").as_string(), "line-overflow");

  // Truncated JSON (a valid op cut mid-way) is a parse error, and the
  // session keeps serving afterwards.
  client.send_line(R"({"op":"optimize","id":"t1","inst)");
  EXPECT_EQ(client.wait_event("error").at("code").as_string(), "parse");
  client.send_line(R"({"op":"stats"})");
  EXPECT_TRUE(client.wait_event("stats").is_object());
}

TEST(Tcp_transport_test, OptimizeBatchFansOutPerElementResults) {
  Stack stack;
  Client client(stack.port());
  client.send_line(register_line("prod", 9, 21));
  client.wait_event("registered");

  client.send_line(
      R"({"op":"optimize_batch","id":"b1","requests":[)"
      R"({"instance":"prod","optimizer":"bnb","cache":false},)"
      R"({"instance":"prod","optimizer":"dp","cache":false},)"
      R"({"id":"named","instance":"prod","optimizer":"greedy","cache":false}]})");
  const io::Json batch = client.wait_event("batch-admitted", "b1");
  ASSERT_TRUE(batch.is_object());
  EXPECT_EQ(batch.at("count").as_number(), 3.0);
  // The elements run on parallel workers, so results arrive in any
  // order; collect all three and compare the id set.
  std::set<std::string> ids;
  for (int i = 0; i < 3; ++i) {
    const io::Json result = client.wait_event("result");
    ASSERT_TRUE(result.is_object());
    ids.insert(result.at("id").as_string());
  }
  EXPECT_EQ(ids, (std::set<std::string>{"b1/0", "b1/1", "named"}));
}

TEST(Tcp_transport_test, DisconnectCancelsThatClientsInFlightWork) {
  Server_options options;
  options.workers = 1;
  Stack stack(options);
  {
    Client doomed(stack.port());
    doomed.send_line(register_line("prod", 12, 31));
    doomed.wait_event("registered");
    doomed.send_line(std::string(R"({"op":"optimize","id":"gone",)") +
                     R"("instance":"prod",)" + k_long_job + "}");
    doomed.wait_event("admitted", "gone");
  }  // socket closes here

  // The disconnect cancels the job and frees the only worker — a new
  // client's request completes promptly.
  Client next(stack.port());
  Timer timer;
  while (stack.server().stats().completed < 1 && timer.seconds() < 20.0) {
    std::this_thread::yield();
  }
  EXPECT_EQ(stack.server().stats().cancelled, 1u);
  next.send_line(register_line("other", 8, 33));
  next.wait_event("registered");
  next.send_line(
      R"({"op":"optimize","id":"fresh","instance":"other","optimizer":"bnb"})");
  EXPECT_TRUE(next.wait_event("result", "fresh").is_object());
}

TEST(Tcp_transport_test, OutboundLinksRunOnTheLoopAndFailPastTheCap) {
  Stack backend;
  // Listens, but nothing ever accepts or reads: a stuck peer.
  Tcp_transport stuck(Tcp_options{});
  Tcp_options options;
  options.write_buffer_cap = 4096;
  Tcp_transport front(options);

  std::mutex mutex;
  std::thread::id loop_thread;
  std::vector<std::string> received;
  std::vector<Connection_id> closed;
  Transport::Handlers handlers;
  handlers.on_data = [&](Connection_id, std::string_view chunk) {
    std::lock_guard<std::mutex> lock(mutex);
    received.emplace_back(chunk);
  };
  handlers.on_close = [&](Connection_id id) {
    std::lock_guard<std::mutex> lock(mutex);
    closed.push_back(id);
  };
  std::thread loop([&] {
    {
      std::lock_guard<std::mutex> lock(mutex);
      loop_thread = std::this_thread::get_id();
    }
    front.run(handlers);
  });
  // Runs `task` on the loop and waits for it.
  const auto on_loop = [&](auto task) {
    std::promise<void> done;
    front.post([&] {
      task();
      done.set_value();
    });
    ASSERT_EQ(done.get_future().wait_for(std::chrono::seconds(10)),
              std::future_status::ready);
  };

  // A link to a live backend: its answers arrive through on_data, and
  // it does not count as an accepted connection.
  std::optional<Connection_id> link;
  on_loop([&] {
    EXPECT_EQ(std::this_thread::get_id(), loop_thread);
    link = front.connect(backend.address());
    ASSERT_TRUE(link.has_value());
    EXPECT_TRUE(front.send(*link, R"({"op":"stats"})"));
  });
  EXPECT_TRUE(test::eventually(
      [&] {
        std::lock_guard<std::mutex> lock(mutex);
        std::string all;
        for (const std::string& chunk : received) all += chunk;
        return all.find(R"("event":"stats")") != std::string::npos;
      },
      10.0));
  EXPECT_EQ(front.stats().accepted, 0u);
  EXPECT_EQ(front.stats().connections, 0u);

  // A link to the stuck peer: once the kernel buffers are full, the
  // transport buffers up to the cap and then refuses the send...
  const std::string line(1000, 'x');
  std::optional<Connection_id> jammed;
  bool refused = false;
  for (int round = 0; round < 200 && !refused; ++round) {
    on_loop([&] {
      if (!jammed) {
        jammed = front.connect("127.0.0.1:" + std::to_string(stuck.port()));
      }
      ASSERT_TRUE(jammed.has_value());
      for (int index = 0; index < 100 && !refused; ++index) {
        refused = !front.send(*jammed, line);
      }
    });
  }
  EXPECT_TRUE(refused) << "a link to a peer that never reads took 20 MB";
  // ...and close() drops what it still holds rather than waiting on a
  // peer that will never drain it.
  on_loop([&] { front.close(*jammed); });
  EXPECT_TRUE(test::eventually(
      [&] {
        std::lock_guard<std::mutex> lock(mutex);
        return std::find(closed.begin(), closed.end(), *jammed) !=
               closed.end();
      },
      10.0));

  front.stop();
  loop.join();
}

TEST(Tcp_transport_test, ShutdownOpDrainsFinalEventsToTheClient) {
  Stack stack;
  Client client(stack.port());
  client.send_line(R"({"op":"shutdown"})");
  // The bounded flush on stop() must deliver both shutdown events
  // before the connection closes.
  ASSERT_TRUE(client.wait_event("shutting-down").is_object());
  ASSERT_TRUE(client.wait_event("shutdown-complete").is_object());
  EXPECT_TRUE(client.at_eof());
  EXPECT_TRUE(stack.wait_shutdown_served());
}

}  // namespace
}  // namespace quest
