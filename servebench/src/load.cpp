#include "load.hpp"

#include <atomic>
#include <chrono>
#include <exception>
#include <limits>
#include <thread>

#include "quest/io/json.hpp"

namespace servebench {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

Load_result drive(std::vector<std::unique_ptr<Connection>>& clients,
                  const std::vector<Request>& sequence, std::size_t count,
                  Clock::time_point deadline,
                  const std::function<void(Clock::time_point)>& wait = {}) {
  std::atomic<std::size_t> next{0};
  std::vector<Load_result> parts(clients.size());
  std::vector<Clock::time_point> last(clients.size());
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients.size(); ++c) {
    threads.emplace_back([&, c] {
      Connection& connection = *clients[c];
      Load_result& part = parts[c];
      last[c] = start;
      for (;;) {
        if (Clock::now() >= deadline) break;
        const std::size_t index = next.fetch_add(1);
        if (index >= count) break;
        const Request& request = sequence[index % sequence.size()];
        Exchange exchange;
        exchange.request = index % sequence.size();
        const Clock::time_point sent = Clock::now();
        try {
          exchange.response = connection.exchange(request.line);
          last[c] = Clock::now();
          exchange.latency_seconds = seconds_between(sent, last[c]);
          exchange.done_seconds = seconds_between(start, last[c]);
        } catch (const std::exception& error) {
          exchange.latency_seconds = std::numeric_limits<double>::infinity();
          exchange.done_seconds = seconds_between(start, Clock::now());
          exchange.response = error.what();
          part.exchanges.push_back(std::move(exchange));
          break;
        }
        part.exchanges.push_back(std::move(exchange));
      }
    });
  }
  // The client threads must be joined even when `wait` throws.
  std::exception_ptr failure;
  if (wait) {
    try {
      wait(start);
    } catch (...) {
      failure = std::current_exception();
    }
  }
  for (auto& thread : threads) thread.join();
  if (failure) std::rethrow_exception(failure);
  Load_result result;
  Clock::time_point end = start;
  for (std::size_t c = 0; c < clients.size(); ++c) {
    end = std::max(end, last[c]);
    for (auto& exchange : parts[c].exchanges) {
      result.exchanges.push_back(std::move(exchange));
    }
  }
  result.seconds = seconds_between(start, end);
  return result;
}

double counter(const quest::io::Json& event, std::string_view key) {
  const quest::io::Json* field = event.find(key);
  return field != nullptr && field->is_number() ? field->as_number() : 0.0;
}

}  // namespace

std::vector<std::unique_ptr<Connection>> connect_clients(std::uint16_t port) {
  std::vector<std::unique_ptr<Connection>> clients;
  for (std::size_t c = 0; c < k_connections; ++c) {
    clients.push_back(std::make_unique<Connection>(port));
  }
  return clients;
}

Load_result run_all(std::vector<std::unique_ptr<Connection>>& clients,
                    const std::vector<Request>& requests) {
  return drive(clients, requests, requests.size(), Clock::time_point::max());
}

Load_result run_for(std::vector<std::unique_ptr<Connection>>& clients,
                    const std::vector<Request>& sequence, double seconds,
                    std::size_t slices,
                    const std::function<void(std::size_t)>& at_boundary) {
  const auto length = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds / static_cast<double>(slices)));
  at_boundary(0);
  const Clock::time_point begin = Clock::now();
  Load_result result =
      drive(clients, sequence, std::numeric_limits<std::size_t>::max(),
            begin + length * static_cast<long>(slices),
            [&](Clock::time_point start) {
              for (std::size_t k = 1; k < slices; ++k) {
                std::this_thread::sleep_until(start +
                                              length * static_cast<long>(k));
                at_boundary(k);
              }
            });
  at_boundary(slices);
  return result;
}

Server_counters query_stats(Connection& connection) {
  const quest::io::Json event =
      quest::io::Json::parse(connection.exchange("{\"op\":\"stats\"}\n"));
  if (event.at("event").as_string() != "stats") {
    throw std::runtime_error("stats op answered with " + event.dump());
  }
  Server_counters counters;
  counters.admitted = counter(event, "admitted");
  counters.completed = counter(event, "completed");
  counters.failed = counter(event, "failed");
  counters.shed = counter(event, "shed");
  counters.instances = counter(event, "instances");
  counters.replica_lag = counter(event, "replica_lag");
  counters.replica_failovers = counter(event, "replica_failovers");
  return counters;
}

}  // namespace servebench
