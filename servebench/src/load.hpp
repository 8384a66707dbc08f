// servebench/src/load.hpp
//
// The closed-loop load generator: k_connections client threads, each with
// one request in flight, pulling the next request of a shared sequence
// as soon as the previous one's terminal event arrives. Requests are
// taken in sequence order, so a window of N completions always covers
// the same N requests whatever the interleaving.

#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "fleet.hpp"
#include "workloads.hpp"

namespace servebench {

struct Exchange {
  std::size_t request = 0;  ///< index into the driven sequence
  /// Write of the op line to read of its terminal event; +infinity when
  /// the connection failed before an answer arrived.
  double latency_seconds = 0.0;
  /// When the answer (or the failure) arrived, from the first send.
  double done_seconds = 0.0;
  std::string response;  ///< the terminal event line
};

struct Load_result {
  std::vector<Exchange> exchanges;
  /// First send to last terminal event.
  double seconds = 0.0;
};

/// One connection per closed-loop client to `port`.
std::vector<std::unique_ptr<Connection>> connect_clients(std::uint16_t port);

/// Sends every request of `requests` exactly once.
Load_result run_all(std::vector<std::unique_ptr<Connection>>& clients,
                    const std::vector<Request>& requests);

/// Cycles through `sequence` until `seconds` have passed; requests in
/// flight at the deadline complete and count. The window is cut into
/// `slices` equal slices: `at_boundary(k)` runs on the calling thread
/// as slice k starts, and `at_boundary(slices)` once every request has
/// completed.
Load_result run_for(std::vector<std::unique_ptr<Connection>>& clients,
                    const std::vector<Request>& sequence, double seconds,
                    std::size_t slices,
                    const std::function<void(std::size_t)>& at_boundary);

/// The counters of one "stats" event (merged across the fleet when the
/// front is a router). Fields the event lacks read 0.
struct Server_counters {
  double admitted = 0;
  double completed = 0;
  double failed = 0;
  double shed = 0;
  double instances = 0;
  double replica_lag = 0;
  double replica_failovers = 0;
};

Server_counters query_stats(Connection& connection);

}  // namespace servebench
