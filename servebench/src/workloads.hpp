// servebench/src/workloads.hpp
//
// The benchmark's four workloads. Each is generated entirely from the
// workload seed before any quest process starts: the instance catalog,
// the set-up lines (registrations, the cache-filling pass, the warm-up
// pass) and the timed request sequence. Every budget is a node_limit, so
// each request's work and answer repeat exactly from run to run.
//
//   inline-hits       codec-bound: inline documents, exact-tier hits
//   hard-search       engine-bound: named, "cache":false, portfolio + bnb
//   fleet-sharded     router-hop-bound: named hits through quest_router
//   fleet-replicated  named hits plus one register in five, R = 2

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "quest/model/instance.hpp"

namespace servebench {

struct Catalog_entry {
  /// Registered name; empty for entries only ever sent inline.
  std::string name;
  quest::model::Instance instance;
  std::uint64_t fingerprint = 0;
  /// The dp optimum under the requests' (independent, sequential) model.
  double reference = 0.0;
};

enum class Op_kind { optimize, register_op };

struct Request {
  Op_kind kind = Op_kind::optimize;
  std::size_t entry = 0;  ///< catalog index
  /// The request id ("q<k>"); each connection has one request in flight,
  /// so ids only need to be unique within one list.
  std::string id;
  std::string line;  ///< the wire line, newline-terminated
};

/// How the quest processes are laid out. `replicas` 0 means the client
/// talks to the single backend directly; otherwise quest_router fronts
/// `backends` backends with --replicas `replicas`.
struct Deployment {
  std::size_t backends = 1;
  std::size_t workers = 2;
  std::size_t cache_capacity = 256;
  std::size_t replicas = 0;
};

struct Workload {
  std::string name;
  Deployment deployment;
  std::vector<Catalog_entry> catalog;
  /// Set-up phases in order; every request of a phase completes before
  /// the next phase starts (registrations precede named optimizes).
  std::vector<std::vector<Request>> setup;
  /// The timed window cycles through this sequence: rounds of seeded
  /// shuffles of the workload's request mix, so every catalog entry gets
  /// an equal share of the window whatever its position.
  std::vector<Request> timed;
};

/// Closed-loop connections the client drives, on every workload.
inline constexpr std::size_t k_connections = 2;

const std::vector<std::string>& workload_names();

/// Throws std::invalid_argument for an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed);

/// Fills Catalog_entry::reference with the dp optimum of every entry,
/// spread over `threads` threads. Runs before any quest process starts.
void compute_references(Workload& workload, std::size_t threads);

}  // namespace servebench
