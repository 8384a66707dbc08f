// servebench/src/trace.hpp
//
// Spans for the traced run. The benchmark records them from its own
// files, around its calls into each layer's public functions; spans
// inside the program are not part of this benchmark. A span has a name,
// a start, an end, a parent and the request it belongs to; spans are
// kept in memory and written out when the run ends. A span's self time
// is its duration minus its children's.

#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace servebench {

/// The module a span's time is charged to (docs/ARCHITECTURE.md names).
enum class Layer { request, io, protocol, instance_store, plan_cache, model,
                   opt, store, cluster };

/// Every span the replay records. `backend` spans run inside a
/// quest_serve; the others run inside quest_router (or the checker).
enum class Span_name : std::uint8_t {
  request,          ///< one replayed request, the root
  router_parse,     ///< io::Json::parse of the line at the router
  router_decode,    ///< io::instance_from_json at the router
  router_fingerprint,
  shard_of,         ///< store::Shard_map::shard_of
  replicas,         ///< store::Shard_map::replicas
  journal_record,   ///< cluster::Registration_journal::record
  parse_op,         ///< serve::parse_op
  fingerprint,      ///< io::fingerprint of an inline document
  store_get,        ///< serve::Instance_store::get
  store_put,        ///< serve::Instance_store::put
  model_bind,       ///< spec bind + engine-spec override + key()
  cache_lookup,     ///< serve::Plan_cache::lookup
  cache_insert,     ///< serve::Plan_cache::insert
  opt_build,        ///< core::make_optimizer
  opt_search,       ///< opt::Optimizer::optimize
  encode,           ///< serve::result_event / registered_event + dump
  model_eval,       ///< model::bottleneck_cost of a returned plan
};

struct Span_info {
  const char* name;
  Layer layer;
  bool backend;
};

const Span_info& info(Span_name name);

struct Span {
  std::uint64_t request = 0;
  /// Index + 1 of the parent span; 0 for a root.
  std::uint32_t parent = 0;
  Span_name name = Span_name::request;
  /// False for set-up requests (registrations, the cache fill).
  bool timed = false;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Single-threaded span recorder. Disabled, every call is a no-op, which
/// is how the run prices the tracing itself.
class Tracer {
 public:
  bool enabled = true;
  std::vector<Span> spans;

  /// Opens a span under the innermost open one.
  void open(Span_name name, std::uint64_t request, bool timed);
  void close();

  /// Writes every span as CSV (request,span,parent,name,timed,start_ns,
  /// end_ns). Returns false when the file cannot be written.
  bool write_csv(const std::string& path) const;

 private:
  std::vector<std::uint32_t> open_;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& tracer, Span_name name, std::uint64_t request, bool timed)
      : tracer_(tracer) {
    tracer_.open(name, request, timed);
  }
  ~Scope() { tracer_.close(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
};

/// Self time of every span: its duration minus its children's.
std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

}  // namespace servebench
