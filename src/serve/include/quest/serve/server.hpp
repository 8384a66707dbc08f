// quest/serve/server.hpp
//
// The quest serving layer: a long-lived, multi-threaded optimization
// service around the anytime optimizer API. Clients submit ops (see
// quest/serve/protocol.hpp); a fixed pool of worker threads drains the
// admission queue, each job running one registry-built engine under its
// own per-request Budget and Stop_token; results, streamed incumbents and
// errors flow back through a single serialized event sink.
//
// Request lifecycle:  admit -> optimize -> stream -> cache -> execute
//
//  * admit    — the op is validated (instance resolved through the shared
//               Instance_store, engine spec through core::engine_registry)
//               and the plan cache is consulted, all on the transport
//               thread: an identical repeat request is answered right
//               here, without queueing behind long-running jobs or
//               occupying a worker. Everything else is queued; an
//               "admitted" event acknowledges it either way.
//  * optimize — a worker runs the engine. A "cancel" op for the request id
//               trips its Stop_token; engines return their best incumbent
//               within one work unit (see quest/opt/stop_token.hpp), so
//               cancellation releases the worker promptly.
//  * stream   — with "stream": true, every improving incumbent is emitted
//               as it is found.
//  * cache    — finished plans enter the Plan_cache; an identical request
//               (same instance fingerprint, engine spec, budget class and
//               seed) is answered instantly without occupying a worker,
//               and any repeat request on the same problem warm-starts
//               from the best plan known so far — its result is floored
//               at that plan, so a warm-started run never comes back
//               costlier than what the cache already held.
//  * execute  — optionally, the winning plan runs on the virtual-clock
//               runtime executor and the measured per-tuple cost is
//               attached to the result event.
//
// Multi-client serving: the Server is the *service core* of the layered
// stack (transport -> session -> codec -> service; see
// quest/serve/transport.hpp). Each connected client is a Client_session
// opened with its own event sink; events for ops submitted through a
// session flow to that session's sink, and request ids are scoped per
// session so independent clients may both use "r1". The single-sink
// constructor keeps the embedded/stdio form working unchanged — it is a
// server with exactly one pre-opened session.
//
// Overload behavior: with Server_options::queue_cap > 0 the admission
// queue is bounded; an optimize op that would exceed it is load-shed
// with a typed "overloaded" error instead of queueing unboundedly
// (cache hits still answer instantly — they never queue).
//
// Thread-safety: handle()/handle_line() are meant for one transport
// thread (they are internally synchronized with the workers, not with
// each other). Event sinks are called under an internal mutex — one
// event at a time across all sessions, from transport and worker
// threads alike — and must not call back into the Server.

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "quest/adapt/observation_log.hpp"
#include "quest/common/timer.hpp"
#include "quest/io/json.hpp"
#include "quest/serve/instance_store.hpp"
#include "quest/serve/plan_cache.hpp"
#include "quest/serve/protocol.hpp"

namespace quest::serve {

/// Durability counters shared between the serving core and the snapshot
/// subsystem (quest::store). The store layer sits *above* serve in the
/// module graph, so the Server cannot name its types; instead the two
/// sides share this plain bundle of atomics — the snapshot loader and
/// write-behind writer bump them, the Server reports them on its "stats"
/// event. All counters are cumulative since process start.
struct Durability_counters {
  /// Snapshot files written (periodic flushes + the shutdown flush).
  std::atomic<std::uint64_t> snapshot_writes{0};
  /// Total bytes across those writes.
  std::atomic<std::uint64_t> snapshot_bytes{0};
  /// Entries restored at warm boot (instances + exact + warm-start tier).
  std::atomic<std::uint64_t> warm_boot_entries{0};
  /// Snapshot records refused on load: bad checksum, truncated JSON,
  /// mismatched fingerprint or Cost_model::key(), bumped format version.
  std::atomic<std::uint64_t> stale_refused{0};
};

/// Construction-time configuration of a Server.
struct Server_options {
  /// Worker threads draining the admission queue (>= 1).
  std::size_t workers = 4;
  /// Exact-tier plan cache capacity.
  std::size_t cache_capacity = 256;
  /// Master switch for the plan cache (per-request "cache":false opts a
  /// single request out without disabling the tier).
  bool enable_cache = true;
  /// Nested-parallelism cap: the most worker threads any single job's
  /// engine may spawn (bnb-par), so total parallelism stays within
  /// `workers * engine_threads`. 0 = auto: hardware concurrency divided
  /// by the request workers, floored at 1 — the pool and the engines
  /// together never oversubscribe the machine. Enforced at admission by
  /// rewriting the job's `threads=` option (before the cache key is
  /// computed, so cached entries reflect the capped configuration).
  std::size_t engine_threads = 0;
  /// Bounded admission queue: an optimize op that would push the queue
  /// past this depth is load-shed with a typed "overloaded" error.
  /// 0 = unbounded (the legacy single-pipe behavior, where the one
  /// client is its own backpressure).
  std::size_t queue_cap = 0;
  /// Durability counters to report on "stats" events; nullptr (the
  /// default) means no snapshot subsystem is attached and the stats
  /// event keeps its legacy shape (no durability fields at all).
  std::shared_ptr<const Durability_counters> durability;
};

/// A snapshot of the server's counters. Throughput — completed requests
/// per second of server uptime — is the serving layer's first-class
/// metric, reported on every "stats" event.
struct Server_stats {
  std::size_t workers = 0;
  std::uint64_t admitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t failed = 0;
  /// Requests load-shed at admission (typed "overloaded" errors) —
  /// nonzero proves the bounded queue actually refused work.
  std::uint64_t shed = 0;
  std::size_t queue_cap = 0;
  /// Currently open client sessions (1 for the single-sink form).
  std::size_t sessions = 0;
  std::uint64_t cache_lookups = 0;
  std::uint64_t cache_hits = 0;
  std::size_t cache_entries = 0;
  std::size_t queue_depth = 0;
  std::size_t running = 0;
  /// High-water mark of concurrently running optimizations; proves the
  /// pool actually sustained N concurrent requests.
  std::size_t max_concurrent = 0;
  std::size_t instances = 0;
  /// The resolved per-job engine-thread cap (Server_options::engine_threads
  /// with 0 resolved against the hardware) — load tests read this off the
  /// stats event to verify the nested-parallelism cap.
  std::size_t engine_threads = 0;
  double uptime_seconds = 0.0;
  double throughput_rps = 0.0;
  /// True when a snapshot subsystem is attached
  /// (Server_options::durability); the counters below are only
  /// meaningful — and only emitted on the stats event — when set.
  bool durability = false;
  std::uint64_t snapshot_writes = 0;
  std::uint64_t snapshot_bytes = 0;
  std::uint64_t warm_boot_entries = 0;
  std::uint64_t stale_refused = 0;
};

/// The serving loop: admission, worker pool, cancellation, cache, event
/// emission. One instance per process/transport; see the file comment
/// for the request lifecycle and threading contract.
class Server {
 public:
  /// Receives every outgoing event, one call at a time (internally
  /// serialized), from transport and worker threads alike. Must not call
  /// back into the Server.
  using Event_sink = std::function<void(const io::Json&)>;

  /// One connected client. Treat as opaque: obtain from open_session(),
  /// pass to handle()/handle_line(), release with close_session().
  struct Client_session {
    std::uint64_t id = 0;
    Event_sink sink;
    /// Cleared by close_session(); a closed session's events are
    /// dropped instead of reaching a sink whose transport is gone.
    std::atomic<bool> open{true};
  };
  using Session_ptr = std::shared_ptr<Client_session>;

  /// Starts `options.workers` worker threads immediately, with one
  /// pre-opened session around `sink` (the single-client/stdio form).
  Server(Server_options options, Event_sink sink);
  /// Multi-client form: no default session; every client arrives via
  /// open_session().
  explicit Server(Server_options options);
  /// Shuts down (cancelling anything in flight) and joins all workers.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Opens a client session whose events flow to `sink`. Request ids
  /// are scoped to the session.
  Session_ptr open_session(Event_sink sink);
  /// Drops a client: cancels its queued and running jobs (workers free
  /// up promptly) and suppresses its further events. Idempotent.
  void close_session(const Session_ptr& session);

  /// Decodes (decode_line) and dispatches one protocol line for one
  /// session. Never throws: malformed input becomes a typed "error"
  /// event. Returns
  /// false once a shutdown op was processed (the transport loop should
  /// stop reading).
  bool handle_line(const Session_ptr& session, std::string_view line);

  /// Dispatches an already-parsed op (same contract as handle_line).
  bool handle(const Session_ptr& session, Op op);

  /// Single-client conveniences: the constructor-opened session.
  bool handle_line(std::string_view line);
  bool handle(Op op);

  /// Stops admitting and joins the workers. With `cancel_in_flight`
  /// (the default, and what the destructor does) every queued and
  /// running job is cancelled first — each still gets its "result"
  /// event, termination "cancelled". With false the workers finish all
  /// admitted work before exiting (the {"op":"shutdown","drain":true}
  /// path). Idempotent.
  void shutdown(bool cancel_in_flight = true);

  Server_stats stats() const;

  /// Introspection for tests and embedding drivers.
  Instance_store& instances() noexcept { return store_; }
  Plan_cache& cache() noexcept { return cache_; }

 private:
  struct Job;

  void handle_register(const Session_ptr& session, Register_op op);
  void handle_optimize(const Session_ptr& session, Optimize_op op);
  void handle_batch(const Session_ptr& session, Batch_op op);
  void handle_cancel(const Session_ptr& session, const Cancel_op& op);
  void handle_observe(const Session_ptr& session, Observe_op op);
  void handle_refit(const Session_ptr& session, const Refit_op& op);
  /// Resolves the instance reference shared by optimize/observe/refit:
  /// a registered name or an inline document (fingerprinted on the
  /// spot). nullptr + an emitted error event for unknown names.
  std::shared_ptr<const Stored_instance> resolve_instance(
      const Session_ptr& session, const std::string& name,
      std::optional<io::Instance_document>& inline_doc,
      const std::string& request_id);
  void emit_stats(const Session_ptr& session);
  /// The per-job engine-thread cap (options_.engine_threads, 0 resolved
  /// to hardware / workers, floored at 1).
  std::size_t engine_thread_cap() const;

  void worker_loop();
  void run_job(Job& job);
  /// Removes a finished job from active_ (mutex_ must be held) — always
  /// before its result/error event is emitted, so a client may reuse
  /// the id as soon as it reads the event.
  void retire_job_locked(const Job& job);
  /// Serialized event emission to one session's sink; dropped when the
  /// session was closed (its transport connection is gone).
  void emit(const Client_session& session, const io::Json& event);

  Server_options options_;
  Session_ptr default_session_;
  Instance_store store_;
  Plan_cache cache_;
  Timer uptime_;

  /// Per-fingerprint adaptive-loop state: the streaming observation log
  /// plus the distinct complete plans observed so far — re-costed at
  /// refit time to seed the warm-start tier under the fitted model's
  /// key (the exact tier misses on the new key; the warm tier hits).
  struct Adapt_state {
    adapt::Observation_log log;
    std::vector<model::Plan> plans;
  };
  mutable std::mutex adapt_mutex_;
  std::unordered_map<std::uint64_t, Adapt_state> adapt_;

  mutable std::mutex mutex_;
  std::condition_variable work_available_;
  std::deque<std::shared_ptr<Job>> queue_;
  /// Queued + running jobs by request id (ids are single-use while
  /// active; reusable after the result event).
  std::vector<std::shared_ptr<Job>> active_;
  bool shutting_down_ = false;

  std::uint64_t admitted_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t shed_ = 0;
  std::size_t sessions_ = 0;
  std::uint64_t next_session_id_ = 1;

  std::atomic<std::size_t> running_{0};
  std::atomic<std::size_t> max_concurrent_{0};

  std::mutex sink_mutex_;
  std::vector<std::thread> workers_;
};

}  // namespace quest::serve
