// quest/cluster/replica_router.hpp
//
// The front of a quest_serve fleet, and its only router. It decodes each
// client line as the server does (serve::decode_line: a refused line
// gets the server's bytes) and forwards the raw line to backends by
// consistent-hashed instance fingerprint: each key is bound to the
// first R distinct shards on the ring (Shard_map::replicas), so it keeps
// serving through the loss of any R-1 of them. R=1 is plain sharding —
// an owner list of length one, with no secondaries and no failover
// target — and runs the same code: the journal and the health prober
// still heal a backend that restarts empty. Backend events are read by
// serve::read_event (kind, id, code, fingerprint); only a stats merge
// and the shutdown fold parse a whole event.
//
//  * register / observe / refit — *fan out*: the first live owner is the
//    client-visible forward (its events stream back verbatim); the other
//    owners get the same line best-effort over router-owned replication
//    links whose events are swallowed. A secondary that cannot be
//    reached bumps the "replica_lag" counter instead of failing the op.
//    Registers are additionally recorded in the Registration_journal —
//    the repair source of truth.
//  * optimize / optimize_batch / cancel — go to the first live owner;
//    batches are split into per-element optimizes (elements may hash to
//    different shards) and the router emits the batch-admitted event
//    itself. On a dead connection (at admission or mid-flight) or a
//    backend "overloaded" shed, the router re-sends the saved raw line
//    to the next live owner and counts a "replica_failovers". Request
//    ids are never rewritten, so clients cannot tell a failover happened
//    (beyond a possible duplicate "admitted" — delivery is at-least-once
//    across a failover, never at-most-once). With no owner left the
//    client gets the protocol's typed "overloaded" error. An optimize
//    whose id the client still has routed is refused with the server's
//    own duplicate-id error (serve::duplicate_id_event), so one id never
//    runs twice; a route retires on the result or on any error from its
//    current owner that the router does not act on itself.
//  * repair — a backend answering a routed optimize with the typed
//    "unknown-instance" error is missing state it owns; the router
//    replays the journaled register on that same connection, swallows
//    the ack, re-sends the optimize, and counts a "repairs". A backend
//    rejoining after death (Health_monitor dead->live) is healed the
//    same way: every journaled registration it owns is replayed over
//    its replication feed, one line per event the backend sends back,
//    so any journal replays at the backend's pace; an op that reaches a
//    key not yet replayed is repaired on its own connection.
//  * stats — fanned out to every reachable backend and merged into one
//    event (quest/cluster/backend.hpp): counters summed, "shards",
//    "shards_live", and the five replication fields "replicas",
//    "shards_degraded", "replica_failovers", "repairs", "replica_lag".
//  * shutdown — forwarded to every reachable backend; the router keeps
//    relaying events (under "drain":true, every drained result) until
//    each backend has answered "shutdown-complete" or dropped its link,
//    then emits one merged pair (serve::shutting_down_event and
//    shutdown_complete_event: "outstanding", "completed" and "cancelled"
//    summed, "drain" echoed) and stops. No new op is read meanwhile, and
//    the shutdown finishes even when the requesting client has already
//    gone.
//
// Liveness comes from an active Health_monitor (probe thread with
// exponential backoff), not lazy reconnects: routing never dials a shard
// the prober says is dead — it asks the prober to look again within one
// probe interval instead (expedite) — and a failed forward reports the
// death immediately via mark_dead. A forward fails when the link is gone
// or when it would push the link's buffer past the transport's
// write_buffer_cap (a backend that stopped reading): either way the
// shard is marked dead and the link closed, and the link's routes fail
// over or shed — a stuck backend costs its own keys, not the router.
//
// Threading: one event loop. Client connections, the per-(client, shard)
// backend links and the per-shard replication feeds are all connections
// of the one serve::Tcp_transport, so every handler — client lines,
// backend lines, link closes — runs on its loop thread and the router's
// state needs no lock. The health prober keeps its own thread for its
// blocking probes; the one transition the router acts on (a shard came
// back) reaches the loop through Tcp_transport::post. A router process
// runs two threads whatever the number of clients and shards.

#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "quest/cluster/health.hpp"
#include "quest/cluster/registration_journal.hpp"
#include "quest/io/json.hpp"
#include "quest/serve/line_framer.hpp"
#include "quest/serve/protocol.hpp"
#include "quest/serve/tcp_transport.hpp"
#include "quest/store/shard_map.hpp"

namespace quest::cluster {

/// Configuration of a Replica_router.
struct Replica_options {
  /// Backend addresses, "host:port", one per shard; index = shard id.
  std::vector<std::string> backends;
  /// Replication factor R: every key lives on this many distinct shards.
  /// Must satisfy 1 <= replicas <= backends.size(). R=1 is plain
  /// sharding: one owner per key, nothing to fail over to.
  std::size_t replicas = 2;
  /// Consistent-hash ring points per shard (Shard_map).
  std::size_t ring_points = 64;
  /// Inbound line cap, mirroring the session layer's overflow handling.
  std::size_t max_line_bytes = 1 << 20;
  /// Registration journal backing file; empty = in-memory only.
  Journal_options journal;
  /// Health probe cadence / dead-shard backoff cap.
  std::chrono::milliseconds probe_interval{500};
  std::chrono::milliseconds max_backoff{8000};
};

/// The sharding proxy, replicated when R > 1. Construct with a listening
/// transport, then serve(); returns true when a client shutdown op ended
/// the run.
class Replica_router {
 public:
  Replica_router(Replica_options options, serve::Tcp_transport& transport);
  ~Replica_router();

  Replica_router(const Replica_router&) = delete;
  Replica_router& operator=(const Replica_router&) = delete;

  /// Runs the transport loop until stop()/shutdown. Call once.
  bool serve();

  /// Counters, reported in the merged stats event and read by tests.
  std::uint64_t replica_failovers() const {
    return replica_failovers_.load(std::memory_order_relaxed);
  }
  std::uint64_t repairs() const {
    return repairs_.load(std::memory_order_relaxed);
  }
  std::uint64_t replica_lag() const {
    return replica_lag_.load(std::memory_order_relaxed);
  }

 private:
  struct Client;

  /// One connection to one backend shard. Client links forward backend
  /// events to their client; replication feeds (client == null) swallow
  /// everything they read, as does a departed client's link kept open
  /// for a shutdown in flight.
  struct Link {
    std::size_t shard = 0;
    Client* client = nullptr;
    serve::Line_framer framer;
    /// A forward failed: the link is closing and carries nothing more.
    bool closing = false;
    /// Owes a stats event to the client's merge in flight.
    bool merge_member = false;
    /// Owes "shutdown-complete" to the shutdown in flight.
    bool shutdown_member = false;
    /// Fingerprints whose journal register was replayed on this link and
    /// whose "registered" ack must be swallowed; the value holds raw op
    /// lines to re-send once it is.
    std::unordered_map<std::uint64_t, std::vector<std::string>> repairs;
    /// Feed of a rejoined shard: journal lines still to replay. One goes
    /// out per event the backend sends back, so a journal of any size
    /// replays at the backend's pace instead of flooding the link.
    std::deque<std::string> replay;
  };

  /// Everything the router remembers about one routed request id.
  struct Route {
    std::uint64_t fingerprint = 0;
    /// The R owners of the fingerprint, preference order.
    std::vector<std::size_t> owners;
    /// Which owner currently holds the request.
    std::size_t owner_index = 0;
    /// Failovers taken so far; capped at owners.size() to stop a
    /// flapping fleet from bouncing one request forever.
    std::size_t hops = 0;
    /// The raw op line, for replay on failover.
    std::string line;
  };

  /// One front-side client connection and everything routed for it.
  struct Client {
    serve::Connection_id id = 0;
    serve::Line_framer framer;
    /// Link per shard; 0 until first use.
    std::vector<serve::Connection_id> links;
    /// Request id -> route.
    std::unordered_map<std::string, Route> routes;
    /// Stats merge in flight.
    std::size_t merge_pending = 0;
    std::vector<io::Json> merge_events;
  };

  /// The fleet shutdown in flight, folded from the backends' events.
  struct Shutdown {
    /// The requester; 0 once it disconnected (the pair then goes
    /// nowhere, but the fleet still goes down).
    serve::Connection_id client = 0;
    bool drain = false;
    /// Backends that still owe "shutdown-complete".
    std::size_t pending = 0;
    double outstanding = 0;
    double completed = 0;
    double cancelled = 0;
  };

  void on_open(serve::Connection_id id);
  void on_data(serve::Connection_id id, std::string_view chunk);
  /// A client's close closes its links (those a shutdown in flight
  /// still waits on excepted); a link's close is link_down.
  void on_close(serve::Connection_id id);

  /// Decodes the line as the server does (serve::decode_line) and
  /// routes the op. False once a shutdown op was taken: the client's
  /// remaining lines are not read.
  bool handle_line(Client& client, std::string_view line);
  void route_optimize(Client& client, const serve::Optimize_op& op,
                      std::string_view line);
  /// register/observe/refit share the fan-out shape; this does the
  /// primary-ack + best-effort-secondaries part.
  void fan_out(Client& client, const std::vector<std::size_t>& owners,
               std::string_view line);
  void handle_stats(Client& client, std::string_view line);

  /// The fingerprint of the op's inline document or registered name;
  /// empty once an unknown name was answered (typed, carrying `id`).
  template <typename Instance_op>
  std::optional<std::uint64_t> resolve_instance(Client& client,
                                                const Instance_op& op,
                                                const std::string& id);

  /// The live link in `slot` to `shard` — a client link when `client`
  /// is set, else a replication feed — dialed if needed; 0 when there
  /// is none. Never dials a shard the health monitor calls dead: it
  /// expedites that shard's next probe instead.
  serve::Connection_id open_link(serve::Connection_id& slot,
                                 std::size_t shard, Client* client);
  /// Sends `line` over `link` (0: no link); false, with the shard marked
  /// dead and the link closing, when it cannot.
  bool send_on(serve::Connection_id link, std::string_view line);
  /// send_on over the client's link to `shard`.
  bool send_to(Client& client, std::size_t shard, std::string_view line);
  /// A forward on `link` failed: mark its shard dead and close it. Its
  /// routes fail over when the close comes back through on_close.
  void fail_link(serve::Connection_id link);

  /// Moves the route to its next live owner and re-sends its line; false
  /// when no owner is left (caller sheds). `avoiding` is the shard that
  /// just failed.
  bool failover(Client& client, Route& route, std::size_t avoiding);

  void shed(Client& client, const std::string& id, std::size_t shard);

  /// Reads the event's kind, id, code and fingerprint (serve::read_event)
  /// to act on it; a result, or a final error from the route's current
  /// owner, retires its route.
  void handle_backend_line(serve::Connection_id id, Link& link,
                           std::string_view line);
  /// True when the line was intercepted (a stats event owed to a merge,
  /// a failover / repair error, or a swallowed repair ack) and must not
  /// reach the client.
  bool intercept(serve::Connection_id id, Link& link,
                 const serve::Event_head& event, std::string_view line);
  /// Folds a backend's shutting-down / shutdown-complete into the
  /// shutdown in flight; true when the line was one of them.
  bool fold_shutdown_event(Link& link, const serve::Event_head& event,
                           std::string_view line);
  /// The link closed: its routes fail over or shed, its merge share is
  /// settled, and a close the router did not ask for marks the shard
  /// dead.
  void link_down(serve::Connection_id id);
  void finish_merge(Client& client);
  void finish_shutdown();

  /// A shard came back: replay its share of the journal over its
  /// replication feed. Posted by the prober.
  void heal_shard(std::size_t shard);
  /// Sends the next line of the feed's replay, if any.
  void replay_next(serve::Connection_id feed, Link& link);

  Replica_options options_;
  serve::Tcp_transport& transport_;
  store::Shard_map map_;
  Registration_journal journal_;
  Health_monitor health_;

  std::unordered_map<serve::Connection_id, std::unique_ptr<Client>> clients_;
  /// Every backend link — client links and replication feeds.
  std::unordered_map<serve::Connection_id, Link> links_;
  /// Registered name -> fingerprint. Names registered before a router
  /// restart are unknown to the new router: clients re-register (or send
  /// inline documents), and backends dedupe by fingerprint, so that is
  /// idempotent and cache-preserving.
  std::unordered_map<std::string, std::uint64_t> names_;
  /// Replication feed per shard; 0 until first use.
  std::vector<serve::Connection_id> feeds_;
  std::optional<Shutdown> shutdown_;
  bool shutdown_requested_ = false;

  std::atomic<std::uint64_t> replica_failovers_{0};
  std::atomic<std::uint64_t> repairs_{0};
  std::atomic<std::uint64_t> replica_lag_{0};
};

}  // namespace quest::cluster
