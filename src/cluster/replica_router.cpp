#include "quest/cluster/replica_router.hpp"

#include <algorithm>
#include <deque>
#include <utility>
#include <variant>

#include "quest/cluster/backend.hpp"
#include "quest/common/error.hpp"
#include "quest/io/fingerprint.hpp"
#include "quest/store/jsonl.hpp"

namespace quest::cluster {

namespace {

std::uint64_t fingerprint_of(const io::Instance_document& document) {
  return io::fingerprint(
      document.instance,
      document.precedence ? &*document.precedence : nullptr);
}

/// The numeric field `key` of an object, 0 when absent or not a number.
double number_field(const io::Json& object, std::string_view key) {
  const io::Json* field = object.find(key);
  return field != nullptr && field->is_number() ? field->as_number() : 0.0;
}

}  // namespace

Replica_router::Replica_router(Replica_options options,
                               serve::Tcp_transport& transport)
    : options_(std::move(options)),
      transport_(transport),
      map_(std::max<std::size_t>(options_.backends.size(), 1),
           options_.ring_points),
      journal_(options_.journal),
      health_(Health_options{options_.backends, options_.probe_interval,
                             options_.max_backoff},
              [this](std::size_t shard) {
                transport_.post([this, shard] { heal_shard(shard); });
              }),
      feeds_(options_.backends.size(), 0) {
  QUEST_EXPECTS(!options_.backends.empty(),
                "replica router needs at least one backend");
  QUEST_EXPECTS(options_.replicas >= 1 &&
                    options_.replicas <= options_.backends.size(),
                "replication factor must satisfy 1 <= R <= backends");
  QUEST_EXPECTS(options_.max_line_bytes >= 2,
                "max_line_bytes must hold at least a tiny op");
  health_.start();
}

// The transport's teardown already closed every link; only the prober
// (and with it any further heal post) has to stop.
Replica_router::~Replica_router() { health_.stop(); }

bool Replica_router::serve() {
  serve::Transport::Handlers handlers;
  handlers.on_open = [this](serve::Connection_id id) { on_open(id); };
  handlers.on_data = [this](serve::Connection_id id,
                            std::string_view chunk) { on_data(id, chunk); };
  handlers.on_close = [this](serve::Connection_id id) { on_close(id); };
  transport_.run(handlers);
  return shutdown_requested_;
}

void Replica_router::on_open(serve::Connection_id id) {
  auto client = std::make_unique<Client>();
  client->id = id;
  client->framer = serve::Line_framer(options_.max_line_bytes);
  client->links.resize(options_.backends.size(), 0);
  clients_.emplace(id, std::move(client));
}

void Replica_router::on_data(serve::Connection_id id,
                             std::string_view chunk) {
  if (const auto found = clients_.find(id); found != clients_.end()) {
    if (shutdown_) return;  // the fleet is going down: no new ops
    Client& client = *found->second;
    client.framer.feed(
        chunk, [&](std::string_view line) { return handle_line(client, line); },
        [&] {
          transport_.send(
              id, serve::line_overflow_event(options_.max_line_bytes).dump());
        });
    return;
  }
  if (const auto found = links_.find(id); found != links_.end()) {
    Link& link = found->second;
    link.framer.feed(
        chunk,
        [&](std::string_view line) {
          handle_backend_line(id, link, line);
          return true;
        },
        [] {});
  }
}

void Replica_router::on_close(serve::Connection_id id) {
  const auto found = clients_.find(id);
  if (found == clients_.end()) {
    link_down(id);
    return;
  }
  for (const serve::Connection_id link : found->second->links) {
    if (link == 0) continue;
    Link& state = links_.at(link);
    if (state.shutdown_member) {
      // Still owes the shutdown its answer: keep it, swallowing events.
      state.client = nullptr;
      continue;
    }
    links_.erase(link);
    transport_.close(link);
  }
  if (shutdown_ && shutdown_->client == id) shutdown_->client = 0;
  clients_.erase(found);
}

bool Replica_router::handle_line(Client& client, std::string_view line) {
  serve::Decoded_line decoded = serve::decode_line(line);
  if (decoded.refusal) transport_.send(client.id, decoded.refusal->dump());
  if (!decoded.op) return true;
  const serve::Op& op = *decoded.op;
  // register, observe and refit fan out to their instance's owners.
  std::optional<std::uint64_t> fan_out_key;
  if (const auto* reg = std::get_if<serve::Register_op>(&op)) {
    fan_out_key = fingerprint_of(reg->document);
    // Journal before forwarding: even a register that sheds (whole owner
    // set down) is replayable the moment an owner comes back.
    journal_.record(*fan_out_key, reg->name, std::string(line));
    names_[reg->name] = *fan_out_key;
  } else if (const auto* optimize = std::get_if<serve::Optimize_op>(&op)) {
    route_optimize(client, *optimize, line);
  } else if (const auto* batch = std::get_if<serve::Batch_op>(&op)) {
    // Each element goes to the shard that owns it, as its own optimize.
    transport_.send(client.id,
                    serve::batch_event(batch->id, batch->requests.size())
                        .dump());
    const std::vector<std::string> elements =
        serve::batch_element_lines(line, *batch);
    for (std::size_t index = 0; index < elements.size(); ++index) {
      route_optimize(client, batch->requests[index], elements[index]);
    }
  } else if (const auto* cancel = std::get_if<serve::Cancel_op>(&op)) {
    const auto route = client.routes.find(cancel->id);
    if (route == client.routes.end()) {
      transport_.send(client.id,
                      serve::cancel_event(cancel->id, false).dump());
    } else {
      const std::size_t shard =
          route->second.owners[route->second.owner_index];
      client.routes.erase(route);
      if (!send_to(client, shard, line)) shed(client, cancel->id, shard);
    }
  } else if (const auto* observe = std::get_if<serve::Observe_op>(&op)) {
    fan_out_key = resolve_instance(client, *observe, {});
  } else if (const auto* refit = std::get_if<serve::Refit_op>(&op)) {
    fan_out_key = resolve_instance(client, *refit, {});
  } else if (std::holds_alternative<serve::Stats_op>(op)) {
    handle_stats(client, line);
  } else {
    // To every backend; the merged pair goes out once each has answered.
    shutdown_.emplace();
    shutdown_->client = client.id;
    shutdown_->drain = std::get<serve::Shutdown_op>(op).drain;
    for (std::size_t shard = 0; shard < options_.backends.size(); ++shard) {
      const serve::Connection_id link =
          open_link(client.links[shard], shard, &client);
      if (!send_on(link, line)) continue;
      links_.at(link).shutdown_member = true;
      ++shutdown_->pending;
    }
    if (shutdown_->pending == 0) finish_shutdown();
    return false;
  }
  if (fan_out_key) {
    fan_out(client, map_.replicas(*fan_out_key, options_.replicas), line);
  }
  return true;
}

template <typename Instance_op>
std::optional<std::uint64_t> Replica_router::resolve_instance(
    Client& client, const Instance_op& op, const std::string& id) {
  if (op.inline_instance) return fingerprint_of(*op.inline_instance);
  const auto found = names_.find(op.instance_name);
  if (found == names_.end()) {
    transport_.send(
        client.id,
        serve::unknown_instance_event(op.instance_name, id).dump());
    return std::nullopt;
  }
  return found->second;
}

void Replica_router::route_optimize(Client& client,
                                    const serve::Optimize_op& op,
                                    std::string_view line) {
  const auto print = resolve_instance(client, op, op.id);
  if (!print) return;
  if (client.routes.contains(op.id)) {
    // The server refuses an id its client still has in flight; an owner
    // elsewhere on the ring would not know, so the router refuses too.
    transport_.send(client.id, serve::duplicate_id_event(op.id).dump());
    return;
  }
  std::vector<std::size_t> owners = map_.replicas(*print, options_.replicas);
  for (std::size_t index = 0; index < owners.size(); ++index) {
    if (!send_to(client, owners[index], line)) continue;
    client.routes[op.id] = Route{*print, std::move(owners), index,
                                 index > 0 ? 1u : 0u, std::string(line)};
    if (index > 0) {
      replica_failovers_.fetch_add(1, std::memory_order_relaxed);
    }
    return;
  }
  shed(client, op.id, owners.front());
}

void Replica_router::fan_out(Client& client,
                             const std::vector<std::size_t>& owners,
                             std::string_view line) {
  // The first reachable owner carries the client-visible ack; every
  // other owner gets the line best-effort over its replication feed.
  std::size_t acked = owners.size();
  for (std::size_t index = 0; index < owners.size(); ++index) {
    if (send_to(client, owners[index], line)) {
      acked = index;
      break;
    }
  }
  for (std::size_t index = 0; index < owners.size(); ++index) {
    if (index == acked) continue;
    if (!send_on(open_link(feeds_[owners[index]], owners[index], nullptr),
                 line)) {
      replica_lag_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (acked == owners.size()) shed(client, {}, owners.front());
}

void Replica_router::handle_stats(Client& client, std::string_view line) {
  if (client.merge_pending > 0) {
    transport_.send(
        client.id,
        serve::error_event("a stats merge is already in flight; retry", {})
            .dump());
    return;
  }
  std::vector<serve::Connection_id> members;
  for (std::size_t shard = 0; shard < options_.backends.size(); ++shard) {
    if (const auto link = open_link(client.links[shard], shard, &client)) {
      members.push_back(link);
    }
  }
  if (members.empty()) {
    transport_.send(client.id,
                    serve::error_event("all backend shards are unreachable",
                                       {}, "overloaded")
                        .dump());
    return;
  }
  client.merge_pending = members.size();
  client.merge_events.clear();
  for (const auto member : members) links_.at(member).merge_member = true;
  // A failed member's close settles its share of the merge.
  for (const auto member : members) send_on(member, line);
}

serve::Connection_id Replica_router::open_link(serve::Connection_id& slot,
                                               std::size_t shard,
                                               Client* client) {
  if (slot != 0) {
    // A closing link stays in its slot until its close comes back, so
    // the client's teardown still finds it; its shard is dead meanwhile.
    return links_.at(slot).closing ? 0 : slot;
  }
  if (!health_.alive(shard)) {
    health_.expedite(shard);
    return 0;
  }
  const auto link = transport_.connect(options_.backends[shard]);
  if (!link) {
    health_.mark_dead(shard);
    return 0;
  }
  Link& state = links_[*link];
  state.shard = shard;
  state.client = client;
  slot = *link;
  return slot;
}

bool Replica_router::send_on(serve::Connection_id link,
                             std::string_view line) {
  if (link == 0) return false;
  if (transport_.send(link, line)) return true;
  fail_link(link);
  return false;
}

bool Replica_router::send_to(Client& client, std::size_t shard,
                             std::string_view line) {
  return send_on(open_link(client.links[shard], shard, &client), line);
}

void Replica_router::fail_link(serve::Connection_id link) {
  Link& state = links_.at(link);
  if (state.closing) return;
  state.closing = true;
  health_.mark_dead(state.shard);
  transport_.close(link);
}

bool Replica_router::failover(Client& client, Route& route,
                              std::size_t avoiding) {
  if (route.hops >= route.owners.size()) return false;
  const std::size_t count = route.owners.size();
  for (std::size_t step = 1; step <= count; ++step) {
    const std::size_t index = (route.owner_index + step) % count;
    const std::size_t shard = route.owners[index];
    if (shard == avoiding) continue;
    if (!health_.alive(shard)) continue;
    if (!send_to(client, shard, route.line)) continue;
    route.owner_index = index;
    ++route.hops;
    replica_failovers_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

void Replica_router::shed(Client& client, const std::string& id,
                          std::size_t shard) {
  transport_.send(
      client.id,
      serve::error_event("backend shard " + std::to_string(shard) + " (" +
                             options_.backends[shard] +
                             ") and its replicas are unavailable; retry later",
                         id, "overloaded")
          .dump());
}

void Replica_router::handle_backend_line(serve::Connection_id id,
                                         Link& link, std::string_view line) {
  serve::Event_head event;
  try {
    event = serve::read_event(line);
  } catch (const std::exception&) {
    // Unreadable: no kind, so it is forwarded verbatim.
  }
  if (link.shutdown_member && fold_shutdown_event(link, event, line)) return;
  if (link.client == nullptr) {
    // A feed or a departed client's link swallows its events; on a feed
    // each one makes room for the next journal line of a replay.
    replay_next(id, link);
    return;
  }
  if (intercept(id, link, event, line)) return;
  if (event.event == "result") link.client->routes.erase(event.id);
  transport_.send(link.client->id, line);
}

bool Replica_router::intercept(serve::Connection_id id, Link& link,
                               const serve::Event_head& event,
                               std::string_view line) {
  Client& client = *link.client;
  if (link.merge_member && event.event == "stats") {
    io::Json stats;
    try {
      stats = io::Json::parse(line);
    } catch (const std::exception&) {
      return false;  // unparseable backend line: forward verbatim
    }
    link.merge_member = false;
    client.merge_events.push_back(std::move(stats));
    if (client.merge_events.size() >= client.merge_pending) {
      finish_merge(client);
    }
    return true;
  }

  if (event.event == "registered" && !link.repairs.empty()) {
    // Possibly the ack of a journal replay this router sent itself; the
    // client never asked, so it must not see it.
    std::uint64_t print = 0;
    if (!store::parse_hex64(event.fingerprint, print)) return false;
    const auto repair = link.repairs.find(print);
    if (repair == link.repairs.end()) return false;
    repairs_.fetch_add(1, std::memory_order_relaxed);
    for (const std::string& queued : repair->second) {
      // On failure the link's close fails the queued ops over.
      if (!send_on(id, queued)) break;
    }
    link.repairs.erase(repair);
    return true;
  }

  if (event.event != "error" || event.id.empty()) return false;
  const auto found = client.routes.find(event.id);
  if (found == client.routes.end() ||
      found->second.owners[found->second.owner_index] != link.shard) {
    return false;
  }
  Route& route = found->second;

  // The owning backend shed the request; another replica may have room
  // (and the same warm cache) — move it there silently.
  if (event.code == "overloaded" && failover(client, route, link.shard)) {
    return true;
  }

  if (event.code == "unknown-instance") {
    // A failover target (or freshly rejoined backend) is missing state
    // it owns: replay the journaled register on this same connection,
    // then re-send the op once the ack comes back — same link, so the
    // backend observes register-then-optimize in order.
    const std::string register_line = journal_.line_for(route.fingerprint);
    if (!register_line.empty()) {
      link.repairs[route.fingerprint].push_back(route.line);
      send_on(id, register_line);
      return true;
    }
  }
  // Any other error is the request's final answer (a shed with no
  // replica left, an unknown instance with nothing journaled, a bad
  // spec, a failed run): the client sees it and the route retires, so
  // the owner's later death cannot answer the request again.
  client.routes.erase(found);
  return false;
}

bool Replica_router::fold_shutdown_event(Link& link,
                                         const serve::Event_head& event,
                                         std::string_view line) {
  const bool down = event.event == "shutting-down";
  if (!down && event.event != "shutdown-complete") return false;
  io::Json counts;
  try {
    counts = io::Json::parse(line);
  } catch (const std::exception&) {
    return false;
  }
  if (down) {
    shutdown_->outstanding += number_field(counts, "outstanding");
    return true;
  }
  shutdown_->completed += number_field(counts, "completed");
  shutdown_->cancelled += number_field(counts, "cancelled");
  link.shutdown_member = false;
  if (--shutdown_->pending == 0) finish_shutdown();
  return true;
}

void Replica_router::link_down(serve::Connection_id id) {
  const auto found = links_.find(id);
  if (found == links_.end()) return;  // closed on purpose
  Link link = std::move(found->second);
  links_.erase(found);
  if (feeds_[link.shard] == id) feeds_[link.shard] = 0;

  if (shutdown_) {
    // Backends close their links as they stop: nothing fails over.
    if (link.client != nullptr) link.client->links[link.shard] = 0;
    if (link.shutdown_member && --shutdown_->pending == 0) {
      finish_shutdown();
    }
    return;
  }
  if (!link.closing) health_.mark_dead(link.shard);  // the backend left
  if (link.client == nullptr) return;  // replication feed: nothing routed
  Client& client = *link.client;
  client.links[link.shard] = 0;

  // Every id still routed at this shard fails over — this is the
  // mid-flight path that keeps a kill -9 invisible to clients.
  std::vector<std::string> abandoned;
  for (auto route = client.routes.begin(); route != client.routes.end();) {
    if (route->second.owners[route->second.owner_index] != link.shard) {
      ++route;
      continue;
    }
    if (failover(client, route->second, link.shard)) {
      ++route;
    } else {
      abandoned.push_back(route->first);
      route = client.routes.erase(route);
    }
  }
  for (const std::string& request_id : abandoned) {
    transport_.send(
        client.id,
        serve::error_event("backend shard " + std::to_string(link.shard) +
                               " (" + options_.backends[link.shard] +
                               ") dropped and no replica is live; retry later",
                           request_id, "overloaded")
            .dump());
  }

  if (link.merge_member) {
    if (client.merge_pending > 0) --client.merge_pending;
    if (client.merge_pending == 0) {
      client.merge_events.clear();
      transport_.send(client.id,
                      serve::error_event(
                          "all backend shards dropped during stats merge",
                          {}, "overloaded")
                          .dump());
    } else if (client.merge_events.size() >= client.merge_pending) {
      finish_merge(client);
    }
  }
}

void Replica_router::finish_merge(Client& client) {
  const io::Json merged = merge_stats_events(
      client.merge_events,
      {.shards = options_.backends.size(),
       .replicas = options_.replicas,
       .shards_degraded = health_.degraded_count(),
       .replica_failovers = replica_failovers(),
       .repairs = repairs(),
       .replica_lag = replica_lag()});
  client.merge_pending = 0;
  client.merge_events.clear();
  transport_.send(client.id, merged.dump());
}

void Replica_router::finish_shutdown() {
  if (shutdown_->client != 0) {
    transport_.send(shutdown_->client,
                    serve::shutting_down_event(shutdown_->outstanding,
                                               shutdown_->drain)
                        .dump());
    transport_.send(shutdown_->client,
                    serve::shutdown_complete_event(shutdown_->completed,
                                                   shutdown_->cancelled)
                        .dump());
  }
  shutdown_requested_ = true;
  transport_.stop();
}

void Replica_router::heal_shard(std::size_t shard) {
  // A dead shard came back: replay every journaled registration it owns
  // over its replication feed.
  std::deque<std::string> owned;
  for (const Journal_entry& entry : journal_.entries()) {
    const std::vector<std::size_t> owners =
        map_.replicas(entry.fingerprint, options_.replicas);
    if (std::find(owners.begin(), owners.end(), shard) != owners.end()) {
      owned.push_back(entry.line);
    }
  }
  if (owned.empty()) return;
  const serve::Connection_id feed = open_link(feeds_[shard], shard, nullptr);
  if (feed == 0) {
    replica_lag_.fetch_add(1, std::memory_order_relaxed);
    return;  // the shard flapped again; the next dead->live retries
  }
  Link& link = links_.at(feed);
  link.replay = std::move(owned);
  replay_next(feed, link);
}

void Replica_router::replay_next(serve::Connection_id feed, Link& link) {
  if (link.replay.empty()) return;
  if (!send_on(feed, link.replay.front())) {
    replica_lag_.fetch_add(1, std::memory_order_relaxed);
    link.replay.clear();  // the next dead->live retries
    return;
  }
  link.replay.pop_front();
  repairs_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace quest::cluster
