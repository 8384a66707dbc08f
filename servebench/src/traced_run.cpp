// The traced run. Three parts share the --seconds budget:
//
//  A. Layer replay: the workload's generated lines run in this process
//     through the public functions each layer exposes, in the order
//     quest_router and quest_serve call them, each call inside a span.
//     Requests alternate between tracing on and off, which prices the
//     tracing itself.
//  B. In-process server: serve::Server::handle_line with in-memory event
//     sinks, k_connections closed-loop sessions, no sockets — the whole
//     request as the server runs it.
//  C. Over TCP: the real deployment again, to price what the replay
//     cannot see: transport (TCP p50 minus B's p50), the router hop
//     (through-router p50 minus direct-to-owner p50 on the same lines)
//     and the fleet's merged stats.

#include <condition_variable>
#include <deque>
#include <filesystem>
#include <map>
#include <set>
#include <mutex>
#include <optional>
#include <sstream>
#include <unordered_map>

#include "checks.hpp"
#include "fleet.hpp"
#include "load.hpp"
#include "outcome.hpp"
#include "procfs.hpp"
#include "quest/cluster/registration_journal.hpp"
#include "quest/core/engines.hpp"
#include "quest/io/fingerprint.hpp"
#include "quest/io/instance_io.hpp"
#include "quest/model/cost.hpp"
#include "quest/opt/registry.hpp"
#include "quest/serve/instance_store.hpp"
#include "quest/serve/plan_cache.hpp"
#include "quest/serve/protocol.hpp"
#include "quest/serve/server.hpp"
#include "quest/store/shard_map.hpp"
#include "sampling.hpp"
#include "trace.hpp"

namespace servebench {

using namespace quest;

namespace {

using Clock = std::chrono::steady_clock;

// Shares of --seconds: part A replays for this long, parts B and C then
// drive the same timed lines (about as long again together), and the
// fleets' hop sample takes the last share.
constexpr double k_replay_share = 0.5;
constexpr double k_hop_share = 0.1;
// At most this many timed lines are replayed: enough for a p99 with
// plenty of samples beyond it, without a span file of hundreds of MB.
constexpr std::size_t k_max_lines = 20000;

double micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

Clock::time_point after(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

/// Counts recorded with the spans (only while tracing is on).
struct Replay_counts {
  std::size_t timed_optimizes = 0;
  std::size_t lookups = 0;
  std::size_t hits = 0;
  std::size_t searches = 0;
  double work = 0;
  double prunes = 0;
  std::size_t optimal = 0;
  double bytes = 0;
  std::size_t timed_ops = 0;
};

/// One deployment's request path, replayed in this process.
class Replay {
 public:
  Replay(const Workload& workload, Tracer& tracer,
         const std::string& journal_path)
      : workload_(workload),
        tracer_(tracer),
        cache_(workload.deployment.cache_capacity) {
    const Deployment& d = workload.deployment;
    if (d.replicas > 0) map_.emplace(d.backends);
    if (d.replicas > 1) {
      cluster::Journal_options options;
      options.path = journal_path;
      journal_.emplace(options);
    }
  }

  /// Runs one request; returns the event the client would read.
  std::string run(const Request& request, std::uint64_t id, bool timed) {
    id_ = id;
    timed_ = timed;
    counting_ = tracer_.enabled && timed;
    Scope root(tracer_, Span_name::request, id, timed);
    std::string answer = request.kind == Op_kind::register_op
                             ? run_register(request)
                             : run_optimize(request);
    if (counting_) {
      ++counts.timed_ops;
      counts.bytes += static_cast<double>(request.line.size() + answer.size());
    }
    return answer;
  }

  Replay_counts counts;
  /// The plan of the last optimize answer (for the model.eval probe).
  model::Plan last_plan;

 private:
  /// Runs `call` inside a span of the current request.
  template <typename Call>
  auto span(Span_name name, Call&& call) {
    Scope scope(tracer_, name, id_, timed_);
    return call();
  }

  std::vector<std::size_t> route(std::uint64_t print) {
    const std::size_t r = workload_.deployment.replicas;
    if (r > 1) {
      return span(Span_name::replicas,
                  [&] { return map_->replicas(print, r); });
    }
    return span(Span_name::shard_of, [&] {
      return std::vector<std::size_t>{map_->shard_of(print)};
    });
  }

  std::string run_register(const Request& request) {
    std::size_t deliveries = 1;
    if (map_) {
      const io::Json doc = span(Span_name::router_parse,
                                [&] { return io::Json::parse(request.line); });
      const io::Instance_document document = span(
          Span_name::router_decode,
          [&] { return io::instance_from_json(doc.at("instance")); });
      const std::uint64_t print = span(Span_name::router_fingerprint, [&] {
        return io::fingerprint(
            document.instance,
            document.precedence ? &*document.precedence : nullptr);
      });
      const std::string name = doc.at("name").as_string();
      if (journal_) {
        span(Span_name::journal_record, [&] {
          journal_->record(print, name, request.line);
          return 0;
        });
      }
      names_[name] = print;
      deliveries = route(print).size();
    }
    std::string ack;
    for (std::size_t delivery = 0; delivery < deliveries; ++delivery) {
      serve::Op op = span(Span_name::parse_op,
                          [&] { return serve::parse_op(request.line); });
      auto& reg = std::get<serve::Register_op>(op);
      bool replaced = false;
      const auto entry = span(Span_name::store_put, [&] {
        return store_.put(std::move(reg.name), std::move(reg.document.instance),
                          std::move(reg.document.precedence), &replaced);
      });
      std::string event = span(Span_name::encode, [&] {
        return serve::registered_event(entry->name, entry->instance.size(),
                                       entry->fingerprint, replaced)
            .dump();
      });
      if (delivery == 0) ack = std::move(event);
    }
    return ack;
  }

  std::string run_optimize(const Request& request) {
    if (map_) {
      const io::Json doc = span(Span_name::router_parse,
                                [&] { return io::Json::parse(request.line); });
      route(names_.at(doc.at("instance").as_string()));
    }
    serve::Op parsed = span(Span_name::parse_op,
                            [&] { return serve::parse_op(request.line); });
    auto& op = std::get<serve::Optimize_op>(parsed);
    std::shared_ptr<const serve::Stored_instance> problem;
    if (op.inline_instance) {
      problem = span(Span_name::fingerprint, [&] {
        auto entry = std::make_shared<serve::Stored_instance>(
            serve::Stored_instance{{},
                                   std::move(op.inline_instance->instance),
                                   std::move(op.inline_instance->precedence),
                                   0});
        entry->fingerprint =
            io::fingerprint(entry->instance, entry->precedence_ptr());
        return std::shared_ptr<const serve::Stored_instance>(std::move(entry));
      });
    } else {
      problem = span(Span_name::store_get,
                     [&] { return store_.get(op.instance_name); });
    }
    if (problem == nullptr) {
      throw std::runtime_error("replay: unknown instance");
    }
    const std::size_t n = problem->instance.size();
    const auto [model, model_key] = span(Span_name::model_bind, [&] {
      model::Cost_model bound =
          opt::spec_model_override(op.optimizer, op.model.bind(n), n);
      std::string bound_key = bound.key();
      return std::pair{std::move(bound), std::move(bound_key)};
    });
    const serve::Cache_key key{problem->fingerprint, model_key, op.optimizer,
                               serve::budget_class(op.budget), op.seed};
    if (counting_) ++counts.timed_optimizes;
    if (op.cache) {
      const std::optional<serve::Cached_plan> cached =
          span(Span_name::cache_lookup, [&] { return cache_.lookup(key); });
      if (counting_) {
        ++counts.lookups;
        if (cached) ++counts.hits;
      }
      if (cached) {
        last_plan = cached->plan;
        return span(Span_name::encode, [&] {
          return serve::result_event(op.id, cached->termination, cached->plan,
                                     cached->cost, true,
                                     cached->proven_optimal, true, false,
                                     model_key, 0.0, nullptr)
              .dump();
        });
      }
    }
    const auto optimizer = span(Span_name::opt_build, [&] {
      return core::make_optimizer(op.optimizer);
    });
    opt::Request search;
    search.instance = &problem->instance;
    search.precedence = problem->precedence_ptr();
    search.budget = op.budget;
    search.seed = op.seed;
    search.model = model;
    const opt::Result result = span(
        Span_name::opt_search, [&] { return optimizer->optimize(search); });
    if (counting_) {
      ++counts.searches;
      counts.work += static_cast<double>(result.stats.work());
      counts.prunes += static_cast<double>(result.stats.total_prunes());
      if (result.proven_optimal) ++counts.optimal;
    }
    const bool complete = result.plan.size() == n;
    if (complete && op.cache) {
      span(Span_name::cache_insert, [&] {
        cache_.insert(key, serve::Cached_plan{result.plan, result.cost,
                                              result.termination,
                                              result.proven_optimal});
        return 0;
      });
    }
    last_plan = result.plan;
    return span(Span_name::encode, [&] {
      return serve::result_event(op.id, result.termination, result.plan,
                                 result.cost, complete, result.proven_optimal,
                                 false, false, model_key,
                                 result.elapsed_seconds, &result.stats)
          .dump();
    });
  }

  const Workload& workload_;
  Tracer& tracer_;
  serve::Instance_store store_;
  serve::Plan_cache cache_;
  std::optional<store::Shard_map> map_;
  std::optional<cluster::Registration_journal> journal_;
  /// The router's name -> fingerprint table.
  std::unordered_map<std::string, std::uint64_t> names_;
  /// The request being replayed.
  std::uint64_t id_ = 0;
  bool timed_ = false;
  bool counting_ = false;
};

void check_into(Outcome& outcome, const Workload& workload,
                const Request& request, const std::string& answer) {
  ++outcome.attempted;
  const Verdict verdict =
      check_answer(request, workload.catalog[request.entry], answer);
  if (!verdict.ok) outcome.fail(request.id + ": " + verdict.reason);
}

struct Replay_result {
  std::vector<Span> spans;
  Replay_counts counts;
  std::vector<double> traced_us;    ///< whole request, tracing on
  std::vector<double> untraced_us;  ///< the same requests, tracing off
  std::vector<double> json_parse_us;
  std::vector<double> doc_decode_us;
  /// The timed lines replayed: the first `lines` of the timed sequence,
  /// which parts B and C drive again.
  std::vector<Request> lines;
};

/// Part A.
Replay_result replay_layers(const Workload& workload, double seconds,
                            const std::string& temp_dir,
                            const std::string& csv_path, Outcome& outcome) {
  Tracer tracer;
  Replay replay(workload, tracer, temp_dir + "/journal.jsonl");
  Replay_result out;
  std::uint64_t id = 0;
  for (const auto& phase : workload.setup) {
    for (const Request& request : phase) {
      check_into(outcome, workload, request, replay.run(request, id++, false));
    }
  }
  const auto deadline = after(seconds);
  for (std::size_t i = 0; Clock::now() < deadline && i < k_max_lines; ++i) {
    const Request& request = workload.timed[i % workload.timed.size()];
    out.lines.push_back(request);
    const std::uint64_t request_id = id++;
    // Alternate which mode goes first so neither always finds the
    // caches warmer.
    for (int pass = 0; pass < 2; ++pass) {
      tracer.enabled = (pass == 0) == (i % 2 == 0);
      const Clock::time_point start = Clock::now();
      const std::string answer = replay.run(request, request_id, true);
      const double elapsed = micros(Clock::now() - start);
      (tracer.enabled ? out.traced_us : out.untraced_us).push_back(elapsed);
      if (tracer.enabled) {
        check_into(outcome, workload, request, answer);
        if (request.kind == Op_kind::optimize) {
          Scope span(tracer, Span_name::model_eval, request_id, true);
          model::bottleneck_cost(workload.catalog[request.entry].instance,
                                 replay.last_plan, model::Cost_model{});
        }
      }
    }
    tracer.enabled = true;
    // The io split of the server's parse_op: the same line, parsed and
    // (when it carries a document) decoded on its own.
    const Clock::time_point parse_start = Clock::now();
    const io::Json doc = io::Json::parse(request.line);
    out.json_parse_us.push_back(micros(Clock::now() - parse_start));
    const io::Json& instance = doc.at("instance");
    if (!instance.is_string()) {
      const Clock::time_point decode_start = Clock::now();
      const io::Instance_document document = io::instance_from_json(instance);
      out.doc_decode_us.push_back(micros(Clock::now() - decode_start));
    }
  }
  if (!tracer.write_csv(csv_path)) {
    throw std::runtime_error("cannot write " + csv_path);
  }
  out.spans = std::move(tracer.spans);
  out.counts = replay.counts;
  return out;
}

struct Inproc_result {
  std::vector<double> latency_us;
  std::vector<double> queue_wait_us;
  double max_concurrent = 0;
};

/// Part B: serve::Server with k_connections closed-loop sessions driven
/// from this thread (the transport thread's role) over `lines`.
Inproc_result run_inproc(const Workload& workload,
                         const std::vector<Request>& lines,
                         Outcome& outcome) {
  struct Slot {
    std::string terminal;
    Clock::time_point admitted;
    Clock::time_point finished;
  };
  std::mutex mutex;
  std::condition_variable changed;
  std::vector<Slot> slots(k_connections);
  std::deque<std::size_t> finished;

  serve::Server_options options;
  options.workers = workload.deployment.workers;
  options.cache_capacity = workload.deployment.cache_capacity;
  options.queue_cap = 1024;  // quest_serve's TCP default
  serve::Server server(options);
  std::vector<serve::Server::Session_ptr> sessions;
  for (std::size_t s = 0; s < k_connections; ++s) {
    sessions.push_back(server.open_session([&, s](const io::Json& event) {
      const std::string kind = event.at("event").as_string();
      const Clock::time_point now = Clock::now();
      if (kind == "incumbent") return;
      std::lock_guard<std::mutex> lock(mutex);
      if (kind == "admitted") {
        slots[s].admitted = now;
        return;
      }
      slots[s].terminal = event.dump();
      slots[s].finished = now;
      finished.push_back(s);
      changed.notify_one();
    }));
  }
  auto wait_any = [&] {
    std::unique_lock<std::mutex> lock(mutex);
    changed.wait(lock, [&] { return !finished.empty(); });
    const std::size_t s = finished.front();
    finished.pop_front();
    return s;
  };
  auto submit = [&](std::size_t s, const Request& request) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      slots[s] = Slot{};
    }
    server.handle_line(sessions[s], request.line);
  };

  for (const auto& phase : workload.setup) {
    for (const Request& request : phase) {
      submit(0, request);
      wait_any();
      check_into(outcome, workload, request, slots[0].terminal);
    }
  }

  Inproc_result result;
  std::vector<std::size_t> assigned(k_connections);
  std::vector<Clock::time_point> sent(k_connections);
  std::size_t next = 0;
  std::size_t active = 0;
  auto start_next = [&](std::size_t s) {
    if (next == lines.size()) return;
    assigned[s] = next++;
    sent[s] = Clock::now();
    ++active;
    submit(s, lines[assigned[s]]);
  };
  for (std::size_t s = 0; s < k_connections; ++s) start_next(s);
  while (active > 0) {
    const std::size_t s = wait_any();
    Slot slot;
    {
      std::lock_guard<std::mutex> lock(mutex);
      slot = slots[s];
    }
    --active;
    const Request& request = lines[assigned[s]];
    check_into(outcome, workload, request, slot.terminal);
    result.latency_us.push_back(micros(slot.finished - sent[s]));
    if (request.kind == Op_kind::optimize) {
      const io::Json event = io::Json::parse(slot.terminal);
      const io::Json* cached = event.find("cached");
      if (cached != nullptr && !cached->as_bool()) {
        // Admission to result, minus the engine's own time.
        result.queue_wait_us.push_back(
            micros(slot.finished - slot.admitted) -
            event.at("elapsed_seconds").as_number() * 1e6);
      }
    }
    start_next(s);
  }
  result.max_concurrent = static_cast<double>(server.stats().max_concurrent);
  for (const auto& session : sessions) server.close_session(session);
  server.shutdown();
  return result;
}

struct Tcp_result {
  std::vector<double> window_us;  ///< closed-loop window latencies
  std::vector<double> router_us;  ///< sequential sample through the router
  std::vector<double> direct_us;  ///< the same lines straight to the owner
  Server_counters counters;
  double names = 0;
};

/// Part C: the deployment over TCP, driving `lines` again.
Tcp_result run_tcp(const Workload& workload, const Run_options& options,
                   const std::vector<Request>& lines, Outcome& outcome) {
  Tcp_result result;
  Fleet fleet(workload.deployment, options.bin_dir, options.work_dir);
  auto clients = connect_clients(fleet.front_port());
  std::set<std::string> names;
  auto record = [&](const std::vector<Request>& sequence,
                    const Load_result& load, std::vector<double>* latencies) {
    const Checked checked =
        check_exchanges(workload, sequence, load, outcome);
    for (std::size_t i = 0; latencies != nullptr && i < checked.ok.size();
         ++i) {
      if (checked.ok[i]) {
        latencies->push_back(load.exchanges[i].latency_seconds * 1e6);
      }
    }
  };
  for (const auto& phase : workload.setup) {
    record(phase, run_all(clients, phase), nullptr);
    for (const Request& request : phase) {
      if (request.kind == Op_kind::register_op) {
        names.insert(workload.catalog[request.entry].name);
      }
    }
  }
  record(lines, run_all(clients, lines), &result.window_us);
  clients.clear();

  if (workload.deployment.replicas > 0) {
    // Through the router and straight to the owning backend, the same
    // lines alternately on one connection each.
    const store::Shard_map map(workload.deployment.backends);
    Connection router(fleet.front_port());
    std::vector<std::unique_ptr<Connection>> backends;
    for (const std::uint16_t port : fleet.backend_ports()) {
      backends.push_back(std::make_unique<Connection>(port));
    }
    const auto deadline = after(options.seconds * k_hop_share);
    for (std::size_t i = 0; Clock::now() < deadline; ++i) {
      const Request& request = workload.timed[i % workload.timed.size()];
      if (request.kind != Op_kind::optimize) continue;
      Connection& owner =
          *backends[map.shard_of(workload.catalog[request.entry].fingerprint)];
      for (int pass = 0; pass < 2; ++pass) {
        const bool via_router = (pass == 0) == (i % 2 == 0);
        Connection& connection = via_router ? router : owner;
        const Clock::time_point start = Clock::now();
        const std::string answer = connection.exchange(request.line);
        (via_router ? result.router_us : result.direct_us)
            .push_back(micros(Clock::now() - start));
        check_into(outcome, workload, request, answer);
      }
    }
  }
  {
    Connection control(fleet.front_port());
    result.counters = query_stats(control);
  }
  result.names = static_cast<double>(names.size());
  if (fleet.shutdown() != 0) outcome.fail("a quest process exited uncleanly");
  return result;
}

double p50(const std::vector<double>& samples) {
  return samples.empty() ? 0.0 : percentile(samples, 0.5);
}

}  // namespace

Outcome run_traced(const Workload& workload, const Run_options& options) {
  Outcome outcome;
  std::string temp = options.work_dir + "/replay-XXXXXX";
  if (::mkdtemp(temp.data()) == nullptr) {
    throw std::runtime_error("cannot create a temp dir under " +
                             options.work_dir);
  }
  const std::uint64_t steal_before = steal_ticks();
  Replay_result replay;
  try {
    replay = replay_layers(workload, options.seconds * k_replay_share, temp,
                           options.work_dir + "/trace-" + workload.name +
                               ".csv",
                           outcome);
  } catch (...) {
    std::filesystem::remove_all(temp);
    throw;
  }
  std::filesystem::remove_all(temp);
  const Inproc_result inproc = run_inproc(workload, replay.lines, outcome);
  const Tcp_result tcp = run_tcp(workload, options, replay.lines, outcome);
  outcome.steal_ticks = steal_ticks() - steal_before;

  // Per-call durations by span name, and self time by layer over the
  // timed request trees.
  std::map<Span_name, std::vector<double>> durations;
  std::map<Layer, double> layer_self;
  double total_self = 0.0;
  std::map<std::uint64_t, double> backend_self;  // timed optimizes only
  const std::vector<std::int64_t> self = self_times(replay.spans);
  std::set<std::uint64_t> optimizes;
  for (std::size_t i = 0; i < replay.spans.size(); ++i) {
    const Span& span = replay.spans[i];
    durations[span.name].push_back(
        static_cast<double>(span.end_ns - span.start_ns) / 1e3);
    const Span_info& meta = info(span.name);
    if (!span.timed || span.parent == 0) continue;
    const double self_us = static_cast<double>(self[i]) / 1e3;
    layer_self[meta.layer] += self_us;
    total_self += self_us;
    if (meta.backend) backend_self[span.request] += self_us;
    if (span.name == Span_name::opt_search ||
        span.name == Span_name::cache_lookup) {
      optimizes.insert(span.request);
    }
  }
  std::vector<double> backend_sums;
  for (const auto& [request, sum] : backend_self) {
    if (optimizes.count(request) != 0) backend_sums.push_back(sum);
  }
  auto span_p50 = [&](Span_name name) {
    const auto found = durations.find(name);
    return found == durations.end() ? 0.0 : p50(found->second);
  };
  auto share = [&](std::initializer_list<Layer> layers) {
    double sum = 0.0;
    for (const Layer layer : layers) sum += layer_self[layer];
    return total_self > 0.0 ? sum / total_self : 0.0;
  };
  const Replay_counts& counts = replay.counts;
  auto per = [](double value, std::size_t count) {
    return count == 0 ? 0.0 : value / static_cast<double>(count);
  };

  std::vector<double> fingerprints = durations[Span_name::fingerprint];
  const auto& router_prints = durations[Span_name::router_fingerprint];
  fingerprints.insert(fingerprints.end(), router_prints.begin(),
                      router_prints.end());
  const double inproc_p50 = p50(inproc.latency_us);
  const bool fleet = workload.deployment.replicas > 0;
  const double tcp_p50 = fleet ? p50(tcp.direct_us) : p50(tcp.window_us);

  outcome.add("io.json_parse_us", p50(replay.json_parse_us), "us",
              replay.json_parse_us.size());
  outcome.add("io.doc_decode_us", p50(replay.doc_decode_us), "us",
              replay.doc_decode_us.size());
  outcome.add("io.fingerprint_us", p50(fingerprints), "us",
              fingerprints.size());
  outcome.add("io.bytes_per_op", per(counts.bytes, counts.timed_ops), "bytes",
              counts.timed_ops);
  outcome.add("protocol.parse_op_us", span_p50(Span_name::parse_op), "us",
              durations[Span_name::parse_op].size());
  outcome.add("protocol.encode_us", span_p50(Span_name::encode), "us",
              durations[Span_name::encode].size());
  outcome.add("plan_cache.lookup_us", span_p50(Span_name::cache_lookup), "us",
              durations[Span_name::cache_lookup].size());
  outcome.add("plan_cache.lookups", static_cast<double>(counts.lookups),
              "count");
  outcome.add("plan_cache.hit_ratio", per(static_cast<double>(counts.hits),
                                          counts.lookups),
              "ratio", counts.lookups);
  outcome.add("instance_store.put_us", span_p50(Span_name::store_put), "us",
              durations[Span_name::store_put].size());
  outcome.add("instance_store.get_us", span_p50(Span_name::store_get), "us",
              durations[Span_name::store_get].size());
  outcome.add("server.inproc_p50_us", inproc_p50, "us",
              inproc.latency_us.size());
  outcome.add("server.inproc_p99_us",
              inproc.latency_us.empty() ? 0.0
                                        : percentile(inproc.latency_us, 0.99),
              "us", inproc.latency_us.size());
  outcome.add("server.queue_wait_us", p50(inproc.queue_wait_us), "us",
              inproc.queue_wait_us.size());
  outcome.add("server.max_concurrent", inproc.max_concurrent, "count");
  outcome.add("transport.overhead_us", tcp_p50 - inproc_p50, "us",
              fleet ? tcp.direct_us.size() : tcp.window_us.size());
  outcome.add("opt.build_us", span_p50(Span_name::opt_build), "us",
              durations[Span_name::opt_build].size());
  const auto& searches = durations[Span_name::opt_search];
  outcome.add("opt.search_p50_us", p50(searches), "us", searches.size());
  outcome.add("opt.search_p99_us",
              searches.empty() ? 0.0 : percentile(searches, 0.99), "us",
              searches.size());
  outcome.add("opt.work_per_op", per(counts.work, counts.timed_optimizes),
              "count", counts.timed_optimizes);
  outcome.add("opt.prunes_per_op", per(counts.prunes, counts.timed_optimizes),
              "count", counts.timed_optimizes);
  outcome.add("opt.optimal_share",
              per(static_cast<double>(counts.optimal), counts.searches),
              "ratio", counts.searches);
  outcome.add("model.eval_us", span_p50(Span_name::model_eval), "us",
              durations[Span_name::model_eval].size());
  outcome.add("model.bind_us", span_p50(Span_name::model_bind), "us",
              durations[Span_name::model_bind].size());
  outcome.add("store.shard_of_us", span_p50(Span_name::shard_of), "us",
              durations[Span_name::shard_of].size());
  outcome.add("store.replicas_us", span_p50(Span_name::replicas), "us",
              durations[Span_name::replicas].size());
  outcome.add("router.hop_us",
              fleet ? p50(tcp.router_us) - p50(tcp.direct_us) : 0.0, "us",
              tcp.router_us.size());
  outcome.add("cluster.journal_record_us",
              span_p50(Span_name::journal_record), "us",
              durations[Span_name::journal_record].size());
  // Registered copies across the fleet per registered name, from the
  // fleet's own (merged) stats.
  outcome.add("cluster.fanout_per_write",
              tcp.names > 0 ? tcp.counters.instances / tcp.names : 0.0,
              "ratio");
  outcome.add("cluster.replica_lag", tcp.counters.replica_lag, "count");
  outcome.add("cluster.replica_failovers", tcp.counters.replica_failovers,
              "count");
  const double untraced_p50 = p50(replay.untraced_us);
  outcome.add("trace.overhead_ratio",
              untraced_p50 > 0.0 ? p50(replay.traced_us) / untraced_p50 - 1.0
                                 : 0.0,
              "ratio", replay.traced_us.size());
  outcome.add("trace.reconcile_gap",
              inproc_p50 > 0.0 ? p50(backend_sums) / inproc_p50 - 1.0 : 0.0,
              "ratio", backend_sums.size());
  outcome.add("self_share.codec", share({Layer::io, Layer::protocol}), "ratio");
  outcome.add("self_share.opt", share({Layer::opt}), "ratio");
  outcome.add("self_share.cache",
              share({Layer::plan_cache, Layer::instance_store}), "ratio");
  outcome.add("self_share.model", share({Layer::model}), "ratio");
  outcome.add("self_share.routing", share({Layer::store, Layer::cluster}),
              "ratio");

  std::ostringstream note;
  note << replay.spans.size() << " spans written to trace-" << workload.name
       << ".csv in the work dir; replay " << replay.traced_us.size()
       << " traced + " << replay.untraced_us.size()
       << " untraced requests, in-process server "
       << inproc.latency_us.size() << ", TCP window "
       << tcp.window_us.size() << ", hop sample " << tcp.router_us.size();
  outcome.notes.push_back(note.str());
  return outcome;
}

}  // namespace servebench
