#include "quest/serve/protocol.hpp"

#include <algorithm>
#include <iterator>
#include <optional>
#include <string_view>
#include <utility>

#include "quest/common/error.hpp"
#include "quest/io/fingerprint.hpp"

namespace quest::serve {

namespace {

using Kind = io::Json_reader::Kind;

double non_negative(double value, std::string_view key) {
  if (value < 0.0) {
    throw Parse_error("field '" + std::string(key) +
                      "' must be non-negative");
  }
  return value;
}

/// Checked integer field: rejects values a uint64 cast could not
/// represent (the cast would be undefined behavior on client-supplied
/// input like {"node_limit":1e300}). 1e18 comfortably exceeds any
/// meaningful budget, seed or tuple count.
std::uint64_t read_uint(io::Json_reader& in, std::string_view key) {
  const double value = non_negative(in.read_number(), key);
  if (value > 1e18) {
    throw Parse_error("field '" + std::string(key) +
                      "' is too large (max 1e18)");
  }
  return static_cast<std::uint64_t>(value);
}

std::vector<std::uint64_t> read_uint_array(io::Json_reader& in,
                                           std::string_view key) {
  std::vector<std::uint64_t> values;
  in.begin_array();
  while (in.next_element()) {
    const double value = in.read_number();
    if (value < 0.0 || value > 1e18) {
      throw Parse_error("field '" + std::string(key) +
                        "' entries must be in [0, 1e18]");
    }
    values.push_back(static_cast<std::uint64_t>(value));
  }
  return values;
}

std::vector<double> read_number_array(io::Json_reader& in,
                                      std::string_view key) {
  std::vector<double> values;
  in.begin_array();
  while (in.next_element()) {
    const double value = in.read_number();
    if (value < 0.0) {
      throw Parse_error("field '" + std::string(key) +
                        "' entries must be non-negative");
    }
    values.push_back(value);
  }
  return values;
}

/// The "instance" member of optimize, observe and refit: a registered
/// name or an inline document.
void read_instance_ref(io::Json_reader& in, std::string& name,
                       std::optional<io::Instance_document>& inline_doc) {
  if (in.peek() == Kind::string) {
    name = in.read_string();
  } else {
    inline_doc = io::read_instance(in);
  }
}

opt::Budget read_budget(io::Json_reader& in) {
  opt::Budget budget;
  io::read_object(in, {"deadline_ms", "node_limit", "cost_target"},
                  [&](std::string_view key) {
    if (key == "deadline_ms") {
      budget.time_limit_seconds = non_negative(in.read_number(), key) / 1e3;
    } else if (key == "node_limit") {
      budget.node_limit = read_uint(in, key);
    } else {
      budget.cost_target = non_negative(in.read_number(), key);
    }
  });
  return budget;
}

/// Hard resource bounds, not just representability: `workers` creates OS
/// threads (running past the thread limit would terminate the daemon)
/// and `tuples` is uncancellable executor work.
Execute_spec read_execute(io::Json_reader& in) {
  Execute_spec spec;
  io::read_object(in, {"tuples", "block_size", "workers"},
                  [&](std::string_view key) {
    const std::uint64_t value = read_uint(in, key);
    if (key == "tuples") {
      spec.tuples = value;
    } else if (key == "block_size") {
      spec.block_size = value;
    } else {
      spec.workers = static_cast<std::size_t>(value);
    }
  });
  if (spec.tuples < 1 || spec.tuples > 10'000'000) {
    throw Parse_error("execute.tuples must be in [1, 10000000]");
  }
  if (spec.block_size < 1 || spec.block_size > spec.tuples) {
    throw Parse_error("execute.block_size must be in [1, tuples]");
  }
  if (spec.workers < 1 || spec.workers > 64) {
    throw Parse_error("execute.workers must be in [1, 64]");
  }
  return spec;
}

/// Reads one optimize object. An absent "id" leaves `id` empty for a
/// batch to default; a present one must be non-empty.
Optimize_op read_optimize(io::Json_reader& in) {
  Optimize_op parsed;
  bool has_id = false;
  bool has_instance = false;
  std::string model = "independent";
  std::string policy = "sequential";
  io::read_object(in, {"id", "instance", "optimizer", "budget", "seed",
                       "model", "policy", "stream", "cache", "execute"},
                  [&](std::string_view key) {
    if (key == "id") {
      parsed.id = in.read_string();
      has_id = true;
    } else if (key == "instance") {
      read_instance_ref(in, parsed.instance_name, parsed.inline_instance);
      has_instance = true;
    } else if (key == "optimizer") {
      parsed.optimizer = in.read_string();
    } else if (key == "budget") {
      parsed.budget = read_budget(in);
    } else if (key == "seed") {
      parsed.seed = read_uint(in, key);
    } else if (key == "model") {
      model = in.read_string();
    } else if (key == "policy") {
      policy = in.read_string();
    } else if (key == "stream") {
      parsed.stream = in.read_bool();
    } else if (key == "cache") {
      parsed.cache = in.read_bool();
    } else {
      parsed.execute = read_execute(in);
    }
  });
  if (has_id && parsed.id.empty()) {
    throw Parse_error("optimize op needs a non-empty 'id'");
  }
  if (!has_instance) io::throw_missing_key("instance");
  parsed.model = model::parse_cost_model_spec(model, policy);
  return parsed;
}

Register_op read_register(io::Json_reader& in) {
  std::optional<std::string> name;
  std::optional<io::Instance_document> document;
  io::read_object(in, {"name", "instance"}, [&](std::string_view key) {
    if (key == "name") {
      name = in.read_string();
    } else {
      document = io::read_instance(in);
    }
  });
  if (!name) io::throw_missing_key("name");
  if (name->empty()) {
    throw Parse_error("register op needs a non-empty 'name'");
  }
  if (!document) io::throw_missing_key("instance");
  return Register_op{std::move(*name), std::move(*document)};
}

Batch_op read_batch(io::Json_reader& in) {
  Batch_op parsed;
  bool has_id = false;
  bool has_requests = false;
  io::read_object(in, {"id", "requests"}, [&](std::string_view key) {
    if (key == "id") {
      parsed.id = in.read_string();
      has_id = true;
      return;
    }
    has_requests = true;
    in.begin_array();
    while (in.next_element()) {
      if (parsed.requests.size() == k_max_batch_requests) {
        throw Parse_error("optimize_batch is capped at " +
                          std::to_string(k_max_batch_requests) +
                          " requests");
      }
      parsed.requests.push_back(read_optimize(in));
    }
  });
  if (!has_id) io::throw_missing_key("id");
  if (parsed.id.empty()) {
    throw Parse_error("optimize_batch op needs a non-empty 'id'");
  }
  if (!has_requests) io::throw_missing_key("requests");
  if (parsed.requests.empty()) {
    throw Parse_error("optimize_batch needs at least one request");
  }
  for (std::size_t index = 0; index < parsed.requests.size(); ++index) {
    std::string& id = parsed.requests[index].id;
    if (id.empty()) id = parsed.id + "/" + std::to_string(index);
  }
  return parsed;
}

Observe_op read_observe(io::Json_reader& in) {
  Observe_op parsed;
  bool has_instance = false;
  bool has_plan = false;
  bool has_tuples_in = false;
  bool has_tuples_out = false;
  io::read_object(in, {"instance", "plan", "tuples_in", "tuples_out",
                       "cost_count", "cost_sum", "cost_sq_sum"},
                  [&](std::string_view key) {
    if (key == "instance") {
      read_instance_ref(in, parsed.instance_name, parsed.inline_instance);
      has_instance = true;
    } else if (key == "plan") {
      has_plan = true;
      in.begin_array();
      while (in.next_element()) {
        const double value = in.read_number();
        if (value < 0.0 || value > 1e6) {
          throw Parse_error("observe plan entries must be service ids");
        }
        parsed.plan.append(static_cast<model::Service_id>(value));
      }
    } else if (key == "tuples_in") {
      parsed.tuples_in = read_uint_array(in, key);
      has_tuples_in = true;
    } else if (key == "tuples_out") {
      parsed.tuples_out = read_uint_array(in, key);
      has_tuples_out = true;
    } else if (key == "cost_count") {
      parsed.cost_count = read_uint_array(in, key);
    } else if (key == "cost_sum") {
      parsed.cost_sum = read_number_array(in, key);
    } else {
      parsed.cost_sq_sum = read_number_array(in, key);
    }
  });
  if (!has_instance) io::throw_missing_key("instance");
  if (!has_plan) io::throw_missing_key("plan");
  if (!has_tuples_in) {
    throw Parse_error("observe op needs array field 'tuples_in'");
  }
  if (!has_tuples_out) {
    throw Parse_error("observe op needs array field 'tuples_out'");
  }
  if (parsed.tuples_in.size() != parsed.plan.size() ||
      parsed.tuples_out.size() != parsed.plan.size()) {
    throw Parse_error(
        "observe tuples_in/tuples_out must match the plan length");
  }
  if (parsed.cost_count.size() != parsed.cost_sum.size() ||
      parsed.cost_count.size() != parsed.cost_sq_sum.size()) {
    throw Parse_error(
        "observe cost_count/cost_sum/cost_sq_sum must have equal length");
  }
  return parsed;
}

Refit_op read_refit(io::Json_reader& in) {
  Refit_op parsed;
  bool has_instance = false;
  io::read_object(in, {"instance", "policy", "objective", "min_samples"},
                  [&](std::string_view key) {
    if (key == "instance") {
      read_instance_ref(in, parsed.instance_name, parsed.inline_instance);
      has_instance = true;
    } else if (key == "policy") {
      parsed.policy = model::parse_send_policy(in.read_string());
    } else if (key == "objective") {
      parsed.objective = model::parse_objective(in.read_string());
    } else {
      parsed.min_samples = read_uint(in, key);
    }
  });
  if (!has_instance) io::throw_missing_key("instance");
  return parsed;
}

/// The "op" member of a request line. Writers put it first, so this
/// usually reads one member; otherwise it checks the members before it.
std::string read_op_kind(std::string_view line) {
  io::Json_reader in(line);
  in.begin_object();
  std::string_view key;
  while (in.next_key(key)) {
    if (key == "op") return std::string(in.read_string());
    in.skip_value();
  }
  io::throw_missing_key("op");
}

Op read_op(io::Json_reader& in, const std::string& kind) {
  if (kind == "register") return read_register(in);
  if (kind == "optimize") {
    Optimize_op parsed = read_optimize(in);
    if (parsed.id.empty()) {
      throw Parse_error("optimize op needs a non-empty 'id'");
    }
    return parsed;
  }
  if (kind == "optimize_batch") return read_batch(in);
  if (kind == "cancel") {
    std::optional<std::string> id;
    io::read_object(in, {"id"},
                    [&](std::string_view) { id = in.read_string(); });
    if (!id) io::throw_missing_key("id");
    return Cancel_op{std::move(*id)};
  }
  if (kind == "observe") return read_observe(in);
  if (kind == "refit") return read_refit(in);
  if (kind == "shutdown") {
    Shutdown_op parsed;
    io::read_object(in, {"drain"},
                    [&](std::string_view) { parsed.drain = in.read_bool(); });
    return parsed;
  }
  if (kind == "stats") {
    in.skip_value();
    return Stats_op{};
  }
  // A malformed line reports its grammar error before the unknown op.
  in.skip_value();
  in.finish();
  throw Parse_error("unknown op '" + kind +
                    "' (expected register, optimize, optimize_batch, "
                    "cancel, observe, refit, stats, or shutdown)");
}

// Bits of read_event's members, in the order of Event_head.
constexpr unsigned k_event = 1, k_id = 2, k_code = 4, k_fingerprint = 8;

/// The members besides "event" that an event of `kind` carries.
unsigned carried_members(std::string_view kind) {
  if (kind == "error") return k_id | k_code;
  if (kind == "registered" || kind == "observed" || kind == "refit") {
    return k_fingerprint;
  }
  const bool with_id = kind == "admitted" || kind == "incumbent" ||
                       kind == "result" || kind == "cancel-requested" ||
                       kind == "batch-admitted";
  return with_id ? k_id : 0;
}

}  // namespace

Op parse_op(std::string_view line) {
  const std::string kind = read_op_kind(line);
  io::Json_reader in(line);
  Op op = read_op(in, kind);
  in.finish();
  return op;
}

std::vector<std::string> batch_element_lines(std::string_view line,
                                             const Batch_op& batch) {
  std::vector<std::string> lines;
  io::Json_reader in(line);
  io::read_object(in, {"requests"}, [&](std::string_view) {
    in.begin_array();
    while (in.next_element()) {
      const std::string_view element = in.skip_value();
      std::string& forward = lines.emplace_back(R"({"op":"optimize","id":)");
      forward += io::Json(batch.requests.at(lines.size() - 1).id).dump();
      forward += ',';
      forward.append(element.substr(1));  // past the element's '{'
    }
  });
  return lines;
}

Decoded_line decode_line(std::string_view line) {
  if (line.find_first_not_of(" \t\r\n") == std::string_view::npos) {
    return {};  // blank keep-alive
  }
  try {
    return {parse_op(line), std::nullopt};
  } catch (const std::exception& error) {
    // Any std::exception (bad_alloc from a huge document, ...): a
    // long-lived daemon must not die because one line was hostile. The
    // salvaged request id lets the client correlate.
    std::string id;
    try {
      io::Json_reader in(line);
      io::read_object(in, {"id"},
                      [&](std::string_view) { id = in.read_string(); });
      in.finish();
    } catch (const std::exception&) {
      id.clear();  // not one JSON object, or its first "id" no string
    }
    return {std::nullopt, error_event(error.what(), id, "parse")};
  }
}

Event_head read_event(std::string_view line) {
  static constexpr std::string_view k_keys[] = {"event", "id", "code",
                                                "fingerprint"};
  Event_head head;
  std::string* const values[] = {&head.event, &head.id, &head.code,
                                 &head.fingerprint};
  unsigned seen = 0;
  unsigned wanted = k_event;  // then also the members its kind carries
  io::Json_reader in(line);
  in.begin_object();
  std::string_view key;
  while ((seen & wanted) != wanted && in.next_key(key)) {
    const auto member = static_cast<std::size_t>(
        std::find(std::begin(k_keys), std::end(k_keys), key) - k_keys);
    const unsigned bit = 1u << member;
    if ((seen & bit) == 0 && member < std::size(k_keys) &&
        in.peek() == Kind::string) {
      *values[member] = in.read_string();
    } else {
      in.skip_value();
    }
    seen |= bit;
    if (bit == k_event) wanted |= carried_members(head.event);
  }
  // Members read before the kind was known that it does not carry.
  for (std::size_t member = 1; member < std::size(k_keys); ++member) {
    if ((wanted & (1u << member)) == 0) values[member]->clear();
  }
  return head;
}

io::Json registered_event(const std::string& name, std::size_t services,
                          std::uint64_t fingerprint, bool replaced) {
  io::Json event;
  event.set("event", io::Json("registered"));
  event.set("name", io::Json(name));
  event.set("services", io::Json(services));
  event.set("fingerprint", io::Json(io::hex64(fingerprint)));
  event.set("replaced", io::Json(replaced));
  return event;
}

io::Json admitted_event(const std::string& id, std::size_t queue_depth) {
  io::Json event;
  event.set("event", io::Json("admitted"));
  event.set("id", io::Json(id));
  event.set("queue_depth", io::Json(queue_depth));
  return event;
}

io::Json incumbent_event(const std::string& id, double cost,
                         double elapsed_seconds, const model::Plan& plan) {
  io::Json event;
  event.set("event", io::Json("incumbent"));
  event.set("id", io::Json(id));
  event.set("cost", io::Json(cost));
  event.set("elapsed_seconds", io::Json(elapsed_seconds));
  event.set("plan", io::to_json(plan));
  return event;
}

io::Json cancel_event(const std::string& id, bool found) {
  io::Json event;
  event.set("event", io::Json("cancel-requested"));
  event.set("id", io::Json(id));
  event.set("found", io::Json(found));
  return event;
}

io::Json observed_event(std::uint64_t fingerprint, std::uint64_t runs,
                        std::size_t plans) {
  io::Json event;
  event.set("event", io::Json("observed"));
  event.set("fingerprint", io::Json(io::hex64(fingerprint)));
  event.set("runs", io::Json(static_cast<double>(runs)));
  event.set("plans", io::Json(plans));
  return event;
}

io::Json batch_event(const std::string& id, std::size_t count) {
  io::Json event;
  event.set("event", io::Json("batch-admitted"));
  event.set("id", io::Json(id));
  event.set("count", io::Json(count));
  return event;
}

io::Json error_event(const std::string& message, const std::string& id,
                     const std::string& code) {
  io::Json event;
  event.set("event", io::Json("error"));
  if (!code.empty()) event.set("code", io::Json(code));
  if (!id.empty()) event.set("id", io::Json(id));
  event.set("message", io::Json(message));
  return event;
}

io::Json overloaded_event(const std::string& id, std::size_t queue_depth,
                          std::size_t queue_cap) {
  io::Json event = error_event(
      "server overloaded: admission queue is full (" +
          std::to_string(queue_depth) + "/" + std::to_string(queue_cap) +
          " queued); retry later",
      id, "overloaded");
  event.set("queue_depth", io::Json(queue_depth));
  event.set("queue_cap", io::Json(queue_cap));
  return event;
}

io::Json unknown_instance_event(const std::string& name,
                                const std::string& id) {
  return error_event("unknown instance '" + name + "' (register it first)",
                     id, "unknown-instance");
}

io::Json duplicate_id_event(const std::string& id) {
  return error_event("request id '" + id + "' is already in flight", id);
}

io::Json line_overflow_event(std::size_t max_line_bytes) {
  return error_event("request line exceeds " + std::to_string(max_line_bytes) +
                         " bytes and was discarded",
                     {}, "line-overflow");
}

io::Json shutting_down_event(double outstanding, bool drain) {
  io::Json event;
  event.set("event", io::Json("shutting-down"));
  event.set("outstanding", io::Json(outstanding));
  event.set("drain", io::Json(drain));
  return event;
}

io::Json shutdown_complete_event(double completed, double cancelled) {
  io::Json event;
  event.set("event", io::Json("shutdown-complete"));
  event.set("completed", io::Json(completed));
  event.set("cancelled", io::Json(cancelled));
  return event;
}

io::Json result_event(const std::string& id, opt::Termination termination,
                      const model::Plan& plan, double cost, bool complete,
                      bool proven_optimal, bool cached, bool warm_started,
                      const std::string& model_key, double elapsed_seconds,
                      const opt::Search_stats* stats) {
  io::Json event;
  event.set("event", io::Json("result"));
  event.set("id", io::Json(id));
  event.set("termination", io::Json(opt::to_string(termination)));
  event.set("cost", complete ? io::Json(cost) : io::Json());
  event.set("plan", io::to_json(plan));
  event.set("proven_optimal", io::Json(proven_optimal));
  event.set("complete", io::Json(complete));
  event.set("cached", io::Json(cached));
  event.set("warm_started", io::Json(warm_started));
  event.set("model", io::Json(model_key));
  event.set("elapsed_seconds", io::Json(elapsed_seconds));
  if (stats != nullptr) {
    io::Json stats_json;
    stats_json.set("nodes_expanded",
                   io::Json(static_cast<double>(stats->nodes_expanded)));
    stats_json.set("complete_plans",
                   io::Json(static_cast<double>(stats->complete_plans)));
    stats_json.set("incumbent_updates",
                   io::Json(static_cast<double>(stats->incumbent_updates)));
    stats_json.set("total_prunes",
                   io::Json(static_cast<double>(stats->total_prunes())));
    stats_json.set("engine_threads",
                   io::Json(static_cast<double>(stats->engine_threads)));
    event.set("stats", std::move(stats_json));
  }
  return event;
}

}  // namespace quest::serve
