// quest/serve/protocol.hpp
//
// The quest_serve wire protocol: line-delimited JSON, one client *op* per
// input line, one server *event* per output line. Transport-agnostic —
// the same codec serves stdin/stdout pipes and socket streams.
//
// Client -> server ops (`"op"` selects the variant):
//
//   {"op":"register","name":"prod","instance":{...instance document...}}
//   {"op":"optimize","id":"r1","instance":"prod" | {...inline doc...},
//    "optimizer":"bnb","budget":{"deadline_ms":500,"node_limit":0,
//    "cost_target":0},"seed":7,"policy":"sequential",
//    "model":"independent" | "correlated:strength=0.5,seed=7",
//    "stream":true,"cache":true,
//    "execute":{"tuples":10000,"block_size":32,"workers":4}}
//   {"op":"optimize_batch","id":"b1","requests":[{...optimize fields,
//    "id" optional (defaults to "b1/0","b1/1",...)...},...]}
//   {"op":"cancel","id":"r1"}
//   {"op":"observe","instance":"prod" | {...inline doc...},
//    "plan":[...], "tuples_in":[...], "tuples_out":[...],
//    "cost_count":[...]?,"cost_sum":[...]?,"cost_sq_sum":[...]?}
//   {"op":"refit","instance":"prod" | {...inline doc...},
//    "policy":"sequential","objective":"mean"|"p95"|"p99",
//    "min_samples":8?}
//   {"op":"stats"}
//   {"op":"shutdown","drain":true|false}
//
// Server -> client events (`"event"` tags the variant):
//
//   {"event":"registered","name":...,"services":...,"fingerprint":...,
//    "replaced":...}
//   {"event":"admitted","id":...,"queue_depth":...}
//   {"event":"incumbent","id":...,"cost":...,"elapsed_seconds":...,
//    "plan":[...]}                          (only when "stream" was true)
//   {"event":"result","id":...,"termination":...,"cost":...,"plan":[...],
//    "proven_optimal":...,"cached":...,"warm_started":...,
//    "elapsed_seconds":...,"stats":{...},"execution":{...}?}
//   {"event":"cancel-requested","id":...,"found":...}
//   {"event":"observed","fingerprint":...,"runs":...,"plans":...}
//   {"event":"refit","fingerprint":...,"model":...,"model_key":...,
//    "falsified":...,"runs":...,"max_abs_log_gamma":...,
//    "warm_seeded":...,"warm_cost":...?}
//   {"event":"batch-admitted","id":...,"count":...}
//   {"event":"stats", ...counters...}
//   {"event":"shutting-down","outstanding":...,"drain":...} then
//   {"event":"shutdown-complete","completed":...,"cancelled":...}
//   {"event":"error","code":...?,"id":...?,"message":...}
//
// Every malformed line or op yields an "error" event (with the request id
// when one could be parsed) instead of killing the session. Errors that
// clients are expected to branch on carry a machine-readable "code":
//
//   "parse"            malformed JSON / unknown op / bad field types
//   "line-overflow"    a request line exceeded the transport's size cap
//   "overloaded"       load shed: the admission queue (or the
//                      transport's connection limit) is full — retry
//                      later, with backoff
//   "unknown-instance" the op named an instance this server has no
//                      registration for — re-register (or send the
//                      document inline) and retry. The replicated
//                      router treats this as "replica missed": it
//                      replays the registration journal at the backend
//                      and retries on the client's behalf.
//
// Human-readable "message" text is never a contract; "code" is.
//
// This module is the one codec on both sides of quest_router: the server
// and the router front every client line with decode_line (so a refusal
// is the same bytes through either), the router reads backend events
// with read_event, and both build events, the shutdown pair included,
// with the *_event functions below.

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "quest/io/instance_io.hpp"
#include "quest/io/json.hpp"
#include "quest/model/cost_model.hpp"
#include "quest/opt/optimizer.hpp"

namespace quest::serve {

/// {"op":"register"} — parse the instance document eagerly so malformed
/// documents fail at registration, not at first use.
struct Register_op {
  std::string name;
  io::Instance_document document;
};

/// Optional post-optimization execution of the winning plan on the
/// virtual-clock runtime executor.
struct Execute_spec {
  std::uint64_t tuples = 10'000;
  std::uint64_t block_size = 32;
  std::size_t workers = 4;
};

/// {"op":"optimize"} — exactly one of `instance_name` /
/// `inline_instance` is set.
struct Optimize_op {
  std::string id;
  std::string instance_name;
  std::optional<io::Instance_document> inline_instance;
  std::string optimizer = "portfolio";
  opt::Budget budget;
  std::uint64_t seed = 0;
  /// The cost model of the request ("policy" + "model" fields), parsed
  /// eagerly so malformed specs fail at the protocol boundary; the server
  /// binds it to the resolved instance's size.
  model::Cost_model_spec model;
  bool stream = false;
  bool cache = true;
  std::optional<Execute_spec> execute;
};

/// {"op":"optimize_batch"} — many optimize requests in one line (e.g.
/// re-optimizing a whole workload after a cost-model change). Elements
/// are full optimize ops; an element without an "id" gets
/// "<batch id>/<index>". Each element is admitted (or load-shed)
/// individually and produces its own admitted/result events.
struct Batch_op {
  std::string id;
  std::vector<Optimize_op> requests;
};

/// {"op":"cancel"} — trips the Stop_token of the queued or running
/// request with this id; a no-op (found:false) for unknown ids.
struct Cancel_op {
  std::string id;
};

/// {"op":"observe"} — fold one execution's per-stage tuple counts (and
/// optional per-service cost moments) into the server's observation log
/// for the instance; the streaming substrate of the adaptive loop (see
/// quest/adapt/observation_log.hpp). `tuples_in`/`tuples_out` are per
/// plan position; the cost arrays, when present, are per service id and
/// all of length n.
struct Observe_op {
  std::string instance_name;
  std::optional<io::Instance_document> inline_instance;
  model::Plan plan;
  std::vector<std::uint64_t> tuples_in;
  std::vector<std::uint64_t> tuples_out;
  std::vector<std::uint64_t> cost_count;
  std::vector<double> cost_sum;
  std::vector<double> cost_sq_sum;
};

/// {"op":"refit"} — fit a cost model from the instance's observation log
/// (adapt::Model_fitter) and seed the warm-start cache tier under the
/// fitted model's key, so the first optimize under the fitted model is
/// an exact-tier miss that warm-starts from the best observed plan.
struct Refit_op {
  std::string instance_name;
  std::optional<io::Instance_document> inline_instance;
  model::Send_policy policy = model::Send_policy::sequential;
  model::Objective objective = model::Objective::mean;
  /// 0 keeps the fitter's default confidence gates.
  std::uint64_t min_samples = 0;
};

/// {"op":"stats"} — ask for a counters snapshot event.
struct Stats_op {};

/// {"op":"shutdown"} cancels everything still in flight; with
/// {"drain":true} the server instead finishes every admitted request
/// before exiting — the right mode for non-interactive piped sessions.
struct Shutdown_op {
  bool drain = false;
};

using Op = std::variant<Register_op, Optimize_op, Batch_op, Cancel_op,
                        Observe_op, Refit_op, Stats_op, Shutdown_op>;

/// The most elements one optimize_batch may carry — a parse-time cap so
/// a single hostile line cannot admit unbounded work.
inline constexpr std::size_t k_max_batch_requests = 1024;

/// Parses one client line. Throws Parse_error on malformed JSON, an
/// unknown "op", wrong field types, or invalid budgets — decode_line
/// turns that into a typed "error" event (code "parse"). The line is
/// decoded straight into the op by io::Json_reader, with no Json built:
/// members may come in any order ("op" too), unknown members are skipped
/// after a grammar check, and of duplicate keys the first wins, as
/// Json::find.
Op parse_op(std::string_view line);

/// Each element of the optimize_batch `line` (decoded as `batch`) as an
/// optimize line: the client's element bytes behind an
/// {"op":"optimize","id":<its id>, prefix, which wins as the first of
/// duplicate keys.
std::vector<std::string> batch_element_lines(std::string_view line,
                                             const Batch_op& batch);

/// One client line, decoded: `op`, or the "parse"-coded `refusal` (with
/// the request id when the line is a JSON object whose first "id" is a
/// string), or neither for a blank keep-alive line.
struct Decoded_line {
  std::optional<Op> op;
  std::optional<io::Json> refusal;
};
Decoded_line decode_line(std::string_view line);

/// What an event line is routed by: its "event" kind and, of "id",
/// "code" and "fingerprint", those the kind carries ("id": admitted,
/// incumbent, result, cancel-requested, batch-admitted, error; "code":
/// error; "fingerprint": registered, observed, refit). The others read
/// empty, as does a member that is absent or not a string.
struct Event_head {
  std::string event;
  std::string id;
  std::string code;
  std::string fingerprint;
};

/// Reads the top-level members, the first of each key as Json::find,
/// only until it has those the kind carries. Throws Parse_error when the
/// line is no JSON object or the part read is malformed.
Event_head read_event(std::string_view line);

/// Event builders (the server's half of the protocol).
io::Json registered_event(const std::string& name, std::size_t services,
                          std::uint64_t fingerprint, bool replaced);
io::Json admitted_event(const std::string& id, std::size_t queue_depth);
io::Json incumbent_event(const std::string& id, double cost,
                         double elapsed_seconds, const model::Plan& plan);
io::Json cancel_event(const std::string& id, bool found);
io::Json observed_event(std::uint64_t fingerprint, std::uint64_t runs,
                        std::size_t plans);
io::Json batch_event(const std::string& id, std::size_t count);
/// `code` is the machine-readable error class (see the file comment);
/// empty omits the field — existing untyped emitters stay byte-stable.
io::Json error_event(const std::string& message, const std::string& id = {},
                     const std::string& code = {});
/// The load-shed reply: a typed "overloaded" error carrying the queue
/// state so clients can implement informed backoff.
io::Json overloaded_event(const std::string& id, std::size_t queue_depth,
                          std::size_t queue_cap);
/// The typed "unknown-instance" error for ops naming an instance this
/// server has never seen — one builder so the server and the replicated
/// router (which branches on the code to trigger journal repair) cannot
/// drift in how they spell it.
io::Json unknown_instance_event(const std::string& name,
                                const std::string& id = {});
/// The refusal of an optimize whose id the same client still has in
/// flight — one builder for the server and the router, which refuses it
/// itself while it still routes that id.
io::Json duplicate_id_event(const std::string& id);
/// The typed "line-overflow" error for a request line past the cap —
/// one builder for the session layer and the router.
io::Json line_overflow_event(std::size_t max_line_bytes);
/// The pair that answers a shutdown op (the router's sums its backends').
io::Json shutting_down_event(double outstanding, bool drain);
io::Json shutdown_complete_event(double completed, double cancelled);

/// The shared "result" event shape — one builder so the cached and
/// fresh-run paths cannot drift apart. `stats` may be nullptr (cached
/// results did no search work, so they carry no stats object); the
/// caller appends any execution report afterwards.
io::Json result_event(const std::string& id, opt::Termination termination,
                      const model::Plan& plan, double cost, bool complete,
                      bool proven_optimal, bool cached, bool warm_started,
                      const std::string& model_key, double elapsed_seconds,
                      const opt::Search_stats* stats);

}  // namespace quest::serve
