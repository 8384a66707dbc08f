// The quest_serve wire protocol codec: op parsing (happy paths, defaults,
// malformed input diagnostics), the shared line front (decode_line) and
// batch split, event shapes, and the event reader over every event.

#include "quest/serve/protocol.hpp"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "quest/io/fingerprint.hpp"
#include "quest/io/instance_io.hpp"
#include "support/helpers.hpp"

namespace quest {
namespace {

using namespace quest::serve;

std::string instance_json(std::size_t n, std::uint64_t seed) {
  return io::to_json(test::selective_instance(n, seed)).dump();
}

TEST(Protocol_test, ParsesRegister) {
  const std::string line = std::string(R"({"op":"register","name":"prod",)") +
                           R"("instance":)" + instance_json(6, 1) + "}";
  const Op op = parse_op(line);
  const auto* reg = std::get_if<Register_op>(&op);
  ASSERT_NE(reg, nullptr);
  EXPECT_EQ(reg->name, "prod");
  EXPECT_EQ(reg->document.instance.size(), 6u);
}

TEST(Protocol_test, ParsesOptimizeWithDefaults) {
  const Op op = parse_op(R"({"op":"optimize","id":"r1","instance":"prod"})");
  const auto* optimize = std::get_if<Optimize_op>(&op);
  ASSERT_NE(optimize, nullptr);
  EXPECT_EQ(optimize->id, "r1");
  EXPECT_EQ(optimize->instance_name, "prod");
  EXPECT_FALSE(optimize->inline_instance.has_value());
  EXPECT_EQ(optimize->optimizer, "portfolio");
  EXPECT_EQ(optimize->budget.node_limit, 0u);
  EXPECT_EQ(optimize->budget.time_limit_seconds, 0.0);
  EXPECT_EQ(optimize->seed, 0u);
  EXPECT_EQ(optimize->model.policy, model::Send_policy::sequential);
  EXPECT_EQ(optimize->model.structure,
            model::Selectivity_structure::independent);
  EXPECT_FALSE(optimize->stream);
  EXPECT_TRUE(optimize->cache);
  EXPECT_FALSE(optimize->execute.has_value());
}

TEST(Protocol_test, ParsesOptimizeFully) {
  const std::string line =
      std::string(R"({"op":"optimize","id":"r2","instance":)") +
      instance_json(5, 2) +
      R"(,"optimizer":"annealing:iterations=100","budget":)"
      R"({"deadline_ms":250,"node_limit":1000,"cost_target":1.5},)"
      R"("seed":7,"policy":"overlapped","stream":true,"cache":false,)"
      R"("execute":{"tuples":500,"block_size":16,"workers":2}})";
  const Op op = parse_op(line);
  const auto* optimize = std::get_if<Optimize_op>(&op);
  ASSERT_NE(optimize, nullptr);
  ASSERT_TRUE(optimize->inline_instance.has_value());
  EXPECT_EQ(optimize->inline_instance->instance.size(), 5u);
  EXPECT_EQ(optimize->optimizer, "annealing:iterations=100");
  EXPECT_DOUBLE_EQ(optimize->budget.time_limit_seconds, 0.25);
  EXPECT_EQ(optimize->budget.node_limit, 1000u);
  EXPECT_DOUBLE_EQ(optimize->budget.cost_target, 1.5);
  EXPECT_EQ(optimize->seed, 7u);
  EXPECT_EQ(optimize->model.policy, model::Send_policy::overlapped);
  EXPECT_TRUE(optimize->stream);
  EXPECT_FALSE(optimize->cache);
  ASSERT_TRUE(optimize->execute.has_value());
  EXPECT_EQ(optimize->execute->tuples, 500u);
  EXPECT_EQ(optimize->execute->block_size, 16u);
  EXPECT_EQ(optimize->execute->workers, 2u);
}

TEST(Protocol_test, ParsesCancelStatsShutdown) {
  EXPECT_TRUE(std::holds_alternative<Cancel_op>(
      parse_op(R"({"op":"cancel","id":"r1"})")));
  EXPECT_TRUE(std::holds_alternative<Stats_op>(parse_op(R"({"op":"stats"})")));
  const Op plain = parse_op(R"({"op":"shutdown"})");
  ASSERT_TRUE(std::holds_alternative<Shutdown_op>(plain));
  EXPECT_FALSE(std::get<Shutdown_op>(plain).drain);
  const Op drain = parse_op(R"({"op":"shutdown","drain":true})");
  EXPECT_TRUE(std::get<Shutdown_op>(drain).drain);
}

TEST(Protocol_test, RejectsMalformedOps) {
  EXPECT_THROW(parse_op("not json"), Parse_error);
  EXPECT_THROW(parse_op(R"({"no_op":1})"), Parse_error);
  EXPECT_THROW(parse_op(R"({"op":"frobnicate"})"), Parse_error);
  EXPECT_THROW(parse_op(R"({"op":"register","name":"x"})"), Parse_error);
  EXPECT_THROW(parse_op(R"({"op":"register","name":"","instance":{}})"),
               Parse_error);
  EXPECT_THROW(parse_op(R"({"op":"optimize","instance":"x"})"), Parse_error);
  EXPECT_THROW(parse_op(R"({"op":"optimize","id":"","instance":"x"})"),
               Parse_error);
  EXPECT_THROW(
      parse_op(R"({"op":"optimize","id":"r","instance":"x",)"
               R"("budget":{"deadline_ms":-1}})"),
      Parse_error);
  EXPECT_THROW(parse_op(R"({"op":"optimize","id":"r","instance":"x",)"
                        R"("policy":"sideways"})"),
               Parse_error);
  // Integer fields reject doubles a uint64 cast could not represent —
  // the cast would otherwise be undefined behavior on client input.
  EXPECT_THROW(
      parse_op(R"({"op":"optimize","id":"r","instance":"x",)"
               R"("budget":{"node_limit":1e300}})"),
      Parse_error);
  EXPECT_THROW(parse_op(R"({"op":"optimize","id":"r","instance":"x",)"
                        R"("seed":1e19})"),
               Parse_error);
  EXPECT_THROW(parse_op(R"({"op":"optimize","id":"r","instance":"x",)"
                        R"("execute":{"tuples":1e300}})"),
               Parse_error);
  // Execute-stage resource caps: workers creates OS threads, tuples is
  // uncancellable executor work.
  EXPECT_THROW(parse_op(R"({"op":"optimize","id":"r","instance":"x",)"
                        R"("execute":{"workers":200000}})"),
               Parse_error);
  EXPECT_THROW(parse_op(R"({"op":"optimize","id":"r","instance":"x",)"
                        R"("execute":{"workers":0}})"),
               Parse_error);
  EXPECT_THROW(parse_op(R"({"op":"optimize","id":"r","instance":"x",)"
                        R"("execute":{"tuples":100000000}})"),
               Parse_error);
  EXPECT_THROW(parse_op(R"({"op":"optimize","id":"r","instance":"x",)"
                        R"("execute":{"tuples":10,"block_size":20}})"),
               Parse_error);
}

TEST(Protocol_test, ParsesOptimizeBatch) {
  const Op op = parse_op(
      R"({"op":"optimize_batch","id":"b1","requests":[)"
      R"({"instance":"prod"},)"
      R"({"id":"named","instance":"prod","optimizer":"dp","seed":4},)"
      R"({"instance":"other"}]})");
  const auto* batch = std::get_if<Batch_op>(&op);
  ASSERT_NE(batch, nullptr);
  EXPECT_EQ(batch->id, "b1");
  ASSERT_EQ(batch->requests.size(), 3u);
  // Elements without an id get "<batch>/<index>"; explicit ids win.
  EXPECT_EQ(batch->requests[0].id, "b1/0");
  EXPECT_EQ(batch->requests[1].id, "named");
  EXPECT_EQ(batch->requests[1].optimizer, "dp");
  EXPECT_EQ(batch->requests[1].seed, 4u);
  EXPECT_EQ(batch->requests[2].id, "b1/2");
  EXPECT_EQ(batch->requests[2].instance_name, "other");
}

TEST(Protocol_test, RejectsMalformedBatches) {
  EXPECT_THROW(parse_op(R"({"op":"optimize_batch","requests":[]})"),
               Parse_error);
  EXPECT_THROW(parse_op(R"({"op":"optimize_batch","id":"b","requests":[]})"),
               Parse_error);
  EXPECT_THROW(
      parse_op(R"({"op":"optimize_batch","id":"","requests":[{"instance":"x"}]})"),
      Parse_error);
  // One malformed element poisons the whole batch at parse time.
  EXPECT_THROW(parse_op(R"({"op":"optimize_batch","id":"b","requests":)"
                        R"([{"instance":"x"},{"no_instance":1}]})"),
               Parse_error);
  // The element cap bounds the work a single hostile line can admit.
  std::string oversized = R"({"op":"optimize_batch","id":"b","requests":[)";
  for (std::size_t i = 0; i <= k_max_batch_requests; ++i) {
    if (i != 0) oversized += ",";
    oversized += R"({"instance":"x"})";
  }
  oversized += "]}";
  EXPECT_THROW(parse_op(oversized), Parse_error);
}

TEST(Protocol_test, TruncatedOpsAreParseErrorsNotCrashes) {
  // Every prefix of a valid op line must fail cleanly with Parse_error —
  // the typed "parse" path a session survives — never crash or succeed.
  const std::string line =
      R"({"op":"optimize","id":"r1","instance":"prod","optimizer":"bnb",)"
      R"("budget":{"deadline_ms":250},"seed":7,"stream":true})";
  for (std::size_t cut = 0; cut < line.size(); ++cut) {
    EXPECT_THROW(parse_op(line.substr(0, cut)), Parse_error)
        << "prefix length " << cut;
  }
  EXPECT_TRUE(std::holds_alternative<Optimize_op>(parse_op(line)));
}

TEST(Protocol_test, EventShapes) {
  const io::Json registered = registered_event("prod", 6, 0xabcdefu, true);
  EXPECT_EQ(registered.at("event").as_string(), "registered");
  EXPECT_EQ(registered.at("fingerprint").as_string(), "0000000000abcdef");
  EXPECT_TRUE(registered.at("replaced").as_bool());

  const io::Json admitted = admitted_event("r1", 3);
  EXPECT_EQ(admitted.at("event").as_string(), "admitted");
  EXPECT_EQ(admitted.at("queue_depth").as_number(), 3.0);

  const model::Plan plan(std::vector<model::Service_id>{2, 0, 1});
  const io::Json incumbent = incumbent_event("r1", 1.5, 0.25, plan);
  EXPECT_EQ(incumbent.at("event").as_string(), "incumbent");
  EXPECT_EQ(incumbent.at("plan").as_array().size(), 3u);

  const io::Json cancel = cancel_event("r1", false);
  EXPECT_EQ(cancel.at("event").as_string(), "cancel-requested");
  EXPECT_FALSE(cancel.at("found").as_bool());

  const io::Json error = error_event("boom", "r9");
  EXPECT_EQ(error.at("event").as_string(), "error");
  EXPECT_EQ(error.at("id").as_string(), "r9");
  EXPECT_EQ(error.at("message").as_string(), "boom");
  EXPECT_EQ(error_event("boom").find("id"), nullptr);
  // Untyped errors stay byte-stable: no "code" field unless one is set.
  EXPECT_EQ(error.find("code"), nullptr);
  EXPECT_EQ(error_event("boom", "r9", "parse").at("code").as_string(),
            "parse");

  const io::Json batch = batch_event("b1", 12);
  EXPECT_EQ(batch.at("event").as_string(), "batch-admitted");
  EXPECT_EQ(batch.at("id").as_string(), "b1");
  EXPECT_EQ(batch.at("count").as_number(), 12.0);

  const io::Json overloaded = overloaded_event("r7", 64, 64);
  EXPECT_EQ(overloaded.at("event").as_string(), "error");
  EXPECT_EQ(overloaded.at("code").as_string(), "overloaded");
  EXPECT_EQ(overloaded.at("id").as_string(), "r7");
  EXPECT_EQ(overloaded.at("queue_depth").as_number(), 64.0);
  EXPECT_EQ(overloaded.at("queue_cap").as_number(), 64.0);

  // The typed unknown-instance error: the code is a wire contract — the
  // replicated router branches on it to trigger journal repair, so it
  // must stay byte-stable.
  const io::Json unknown = unknown_instance_event("prod", "r3");
  EXPECT_EQ(unknown.at("event").as_string(), "error");
  EXPECT_EQ(unknown.at("code").as_string(), "unknown-instance");
  EXPECT_EQ(unknown.at("id").as_string(), "r3");
  EXPECT_NE(unknown.at("message").as_string().find("prod"),
            std::string::npos);
  // The id is optional (observe/refit carry none) and omitted, not empty.
  EXPECT_EQ(unknown_instance_event("prod").find("id"), nullptr);
  EXPECT_EQ(unknown_instance_event("prod").at("code").as_string(),
            "unknown-instance");
}

TEST(Protocol_test, DecodeLineIgnoresBlankLinesAndRefusesWithTheId) {
  for (const char* blank : {"", " ", "\t\r\n "}) {
    const Decoded_line decoded = decode_line(blank);
    EXPECT_FALSE(decoded.op.has_value()) << '"' << blank << '"';
    EXPECT_FALSE(decoded.refusal.has_value()) << '"' << blank << '"';
  }

  const Decoded_line accepted = decode_line(R"({"op":"stats"})");
  ASSERT_TRUE(accepted.op.has_value());
  EXPECT_TRUE(std::holds_alternative<Stats_op>(*accepted.op));
  EXPECT_FALSE(accepted.refusal.has_value());

  // The refusal carries the id whenever the line is one JSON object whose
  // first "id" member is a string.
  const auto refused_id = [](std::string_view line) {
    const Decoded_line decoded = decode_line(line);
    EXPECT_FALSE(decoded.op.has_value()) << line;
    if (!decoded.refusal) {
      ADD_FAILURE() << "not refused: " << line;
      return std::string("<accepted>");
    }
    EXPECT_EQ(decoded.refusal->at("event").as_string(), "error");
    EXPECT_EQ(decoded.refusal->at("code").as_string(), "parse");
    const io::Json* id = decoded.refusal->find("id");
    return id == nullptr ? std::string() : id->as_string();
  };
  EXPECT_EQ(refused_id(R"({"op":"optimize","id":"r","instance":"x",)"
                       R"("seed":-1})"),
            "r");
  EXPECT_EQ(refused_id(R"({"id":"a\"b","op":"frobnicate"})"), "a\"b");
  EXPECT_EQ(refused_id(R"({"op":"cancel","id":"first","id":"second",)"
                       R"("x":01})"),
            "");  // not JSON
  EXPECT_EQ(refused_id(R"({"op":"frobnicate","id":"first","id":"second"})"),
            "first");
  EXPECT_EQ(refused_id(R"({"op":"frobnicate","id":7,"id":"second"})"), "");
  EXPECT_EQ(refused_id(R"(["op","id"])"), "");
  EXPECT_EQ(refused_id(R"({"op":"frobnicate","id":"r"} trailing)"), "");
}

TEST(Protocol_test, BatchElementLinesForwardTheClientsBytes) {
  const std::string line =
      R"({"op":"optimize_batch","id":"b\"1","requests":[)"
      R"({"instance":"prod", "seed" : 4},)"
      R"( {"op":"stats","id":"named","instance":"prod","optimizer":"dp"}]})";
  const auto batch = std::get<Batch_op>(parse_op(line));
  const std::vector<std::string> elements = batch_element_lines(line, batch);
  ASSERT_EQ(elements.size(), 2u);
  EXPECT_EQ(elements[0],
            R"({"op":"optimize","id":"b\"1/0","instance":"prod", "seed" : 4})");
  EXPECT_EQ(elements[1],
            R"({"op":"optimize","id":"named","op":"stats","id":"named",)"
            R"("instance":"prod","optimizer":"dp"})");
  // Each decodes as the optimize the batch decoded it as.
  for (std::size_t index = 0; index < elements.size(); ++index) {
    const auto element = std::get<Optimize_op>(parse_op(elements[index]));
    EXPECT_EQ(element.id, batch.requests[index].id);
    EXPECT_EQ(element.instance_name, batch.requests[index].instance_name);
    EXPECT_EQ(element.optimizer, batch.requests[index].optimizer);
    EXPECT_EQ(element.seed, batch.requests[index].seed);
  }
}

/// One event line and the members read_event must read back from it.
struct Built_event {
  io::Json event;
  Event_head head;
};

/// The output of every *_event function, called with `id` wherever one
/// takes a request id (and as the registered name).
std::vector<Built_event> built_events(const std::string& id) {
  const model::Plan plan(std::vector<model::Service_id>{2, 0, 1});
  opt::Search_stats stats;
  stats.nodes_expanded = 12;
  const std::uint64_t print = 0x0123456789abcdefull;
  const std::string hex = io::hex64(print);
  return {
      {registered_event(id, 3, print, false), {"registered", "", "", hex}},
      {admitted_event(id, 2), {"admitted", id, "", ""}},
      {incumbent_event(id, 1.5, 0.25, plan), {"incumbent", id, "", ""}},
      {result_event(id, opt::Termination::optimal, plan, 1.5, true, true,
                    false, false, "sequential/independent", 0.5, &stats),
       {"result", id, "", ""}},
      {result_event(id, opt::Termination::cancelled, model::Plan(), 0.0,
                    false, false, true, false, "sequential/independent", 0.0,
                    nullptr),
       {"result", id, "", ""}},
      {cancel_event(id, true), {"cancel-requested", id, "", ""}},
      {observed_event(print, 4, 1), {"observed", "", "", hex}},
      {batch_event(id, 3), {"batch-admitted", id, "", ""}},
      {error_event("boom"), {"error", "", "", ""}},
      {error_event("boom", id), {"error", id, "", ""}},
      {error_event("boom", {}, "parse"), {"error", "", "parse", ""}},
      {error_event("boom", id, "parse"), {"error", id, "parse", ""}},
      {overloaded_event(id, 4, 4), {"error", id, "overloaded", ""}},
      {unknown_instance_event("prod", id),
       {"error", id, "unknown-instance", ""}},
      {line_overflow_event(64), {"error", "", "line-overflow", ""}},
      {shutting_down_event(2, true), {"shutting-down", "", "", ""}},
      {shutdown_complete_event(2, 0), {"shutdown-complete", "", "", ""}},
  };
}

TEST(Protocol_test, ReadEventReadsBackWhatEveryEventCarries) {
  // Ids the writer escapes or passes through: a quote, a backslash, a
  // control character and non-ASCII bytes.
  for (const std::string id :
       {"r1", "a\"b", "back\\slash", "bell\x07", "caf\xc3\xa9/\xe2\x9c\x93"}) {
    for (const Built_event& built : built_events(id)) {
      const std::string line = built.event.dump();
      const Event_head head = read_event(line);
      EXPECT_EQ(head.event, built.head.event) << line;
      EXPECT_EQ(head.id, built.head.id) << line;
      EXPECT_EQ(head.code, built.head.code) << line;
      EXPECT_EQ(head.fingerprint, built.head.fingerprint) << line;
    }
  }
}

TEST(Protocol_test, ReadEventTakesTheFirstMemberInAnyOrder) {
  const Event_head late =
      read_event(R"({"code":"parse","id":"x","id":"y","event":"error"})");
  EXPECT_EQ(late.event, "error");
  EXPECT_EQ(late.id, "x");
  EXPECT_EQ(late.code, "parse");
  // A member the kind does not carry reads empty, wherever it stands.
  const Event_head result =
      read_event(R"({"code":"parse","event":"result","id":"r"})");
  EXPECT_EQ(result.id, "r");
  EXPECT_EQ(result.code, "");
  // Not a string: empty.
  EXPECT_EQ(read_event(R"({"event":"admitted","id":7})").id, "");
  EXPECT_THROW(read_event("[1]"), Parse_error);
  EXPECT_THROW(read_event(R"({"event":"res)"), Parse_error);
}

}  // namespace
}  // namespace quest
