// Fuzzing of serve::parse_op, the decoder every client line goes through.
// The contract under mutation: every input either decodes or throws
// Parse_error — nothing else, and never a crash — and a line parse_op
// accepts is valid JSON whose first-occurrence values (the id, the
// instance numbers, the budget, the seed) are exactly what parse_op
// decoded. The mutations follow tests/store/snapshot_test.cpp: every bit
// flip and every truncation of real optimize, register, batch and observe
// lines, member reorders, duplicate keys, and seeded structural edits;
// a checked-in corpus of lines that must be refused rides along.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "quest/common/rng.hpp"
#include "quest/io/instance_io.hpp"
#include "quest/io/json.hpp"
#include "quest/serve/protocol.hpp"
#include "support/helpers.hpp"

namespace quest {
namespace {

using io::Json;
using serve::Op;

std::uint64_t bits_of(double d) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof d);
  return bits;
}

/// The DOM's first-occurrence number at `key`, or `fallback`.
double dom_number(const Json& object, const char* key, double fallback) {
  const Json* field = object.find(key);
  return field == nullptr ? fallback : field->as_number();
}

void expect_same_instance(const model::Instance& decoded, const Json& doc,
                          const std::string& what) {
  const Json::Array& services = doc.find("services")->as_array();
  ASSERT_EQ(decoded.size(), services.size()) << what;
  const std::size_t n = decoded.size();
  for (std::size_t i = 0; i < n; ++i) {
    const auto id = static_cast<model::Service_id>(i);
    EXPECT_EQ(bits_of(decoded.service(id).cost),
              bits_of(services[i].find("cost")->as_number()))
        << what;
    EXPECT_EQ(bits_of(decoded.service(id).selectivity),
              bits_of(services[i].find("selectivity")->as_number()))
        << what;
  }
  const Json::Array& rows = doc.find("transfer")->as_array();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_EQ(bits_of(decoded.transfer_matrix().at_unchecked(i, j)),
                bits_of(rows[i].as_array()[j].as_number()))
          << what;
    }
  }
  const Json* sink = doc.find("sink_transfer");
  for (std::size_t i = 0; i < n; ++i) {
    const double expected = sink == nullptr ? 0.0 : sink->at(i).as_number();
    EXPECT_EQ(bits_of(decoded.sink_transfer(static_cast<model::Service_id>(i))),
              bits_of(expected))
        << what;
  }
}

void expect_same_instance_ref(
    const std::string& name,
    const std::optional<io::Instance_document>& inline_doc,
    const Json& object, const std::string& what) {
  const Json& instance = *object.find("instance");
  if (instance.is_string()) {
    EXPECT_FALSE(inline_doc.has_value()) << what;
    EXPECT_EQ(name, instance.as_string()) << what;
  } else {
    ASSERT_TRUE(inline_doc.has_value()) << what;
    expect_same_instance(inline_doc->instance, instance, what);
  }
}

void expect_same_optimize(const serve::Optimize_op& op, const Json& object,
                          const std::string& default_id,
                          const std::string& what) {
  const Json* id = object.find("id");
  EXPECT_EQ(op.id, id == nullptr ? default_id : id->as_string()) << what;
  expect_same_instance_ref(op.instance_name, op.inline_instance, object,
                           what);
  EXPECT_EQ(op.seed, static_cast<std::uint64_t>(dom_number(object, "seed", 0)))
      << what;
  opt::Budget budget;
  if (const Json* field = object.find("budget")) {
    budget.time_limit_seconds = dom_number(*field, "deadline_ms", 0) / 1e3;
    budget.node_limit =
        static_cast<std::uint64_t>(dom_number(*field, "node_limit", 0));
    budget.cost_target = dom_number(*field, "cost_target", 0);
  }
  EXPECT_EQ(bits_of(op.budget.time_limit_seconds),
            bits_of(budget.time_limit_seconds))
      << what;
  EXPECT_EQ(op.budget.node_limit, budget.node_limit) << what;
  EXPECT_EQ(bits_of(op.budget.cost_target), bits_of(budget.cost_target))
      << what;
}

/// What parse_op decoded must be what the DOM holds first.
void expect_agrees_with_dom(const Op& op, const Json& dom,
                            const std::string& what) {
  const std::string kind = dom.find("op")->as_string();
  if (const auto* optimize = std::get_if<serve::Optimize_op>(&op)) {
    EXPECT_EQ(kind, "optimize") << what;
    expect_same_optimize(*optimize, dom, "", what);
  } else if (const auto* reg = std::get_if<serve::Register_op>(&op)) {
    EXPECT_EQ(kind, "register") << what;
    EXPECT_EQ(reg->name, dom.find("name")->as_string()) << what;
    expect_same_instance(reg->document.instance, *dom.find("instance"),
                         what);
  } else if (const auto* batch = std::get_if<serve::Batch_op>(&op)) {
    EXPECT_EQ(kind, "optimize_batch") << what;
    EXPECT_EQ(batch->id, dom.find("id")->as_string()) << what;
    const Json::Array& requests = dom.find("requests")->as_array();
    ASSERT_EQ(batch->requests.size(), requests.size()) << what;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      expect_same_optimize(batch->requests[i], requests[i],
                           batch->id + "/" + std::to_string(i), what);
    }
  } else if (const auto* observe = std::get_if<serve::Observe_op>(&op)) {
    EXPECT_EQ(kind, "observe") << what;
    expect_same_instance_ref(observe->instance_name,
                             observe->inline_instance, dom, what);
    const Json::Array& plan = dom.find("plan")->as_array();
    ASSERT_EQ(observe->plan.size(), plan.size()) << what;
    for (std::size_t i = 0; i < plan.size(); ++i) {
      EXPECT_EQ(observe->plan[i],
                static_cast<model::Service_id>(plan[i].as_number()))
          << what;
    }
  } else if (const auto* cancel = std::get_if<serve::Cancel_op>(&op)) {
    EXPECT_EQ(kind, "cancel") << what;
    EXPECT_EQ(cancel->id, dom.find("id")->as_string()) << what;
  }
}

/// Runs parse_op on `line` under the fuzz contract; true when accepted.
bool decode(const std::string& line, const std::string& what) {
  std::optional<Op> op;
  try {
    op = serve::parse_op(line);
  } catch (const Parse_error&) {
    return false;
  } catch (const std::exception& error) {
    ADD_FAILURE() << what << ": parse_op threw something other than "
                  << "Parse_error: " << error.what();
    return false;
  }
  Json dom;
  try {
    dom = Json::parse(line);
  } catch (const Parse_error& error) {
    ADD_FAILURE() << what << ": parse_op accepted a line Json::parse "
                  << "refuses (" << error.what() << ")";
    return true;
  }
  expect_agrees_with_dom(*op, dom, what);
  return true;
}

/// Real lines of every op kind that carries data: inline and named
/// optimizes (every optional member set), a register, a batch and an
/// observe with cost moments.
std::vector<std::string> seed_lines() {
  const model::Instance instance = test::sink_instance(4, 3);
  constraints::Precedence_graph precedence(4);
  precedence.add_edge(0, 2);
  precedence.add_edge(1, 3);
  const std::string document = io::to_json(instance, &precedence).dump();
  return {
      R"({"op":"optimize","id":"r1","instance":)" + document +
          R"(,"optimizer":"bnb","budget":{"deadline_ms":250,)"
          R"("node_limit":1000,"cost_target":1.5},"seed":7,)"
          R"("policy":"overlapped","model":"independent","stream":true,)"
          R"("cache":false,"execute":{"tuples":500,"block_size":16,)"
          R"("workers":2}})",
      R"({"op":"optimize","id":"r2","instance":"prod","optimizer":"dp",)"
      R"("budget":{"node_limit":4000},"seed":1})",
      R"({"op":"register","name":"prod","instance":)" +
          io::to_json(test::selective_instance(3, 5)).dump() + "}",
      R"({"op":"optimize_batch","id":"b1","requests":[{"instance":"prod"},)"
      R"({"id":"x","instance":"prod","optimizer":"dp","seed":4,)"
      R"("budget":{"deadline_ms":10}}]})",
      R"({"op":"observe","instance":"prod","plan":[2,0,1],)"
      R"("tuples_in":[100,50,25],"tuples_out":[50,25,10],)"
      R"("cost_count":[1,1,1],"cost_sum":[1.5,2,0.5],)"
      R"("cost_sq_sum":[2.25,4,0.25]})",
  };
}

TEST(Protocol_fuzz, SeedLinesDecodeAndAgreeWithTheDom) {
  for (const std::string& line : seed_lines()) {
    EXPECT_TRUE(decode(line, line)) << line;
  }
}

TEST(Protocol_fuzz, EveryBitFlipIsRefusedOrAgreesWithTheDom) {
  for (const std::string& pristine : seed_lines()) {
    for (std::size_t at = 0; at < pristine.size(); ++at) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string mutated = pristine;
        mutated[at] = static_cast<char>(
            static_cast<unsigned char>(mutated[at]) ^ (1u << bit));
        decode(mutated, "flip of bit " + std::to_string(bit) + " at byte " +
                            std::to_string(at) + " of " + pristine);
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
}

TEST(Protocol_fuzz, EveryTruncationIsRefused) {
  for (const std::string& line : seed_lines()) {
    for (std::size_t cut = 0; cut < line.size(); ++cut) {
      EXPECT_FALSE(decode(line.substr(0, cut), line))
          << "prefix length " << cut;
    }
  }
}

/// `json` with the members of every object shuffled.
Json shuffled(const Json& json, Rng& rng) {
  if (json.is_array()) {
    Json out = Json::Array{};
    for (const Json& element : json.as_array()) {
      out.push_back(shuffled(element, rng));
    }
    return out;
  }
  if (!json.is_object()) return json;
  Json::Object members = json.as_object();
  for (std::size_t i = members.size(); i > 1; --i) {
    std::swap(members[i - 1], members[rng.uniform_int(std::uint64_t{i})]);
  }
  for (auto& member : members) member.second = shuffled(member.second, rng);
  return Json(std::move(members));
}

TEST(Protocol_fuzz, MemberOrderDoesNotMatter) {
  Rng rng(0x0dd0dd);
  for (const std::string& line : seed_lines()) {
    const Json dom = Json::parse(line);
    for (int round = 0; round < 20; ++round) {
      const std::string reordered = shuffled(dom, rng).dump();
      EXPECT_TRUE(decode(reordered, "reordered " + reordered));
    }
  }
}

/// Every object of `json` (depth first), as paths of member/element
/// indices from the root.
void object_paths(const Json& json, std::vector<std::size_t>& path,
                  std::vector<std::vector<std::size_t>>& out) {
  if (json.is_object()) {
    out.push_back(path);
    const Json::Object& members = json.as_object();
    for (std::size_t i = 0; i < members.size(); ++i) {
      path.push_back(i);
      object_paths(members[i].second, path, out);
      path.pop_back();
    }
  } else if (json.is_array()) {
    const Json::Array& elements = json.as_array();
    for (std::size_t i = 0; i < elements.size(); ++i) {
      path.push_back(i);
      object_paths(elements[i], path, out);
      path.pop_back();
    }
  }
}

/// A copy of `json` whose object at `path` gets a duplicate of member
/// `member` holding `value`, placed after the original or before it.
Json with_duplicate(const Json& json, const std::vector<std::size_t>& path,
                    std::size_t depth, std::size_t member, const Json& value,
                    bool before) {
  if (json.is_array()) {
    Json::Array elements = json.as_array();
    elements[path[depth]] = with_duplicate(elements[path[depth]], path,
                                           depth + 1, member, value, before);
    return Json(std::move(elements));
  }
  Json::Object members = json.as_object();
  if (depth < path.size()) {
    members[path[depth]].second = with_duplicate(
        members[path[depth]].second, path, depth + 1, member, value, before);
    return Json(std::move(members));
  }
  const std::string key = members[member].first;
  members.insert(members.begin() + static_cast<std::ptrdiff_t>(
                                       before ? member : members.size()),
                 {key, value});
  return Json(std::move(members));
}

TEST(Protocol_fuzz, DuplicateKeysTakeTheFirstOccurrence) {
  Rng rng(0xd0b1e);
  const Json decoys[] = {Json(nullptr), Json(true), Json(-3.5),
                         Json(1e300),   Json("x"),  Json(Json::Array{}),
                         Json(Json::Object{})};
  for (const std::string& line : seed_lines()) {
    const Json dom = Json::parse(line);
    std::vector<std::size_t> path;
    std::vector<std::vector<std::size_t>> objects;
    object_paths(dom, path, objects);
    for (int round = 0; round < 60; ++round) {
      const auto& target = objects[rng.uniform_int(objects.size())];
      const Json* object = &dom;
      for (const std::size_t step : target) {
        object = object->is_array() ? &object->as_array()[step]
                                    : &object->as_object()[step].second;
      }
      if (object->as_object().empty()) continue;
      const std::size_t member = rng.uniform_int(object->as_object().size());
      const Json& decoy = decoys[rng.uniform_int(std::size(decoys))];
      // After the original, the decoy is never read: still accepted.
      const std::string after =
          with_duplicate(dom, target, 0, member, decoy, false).dump();
      EXPECT_TRUE(decode(after, "duplicate after: " + after));
      // Before it, the decoy is what counts; either way the DOM agrees.
      const std::string before =
          with_duplicate(dom, target, 0, member, decoy, true).dump();
      decode(before, "duplicate before: " + before);
    }
  }
}

TEST(Protocol_fuzz, SeededStructuralMutationsNeverEscapeTheContract) {
  // Deterministic seed so CI replays bit-for-bit; reseed to explore.
  Rng rng(0x5eeded0b5eedull);
  const std::vector<std::string> lines = seed_lines();
  const std::string alphabet = "{}[]\",:-.eE+0123456789 \\utrufalsn";
  for (int round = 0; round < 4000; ++round) {
    std::string mutated = lines[rng.uniform_int(lines.size())];
    const int edits = 1 + static_cast<int>(rng.uniform_int(std::uint64_t{3}));
    for (int edit = 0; edit < edits && !mutated.empty(); ++edit) {
      const std::size_t at = rng.uniform_int(mutated.size());
      const char c = alphabet[rng.uniform_int(alphabet.size())];
      switch (rng.uniform_int(std::uint64_t{4})) {
        case 0:
          mutated[at] = c;
          break;
        case 1:
          mutated.insert(at, 1, c);
          break;
        case 2:
          mutated.erase(at, 1 + rng.uniform_int(std::uint64_t{8}));
          break;
        default: {
          const std::size_t len = rng.uniform_int(mutated.size() - at) + 1;
          mutated.insert(at, mutated.substr(at, len));
        }
      }
    }
    decode(mutated, "structural round " + std::to_string(round) + ": " +
                        mutated);
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(Protocol_fuzz, CheckedInCorpusIsRefused) {
  // Lines that once looked plausible to a lax decoder: each file is one
  // line (a trailing newline is dropped) that parse_op must refuse.
  const std::filesystem::path corpus(QUEST_PROTOCOL_CORPUS);
  ASSERT_TRUE(std::filesystem::is_directory(corpus));
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(corpus)) {
    if (!entry.is_regular_file()) continue;
    ++files;
    std::string line = io::read_file(entry.path().string());
    if (!line.empty() && line.back() == '\n') line.pop_back();
    EXPECT_FALSE(decode(line, entry.path().string())) << entry.path();
  }
  EXPECT_GE(files, 16u) << "protocol fuzz corpus went missing";
}

}  // namespace
}  // namespace quest
