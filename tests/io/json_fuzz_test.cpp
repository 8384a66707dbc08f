// Fuzz-style robustness tests: the JSON parser must either parse or throw
// Parse_error — never crash, hang, or accept garbage silently. A
// checked-in corpus of grammar refusals rides along.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "quest/common/rng.hpp"
#include "quest/io/instance_io.hpp"
#include "quest/io/json.hpp"

namespace quest {
namespace {

using io::Json;

/// Parse attempt that accepts both outcomes but surfaces crashes.
void try_parse(const std::string& text) {
  try {
    const Json parsed = Json::parse(text);
    // If it parsed, the dump must re-parse to the same value.
    EXPECT_EQ(Json::parse(parsed.dump()), parsed);
  } catch (const Parse_error&) {
    // fine — malformed input must throw exactly this
  }
}

TEST(Json_fuzz, RandomByteStrings) {
  Rng rng(20260612);
  const std::string alphabet = "{}[]\",:0123456789.eE+-truefalsn \n\t\\u";
  for (int trial = 0; trial < 3000; ++trial) {
    const auto length = static_cast<std::size_t>(rng.uniform_int(40));
    std::string text;
    for (std::size_t i = 0; i < length; ++i) {
      text.push_back(alphabet[rng.uniform_int(alphabet.size())]);
    }
    try_parse(text);
  }
}

TEST(Json_fuzz, MutatedValidDocuments) {
  const std::string valid = R"({"services": [{"name": "a", "cost": 1.5,
    "selectivity": 0.25}], "transfer": [[0]], "tags": [true, null, "x"]})";
  Rng rng(777);
  for (int trial = 0; trial < 3000; ++trial) {
    std::string mutated = valid;
    const int mutations = 1 + static_cast<int>(rng.uniform_int(3));
    for (int m = 0; m < mutations; ++m) {
      const auto pos = static_cast<std::size_t>(
          rng.uniform_int(mutated.size()));
      switch (rng.uniform_int(3)) {
        case 0:  // flip a character
          mutated[pos] = static_cast<char>('!' + rng.uniform_int(90));
          break;
        case 1:  // delete
          mutated.erase(pos, 1);
          break;
        default:  // duplicate
          mutated.insert(pos, 1, mutated[pos]);
          break;
      }
    }
    try_parse(mutated);
  }
}

TEST(Json_fuzz, MutatedInstanceDocumentsNeverCrashTheLoader) {
  // Instance deserialization layers model validation on top of parsing;
  // both failure modes must surface as Parse_error.
  const std::string valid = R"({
    "name": "fuzz",
    "services": [{"name": "a", "cost": 1, "selectivity": 0.5},
                 {"name": "b", "cost": 2, "selectivity": 0.9}],
    "transfer": [[0, 1.5], [0.5, 0]],
    "sink_transfer": [0.1, 0.2],
    "precedence": [[0, 1]]
  })";
  Rng rng(991);
  int loaded = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    std::string mutated = valid;
    const auto pos =
        static_cast<std::size_t>(rng.uniform_int(mutated.size()));
    mutated[pos] = static_cast<char>('!' + rng.uniform_int(90));
    try {
      const auto document = io::instance_from_json(Json::parse(mutated));
      ++loaded;
      EXPECT_GE(document.instance.size(), 1u);
    } catch (const Parse_error&) {
      // expected for most mutations
    }
  }
  // Some mutations only touch names/whitespace and still load.
  EXPECT_GT(loaded, 0);
}

TEST(Json_fuzz, DeeplyNestedMixedStructures) {
  for (int depth : {10, 64, 127, 129, 150}) {
    std::string text;
    for (int i = 0; i < depth; ++i) text += R"({"k":[)";
    text += "1";
    for (int i = 0; i < depth; ++i) text += "]}";
    try_parse(text);  // must not overflow the stack either way
  }
}

TEST(Json_fuzz, CheckedInCorpusIsRefused) {
  // Texts a lax parser would take: each file must be refused whole.
  const std::filesystem::path corpus(QUEST_JSON_CORPUS);
  ASSERT_TRUE(std::filesystem::is_directory(corpus));
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(corpus)) {
    if (!entry.is_regular_file()) continue;
    ++files;
    const std::string text = io::read_file(entry.path().string());
    EXPECT_THROW(Json::parse(text), Parse_error) << entry.path();
  }
  EXPECT_GE(files, 12u) << "JSON fuzz corpus went missing";
}

}  // namespace
}  // namespace quest
