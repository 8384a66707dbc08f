#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "quest/io/json.hpp"

namespace quest {
namespace {

using io::Json;

TEST(Json_test, ParsesScalars) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_TRUE(Json::parse("true").as_bool());
  EXPECT_FALSE(Json::parse("false").as_bool());
  EXPECT_DOUBLE_EQ(Json::parse("42").as_number(), 42.0);
  EXPECT_DOUBLE_EQ(Json::parse("-3.5e2").as_number(), -350.0);
  EXPECT_EQ(Json::parse("\"hi\"").as_string(), "hi");
}

TEST(Json_test, ParsesNestedStructures) {
  const Json doc = Json::parse(
      R"({"a": [1, 2, {"b": true}], "c": {"d": null}, "e": "x"})");
  EXPECT_TRUE(doc.is_object());
  EXPECT_DOUBLE_EQ(doc.at("a").at(0).as_number(), 1.0);
  EXPECT_TRUE(doc.at("a").at(2).at("b").as_bool());
  EXPECT_TRUE(doc.at("c").at("d").is_null());
  EXPECT_EQ(doc.at("e").as_string(), "x");
  EXPECT_EQ(doc.find("missing"), nullptr);
  EXPECT_THROW(doc.at("missing"), Parse_error);
  EXPECT_THROW(doc.at("a").at(3), Parse_error);
}

TEST(Json_test, StringEscapes) {
  const Json doc = Json::parse(R"("line\nbreak \"quoted\" tab\tA")");
  EXPECT_EQ(doc.as_string(), "line\nbreak \"quoted\" tab\tA");
  const Json unicode = Json::parse(R"("é€")");
  EXPECT_EQ(unicode.as_string(), "\xC3\xA9\xE2\x82\xAC");  // é€ in UTF-8
}

TEST(Json_test, RoundTripsThroughDump) {
  const char* documents[] = {
      "null",
      "true",
      R"({"n": 12, "values": [0.5, 1.25, -3], "label": "a\"b"})",
      R"([[1,2],[3,4],[]])",
      R"({"empty_object": {}, "empty_array": []})",
  };
  for (const char* text : documents) {
    const Json parsed = Json::parse(text);
    EXPECT_EQ(Json::parse(parsed.dump()), parsed) << text;
    EXPECT_EQ(Json::parse(parsed.dump(2)), parsed) << text;
  }
}

TEST(Json_test, DumpIsDeterministicAndOrdered) {
  Json doc;
  doc.set("zebra", 1);
  doc.set("alpha", 2);
  EXPECT_EQ(doc.dump(), R"({"zebra":1,"alpha":2})");
}

TEST(Json_test, NumberFormatting) {
  EXPECT_EQ(Json(3.0).dump(), "3");
  EXPECT_EQ(Json(-2.5).dump(), "-2.5");
  EXPECT_EQ(Json(0.1).dump(), "0.10000000000000001");  // exact round-trip
  EXPECT_DOUBLE_EQ(Json::parse(Json(0.1).dump()).as_number(), 0.1);
}

TEST(Json_test, BuilderHelpers) {
  Json array;
  array.push_back(1);
  array.push_back("two");
  EXPECT_EQ(array.as_array().size(), 2u);
  Json object;
  object.set("k", std::move(array));
  EXPECT_EQ(object.at("k").at(1).as_string(), "two");
  // push_back on an object / set on an array are type errors.
  EXPECT_THROW(object.push_back(1), Parse_error);
  Json arr2;
  arr2.push_back(0);
  EXPECT_THROW(arr2.set("k", 1), Parse_error);
}

TEST(Json_test, ParseErrors) {
  const char* bad[] = {
      "",           "{",          "[1,",       "tru",
      "\"unterminated", "{\"a\" 1}", "{\"a\":1,}",  "[1 2]",
      "01abc",      "nul",        "\"bad\\q\"", "{'a':1}",
      "1 2",        "--1",        "\"\\u12G4\"",
  };
  for (const char* text : bad) {
    EXPECT_THROW(Json::parse(text), Parse_error) << "'" << text << "'";
  }
}

TEST(Json_test, NumberGrammarFollowsRfc8259) {
  // Leading zeros, a bare or trailing '.', a '+' sign and an empty
  // exponent are not JSON numbers (RFC 8259, section 6).
  const char* bad[] = {"[01]", "[.5]", "[5.]", "[-.5]", "[1.e5]", "[-01]",
                       "[00]", "[+1]", "[1e]", "[1e+]", "[-]"};
  for (const char* text : bad) {
    try {
      Json::parse(text);
      ADD_FAILURE() << "accepted '" << text << "'";
    } catch (const Parse_error& e) {
      EXPECT_NE(std::string(e.what()).find("invalid number"),
                std::string::npos)
          << text << ": " << e.what();
    }
  }
  // Every form the grammar allows still reads.
  const std::pair<const char*, double> good[] = {
      {"0", 0.0},         {"-0", -0.0},      {"0.5", 0.5},
      {"-0.5", -0.5},     {"10", 10.0},      {"1e5", 1e5},
      {"1E+5", 1e5},      {"1e-05", 1e-5},   {"-1.25e-3", -1.25e-3},
      {"0e0", 0.0},       {"0.0", 0.0},      {"120.5E2", 12050.0},
  };
  for (const auto& [text, value] : good) {
    EXPECT_EQ(Json::parse(text).as_number(), value) << text;
  }
}

TEST(Json_test, ParseErrorReportsLocation) {
  try {
    Json::parse("{\n  \"a\": oops\n}");
    FAIL() << "expected Parse_error";
  } catch (const Parse_error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("line 2"), std::string::npos) << message;
  }
}

TEST(Json_test, DeepNestingIsRejected) {
  std::string deep;
  for (int i = 0; i < 200; ++i) deep += "[";
  for (int i = 0; i < 200; ++i) deep += "]";
  EXPECT_THROW(Json::parse(deep), Parse_error);
}

TEST(Json_test, ControlCharactersMustBeEscaped) {
  EXPECT_THROW(Json::parse("\"a\nb\""), Parse_error);
  EXPECT_THROW(Json::parse("\"\x01\""), Parse_error);
}

TEST(Json_test, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/quest_json_test.json";
  io::write_file(path, "{\"x\": 1}");
  EXPECT_DOUBLE_EQ(Json::parse(io::read_file(path)).at("x").as_number(), 1.0);
  EXPECT_THROW(io::read_file("/nonexistent/dir/file.json"), Parse_error);
  EXPECT_THROW(io::write_file("/nonexistent/dir/file.json", "x"), Parse_error);
}

}  // namespace
}  // namespace quest
