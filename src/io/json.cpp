#include "quest/io/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <system_error>

namespace quest::io {

namespace {

[[noreturn]] void type_error(const char* expected) {
  throw Parse_error(std::string("JSON type mismatch: expected ") + expected);
}

bool is_digit(char c) noexcept { return c >= '0' && c <= '9'; }

}  // namespace

void throw_missing_key(std::string_view key) {
  throw Parse_error("JSON object is missing key '" + std::string(key) + "'");
}

// ---------------------------------------------------------------------
// Json_reader

void Json_reader::fail(const std::string& message) const {
  std::size_t line = 1;
  std::size_t column = 1;
  for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
    if (text_[i] == '\n') {
      ++line;
      column = 1;
    } else {
      ++column;
    }
  }
  std::ostringstream out;
  out << "JSON parse error at line " << line << ", column " << column
      << ": " << message;
  throw Parse_error(out.str());
}

void Json_reader::mismatch(const char* expected) {
  skip_value();
  type_error(expected);
}

void Json_reader::skip_whitespace() noexcept {
  while (pos_ < text_.size()) {
    const char c = text_[pos_];
    if (c != ' ' && c != '\t' && c != '\n' && c != '\r') return;
    ++pos_;
  }
}

void Json_reader::expect(char c) {
  if (pos_ >= text_.size() || text_[pos_] != c) {
    fail(std::string("expected '") + c + "'");
  }
  ++pos_;
}

Json_reader::Kind Json_reader::peek() {
  skip_whitespace();
  if (depth_ > k_max_depth) fail("nesting too deep");
  if (pos_ >= text_.size()) fail("unexpected end of input");
  const auto literal = [this](std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) fail("invalid literal");
  };
  switch (text_[pos_]) {
    case '{':
      return Kind::object;
    case '[':
      return Kind::array;
    case '"':
      return Kind::string;
    case 't':
      literal("true");
      return Kind::boolean;
    case 'f':
      literal("false");
      return Kind::boolean;
    case 'n':
      literal("null");
      return Kind::null;
    default:
      // scan_number() refuses whatever is not a number.
      return Kind::number;
  }
}

void Json_reader::begin_object() {
  if (peek() != Kind::object) mismatch("object");
  ++pos_;
  ++depth_;
  first_ = true;
}

bool Json_reader::next_key(std::string_view& key) {
  skip_whitespace();
  if (first_) {
    first_ = false;
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      --depth_;
      return false;
    }
  } else {
    if (pos_ >= text_.size()) fail("unterminated object");
    const char c = text_[pos_++];
    if (c == '}') {
      --depth_;
      return false;
    }
    if (c != ',') fail("expected ',' or '}' in object");
    skip_whitespace();
  }
  if (pos_ >= text_.size() || text_[pos_] != '"') {
    fail("expected object key string");
  }
  key = scan_string();
  skip_whitespace();
  expect(':');
  return true;
}

void Json_reader::begin_array() {
  if (peek() != Kind::array) mismatch("array");
  ++pos_;
  ++depth_;
  first_ = true;
}

bool Json_reader::next_element() {
  skip_whitespace();
  if (first_) {
    first_ = false;
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      --depth_;
      return false;
    }
    return true;
  }
  if (pos_ >= text_.size()) fail("unterminated array");
  const char c = text_[pos_++];
  if (c == ']') {
    --depth_;
    return false;
  }
  if (c != ',') fail("expected ',' or ']' in array");
  return true;
}

std::string_view Json_reader::read_string() {
  if (peek() != Kind::string) mismatch("string");
  return scan_string();
}

std::string_view Json_reader::scan_string() {
  ++pos_;  // the opening quote
  const std::size_t start = pos_;
  // Fast path: no escapes, so the value is a view of the text.
  while (pos_ < text_.size()) {
    const char c = text_[pos_];
    if (c == '"') return text_.substr(start, pos_++ - start);
    if (c == '\\') break;
    ++pos_;
    if (static_cast<unsigned char>(c) < 0x20) {
      fail("unescaped control character in string");
    }
  }
  unescaped_.assign(text_.data() + start, pos_ - start);
  const auto next = [this] {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_++];
  };
  for (;;) {
    const char c = next();
    if (c == '"') return unescaped_;
    if (static_cast<unsigned char>(c) < 0x20) {
      fail("unescaped control character in string");
    }
    if (c != '\\') {
      unescaped_.push_back(c);
      continue;
    }
    const char escape = next();
    switch (escape) {
      case '"': unescaped_.push_back('"'); break;
      case '\\': unescaped_.push_back('\\'); break;
      case '/': unescaped_.push_back('/'); break;
      case 'b': unescaped_.push_back('\b'); break;
      case 'f': unescaped_.push_back('\f'); break;
      case 'n': unescaped_.push_back('\n'); break;
      case 'r': unescaped_.push_back('\r'); break;
      case 't': unescaped_.push_back('\t'); break;
      case 'u': {
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
          const char h = next();
          code <<= 4;
          if (h >= '0' && h <= '9') {
            code |= static_cast<unsigned>(h - '0');
          } else if (h >= 'a' && h <= 'f') {
            code |= static_cast<unsigned>(h - 'a' + 10);
          } else if (h >= 'A' && h <= 'F') {
            code |= static_cast<unsigned>(h - 'A' + 10);
          } else {
            fail("invalid \\u escape");
          }
        }
        // UTF-8 encode the BMP code point (surrogate pairs are not
        // needed for quest documents but are rejected loudly).
        if (code >= 0xD800 && code <= 0xDFFF) {
          fail("surrogate pairs are not supported");
        }
        if (code < 0x80) {
          unescaped_.push_back(static_cast<char>(code));
        } else if (code < 0x800) {
          unescaped_.push_back(static_cast<char>(0xC0 | (code >> 6)));
          unescaped_.push_back(static_cast<char>(0x80 | (code & 0x3F)));
        } else {
          unescaped_.push_back(static_cast<char>(0xE0 | (code >> 12)));
          unescaped_.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
          unescaped_.push_back(static_cast<char>(0x80 | (code & 0x3F)));
        }
        break;
      }
      default:
        fail("invalid escape sequence");
    }
  }
}

double Json_reader::read_number() {
  if (peek() != Kind::number) mismatch("number");
  return scan_number();
}

double Json_reader::scan_number() {
  const char* const begin = text_.data() + pos_;
  const char* const end = text_.data() + text_.size();
  const char* p = begin;
  const auto digits = [&p, end] {
    const char* const first = p;
    while (p != end && is_digit(*p)) ++p;
    return p - first;
  };
  if (p != end && *p == '-') ++p;
  const char* const int_first = p;
  const std::ptrdiff_t count = digits();
  // No leading zeros: a "0" integer part is followed by no other digit.
  bool valid = count == 1 || (count > 1 && *int_first != '0');
  if (valid && p != end && *p == '.') {
    ++p;
    valid = digits() > 0;
  }
  if (valid && p != end && (*p == 'e' || *p == 'E')) {
    ++p;
    if (p != end && (*p == '+' || *p == '-')) ++p;
    valid = digits() > 0;
  }
  if (!valid) {
    // Name the would-be token: everything up to the next delimiter.
    while (p != end && std::strchr(",]} \t\r\n", *p) == nullptr) ++p;
    pos_ += static_cast<std::size_t>(p - begin);
    if (p == begin) fail("invalid number");
    fail("invalid number '" + std::string(begin, p) + "'");
  }
  pos_ += static_cast<std::size_t>(p - begin);
  double value = 0.0;
  const auto result = std::from_chars(begin, p, value);
  if (result.ec == std::errc::result_out_of_range) {
    // from_chars leaves the value unset when it under- or overflows;
    // strtod rounds underflow to ±0 or a subnormal (accepted) and
    // overflow to ±HUGE_VAL (refused below).
    const std::string token(begin, p);
    value = std::strtod(token.c_str(), nullptr);
    if (!std::isfinite(value)) fail("invalid number '" + token + "'");
  } else if (result.ec != std::errc() || result.ptr != p) {
    fail("invalid number '" + std::string(begin, p) + "'");
  }
  return value;
}

bool Json_reader::read_bool() {
  if (peek() != Kind::boolean) mismatch("bool");
  const bool value = text_[pos_] == 't';
  pos_ += value ? 4 : 5;
  return value;
}

void Json_reader::read_null() {
  if (peek() != Kind::null) mismatch("null");
  pos_ += 4;
}

std::string_view Json_reader::skip_value() {
  std::string_view key;
  const Kind kind = peek();
  const std::size_t start = pos_;
  switch (kind) {
    case Kind::object:
      begin_object();
      while (next_key(key)) skip_value();
      break;
    case Kind::array:
      begin_array();
      while (next_element()) skip_value();
      break;
    case Kind::string:
      scan_string();
      break;
    case Kind::number:
      scan_number();
      break;
    case Kind::boolean:
      read_bool();
      break;
    case Kind::null:
      read_null();
      break;
  }
  return text_.substr(start, pos_ - start);
}

void Json_reader::finish() {
  skip_whitespace();
  if (pos_ != text_.size()) fail("trailing content after JSON value");
}

// ---------------------------------------------------------------------
// Json

namespace {

/// The DOM consumer of the reader.
Json read_json(Json_reader& in) {
  switch (in.peek()) {
    case Json_reader::Kind::object: {
      Json::Object object;
      in.begin_object();
      std::string_view key;
      while (in.next_key(key)) {
        std::string name(key);  // the value's own strings reuse the buffer
        object.emplace_back(std::move(name), read_json(in));
      }
      return Json(std::move(object));
    }
    case Json_reader::Kind::array: {
      Json::Array array;
      in.begin_array();
      while (in.next_element()) array.push_back(read_json(in));
      return Json(std::move(array));
    }
    case Json_reader::Kind::string:
      return Json(std::string(in.read_string()));
    case Json_reader::Kind::number:
      return Json(in.read_number());
    case Json_reader::Kind::boolean:
      return Json(in.read_bool());
    case Json_reader::Kind::null:
      in.read_null();
      return Json(nullptr);
  }
  return Json();
}

void dump_string(const std::string& s, std::string& out) {
  static constexpr char hex[] = "0123456789abcdef";
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        const auto byte = static_cast<unsigned char>(c);
        if (byte < 0x20) {
          out += "\\u00";
          out.push_back(hex[byte >> 4]);
          out.push_back(hex[byte & 0xF]);
        } else {
          out.push_back(c);
        }
      }
    }
  }
  out.push_back('"');
}

void dump_number(double d, std::string& out) {
  QUEST_EXPECTS(std::isfinite(d), "JSON numbers must be finite");
  // Integers print without a fraction (the bytes of "%.0f"); everything
  // else round-trips via max_digits10 (the bytes of "%.17g").
  char buffer[32];
  const bool integral = d == std::floor(d) && std::fabs(d) < 1e15;
  const std::to_chars_result result =
      integral ? std::to_chars(buffer, buffer + sizeof buffer, d,
                               std::chars_format::fixed, 0)
               : std::to_chars(buffer, buffer + sizeof buffer, d,
                               std::chars_format::general, 17);
  out.append(buffer, result.ptr);
}

}  // namespace

bool Json::as_bool() const {
  if (!is_bool()) type_error("bool");
  return std::get<bool>(value_);
}

double Json::as_number() const {
  if (!is_number()) type_error("number");
  return std::get<double>(value_);
}

const std::string& Json::as_string() const {
  if (!is_string()) type_error("string");
  return std::get<std::string>(value_);
}

const Json::Array& Json::as_array() const {
  if (!is_array()) type_error("array");
  return std::get<Array>(value_);
}

const Json::Object& Json::as_object() const {
  if (!is_object()) type_error("object");
  return std::get<Object>(value_);
}

const Json& Json::at(std::string_view key) const {
  const Json* found = find(key);
  if (found == nullptr) throw_missing_key(key);
  return *found;
}

const Json* Json::find(std::string_view key) const {
  if (!is_object()) type_error("object");
  for (const auto& [k, v] : std::get<Object>(value_)) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Json& Json::at(std::size_t index) const {
  const Array& array = as_array();
  if (index >= array.size()) {
    throw Parse_error("JSON array index out of range");
  }
  return array[index];
}

void Json::set(std::string key, Json value) {
  if (is_null()) value_ = Object{};
  if (!is_object()) type_error("object");
  std::get<Object>(value_).emplace_back(std::move(key), std::move(value));
}

void Json::push_back(Json value) {
  if (is_null()) value_ = Array{};
  if (!is_array()) type_error("array");
  std::get<Array>(value_).push_back(std::move(value));
}

namespace {

void dump_value(const Json& json, std::string& out, int indent, int depth);

void newline_indent(std::string& out, int indent, int depth) {
  if (indent <= 0) return;
  out.push_back('\n');
  out.append(static_cast<std::size_t>(indent * depth), ' ');
}

void dump_value(const Json& json, std::string& out, int indent, int depth) {
  if (json.is_null()) {
    out += "null";
  } else if (json.is_bool()) {
    out += json.as_bool() ? "true" : "false";
  } else if (json.is_number()) {
    dump_number(json.as_number(), out);
  } else if (json.is_string()) {
    dump_string(json.as_string(), out);
  } else if (json.is_array()) {
    const auto& array = json.as_array();
    if (array.empty()) {
      out += "[]";
      return;
    }
    out.push_back('[');
    for (std::size_t i = 0; i < array.size(); ++i) {
      if (i) out.push_back(',');
      newline_indent(out, indent, depth + 1);
      dump_value(array[i], out, indent, depth + 1);
    }
    newline_indent(out, indent, depth);
    out.push_back(']');
  } else {
    const auto& object = json.as_object();
    if (object.empty()) {
      out += "{}";
      return;
    }
    out.push_back('{');
    bool first = true;
    for (const auto& [key, value] : object) {
      if (!first) out.push_back(',');
      first = false;
      newline_indent(out, indent, depth + 1);
      dump_string(key, out);
      out.push_back(':');
      if (indent > 0) out.push_back(' ');
      dump_value(value, out, indent, depth + 1);
    }
    newline_indent(out, indent, depth);
    out.push_back('}');
  }
}

}  // namespace

std::string Json::dump(int indent) const {
  std::string out;
  dump_value(*this, out, indent, 0);
  return out;
}

Json Json::parse(std::string_view text) {
  Json_reader reader(text);
  Json value = read_json(reader);
  reader.finish();
  return value;
}

bool operator==(const Json& a, const Json& b) { return a.value_ == b.value_; }

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Parse_error("cannot open file '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (!in.good() && !in.eof()) {
    throw Parse_error("error while reading '" + path + "'");
  }
  return buffer.str();
}

void write_file(const std::string& path, std::string_view contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw Parse_error("cannot open file '" + path + "' for writing");
  out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
  if (!out.good()) throw Parse_error("error while writing '" + path + "'");
}

}  // namespace quest::io
