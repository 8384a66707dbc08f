// quest/io/json.hpp
//
// quest's JSON codec: one pull reader (Json_reader) with a strict RFC 8259
// grammar, a minimal document model (Json) built on top of it, and a
// deterministic writer. Covers the subset quest needs to persist problem
// instances, plans and experiment records and to speak the wire protocol:
// null, booleans, finite doubles, strings with standard escapes, arrays,
// and objects (insertion-ordered).
//
// The reader is the only scanner. Json::parse drives it to build a DOM;
// typed decoders (io::read_instance, serve::parse_op) drive it to decode
// straight into their structs without building one. Grammar, depth limit
// and error positions are therefore the same on every path.
//
// Numbers follow RFC 8259 exactly: `-? (0 | [1-9][0-9]*) (.[0-9]+)?
// ([eE][+-]?[0-9]+)?`. Leading zeros, a bare or trailing '.', and a '+'
// sign are refused with "invalid number". Every value is read in place
// by std::from_chars, the correctly rounded double, bit-equal to what
// strtod reads. A token that underflows reads as strtod reads it (±0 or
// the nearest subnormal), and one that overflows a double is refused.
// The writer (std::to_chars) prints integers below 1e15 without a
// fraction (the bytes of printf "%.0f") and every other value with 17
// significant digits (the bytes of "%.17g"), so parse(dump(x)) is
// bit-identical to x.

#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "quest/common/error.hpp"

namespace quest::io {

/// A JSON value. Value-semantic; copies are deep.
class Json {
 public:
  using Array = std::vector<Json>;
  /// Insertion order is preserved for deterministic output.
  using Object = std::vector<std::pair<std::string, Json>>;

  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}
  Json(bool b) : value_(b) {}
  Json(double d) : value_(d) {}
  Json(int i) : value_(static_cast<double>(i)) {}
  Json(std::size_t u) : value_(static_cast<double>(u)) {}
  Json(const char* s) : value_(std::string(s)) {}
  Json(std::string s) : value_(std::move(s)) {}
  Json(Array a) : value_(std::move(a)) {}
  Json(Object o) : value_(std::move(o)) {}

  bool is_null() const noexcept { return holds<std::nullptr_t>(); }
  bool is_bool() const noexcept { return holds<bool>(); }
  bool is_number() const noexcept { return holds<double>(); }
  bool is_string() const noexcept { return holds<std::string>(); }
  bool is_array() const noexcept { return holds<Array>(); }
  bool is_object() const noexcept { return holds<Object>(); }

  /// Typed accessors; throw Parse_error on type mismatch (documents are
  /// external input, so mismatches are data errors, not API misuse).
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  const Object& as_object() const;

  /// Object field lookup; throws Parse_error when absent.
  const Json& at(std::string_view key) const;
  /// Object field lookup (the first member with this key); returns
  /// nullptr when absent.
  const Json* find(std::string_view key) const;
  /// Array element; throws Parse_error when out of range.
  const Json& at(std::size_t index) const;

  /// Appends a field to an object (creates the object on a null value).
  void set(std::string key, Json value);
  /// Appends an element to an array (creates the array on a null value).
  void push_back(Json value);

  /// Serializes; `indent` > 0 pretty-prints with that many spaces.
  std::string dump(int indent = 0) const;

  /// Strict parser; throws Parse_error with line/column on any violation.
  static Json parse(std::string_view text);

  friend bool operator==(const Json&, const Json&);

 private:
  template <typename T>
  bool holds() const noexcept {
    return std::holds_alternative<T>(value_);
  }

  std::variant<std::nullptr_t, bool, double, std::string, Array, Object>
      value_;
};

/// A pull reader over one JSON text. The caller asks for the value it
/// expects next: a mismatch throws Parse_error "JSON type mismatch:
/// expected <kind>" (the message of Json's typed accessors), a grammar
/// violation throws Parse_error "JSON parse error at line L, column C:
/// ...". Nesting deeper than 128 containers is refused.
///
/// Objects and arrays are walked with begin_object()/next_key() and
/// begin_array()/next_element(); after next_key() or next_element()
/// returns true, the caller must consume exactly one value (a read_*,
/// begin_*, or skip_value()).
class Json_reader {
 public:
  enum class Kind { null, boolean, number, string, array, object };

  explicit Json_reader(std::string_view text) noexcept : text_(text) {}

  /// The kind of the next value, judged by its first character.
  Kind peek();

  /// Enters an object; walk its members with next_key().
  void begin_object();
  /// Moves to the next member of the innermost object: true with its key
  /// (the reader then sits on the member's value), false once the object
  /// is closed.
  bool next_key(std::string_view& key);
  /// Enters an array; walk its elements with next_element().
  void begin_array();
  /// Moves to the next element of the innermost array: true when the
  /// reader sits on one, false once the array is closed.
  bool next_element();

  /// A string value. The view points into the text when the string has
  /// no escapes, else into a buffer that the next string or key reuses.
  std::string_view read_string();
  double read_number();
  bool read_bool();
  void read_null();
  /// Consumes the next value whole, checking its grammar and numbers as
  /// strictly as reading it would; returns the value's text.
  std::string_view skip_value();

  /// Requires that nothing but whitespace follows.
  void finish();

 private:
  static constexpr int k_max_depth = 128;

  [[noreturn]] void fail(const std::string& message) const;
  /// Skips the mistyped value (a malformed one reports its grammar error
  /// instead), then throws the type mismatch.
  [[noreturn]] void mismatch(const char* expected);
  void skip_whitespace() noexcept;
  void expect(char c);
  std::string_view scan_string();
  double scan_number();

  std::string_view text_;
  std::size_t pos_ = 0;
  /// Open containers around the reader's position.
  int depth_ = 0;
  /// The innermost container was just opened: no ',' before its first
  /// member. Every enclosing container already has a member, so closing
  /// one clears the flag without a stack.
  bool first_ = false;
  std::string unescaped_;
};

/// Throws the Parse_error of a required member that is absent (the
/// message of Json::at).
[[noreturn]] void throw_missing_key(std::string_view key);

/// Reads the object at `in`, calling `on_member(key)` for the first
/// occurrence of each key listed in `keys` (the argument is the listed
/// string), with `in` on that member's value, which the callback must
/// consume. Other members and later duplicates are skipped, as
/// Json::find returns the first occurrence. `Source` is Json_reader or
/// another source with its pull interface; at most 64 keys.
template <typename Source, typename On_member>
void read_object(Source& in, std::initializer_list<std::string_view> keys,
                 On_member&& on_member) {
  std::uint64_t seen = 0;
  in.begin_object();
  std::string_view key;
  while (in.next_key(key)) {
    std::uint64_t bit = 1;
    auto known = keys.begin();
    for (; known != keys.end() && *known != key; ++known) bit <<= 1;
    if (known == keys.end() || (seen & bit) != 0) {
      in.skip_value();
      continue;
    }
    seen |= bit;
    on_member(*known);
  }
}

/// Reads an entire file; throws Parse_error when unreadable.
std::string read_file(const std::string& path);
/// Writes (truncates) a file; throws Parse_error on failure.
void write_file(const std::string& path, std::string_view contents);

}  // namespace quest::io
