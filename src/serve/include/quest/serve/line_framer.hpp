// quest/serve/line_framer.hpp
//
// Newline framing over a byte stream, the one framer of the wire
// protocol: the session layer's client lines and the replica router's
// client and backend lines. Chunks of any size go in; each complete line
// comes out once, without its newline or a trailing '\r'. A line longer
// than the cap is reported and discarded up to its newline, and framing
// goes on; a partial line already past the cap is dropped at once, so a
// peer that never sends a newline holds at most one cap of memory.

#pragma once

#include <cstddef>
#include <limits>
#include <string>
#include <string_view>

namespace quest::serve {

/// One connection's framing state. Not thread-safe: one reader owns it.
class Line_framer {
 public:
  /// The default cap never overflows (trusted peers).
  explicit Line_framer(
      std::size_t max_line_bytes = std::numeric_limits<std::size_t>::max())
      : max_line_bytes_(max_line_bytes) {}

  /// Feeds one chunk. Calls `on_line(std::string_view)` for each
  /// complete line — the view dies when the call returns — and
  /// `on_overflow()` once per line beyond the cap. When `on_line`
  /// returns false, framing stops at once: the framer is not touched
  /// again (its owner may be gone) and feed returns false.
  template <typename On_line, typename On_overflow>
  bool feed(std::string_view chunk, On_line&& on_line,
            On_overflow&& on_overflow) {
    if (discarding_) {
      const auto newline = chunk.find('\n');
      if (newline == std::string_view::npos) return true;
      discarding_ = false;
      chunk.remove_prefix(newline + 1);
    }
    buffer_.append(chunk);

    std::size_t start = 0;
    for (;;) {
      const auto newline = buffer_.find('\n', start);
      if (newline == std::string::npos) break;
      std::string_view line(buffer_.data() + start, newline - start);
      start = newline + 1;
      if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
      if (line.size() > max_line_bytes_) {
        on_overflow();
        continue;
      }
      if (!on_line(line)) return false;
    }
    buffer_.erase(0, start);

    if (buffer_.size() > max_line_bytes_) {
      on_overflow();
      buffer_.clear();
      buffer_.shrink_to_fit();
      discarding_ = true;
    }
    return true;
  }

 private:
  std::size_t max_line_bytes_;
  /// Bytes received but not yet terminated by a newline.
  std::string buffer_;
  /// The current line already overflowed and was reported; drop bytes
  /// until its newline.
  bool discarding_ = false;
};

}  // namespace quest::serve
