// quest/serve/transport.hpp
//
// The bottom layer of the serving stack: a Transport moves raw bytes
// between clients and the process, and knows nothing about lines, JSON,
// or the optimization service. The layering is
//
//   Transport (this file, tcp_transport.hpp)   bytes <-> connections
//     -> Session_manager (session.hpp)         framing, id scoping, fan-out
//       -> protocol.hpp                        ops <-> events (codec)
//         -> Server (server.hpp)               admission, workers, cache
//
// A transport owns a set of connections, each identified by a
// Connection_id that is never reused within one transport instance. It
// delivers inbound bytes to Handlers::on_data *on its own loop thread*
// (all handler callbacks are single-threaded), and accepts outbound
// event lines through send(), which is safe to call from any thread —
// the serving layer's worker pool finishes jobs on worker threads and
// sends results directly.
//
// Two implementations ship:
//  * Stdio_transport — exactly one connection (id 0) over stdin/stdout,
//    preserving the original quest_serve pipe behavior byte for byte:
//    one event per output line, flushed immediately.
//  * Tcp_transport (tcp_transport.hpp) — an epoll/poll event loop
//    multiplexing many non-blocking sockets with per-connection buffers
//    and write-side backpressure. It also dials outbound links
//    (connect) onto the same loop — their reads are never paused; a
//    send past the buffer cap fails instead — and runs tasks posted from
//    other threads (post) on the loop thread: the replica router lives
//    entirely on it.

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string_view>

namespace quest::serve {

/// Identifies one client connection within a transport. Ids are unique
/// for the lifetime of the transport (never reused after a close).
using Connection_id = std::uint64_t;

/// Byte-stream transport interface. See the file comment for the
/// threading contract: run()/handler callbacks are one loop thread,
/// send()/stop() may be called from any thread.
class Transport {
 public:
  struct Handlers {
    /// A connection appeared (before any of its data).
    std::function<void(Connection_id)> on_open;
    /// A chunk of inbound bytes (arbitrary framing — the session layer
    /// reassembles lines). The view is only valid during the call.
    std::function<void(Connection_id, std::string_view)> on_data;
    /// The connection is gone (EOF, error, or close()); no further
    /// callbacks will reference this id.
    std::function<void(Connection_id)> on_close;
  };

  virtual ~Transport() = default;

  /// Runs the transport loop until stop() (or, for stdio, EOF). Every
  /// handler is invoked on the calling thread.
  virtual void run(const Handlers& handlers) = 0;

  /// Makes run() return: stops accepting and reading immediately, then
  /// makes a bounded best effort to flush outbound buffers so events
  /// sent just before the stop (e.g. "shutdown-complete") still reach
  /// their clients. Thread-safe; callable from inside a handler.
  virtual void stop() = 0;

  /// Queues one event line (without the trailing newline — the
  /// transport frames it) to a connection. Returns false when the
  /// connection no longer exists; the line is then dropped, which is
  /// the correct fate of events for a vanished client. Thread-safe.
  virtual bool send(Connection_id connection, std::string_view line) = 0;

  /// Closes one connection (flushing what its outbound buffer holds).
  /// on_close fires on the loop thread. Thread-safe; unknown ids are a
  /// no-op.
  virtual void close(Connection_id connection) = 0;
};

/// The original quest_serve pipe loop as a Transport: one connection
/// (id 0), lines read from stdin on run()'s thread, events written to
/// stdout one per line and flushed immediately (clients drive
/// request/response loops interactively, so buffering would deadlock).
class Stdio_transport final : public Transport {
 public:
  void run(const Handlers& handlers) override;
  /// Takes effect after the current stdin line (getline cannot be
  /// interrupted portably); the session layer stops on a shutdown op
  /// before the next read, which is the path that matters.
  void stop() override { stopped_.store(true, std::memory_order_relaxed); }
  bool send(Connection_id connection, std::string_view line) override;
  void close(Connection_id connection) override;

 private:
  std::atomic<bool> stopped_{false};
  std::atomic<bool> closed_{false};
  std::mutex write_mutex_;
};

}  // namespace quest::serve
