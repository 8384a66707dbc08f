// quest/serve/tcp_transport.hpp
//
// The connection-scale transport: a single event-loop thread multiplexes
// up to `max_connections` non-blocking TCP sockets with epoll (poll(2)
// on non-Linux builds). Design points:
//
//  * One loop thread owns all sockets and connection state; worker
//    threads never touch a file descriptor. send() appends to the
//    connection's outbound buffer under a mutex and wakes the loop
//    through a self-pipe, so results stream out without a thread per
//    connection.
//  * Write-side backpressure: a connection whose outbound buffer
//    exceeds `write_buffer_cap` stops being *read* until the buffer
//    drains below half the cap. A slow or stalled reader therefore
//    cannot pump new requests into the server while its results pile
//    up — memory per connection stays bounded by what is already in
//    flight, and the admission queue sheds the rest.
//  * Accepting past `max_connections` writes a single typed
//    "overloaded" error line and closes — refusal is explicit, not a
//    silent RST.
//  * stop() finishes with a bounded flush pass so events emitted just
//    before shutdown ("shutdown-complete") still reach their clients.
//  * Outbound links: connect("host:port") dials a peer and puts the
//    socket on the same loop, where its bytes arrive through on_data
//    and its end through on_close like an accepted connection's (there
//    is no on_open: the caller holds the id). Links do not count
//    against `max_connections` and their reads are never paused — a
//    proxy that stops reading a backend which is blocked writing to it
//    deadlocks the pair. Instead a send() that would push a link's
//    buffer past `write_buffer_cap` fails, and close() on a link drops
//    whatever it still buffers: a peer that stopped reading is dead to
//    its caller, who decides what its pending work becomes.
//  * post(task) runs a task on the loop thread (through the same wake
//    pipe as send), so other threads hand work to loop-owned state
//    without a lock of their own.
//
// Thread contract: as Transport (run()/handlers on the loop thread,
// send()/close()/stop()/stats()/post() from anywhere); connect() is
// loop-thread only — from a handler or a posted task.

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "quest/serve/transport.hpp"

namespace quest::serve {

struct Tcp_options {
  /// Bind address; loopback by default (the service speaks plain TCP
  /// with no auth — exposing it wider is an explicit decision).
  std::string bind_address = "127.0.0.1";
  /// Listen port; 0 binds an ephemeral port, readable via port().
  std::uint16_t port = 0;
  /// Accept cap: connection attempts beyond this are refused with a
  /// typed "overloaded" error line.
  std::size_t max_connections = 1024;
  /// Backpressure threshold: stop reading a connection whose outbound
  /// buffer exceeds this many bytes; resume below half of it. On an
  /// outbound link, a send() that would pass it fails instead.
  std::size_t write_buffer_cap = 1 << 20;
  /// Bytes per read() call.
  std::size_t read_chunk = 64 * 1024;
  /// When > 0, pins SO_SNDBUF on accepted sockets. The default (0)
  /// leaves kernel autotuning on; tests pin it so the write-side
  /// backpressure path engages deterministically.
  int send_buffer_bytes = 0;
  /// How long stop() keeps flushing pending outbound bytes before
  /// closing connections that will not drain.
  double flush_timeout_seconds = 5.0;
};

/// Loop-lifetime counters of accepted connections (outbound links are
/// not counted), for tests and the load harness. Monotonic except
/// `connections` (currently open).
struct Tcp_stats {
  std::uint64_t accepted = 0;
  std::uint64_t refused = 0;
  std::uint64_t closed = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  /// Times a connection's reads were paused by the write-buffer cap —
  /// nonzero proves backpressure actually engaged.
  std::uint64_t reads_paused = 0;
  std::size_t connections = 0;
  std::size_t max_connections_seen = 0;
};

/// Blocking TCP connect to "host:port" with TCP_NODELAY set; -1 when the
/// address is malformed or the peer unreachable. The one dial path:
/// Tcp_transport::connect and the cluster health prober both use it.
int dial_tcp(const std::string& address) noexcept;

/// The epoll transport described in the file comment.
class Tcp_transport final : public Transport {
 public:
  /// Binds and listens immediately; throws quest::Error when the
  /// socket/bind/listen fails (address in use, bad address, ...).
  explicit Tcp_transport(Tcp_options options);
  ~Tcp_transport() override;

  Tcp_transport(const Tcp_transport&) = delete;
  Tcp_transport& operator=(const Tcp_transport&) = delete;

  /// The actually bound port (resolves an ephemeral request).
  std::uint16_t port() const noexcept;

  void run(const Handlers& handlers) override;
  void stop() override;
  bool send(Connection_id connection, std::string_view line) override;
  void close(Connection_id connection) override;

  /// Dials "host:port" (dial_tcp) and adds the socket to the loop as an
  /// outbound link; nullopt when the dial fails or stop() was seen.
  /// Loop thread only.
  std::optional<Connection_id> connect(const std::string& address);

  /// Runs `task` on the loop thread, after the current batch of events.
  /// Tasks posted once run() has returned never run. Thread-safe.
  void post(std::function<void()> task);

  Tcp_stats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace quest::serve
