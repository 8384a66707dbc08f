// tests/support/loopback.hpp
//
// Real-socket test rig for the serving stack: a blocking line-oriented
// client over one loopback connection, and one full serving stack
// (Tcp_transport event loop -> Session_manager -> Server) on an
// ephemeral port, the loop on its own thread — what
// quest_serve --tcp-port 0 builds. Every wait takes a timeout, so a
// broken server fails a test instead of hanging it.

#pragma once

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>

#include "quest/common/timer.hpp"
#include "quest/io/json.hpp"
#include "quest/serve/server.hpp"
#include "quest/serve/session.hpp"
#include "quest/serve/tcp_transport.hpp"

namespace quest::test {

/// Blocking line-oriented test client over one loopback socket.
class Client {
 public:
  explicit Client(std::uint16_t port, int receive_buffer_bytes = 0) {
    connect_to(port, receive_buffer_bytes);
  }

  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  void send_line(const std::string& line) { send_raw(line + "\n"); }

  void send_raw(const std::string& bytes) {
    ASSERT_TRUE(send_within(bytes, 30.0)) << "send stalled";
  }

  /// Sends every byte unless the peer stops reading for
  /// `timeout_seconds`; false then (or on a socket error).
  bool send_within(const std::string& bytes, double timeout_seconds) {
    Timer timer;
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t count = ::send(fd_, bytes.data() + sent,
                                   bytes.size() - sent,
                                   MSG_NOSIGNAL | MSG_DONTWAIT);
      if (count > 0) {
        sent += static_cast<std::size_t>(count);
        continue;
      }
      if (count < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
          errno != EINTR) {
        return false;
      }
      const double remaining = timeout_seconds - timer.seconds();
      if (remaining <= 0.0) return false;
      pollfd waiter{fd_, POLLOUT, 0};
      ::poll(&waiter, 1, static_cast<int>(remaining * 1000) + 1);
    }
    return true;
  }

  /// Reads one newline-terminated line; empty string on EOF/timeout
  /// (with a test failure on timeout unless `quiet`).
  std::string read_line(double timeout_seconds = 30.0, bool quiet = false) {
    Timer timer;
    for (;;) {
      const auto newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        const std::string line = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        return line;
      }
      const double remaining = timeout_seconds - timer.seconds();
      if (remaining <= 0.0) {
        if (!quiet) ADD_FAILURE() << "timed out reading a line";
        return {};
      }
      pollfd waiter{fd_, POLLIN, 0};
      const int ready =
          ::poll(&waiter, 1, static_cast<int>(remaining * 1000) + 1);
      if (ready <= 0) continue;
      char chunk[4096];
      const ssize_t count = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (count == 0) return {};  // EOF
      if (count < 0) {
        if (errno == EINTR) continue;
        ADD_FAILURE() << "recv: " << std::strerror(errno);
        return {};
      }
      buffer_.append(chunk, static_cast<std::size_t>(count));
    }
  }

  /// Reads events until one matches `event` kind (optionally a specific
  /// request id); fails and returns null on timeout/EOF.
  io::Json wait_event(const std::string& event, const std::string& id = {},
                      double timeout_seconds = 30.0) {
    Timer timer;
    while (timer.seconds() < timeout_seconds) {
      const std::string line =
          read_line(timeout_seconds - timer.seconds());
      if (line.empty()) break;
      const io::Json parsed = io::Json::parse(line);
      if (parsed.at("event").as_string() != event) continue;
      if (!id.empty()) {
        const io::Json* event_id = parsed.find("id");
        if (event_id == nullptr || event_id->as_string() != id) continue;
      }
      return parsed;
    }
    ADD_FAILURE() << "no '" << event << "' event arrived";
    return io::Json();
  }

  bool at_eof(double timeout_seconds = 10.0) {
    Timer timer;
    while (timer.seconds() < timeout_seconds) {
      pollfd waiter{fd_, POLLIN, 0};
      if (::poll(&waiter, 1, 100) <= 0) continue;
      char chunk[4096];
      const ssize_t count = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (count == 0) return true;
      if (count < 0 && errno != EINTR) return true;
      if (count > 0) buffer_.append(chunk, static_cast<std::size_t>(count));
    }
    return false;
  }

 private:
  // ASSERT macros return values and so cannot live in the constructor.
  void connect_to(std::uint16_t port, int receive_buffer_bytes) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd_, 0) << std::strerror(errno);
    if (receive_buffer_bytes > 0) {
      // Before connect, so the advertised window is actually small —
      // the backpressure test needs the kernel pipes to fill up.
      ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &receive_buffer_bytes,
                   sizeof(receive_buffer_bytes));
    }
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr);
    ASSERT_EQ(::connect(fd_, reinterpret_cast<sockaddr*>(&address),
                        sizeof(address)),
              0)
        << std::strerror(errno);
  }

  int fd_ = -1;
  std::string buffer_;
};

/// Polls `done` every few milliseconds for up to `seconds`.
template <typename Predicate>
bool eventually(Predicate&& done, double seconds) {
  Timer timer;
  while (timer.seconds() < seconds) {
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return done();
}

/// One full serving stack on an ephemeral loopback port, the transport
/// loop on its own thread — what quest_serve --tcp-port 0 builds.
class Stack {
 public:
  explicit Stack(serve::Server_options server_options = {},
                 serve::Tcp_options tcp_options = {},
                 serve::Session_options session_options = {})
      : transport_(std::move(tcp_options)),
        server_(server_options),
        sessions_(server_, transport_, session_options),
        loop_([this] {
          shutdown_served_ = sessions_.serve();
          finished_.store(true);
        }) {}

  ~Stack() { stop(); }

  std::uint16_t port() const { return transport_.port(); }
  std::string address() const {
    return "127.0.0.1:" + std::to_string(port());
  }
  serve::Tcp_transport& transport() { return transport_; }
  serve::Server& server() { return server_; }

  void stop() {
    if (!loop_.joinable()) return;
    transport_.stop();
    loop_.join();
    server_.shutdown();
  }

  /// Waits up to `seconds` for a client's shutdown op to end the serve
  /// (no forced stop); true when it did.
  bool wait_shutdown_served(double seconds = 30.0) {
    if (!eventually([this] { return finished_.load(); }, seconds)) {
      return false;
    }
    if (loop_.joinable()) loop_.join();
    return shutdown_served_;
  }

 private:
  serve::Tcp_transport transport_;
  serve::Server server_;
  serve::Session_manager sessions_;
  bool shutdown_served_ = false;
  std::atomic<bool> finished_{false};
  std::thread loop_;
};

}  // namespace quest::test
