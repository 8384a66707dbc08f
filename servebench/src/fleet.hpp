// servebench/src/fleet.hpp
//
// Launching and tearing down the quest processes of one deployment, and
// the client's blocking line-oriented TCP connection to them.
//
// Process hygiene: every child is started with PR_SET_PDEATHSIG, so it
// dies with the benchmark even when the benchmark is killed outright;
// SIGINT/SIGTERM kill and reap every child and remove the run's temp
// directory before exiting; the destructor of Fleet does the same on
// every other exit path. Ports are ephemeral (--tcp-port 0, read back
// from the "listening" line).

#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "workloads.hpp"

namespace servebench {

/// Installs the SIGINT/SIGTERM teardown handler. Call once, early.
void install_signal_teardown();

/// Throws when a quest_serve or quest_router is already running: a
/// leftover from an earlier run would share the CPUs being measured.
void refuse_stale_processes();

/// A blocking client connection speaking the line protocol.
class Connection {
 public:
  explicit Connection(std::uint16_t port);
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Writes the whole (newline-terminated) line.
  void send(std::string_view line);
  /// Next line without its newline. Throws on EOF, error or a 30 s
  /// silence.
  std::string read_line();
  /// Sends `line` and returns the first event that is not an
  /// "admitted" or "incumbent" acknowledgement: with one request in
  /// flight, that is the request's terminal event.
  std::string exchange(std::string_view line);

 private:
  int fd_ = -1;
  std::string buffer_;
  std::size_t start_ = 0;
};

/// The quest processes of one deployment: `backends` quest_serve
/// processes and, when `replicas` > 0, a quest_router in front.
class Fleet {
 public:
  /// Spawns and waits for every "listening" line. `work_dir` receives a
  /// fresh temp directory for the router's journal.
  Fleet(const Deployment& deployment, const std::string& bin_dir,
        const std::string& work_dir);
  /// Kills and reaps whatever is still running, removes the temp dir.
  ~Fleet();
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  /// Where clients connect: the router, or the single backend.
  std::uint16_t front_port() const { return front_port_; }
  const std::vector<std::uint16_t>& backend_ports() const {
    return backend_ports_;
  }
  /// Every quest process, router last.
  const std::vector<pid_t>& pids() const { return pids_; }

  /// Sends the shutdown op to the front and waits (bounded) for every
  /// process to exit; stragglers are killed. Returns the number of
  /// processes that did not exit with status 0 on their own.
  std::size_t shutdown();

 private:
  /// Starts one process and reads its port off the "listening" line.
  void spawn(const std::vector<std::string>& argv, std::uint16_t& port);
  void kill_all();

  std::vector<pid_t> pids_;
  std::vector<int> stdout_fds_;
  std::vector<std::uint16_t> backend_ports_;
  std::uint16_t front_port_ = 0;
  std::string temp_dir_;
};

}  // namespace servebench
