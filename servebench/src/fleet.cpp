#include "fleet.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "procfs.hpp"
#include "quest/io/json.hpp"

namespace servebench {

namespace {

// Children and the temp directory, visible to the signal handler. Only
// lock-free atomics and fixed buffers: the handler may run anywhere.
constexpr std::size_t k_max_children = 16;
std::atomic<pid_t> g_children[k_max_children];
std::atomic<bool> g_temp_active{false};
char g_temp_dir[512];
char g_journal[600];
char g_journal_tmp[600];

constexpr const char* k_journal_name = "journal.jsonl";

extern "C" void on_teardown_signal(int signal) {
  for (auto& slot : g_children) {
    const pid_t pid = slot.load();
    if (pid > 0) ::kill(pid, SIGKILL);
  }
  for (auto& slot : g_children) {
    const pid_t pid = slot.load();
    if (pid > 0) ::waitpid(pid, nullptr, 0);
  }
  if (g_temp_active.load()) {
    ::unlink(g_journal);
    ::unlink(g_journal_tmp);
    ::rmdir(g_temp_dir);
  }
  ::_exit(128 + signal);
}

void remember_child(pid_t pid) {
  for (auto& slot : g_children) {
    pid_t expected = 0;
    if (slot.compare_exchange_strong(expected, pid)) return;
  }
  ::kill(pid, SIGKILL);
  ::waitpid(pid, nullptr, 0);
  throw std::runtime_error("too many child processes");
}

void forget_child(pid_t pid) {
  for (auto& slot : g_children) {
    pid_t expected = pid;
    slot.compare_exchange_strong(expected, 0);
  }
}

void copy_path(char* out, std::size_t size, const std::string& path) {
  if (path.size() + 1 > size) throw std::runtime_error("path too long");
  std::memcpy(out, path.c_str(), path.size() + 1);
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.substr(0, prefix.size()) == prefix;
}

}  // namespace

void install_signal_teardown() {
  struct sigaction action {};
  action.sa_handler = on_teardown_signal;
  sigemptyset(&action.sa_mask);
  sigaddset(&action.sa_mask, SIGINT);
  sigaddset(&action.sa_mask, SIGTERM);
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);
  // A dropped connection must surface as an error, not kill the client.
  ::signal(SIGPIPE, SIG_IGN);
}

void refuse_stale_processes() {
  const auto stale = processes_named({"quest_serve", "quest_router"});
  if (stale.empty()) return;
  std::string pids;
  for (const pid_t pid : stale) {
    pids += ' ';
    pids += std::to_string(pid);
  }
  throw std::runtime_error(
      "quest processes from an earlier run are still alive (pids" + pids +
      "); stop them before benchmarking");
}

// ---------------------------------------------------------------------------
// Connection

Connection::Connection(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) throw std::runtime_error("socket() failed");
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&address),
                sizeof address) != 0) {
    ::close(fd_);
    throw std::runtime_error("cannot connect to port " +
                             std::to_string(port));
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  timeval timeout{};
  timeout.tv_sec = 30;
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
}

Connection::~Connection() {
  if (fd_ >= 0) ::close(fd_);
}

void Connection::send(std::string_view line) {
  while (!line.empty()) {
    const ssize_t n = ::send(fd_, line.data(), line.size(), MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("connection dropped on send");
    line.remove_prefix(static_cast<std::size_t>(n));
  }
}

std::string Connection::read_line() {
  for (;;) {
    const std::size_t newline = buffer_.find('\n', start_);
    if (newline != std::string::npos) {
      std::string line = buffer_.substr(start_, newline - start_);
      start_ = newline + 1;
      return line;
    }
    if (start_ > 0) {
      buffer_.erase(0, start_);
      start_ = 0;
    }
    char chunk[64 * 1024];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n == 0) throw std::runtime_error("connection closed by the server");
    if (n < 0) throw std::runtime_error("connection read failed or timed out");
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

std::string Connection::exchange(std::string_view line) {
  send(line);
  for (;;) {
    std::string event = read_line();
    if (starts_with(event, R"({"event":"admitted")") ||
        starts_with(event, R"({"event":"incumbent")")) {
      continue;
    }
    return event;
  }
}

// ---------------------------------------------------------------------------
// Fleet

Fleet::Fleet(const Deployment& deployment, const std::string& bin_dir,
             const std::string& work_dir) {
  try {
    std::string tmpl = work_dir + "/servebench-XXXXXX";
    if (::mkdtemp(tmpl.data()) == nullptr) {
      throw std::runtime_error("cannot create a temp dir under " + work_dir);
    }
    temp_dir_ = tmpl;
    copy_path(g_temp_dir, sizeof g_temp_dir, temp_dir_);
    copy_path(g_journal, sizeof g_journal, temp_dir_ + "/" + k_journal_name);
    copy_path(g_journal_tmp, sizeof g_journal_tmp,
              temp_dir_ + "/" + k_journal_name + ".tmp");
    g_temp_active.store(true);

    for (std::size_t b = 0; b < deployment.backends; ++b) {
      std::uint16_t port = 0;
      spawn({bin_dir + "/quest_serve", "--tcp-port", "0", "--workers",
             std::to_string(deployment.workers), "--cache-capacity",
             std::to_string(deployment.cache_capacity)},
            port);
      backend_ports_.push_back(port);
    }
    front_port_ = backend_ports_.front();
    if (deployment.replicas > 0) {
      std::string backends;
      for (const std::uint16_t port : backend_ports_) {
        if (!backends.empty()) backends += ",";
        backends += "127.0.0.1:" + std::to_string(port);
      }
      std::vector<std::string> argv = {
          bin_dir + "/quest_router", "--tcp-port", "0", "--backends",
          backends, "--replicas", std::to_string(deployment.replicas)};
      if (deployment.replicas > 1) {
        argv.push_back("--journal");
        argv.push_back(temp_dir_ + "/" + k_journal_name);
      }
      spawn(argv, front_port_);
    }
  } catch (...) {
    kill_all();
    throw;
  }
}

Fleet::~Fleet() { kill_all(); }

void Fleet::spawn(const std::vector<std::string>& argv,
                   std::uint16_t& port) {
  std::vector<char*> args;
  for (const std::string& arg : argv) {
    args.push_back(const_cast<char*>(arg.c_str()));
  }
  args.push_back(nullptr);
  int out[2];
  if (::pipe2(out, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");

  // Signals stay blocked from fork until the child is registered, so the
  // teardown handler never misses a child.
  sigset_t block;
  sigset_t previous;
  sigemptyset(&block);
  sigaddset(&block, SIGINT);
  sigaddset(&block, SIGTERM);
  ::pthread_sigmask(SIG_BLOCK, &block, &previous);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::signal(SIGINT, SIG_DFL);
    ::signal(SIGTERM, SIG_DFL);
    ::dup2(out[1], STDOUT_FILENO);
    const int null_fd = ::open("/dev/null", O_RDONLY);
    if (null_fd >= 0) ::dup2(null_fd, STDIN_FILENO);
    ::pthread_sigmask(SIG_SETMASK, &previous, nullptr);
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  ::close(out[1]);
  if (pid < 0) {
    ::pthread_sigmask(SIG_SETMASK, &previous, nullptr);
    ::close(out[0]);
    throw std::runtime_error("fork failed");
  }
  try {
    remember_child(pid);
  } catch (...) {
    ::pthread_sigmask(SIG_SETMASK, &previous, nullptr);
    ::close(out[0]);
    throw;
  }
  pids_.push_back(pid);
  stdout_fds_.push_back(out[0]);
  ::pthread_sigmask(SIG_SETMASK, &previous, nullptr);

  // The first stdout line announces the bound port.
  std::string line;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (line.find('\n') == std::string::npos) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    pollfd waiting{out[0], POLLIN, 0};
    if (left.count() <= 0 ||
        ::poll(&waiting, 1, static_cast<int>(left.count())) == 0) {
      throw std::runtime_error(argv[0] + " did not announce its port");
    }
    char chunk[256];
    const ssize_t n = ::read(out[0], chunk, sizeof chunk);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error(argv[0] + " exited at start");
    line.append(chunk, static_cast<std::size_t>(n));
  }
  const quest::io::Json listening =
      quest::io::Json::parse(line.substr(0, line.find('\n')));
  if (listening.at("event").as_string() != "listening") {
    throw std::runtime_error(argv[0] + " printed " + line);
  }
  port = static_cast<std::uint16_t>(listening.at("port").as_number());
}

std::size_t Fleet::shutdown() {
  try {
    Connection front(front_port_);
    front.send("{\"op\":\"shutdown\"}\n");
    for (;;) {
      if (starts_with(front.read_line(), R"({"event":"shutdown-complete")")) {
        break;
      }
    }
  } catch (const std::exception&) {
    // The front closing the connection is the normal end of shutdown.
  }
  std::size_t unclean = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  for (const pid_t pid : pids_) {
    int status = 0;
    pid_t done = 0;
    while ((done = ::waitpid(pid, &status, WNOHANG)) == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    if (done == 0) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, &status, 0);
      ++unclean;
    } else if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      ++unclean;
    }
    forget_child(pid);
  }
  pids_.clear();
  kill_all();
  return unclean;
}

void Fleet::kill_all() {
  for (const pid_t pid : pids_) ::kill(pid, SIGKILL);
  for (const pid_t pid : pids_) {
    ::waitpid(pid, nullptr, 0);
    forget_child(pid);
  }
  pids_.clear();
  for (const int fd : stdout_fds_) ::close(fd);
  stdout_fds_.clear();
  if (!temp_dir_.empty()) {
    g_temp_active.store(false);
    std::error_code ignored;
    std::filesystem::remove_all(temp_dir_, ignored);
    temp_dir_.clear();
  }
}

}  // namespace servebench
