#include "procfs.hpp"

#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace servebench {

namespace {

std::uint64_t parse_u64(std::string_view text) {
  if (text.empty() ||
      !std::all_of(text.begin(), text.end(),
                   [](char c) { return c >= '0' && c <= '9'; })) {
    throw std::runtime_error("not a counter: '" + std::string(text) + "'");
  }
  return std::strtoull(std::string(text).c_str(), nullptr, 10);
}

std::vector<std::string_view> split_spaces(std::string_view text) {
  std::vector<std::string_view> fields;
  std::size_t at = 0;
  while (at < text.size()) {
    const std::size_t start = text.find_first_not_of(" \t\n", at);
    if (start == std::string_view::npos) break;
    const std::size_t end = std::min(text.find_first_of(" \t\n", start),
                                     text.size());
    fields.push_back(text.substr(start, end - start));
    at = end;
  }
  return fields;
}

/// Whole file as a string; empty when unreadable.
std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) return {};
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

}  // namespace

std::uint64_t parse_stat_cpu_ticks(std::string_view stat_line) {
  const std::size_t close = stat_line.rfind(')');
  if (close == std::string_view::npos) {
    throw std::runtime_error("malformed /proc/<pid>/stat line");
  }
  // After "pid (comm)": state is field 3, utime field 14, stime field 15.
  const auto fields = split_spaces(stat_line.substr(close + 1));
  if (fields.size() < 13) {
    throw std::runtime_error("short /proc/<pid>/stat line");
  }
  return parse_u64(fields[11]) + parse_u64(fields[12]);
}

std::uint64_t parse_steal_ticks(std::string_view proc_stat) {
  std::string_view first = proc_stat.substr(0, proc_stat.find('\n'));
  const auto fields = split_spaces(first);
  // cpu user nice system idle iowait irq softirq steal ...
  if (fields.size() < 9 || fields[0] != "cpu") {
    throw std::runtime_error("malformed /proc/stat cpu line");
  }
  return parse_u64(fields[8]);
}

std::uint64_t parse_status_kb(std::string_view status, std::string_view key) {
  std::size_t at = 0;
  while (at < status.size()) {
    const std::size_t end = std::min(status.find('\n', at), status.size());
    const std::string_view line = status.substr(at, end - at);
    at = end + 1;
    if (line.size() > key.size() && line.substr(0, key.size()) == key &&
        line[key.size()] == ':') {
      const auto fields = split_spaces(line.substr(key.size() + 1));
      if (fields.empty()) break;
      return parse_u64(fields[0]);
    }
  }
  throw std::runtime_error("no '" + std::string(key) + "' in status");
}

std::uint64_t process_cpu_ticks(pid_t pid) {
  const std::string text =
      read_file("/proc/" + std::to_string(pid) + "/stat");
  if (text.empty()) {
    throw std::runtime_error("process gone: " + std::to_string(pid));
  }
  return parse_stat_cpu_ticks(text);
}

std::uint64_t process_peak_rss_kb(pid_t pid) {
  const std::string text =
      read_file("/proc/" + std::to_string(pid) + "/status");
  if (text.empty()) {
    throw std::runtime_error("process gone: " + std::to_string(pid));
  }
  return parse_status_kb(text, "VmHWM");
}

std::uint64_t steal_ticks() {
  return parse_steal_ticks(read_file("/proc/stat"));
}

long clock_ticks_per_second() { return ::sysconf(_SC_CLK_TCK); }

std::string load_average() {
  const std::string text = read_file("/proc/loadavg");
  const auto fields = split_spaces(text);
  if (fields.size() < 3) return "unknown";
  return std::string(fields[0]) + " " + std::string(fields[1]) + " " +
         std::string(fields[2]);
}

std::string cpu_model() {
  const std::string text = read_file("/proc/cpuinfo");
  const std::string key = "model name";
  const std::size_t at = text.find(key);
  if (at == std::string::npos) return "unknown";
  const std::size_t colon = text.find(':', at);
  const std::size_t end = text.find('\n', at);
  if (colon == std::string::npos || colon > end) return "unknown";
  const std::size_t start = text.find_first_not_of(' ', colon + 1);
  return text.substr(start, end - start);
}

std::vector<pid_t> processes_named(const std::vector<std::string>& names) {
  std::vector<pid_t> found;
  DIR* proc = ::opendir("/proc");
  if (proc == nullptr) return found;
  while (const dirent* entry = ::readdir(proc)) {
    const std::string_view name = entry->d_name;
    if (name.empty() ||
        !std::all_of(name.begin(), name.end(),
                     [](char c) { return c >= '0' && c <= '9'; })) {
      continue;
    }
    std::string comm = read_file("/proc/" + std::string(name) + "/comm");
    while (!comm.empty() && comm.back() == '\n') comm.pop_back();
    if (std::find(names.begin(), names.end(), comm) != names.end()) {
      found.push_back(static_cast<pid_t>(std::atol(std::string(name).c_str())));
    }
  }
  ::closedir(proc);
  return found;
}

}  // namespace servebench
