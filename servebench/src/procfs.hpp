// servebench/src/procfs.hpp
//
// Readers for the Linux /proc files the benchmark takes its resource
// metrics and environment record from. The parsers take the file text,
// so tests can feed them fixture lines.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <sys/types.h>
#include <vector>

namespace servebench {

/// utime + stime (clock ticks) from one /proc/<pid>/stat line. The comm
/// field may hold spaces and parentheses, so fields are counted from the
/// last ')'. Throws std::runtime_error on a malformed line.
std::uint64_t parse_stat_cpu_ticks(std::string_view stat_line);

/// The steal column of the aggregate "cpu" line of /proc/stat text.
std::uint64_t parse_steal_ticks(std::string_view proc_stat);

/// A "Key:   value kB" field of /proc/<pid>/status text, in kB.
std::uint64_t parse_status_kb(std::string_view status, std::string_view key);

/// Live readers (throw std::runtime_error when the file is unreadable).
std::uint64_t process_cpu_ticks(pid_t pid);
std::uint64_t process_peak_rss_kb(pid_t pid);
std::uint64_t steal_ticks();
long clock_ticks_per_second();
std::string load_average();
std::string cpu_model();

/// Pids of running processes whose command name is one of `names`.
std::vector<pid_t> processes_named(const std::vector<std::string>& names);

}  // namespace servebench
