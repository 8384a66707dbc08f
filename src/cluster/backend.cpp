#include "quest/cluster/backend.hpp"

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <map>
#include <utility>

namespace quest::cluster {

io::Json merge_stats_events(const std::vector<io::Json>& events,
                            const Fleet_counters& fleet) {
  std::vector<std::string> order;
  std::map<std::string, double> sums;
  std::vector<std::string> cache_order;
  std::map<std::string, double> cache_sums;
  bool saw_cache = false;

  for (const io::Json& event : events) {
    if (!event.is_object()) continue;
    for (const auto& [key, value] : event.as_object()) {
      if (key == "event") continue;
      if (key == "cache" && value.is_object()) {
        saw_cache = true;
        for (const auto& [cache_key, cache_value] : value.as_object()) {
          if (!cache_value.is_number()) continue;
          if (cache_sums.find(cache_key) == cache_sums.end()) {
            cache_order.push_back(cache_key);
          }
          cache_sums[cache_key] += cache_value.as_number();
        }
        continue;
      }
      if (!value.is_number()) continue;
      if (sums.find(key) == sums.end()) order.push_back(key);
      if (key == "uptime_seconds") {
        sums[key] = std::max(sums[key], value.as_number());
      } else {
        sums[key] += value.as_number();
      }
    }
  }

  io::Json merged;
  merged.set("event", "stats");
  merged.set("shards", static_cast<double>(fleet.shards));
  merged.set("shards_live", static_cast<double>(events.size()));
  for (const std::string& key : order) merged.set(key, sums[key]);
  if (saw_cache) {
    io::Json cache;
    for (const std::string& key : cache_order) cache.set(key, cache_sums[key]);
    merged.set("cache", std::move(cache));
  }
  merged.set("replicas", static_cast<double>(fleet.replicas));
  merged.set("shards_degraded", static_cast<double>(fleet.shards_degraded));
  merged.set("replica_failovers",
             static_cast<double>(fleet.replica_failovers));
  merged.set("repairs", static_cast<double>(fleet.repairs));
  merged.set("replica_lag", static_cast<double>(fleet.replica_lag));
  return merged;
}

int dial_backend(const std::string& address) noexcept {
  const auto colon = address.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == address.size()) {
    return -1;
  }
  const std::string host = address.substr(0, colon);
  const std::string port = address.substr(colon + 1);

  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* results = nullptr;
  if (::getaddrinfo(host.c_str(), port.c_str(), &hints, &results) != 0) {
    return -1;
  }
  int fd = -1;
  for (addrinfo* entry = results; entry != nullptr; entry = entry->ai_next) {
    fd = ::socket(entry->ai_family, entry->ai_socktype, entry->ai_protocol);
    if (fd < 0) continue;
    if (::connect(fd, entry->ai_addr, entry->ai_addrlen) == 0) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      break;
    }
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(results);
  return fd;
}

bool send_backend_line(int fd, std::string_view line) noexcept {
  std::string framed(line);
  framed.push_back('\n');
  std::size_t offset = 0;
  while (offset < framed.size()) {
    const ssize_t n = ::send(fd, framed.data() + offset,
                             framed.size() - offset, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    offset += static_cast<std::size_t>(n);
  }
  return true;
}

std::string result_event_id(std::string_view line) {
  constexpr std::string_view prefix = "{\"event\":\"result\",\"id\":\"";
  if (line.substr(0, prefix.size()) != prefix) return {};
  const auto rest = line.substr(prefix.size());
  std::string id;
  for (std::size_t i = 0; i < rest.size(); ++i) {
    if (rest[i] == '\\') return {};  // escaped id: punt, keep the entry
    if (rest[i] == '"') return id;
    id.push_back(rest[i]);
  }
  return {};
}

}  // namespace quest::cluster
