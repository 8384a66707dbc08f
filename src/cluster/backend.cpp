#include "quest/cluster/backend.hpp"

#include <algorithm>
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
