// quest/cluster/backend.hpp
//
// The router's reading of a quest_serve backend's events, as free
// functions with no router state: peeking the request id of a result
// line, and merging the per-backend stats events into the one fleet
// event a client sees — one stats schema. Dialing and writing are the
// transport's (serve::Tcp_transport::connect and send, over
// serve::dial_tcp), so backend links live on the router's one loop.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "quest/io/json.hpp"

namespace quest::cluster {

/// The router's own view of the fleet, reported beside the summed
/// backend counters in the merged stats event.
struct Fleet_counters {
  /// Fleet size K: one shard per backend.
  std::size_t shards = 0;
  /// Replication factor R.
  std::size_t replicas = 1;
  /// Shards the health prober currently calls dead.
  std::size_t shards_degraded = 0;
  /// Requests moved to another owner after a death or a shed.
  std::uint64_t replica_failovers = 0;
  /// Journaled registrations replayed onto a backend missing them.
  std::uint64_t repairs = 0;
  /// Best-effort secondary writes that could not be delivered.
  std::uint64_t replica_lag = 0;
};

/// Builds the whole merged fleet stats event, in a fixed field order:
/// "event", "shards", "shards_live" (events merged), every numeric
/// backend counter summed ("uptime_seconds" maxed), the nested "cache"
/// object summed fieldwise, then the five replication fields from
/// `fleet` — "replicas", "shards_degraded", "replica_failovers",
/// "repairs", "replica_lag" — present at every R.
io::Json merge_stats_events(const std::vector<io::Json>& events,
                            const Fleet_counters& fleet);

/// Best-effort id extraction from a backend "result" line, so the
/// router can retire that id's route entry. Result events always start
/// {"event":"result","id":"..." (the builder's field order is fixed);
/// anything else returns empty and the entry stays until cancel or
/// client disconnect — bounded either way.
std::string result_event_id(std::string_view line);

}  // namespace quest::cluster
