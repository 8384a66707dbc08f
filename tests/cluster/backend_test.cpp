// The router's merged-stats algebra: counters summed, uptime maxed, the
// nested cache object summed fieldwise, the fleet-shape and replication
// fields always present. Dialing and forwarding are exercised end to end
// by the serve/router_smoke and serve/replication_smoke ctest entries
// (scripts/loadgen.py --router).

#include "quest/cluster/backend.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "quest/io/json.hpp"

namespace quest {
namespace {

using cluster::Fleet_counters;
using cluster::merge_stats_events;

io::Json backend_stats(double admitted, double completed, double uptime,
                       double cache_hits) {
  io::Json cache;
  cache.set("lookups", io::Json(cache_hits + 1));
  cache.set("hits", io::Json(cache_hits));
  cache.set("entries", io::Json(2.0));
  io::Json event;
  event.set("event", io::Json("stats"));
  event.set("workers", io::Json(4.0));
  event.set("admitted", io::Json(admitted));
  event.set("completed", io::Json(completed));
  event.set("uptime_seconds", io::Json(uptime));
  event.set("cache", std::move(cache));
  return event;
}

Fleet_counters plain_fleet(std::size_t shards) {
  Fleet_counters fleet;
  fleet.shards = shards;
  return fleet;
}

TEST(Backend_test, MergeSumsCountersAndMaxesUptime) {
  const std::vector<io::Json> events = {
      backend_stats(5, 4, 10.5, 2),
      backend_stats(7, 7, 3.25, 1),
  };
  const io::Json merged = merge_stats_events(events, plain_fleet(3));
  EXPECT_EQ(merged.at("event").as_string(), "stats");
  EXPECT_EQ(merged.at("shards").as_number(), 3.0);
  EXPECT_EQ(merged.at("shards_live").as_number(), 2.0);
  EXPECT_EQ(merged.at("admitted").as_number(), 12.0);
  EXPECT_EQ(merged.at("completed").as_number(), 11.0);
  EXPECT_EQ(merged.at("workers").as_number(), 8.0);
  // Uptime is a max, not a sum: the fleet is as old as its oldest member.
  EXPECT_EQ(merged.at("uptime_seconds").as_number(), 10.5);
  EXPECT_EQ(merged.at("cache").at("hits").as_number(), 3.0);
  EXPECT_EQ(merged.at("cache").at("lookups").as_number(), 5.0);
  EXPECT_EQ(merged.at("cache").at("entries").as_number(), 4.0);
}

TEST(Backend_test, MergeToleratesHeterogeneousEvents) {
  // One backend runs with a bounded queue (extra fields), one without;
  // one reports durability counters. The merge takes the union.
  io::Json bounded = backend_stats(1, 1, 2.0, 0);
  bounded.set("shed", io::Json(3.0));
  bounded.set("queue_cap", io::Json(8.0));
  io::Json durable = backend_stats(2, 2, 1.0, 0);
  durable.set("snapshot_writes", io::Json(5.0));
  const io::Json merged =
      merge_stats_events({bounded, durable}, plain_fleet(2));
  EXPECT_EQ(merged.at("shed").as_number(), 3.0);
  EXPECT_EQ(merged.at("snapshot_writes").as_number(), 5.0);
  EXPECT_EQ(merged.at("admitted").as_number(), 3.0);
}

TEST(Backend_test, MergeOfNothingStillReportsFleetShape) {
  const io::Json merged = merge_stats_events({}, plain_fleet(4));
  EXPECT_EQ(merged.at("shards").as_number(), 4.0);
  EXPECT_EQ(merged.at("shards_live").as_number(), 0.0);
  // One schema at every R: plain sharding (R=1) reports the same five
  // replication fields as a replicated fleet.
  EXPECT_EQ(merged.at("replicas").as_number(), 1.0);
  EXPECT_EQ(merged.at("shards_degraded").as_number(), 0.0);
  EXPECT_EQ(merged.at("replica_failovers").as_number(), 0.0);
  EXPECT_EQ(merged.at("repairs").as_number(), 0.0);
  EXPECT_EQ(merged.at("replica_lag").as_number(), 0.0);
}

TEST(Backend_test, ReplicationFieldsCarryTheRouterCounters) {
  const Fleet_counters fleet{.shards = 3,
                             .replicas = 2,
                             .shards_degraded = 1,
                             .replica_failovers = 7,
                             .repairs = 4,
                             .replica_lag = 2};
  const io::Json merged = merge_stats_events(
      {backend_stats(1, 1, 1.0, 0), backend_stats(2, 2, 1.0, 0)}, fleet);
  EXPECT_EQ(merged.at("shards").as_number(), 3.0);
  EXPECT_EQ(merged.at("shards_live").as_number(), 2.0);
  EXPECT_EQ(merged.at("replicas").as_number(), 2.0);
  EXPECT_EQ(merged.at("shards_degraded").as_number(), 1.0);
  EXPECT_EQ(merged.at("replica_failovers").as_number(), 7.0);
  EXPECT_EQ(merged.at("repairs").as_number(), 4.0);
  EXPECT_EQ(merged.at("replica_lag").as_number(), 2.0);
  // The replication fields close the event, after the backend counters.
  const auto& fields = merged.as_object();
  ASSERT_GE(fields.size(), 5u);
  EXPECT_EQ(fields[fields.size() - 5].first, "replicas");
  EXPECT_EQ(fields.back().first, "replica_lag");
}

}  // namespace
}  // namespace quest
