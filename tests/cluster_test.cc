// Sharded serving cluster (docs/sharding.md): framed transport, hash-ring
// topology, wire protocol round trips, WAL-shipping replica store — and
// the fleet robustness gates:
//
//   * Bit-identity: a one-shard cluster with failover disabled (and
//     persistence on) produces the same daily utilities and the same
//     platform/replica state bytes as a plain in-process
//     AssignmentService without persistence.
//   * SIGKILL failover: a shard killed mid-day under load is detected by
//     socket EOF, its ranges are adopted from the shipped checkpoint
//     envelope + WAL chain, in-flight tickets are redriven — and the
//     fleet-wide conservation identity
//       submitted == assigned + unmatched + failed + dropped_appeals
//     holds with zero duplicate terminals, with recovered fleet utility
//     inside a bounded gap of the unkilled run.
//   * SIGSTOP failover: a wedged (stopped) shard keeps its socket open, so
//     only the heartbeat deadline can detect the death; the same gates
//     must hold on that path.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "lacb/cluster/coordinator.h"
#include "lacb/cluster/frame.h"
#include "lacb/cluster/hash_ring.h"
#include "lacb/cluster/protocol.h"
#include "lacb/cluster/replica_store.h"
#include "lacb/core/policy_suite.h"
#include "lacb/obs/obs.h"
#include "lacb/persist/wal.h"
#include "lacb/scenario/spec.h"
#include "lacb/serve/serve.h"
#include "lacb/sim/platform.h"

namespace lacb {
namespace {

std::string TempDirFor(const std::string& name) {
  std::string dir = ::testing::TempDir() + "lacb_cluster_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// --- Framed transport ----------------------------------------------------

TEST(FrameTest, RoundTripOverLoopback) {
  int port = 0;
  auto listen = cluster::ListenLoopback(0, &port);
  ASSERT_TRUE(listen.ok()) << listen.status().ToString();
  ASSERT_GT(port, 0);

  std::thread client([port] {
    auto fd = cluster::ConnectLoopback(port, cluster::ConnectRetry{});
    ASSERT_TRUE(fd.ok()) << fd.status().ToString();
    EXPECT_TRUE(cluster::SendFrame(*fd, 7, "hello frames").ok());
    EXPECT_TRUE(cluster::SendFrame(*fd, 9, "").ok());
    std::string big(1 << 16, 'x');
    EXPECT_TRUE(cluster::SendFrame(*fd, 2, big).ok());
    cluster::CloseFd(*fd);  // clean EOF
  });

  auto conn =
      cluster::AcceptWithTimeout(*listen, std::chrono::milliseconds(5000));
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();
  auto f1 = cluster::ReadFrame(*conn);
  ASSERT_TRUE(f1.ok());
  EXPECT_EQ(f1->type, 7);
  EXPECT_EQ(f1->payload, "hello frames");
  auto f2 = cluster::ReadFrame(*conn);
  ASSERT_TRUE(f2.ok());
  EXPECT_EQ(f2->type, 9);
  EXPECT_TRUE(f2->payload.empty());
  auto f3 = cluster::ReadFrame(*conn);
  ASSERT_TRUE(f3.ok());
  EXPECT_EQ(f3->payload.size(), size_t{1} << 16);
  // Peer closed between frames: a clean EOF, distinguishable from a torn
  // frame.
  auto eof = cluster::ReadFrame(*conn);
  EXPECT_FALSE(eof.ok());
  EXPECT_EQ(eof.status().code(), StatusCode::kNotFound);

  client.join();
  cluster::CloseFd(*conn);
  cluster::CloseFd(*listen);
}

// --- Hash ring -----------------------------------------------------------

TEST(HashRingTest, PartitionsDistrictsDeterministically) {
  cluster::HashRing ring(4);
  cluster::HashRing twin(4);
  const size_t kDistricts = 64;
  std::vector<size_t> owned(4, 0);
  for (size_t d = 0; d < kDistricts; ++d) {
    uint64_t r = ring.RangeForDistrict(d);
    EXPECT_EQ(r, twin.RangeForDistrict(d));
    ASSERT_LT(r, 4u);
    owned[r] += 1;
  }
  // DistrictsOfRange inverts RangeForDistrict exactly: the ranges
  // partition the district space.
  std::set<size_t> seen;
  for (uint64_t r = 0; r < 4; ++r) {
    for (size_t d : ring.DistrictsOfRange(r, kDistricts)) {
      EXPECT_EQ(ring.RangeForDistrict(d), r);
      EXPECT_TRUE(seen.insert(d).second) << "district owned twice";
    }
  }
  EXPECT_EQ(seen.size(), kDistricts);
  for (uint64_t r = 0; r < 4; ++r) {
    EXPECT_GT(owned[r], 0u) << "vnode spread left range " << r << " empty";
  }
}

TEST(HashRingTest, SingleRangeShardConfigIsIdentity) {
  sim::DatasetConfig base;
  base.name = "identity";
  base.num_brokers = 30;
  base.num_requests = 360;
  base.seed = 321;
  sim::DatasetConfig sharded = cluster::ShardDatasetConfig(base, 0, 1);
  EXPECT_EQ(sharded.name, base.name);
  EXPECT_EQ(sharded.num_brokers, base.num_brokers);
  EXPECT_EQ(sharded.num_requests, base.num_requests);
  EXPECT_EQ(sharded.seed, base.seed);
}

TEST(HashRingTest, ShardConfigsCoverTheFleet) {
  sim::DatasetConfig base;
  base.num_brokers = 31;
  base.num_requests = 300;
  base.num_days = 3;
  size_t brokers = 0;
  std::set<uint64_t> seeds;
  for (uint64_t r = 0; r < 3; ++r) {
    sim::DatasetConfig cfg = cluster::ShardDatasetConfig(base, r, 3);
    EXPECT_NE(cfg.name, base.name);
    EXPECT_GE(cfg.num_brokers, 1u);
    brokers += cfg.num_brokers;
    EXPECT_TRUE(seeds.insert(cfg.seed).second) << "range seeds must differ";
  }
  EXPECT_EQ(brokers, base.num_brokers);
}

// --- Protocol round trips ------------------------------------------------

TEST(ProtocolTest, AssignRangeRoundTrip) {
  cluster::AssignRange msg;
  msg.range = 3;
  msg.config.name = "shard-cfg";
  msg.config.num_brokers = 17;
  msg.config.num_requests = 123;
  msg.config.appeal_rate = 0.4;
  msg.config.capacity_candidates = {5, 10, 15};
  msg.checkpoint_dir = "/tmp/some/dir";
  msg.checkpoint_interval_batches = 4;
  msg.wal_fsync = true;
  msg.policy_index = 8;
  auto back = cluster::DecodeAssignRange(cluster::EncodeAssignRange(msg));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->range, 3u);
  EXPECT_EQ(back->config.name, "shard-cfg");
  EXPECT_EQ(back->config.num_brokers, 17u);
  EXPECT_DOUBLE_EQ(back->config.appeal_rate, 0.4);
  EXPECT_EQ(back->config.capacity_candidates, msg.config.capacity_candidates);
  EXPECT_EQ(back->checkpoint_dir, msg.checkpoint_dir);
  EXPECT_TRUE(back->wal_fsync);

  // Truncated payloads decode to an error, never UB.
  std::string bytes = cluster::EncodeAssignRange(msg);
  EXPECT_FALSE(
      cluster::DecodeAssignRange(bytes.substr(0, bytes.size() / 2)).ok());
}

TEST(ProtocolTest, RangeReadyCarriesReconciliationMaterial) {
  cluster::RangeReady msg;
  msg.range = 1;
  msg.restored = true;
  msg.day = 2;
  msg.day_open = true;
  msg.commits_today = 7;
  msg.replayed_batches = 9;
  serve::BatchDisposition d;
  d.token = 42;
  d.day = 2;
  d.assigned = {10, 11};
  d.appealed = {12};
  d.dropped = {13};
  msg.replay_log.push_back(d);
  msg.replayed_day_closes = {{1, 123.5}};
  msg.carryover_ids = {12};
  auto back = cluster::DecodeRangeReady(cluster::EncodeRangeReady(msg));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(back->restored);
  ASSERT_EQ(back->replay_log.size(), 1u);
  EXPECT_EQ(back->replay_log[0].token, 42u);
  EXPECT_EQ(back->replay_log[0].assigned, d.assigned);
  EXPECT_EQ(back->replay_log[0].appealed, d.appealed);
  ASSERT_EQ(back->replayed_day_closes.size(), 1u);
  EXPECT_EQ(back->replayed_day_closes[0].first, 1u);
  EXPECT_DOUBLE_EQ(back->replayed_day_closes[0].second, 123.5);
  EXPECT_EQ(back->carryover_ids, msg.carryover_ids);
}

TEST(ProtocolTest, SubmitBatchRoundTripsRequests) {
  cluster::SubmitBatch msg;
  msg.range = 2;
  msg.ticket = 77;
  sim::Request r;
  r.id = 1234;
  r.day = 1;
  r.batch = 5;
  r.district = 3;
  r.housing_embedding = {0.25, -1.5, 3.0};
  r.pickiness = 0.75;
  msg.requests.push_back(r);
  auto back = cluster::DecodeSubmitBatch(cluster::EncodeSubmitBatch(msg));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->requests.size(), 1u);
  EXPECT_EQ(back->requests[0].id, 1234);
  EXPECT_EQ(back->requests[0].district, 3u);
  EXPECT_EQ(back->requests[0].housing_embedding, r.housing_embedding);
  EXPECT_DOUBLE_EQ(back->requests[0].pickiness, 0.75);
}

// --- Replica store -------------------------------------------------------

TEST(ReplicaStoreTest, ShippedRecordsReproduceARecoverableWal) {
  std::string dir = TempDirFor("replica");
  cluster::ReplicaStore store(dir);

  // A real WAL writer with a record sink: the exact bytes it appends
  // locally are what a shard ships.
  std::string wal_dir = TempDirFor("replica_src");
  std::filesystem::create_directories(wal_dir);
  auto wal = persist::WalWriter::Create(wal_dir + "/wal-5.log", 5, false);
  ASSERT_TRUE(wal.ok());
  std::vector<std::string> shipped;
  (*wal)->set_record_sink([&shipped](std::string_view record) {
    shipped.emplace_back(record);
  });
  ASSERT_TRUE((*wal)->AppendDayOpen(2).ok());
  sim::Request r;
  r.id = 9;
  r.housing_embedding = {1.0, 2.0};
  ASSERT_TRUE((*wal)->AppendBatch(31, 2, 0, {r}, {4}).ok());
  ASSERT_TRUE((*wal)->AppendDayClose(2).ok());
  ASSERT_EQ(shipped.size(), 3u);

  for (const std::string& record : shipped) {
    ASSERT_TRUE(store.AppendWalRecord(1, 5, record).ok());
  }
  store.Finalize(1);

  auto recovered = persist::RecoverWal(store.RangeDir(1) + "/wal-5.log");
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->checkpoint_seq, 5u);
  EXPECT_FALSE(recovered->truncated_torn_tail);
  ASSERT_EQ(recovered->records.size(), 3u);
  EXPECT_EQ(recovered->records[0].type, persist::WalRecordType::kDayOpen);
  EXPECT_EQ(recovered->records[1].type, persist::WalRecordType::kBatch);
  EXPECT_EQ(recovered->records[1].token, 31u);
  ASSERT_EQ(recovered->records[1].requests.size(), 1u);
  EXPECT_EQ(recovered->records[1].requests[0].id, 9);
  EXPECT_EQ(recovered->records[2].type, persist::WalRecordType::kDayClose);

  // The adoption envelope clones the range's files.
  ASSERT_TRUE(store.PutCheckpoint(1, 5, "envelope-bytes").ok());
  auto adopt = store.PrepareAdoptionDir(1, 1);
  ASSERT_TRUE(adopt.ok()) << adopt.status().ToString();
  EXPECT_TRUE(std::filesystem::exists(*adopt + "/wal-5.log"));
  EXPECT_TRUE(std::filesystem::exists(*adopt + "/ckpt-5.bin"));
}

// --- Fleet gates ---------------------------------------------------------

sim::DatasetConfig FleetBaseConfig() {
  sim::DatasetConfig cfg;
  cfg.name = "fleet";
  cfg.num_brokers = 30;
  cfg.num_requests = 360;
  cfg.num_days = 3;
  cfg.imbalance = 0.2;
  cfg.seed = 321;
  cfg.appeal_rate = 0.4;
  return cfg;
}

cluster::CoordinatorOptions FleetOptions(const std::string& workdir,
                                         size_t num_shards) {
  cluster::CoordinatorOptions opts;
  opts.shard_binary = LACB_SHARD_BINARY;
  opts.workdir = workdir;
  opts.base_config = FleetBaseConfig();
  opts.num_shards = num_shards;
  return opts;
}

struct FleetRun {
  std::vector<double> daily_utility;
  cluster::FleetStats stats;
};

// Pumps the whole horizon; `chaos` (if set) runs once after submitting
// batch kill_at of kill_day, and `pre_chaos` (if set) right before it.
Status RunFleet(cluster::Coordinator* coord, size_t kill_day, size_t kill_at,
                const std::function<void()>& chaos, FleetRun* out,
                const std::function<void()>& pre_chaos = nullptr) {
  LACB_RETURN_NOT_OK(coord->Start());
  const size_t batches = coord->BatchesPerDay();
  for (size_t day = 0; day < coord->NumDays(); ++day) {
    LACB_RETURN_NOT_OK(coord->OpenDay(day));
    for (size_t j = 0; j < batches; ++j) {
      const bool chaos_now = day == kill_day && j == kill_at;
      if (pre_chaos && chaos_now) pre_chaos();
      LACB_RETURN_NOT_OK(coord->SubmitScheduledBatch(j));
      if (chaos && chaos_now) chaos();
    }
    LACB_RETURN_NOT_OK(coord->CloseDay());
  }
  LACB_RETURN_NOT_OK(coord->Shutdown());
  out->daily_utility = coord->FleetDailyUtility();
  out->stats = coord->Stats();
  return Status::OK();
}

void ExpectConservation(const cluster::FleetStats& s) {
  EXPECT_EQ(s.submitted,
            s.assigned + s.unmatched + s.failed + s.dropped_appeals + s.shed)
      << "fleet conservation identity broken";
  EXPECT_EQ(s.pending, 0u) << "requests left untracked after shutdown";
  EXPECT_EQ(s.duplicate_terminals, 0u) << "exactly-once violated";
  EXPECT_EQ(s.reconcile_mismatches, 0u) << "ledger/replay reconciliation "
                                           "disagreed";
}

// Gate 1: one shard, failover disabled, persistence on — bit-identical to
// a plain in-process AssignmentService without persistence.
TEST(ClusterTest, SingleShardMatchesInProcessServiceBitIdentical) {
  sim::DatasetConfig cfg = FleetBaseConfig();

  // In-process reference (no persistence, same policy and pump shape).
  std::vector<double> expected_daily;
  std::string expected_platform;
  std::string expected_replica;
  {
    obs::ScopedTelemetry telemetry;
    core::PolicySuiteConfig suite;
    suite.seed = 55;
    serve::ServeOptions opts;
    opts.num_workers = 1;
    opts.max_batch_size = 1u << 20;
    opts.max_batch_delay = std::chrono::seconds(300);
    opts.queue_capacity = 4096;
    auto service = serve::AssignmentService::Create(
        cfg, core::SuitePolicyFactory(cfg, suite, 8), opts);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    ASSERT_TRUE((*service)->Start().ok());
    const auto& schedule = (*service)->platform().all_requests();
    for (size_t day = 0; day < schedule.size(); ++day) {
      ASSERT_TRUE((*service)->OpenDay(day).ok());
      for (const auto& batch : schedule[day]) {
        for (const sim::Request& r : batch) {
          ASSERT_TRUE((*service)->Submit(r));
        }
        (*service)->Flush();
        ASSERT_TRUE((*service)->WaitIdle().ok());
      }
      auto outcome = (*service)->CloseDay();
      ASSERT_TRUE(outcome.ok());
      expected_daily.push_back(outcome->realized_utility);
    }
    auto platform_state = (*service)->SerializePlatformState();
    auto replica_state = (*service)->SerializeReplicaState(0);
    ASSERT_TRUE(platform_state.ok());
    ASSERT_TRUE(replica_state.ok());
    expected_platform = *platform_state;
    expected_replica = *replica_state;
    (*service)->Shutdown();
  }

  obs::ScopedTelemetry telemetry;
  cluster::CoordinatorOptions opts =
      FleetOptions(TempDirFor("bit_identity"), 1);
  opts.failover_enabled = false;
  auto coord = cluster::Coordinator::Create(opts);
  ASSERT_TRUE(coord.ok()) << coord.status().ToString();
  ASSERT_TRUE((*coord)->Start().ok());
  const size_t batches = (*coord)->BatchesPerDay();
  std::vector<double> got_daily;
  for (size_t day = 0; day < (*coord)->NumDays(); ++day) {
    ASSERT_TRUE((*coord)->OpenDay(day).ok());
    for (size_t j = 0; j < batches; ++j) {
      ASSERT_TRUE((*coord)->SubmitScheduledBatch(j).ok());
    }
    ASSERT_TRUE((*coord)->CloseDay().ok());
  }
  auto dump = (*coord)->FetchState(0);
  ASSERT_TRUE(dump.ok()) << dump.status().ToString();
  ASSERT_TRUE((*coord)->Shutdown().ok());
  got_daily = (*coord)->FleetDailyUtility();

  ASSERT_EQ(got_daily.size(), expected_daily.size());
  for (size_t day = 0; day < got_daily.size(); ++day) {
    EXPECT_DOUBLE_EQ(got_daily[day], expected_daily[day]) << "day " << day;
  }
  EXPECT_EQ(dump->platform_state, expected_platform)
      << "sharded platform state diverged from the in-process run";
  EXPECT_EQ(dump->replica_state, expected_replica)
      << "sharded policy state diverged from the in-process run";
  ExpectConservation((*coord)->Stats());
  EXPECT_EQ((*coord)->Stats().failovers, 0u);
}

// Gate 2 (headline): SIGKILL one shard mid-day under load.
TEST(ClusterTest, SigkillFailoverConservesAndRecovers) {
  // Unkilled reference fleet.
  FleetRun baseline;
  {
    obs::ScopedTelemetry telemetry;
    auto coord =
        cluster::Coordinator::Create(FleetOptions(TempDirFor("base3"), 3));
    ASSERT_TRUE(coord.ok());
    Status s = RunFleet(coord->get(), 0, 0, nullptr, &baseline);
    ASSERT_TRUE(s.ok()) << s.ToString();
    ExpectConservation(baseline.stats);
    EXPECT_EQ(baseline.stats.shard_deaths, 0u);
  }
  ASSERT_EQ(baseline.daily_utility.size(), 3u);

  obs::ScopedTelemetry telemetry;
  cluster::CoordinatorOptions opts = FleetOptions(TempDirFor("sigkill"), 3);
  // Room for every ticket up to the kill: batch 10 must never wait on the
  // frozen shard's window, or the heartbeat deadline would declare the
  // shard dead before the SIGKILL lands. Each ticket is still solved as
  // its own batch, so the results match the default-window baseline.
  opts.window = 16;
  auto coord = cluster::Coordinator::Create(opts);
  ASSERT_TRUE(coord.ok());
  cluster::Coordinator* c = coord->get();
  FleetRun killed;
  // Freeze shard 1 before batch 10 of day 1 goes out and SIGKILL it right
  // after: the frozen shard cannot ack batch 10's ticket, so its window
  // always holds unacked work when it dies and the failover must redrive.
  Status s = RunFleet(
      c, 1, 10,
      [c] { ASSERT_TRUE(c->KillShard(1, /*sigstop=*/false).ok()); }, &killed,
      [c] { ASSERT_TRUE(c->KillShard(1, /*sigstop=*/true).ok()); });
  ASSERT_TRUE(s.ok()) << s.ToString();

  ExpectConservation(killed.stats);
  EXPECT_EQ(killed.stats.shard_deaths, 1u);
  EXPECT_GE(killed.stats.failovers, 1u) << "the dead shard's range was "
                                           "never adopted";
  EXPECT_GT(killed.stats.redriven_requests, 0u)
      << "kill landed with no in-flight work — the redrive path was not "
         "exercised";
  EXPECT_GT(killed.stats.wal_records_shipped, 0u);
  EXPECT_GT(killed.stats.checkpoints_shipped, 0u);

  // Day 0 closed before the kill: bit-identical. The recovered fleet's
  // total utility stays within a bounded gap of the unkilled run (only
  // commits lost in the ship gap at SIGKILL are re-solved).
  ASSERT_EQ(killed.daily_utility.size(), 3u);
  EXPECT_DOUBLE_EQ(killed.daily_utility[0], baseline.daily_utility[0]);
  double base_total = 0.0;
  double killed_total = 0.0;
  for (size_t day = 0; day < 3; ++day) {
    base_total += baseline.daily_utility[day];
    killed_total += killed.daily_utility[day];
  }
  EXPECT_GT(killed_total, 0.75 * base_total)
      << "recovered fleet utility fell outside the bounded gap";
  EXPECT_LT(killed_total, 1.25 * base_total)
      << "recovered fleet utility fell outside the bounded gap";

  // Post-shutdown every shard reads dead; the failover footprint must
  // still be visible in the aggregated detail.
  obs::HealthReport health = c->Health();
  EXPECT_NE(health.detail.find("failovers=1"), std::string::npos)
      << health.detail;
  EXPECT_GT(c->last_failover_unix_seconds(), 0.0);
}

// Churn landing on a shard mid-day (docs/scenarios.md): the coordinator
// routes a scenario churn event to the owning shard, whose service
// deactivates the broker inside the open day — and the fleet-wide
// conservation identity still holds at shutdown.
TEST(ClusterTest, MidDayChurnInjectionKeepsFleetConservation) {
  obs::ScopedTelemetry telemetry;
  auto coord =
      cluster::Coordinator::Create(FleetOptions(TempDirFor("churn"), 2));
  ASSERT_TRUE(coord.ok()) << coord.status().ToString();
  cluster::Coordinator* c = coord->get();
  FleetRun run;
  // After batch 5 of day 1: both ranges hold committed edges and
  // in-flight work. Broker indices are range-local; broker 0 exists in
  // every range. A leave stops new work on range 0, a hard fail on
  // range 1 additionally voids that broker's day.
  Status s = RunFleet(
      c, 1, 5,
      [c] {
        scenario::ChurnEvent leave;
        leave.day = 1;
        leave.broker = 0;
        leave.kind = scenario::ChurnKind::kLeave;
        ASSERT_TRUE(c->InjectChurn(0, leave).ok());
        scenario::ChurnEvent fail;
        fail.day = 1;
        fail.broker = 0;
        fail.kind = scenario::ChurnKind::kFail;
        ASSERT_TRUE(c->InjectChurn(1, fail).ok());
        // Unknown range: rejected, not silently dropped.
        scenario::ChurnEvent bogus;
        bogus.day = 1;
        bogus.broker = 0;
        bogus.kind = scenario::ChurnKind::kLeave;
        EXPECT_FALSE(c->InjectChurn(99, bogus).ok());
      },
      &run);
  ASSERT_TRUE(s.ok()) << s.ToString();

  ExpectConservation(run.stats);
  EXPECT_EQ(run.stats.shard_deaths, 0u);
  ASSERT_EQ(run.daily_utility.size(), 3u);
  for (double u : run.daily_utility) EXPECT_GT(u, 0.0);
}

// Gate 3: SIGSTOP leaves the socket open — only the heartbeat deadline
// can declare the shard dead.
TEST(ClusterTest, SigstopFailoverViaHeartbeatDeadline) {
  obs::ScopedTelemetry telemetry;
  cluster::CoordinatorOptions opts = FleetOptions(TempDirFor("sigstop"), 2);
  opts.heartbeat_timeout = std::chrono::milliseconds(1500);
  auto coord = cluster::Coordinator::Create(opts);
  ASSERT_TRUE(coord.ok());
  cluster::Coordinator* c = coord->get();
  FleetRun run;
  Status s = RunFleet(
      c, 1, 5, [c] { ASSERT_TRUE(c->KillShard(0, /*sigstop=*/true).ok()); },
      &run);
  ASSERT_TRUE(s.ok()) << s.ToString();

  ExpectConservation(run.stats);
  EXPECT_EQ(run.stats.shard_deaths, 1u);
  EXPECT_GE(run.stats.heartbeat_timeouts, 1u)
      << "a stopped shard must be detected by deadline, not EOF";
  EXPECT_GE(run.stats.failovers, 1u);
  ASSERT_EQ(run.daily_utility.size(), 3u);
  for (double u : run.daily_utility) EXPECT_GT(u, 0.0);
}

}  // namespace
}  // namespace lacb
