// Durable-state subsystem: byte codec + CRC, atomic file writes, WAL
// framing and torn-tail recovery, checkpoint format (versioned, CRC'd,
// forward-compatible sections) with retention and corrupt fallback, state
// serializer round trips — and the crash-recovery gate: a serve run killed
// mid-day by the fault injector, restored from checkpoint + WAL replay,
// must finish the horizon bit-identical to an uninterrupted run.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "lacb/bandit/neural_ucb.h"
#include "lacb/core/policy_suite.h"
#include "lacb/matching/assignment.h"
#include "lacb/obs/obs.h"
#include "lacb/persist/bytes.h"
#include "lacb/persist/checkpoint.h"
#include "lacb/persist/serializers.h"
#include "lacb/persist/wal.h"
#include "lacb/scenario/engine.h"
#include "lacb/serve/serve.h"
#include "lacb/sim/platform.h"

namespace lacb {
namespace {

std::string TempDirFor(const std::string& name) {
  std::string dir = ::testing::TempDir() + "lacb_persist_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

void CorruptByteAt(const std::string& path, std::streamoff offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open()) << path;
  f.seekg(offset);
  char c = 0;
  f.read(&c, 1);
  c = static_cast<char>(c ^ 0x5a);
  f.seekp(offset);
  f.write(&c, 1);
}

void TruncateFileBy(const std::string& path, uint64_t bytes) {
  uint64_t size = std::filesystem::file_size(path);
  ASSERT_GT(size, bytes);
  std::filesystem::resize_file(path, size - bytes);
}

// --- Byte codec ----------------------------------------------------------

TEST(BytesTest, RoundTripAllTypes) {
  persist::ByteWriter w;
  w.U8(0xab);
  w.U32(0xdeadbeef);
  w.U64(0x0123456789abcdefULL);
  w.I64(-42);
  w.F64(3.14159265358979);
  w.Bool(true);
  w.Str("hello\0world");  // embedded NUL truncates the literal — fine
  w.VecF64({1.5, -2.5, 0.0});
  w.VecI64({-1, 0, 7});
  w.VecU64({9, 8});

  persist::ByteReader r(w.bytes());
  EXPECT_EQ(r.U8().value(), 0xab);
  EXPECT_EQ(r.U32().value(), 0xdeadbeefu);
  EXPECT_EQ(r.U64().value(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.I64().value(), -42);
  EXPECT_DOUBLE_EQ(r.F64().value(), 3.14159265358979);
  EXPECT_TRUE(r.Bool().value());
  EXPECT_EQ(r.Str().value(), "hello");
  EXPECT_EQ(r.VecF64().value(), (std::vector<double>{1.5, -2.5, 0.0}));
  EXPECT_EQ(r.VecI64().value(), (std::vector<int64_t>{-1, 0, 7}));
  EXPECT_EQ(r.VecU64().value(), (std::vector<uint64_t>{9, 8}));
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(BytesTest, TruncatedReadsReturnOutOfRange) {
  persist::ByteWriter w;
  w.U32(7);
  persist::ByteReader r(w.bytes());
  EXPECT_FALSE(r.U64().ok());  // 4 bytes present, 8 wanted

  // A vector whose declared length exceeds the remaining bytes must fail
  // cleanly instead of allocating from a corrupt count.
  persist::ByteWriter w2;
  w2.U64(1ULL << 60);
  persist::ByteReader r2(w2.bytes());
  auto v = r2.VecF64();
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kOutOfRange);
}

TEST(BytesTest, Crc32MatchesKnownVector) {
  // The canonical zlib/PNG check value.
  EXPECT_EQ(persist::Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(persist::Crc32(""), 0u);
  EXPECT_NE(persist::Crc32("123456789"), persist::Crc32("123456788"));
}

TEST(BytesTest, WriteFileAtomicRoundTripAndOverwrite) {
  std::string dir = TempDirFor("atomic");
  std::filesystem::create_directories(dir);
  std::string path = dir + "/blob.bin";
  ASSERT_TRUE(persist::WriteFileAtomic(path, "first", false).ok());
  EXPECT_EQ(persist::ReadFile(path).value(), "first");
  ASSERT_TRUE(persist::WriteFileAtomic(path, "second", false).ok());
  EXPECT_EQ(persist::ReadFile(path).value(), "second");
  // No temporary debris is left behind after a successful rename.
  size_t entries = 0;
  for ([[maybe_unused]] const auto& e :
       std::filesystem::directory_iterator(dir)) {
    ++entries;
  }
  EXPECT_EQ(entries, 1u);
}

// --- WAL -----------------------------------------------------------------

sim::Request WalRequest(int64_t id) {
  sim::Request r;
  r.id = id;
  r.day = 2;
  r.batch = 3;
  r.district = 4;
  r.pickiness = 0.25;
  r.housing_embedding = {0.1, 0.9};
  return r;
}

TEST(WalTest, AppendAndRecoverRoundTrip) {
  std::string dir = TempDirFor("wal_roundtrip");
  std::filesystem::create_directories(dir);
  std::string path = dir + "/wal-5.log";
  {
    auto wal = persist::WalWriter::Create(path, 5, false);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->AppendDayOpen(2).ok());
    ASSERT_TRUE((*wal)
                    ->AppendBatch(17, 2, 0, {WalRequest(1), WalRequest(2)},
                                  {3, matching::kUnmatched})
                    .ok());
    ASSERT_TRUE((*wal)->AppendDayClose(2).ok());
    EXPECT_EQ((*wal)->records_written(), 3u);
  }
  auto rec = persist::RecoverWal(path);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->checkpoint_seq, 5u);
  EXPECT_FALSE(rec->truncated_torn_tail);
  ASSERT_EQ(rec->records.size(), 3u);
  EXPECT_EQ(rec->records[0].type, persist::WalRecordType::kDayOpen);
  EXPECT_EQ(rec->records[0].day, 2u);
  const persist::WalRecord& batch = rec->records[1];
  EXPECT_EQ(batch.type, persist::WalRecordType::kBatch);
  EXPECT_EQ(batch.token, 17u);
  EXPECT_EQ(batch.worker_index, 0u);
  ASSERT_EQ(batch.requests.size(), 2u);
  EXPECT_EQ(batch.requests[0].id, 1);
  EXPECT_EQ(batch.requests[1].pickiness, 0.25);
  EXPECT_EQ(batch.assignment, (std::vector<int64_t>{3, matching::kUnmatched}));
  EXPECT_EQ(rec->records[2].type, persist::WalRecordType::kDayClose);
}

TEST(WalTest, TornTailIsTruncatedNotFatal) {
  std::string dir = TempDirFor("wal_torn");
  std::filesystem::create_directories(dir);
  std::string path = dir + "/wal-1.log";
  {
    auto wal = persist::WalWriter::Create(path, 1, false);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->AppendDayOpen(0).ok());
    ASSERT_TRUE((*wal)->AppendBatch(9, 0, 0, {WalRequest(1)}, {2}).ok());
  }
  // A crash mid-append: the final record loses its tail. Recovery must
  // keep the valid prefix and flag the tear.
  TruncateFileBy(path, 3);
  auto rec = persist::RecoverWal(path);
  ASSERT_TRUE(rec.ok());
  EXPECT_TRUE(rec->truncated_torn_tail);
  ASSERT_EQ(rec->records.size(), 1u);
  EXPECT_EQ(rec->records[0].type, persist::WalRecordType::kDayOpen);
}

TEST(WalTest, CorruptRecordStopsAtCrcMismatch) {
  std::string dir = TempDirFor("wal_corrupt");
  std::filesystem::create_directories(dir);
  std::string path = dir + "/wal-1.log";
  {
    auto wal = persist::WalWriter::Create(path, 1, false);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->AppendDayOpen(0).ok());
    ASSERT_TRUE((*wal)->AppendDayClose(0).ok());
  }
  // Flip a payload byte of the second record (header is 20 bytes; record
  // one is 4 len + 9 body + 4 crc = 17 bytes).
  CorruptByteAt(path, 20 + 17 + 6);
  auto rec = persist::RecoverWal(path);
  ASSERT_TRUE(rec.ok());
  EXPECT_TRUE(rec->truncated_torn_tail);
  ASSERT_EQ(rec->records.size(), 1u);
}

TEST(WalTest, SolveOutcomeRoundTripsAndTruncatedBodiesAreRefused) {
  std::string dir = TempDirFor("wal_solved");
  std::filesystem::create_directories(dir);
  std::string path = dir + "/wal-1.log";
  std::vector<std::string> bodies;
  {
    auto wal = persist::WalWriter::Create(path, 1, false);
    ASSERT_TRUE(wal.ok());
    (*wal)->set_record_sink([&bodies](std::string_view framed) {
      // Strip the u32 length prefix and the u32 CRC suffix.
      bodies.emplace_back(framed.substr(4, framed.size() - 8));
    });
    ASSERT_TRUE((*wal)->AppendBatch(5, 0, 1, {WalRequest(1)}, {2}).ok());
    ASSERT_TRUE((*wal)
                    ->AppendBatch(6, 0, 0, {WalRequest(2)}, {-1},
                                  persist::SolveOutcome::kSkipped)
                    .ok());
    ASSERT_TRUE((*wal)
                    ->AppendBatch(7, 0, 0, {WalRequest(3)}, {1},
                                  persist::SolveOutcome::kOverran)
                    .ok());
  }
  auto rec = persist::RecoverWal(path);
  ASSERT_TRUE(rec.ok());
  EXPECT_FALSE(rec->truncated_torn_tail);
  ASSERT_EQ(rec->records.size(), 3u);
  EXPECT_EQ(rec->records[0].solve, persist::SolveOutcome::kSolved);
  EXPECT_EQ(rec->records[1].solve, persist::SolveOutcome::kSkipped);
  EXPECT_EQ(rec->records[2].solve, persist::SolveOutcome::kOverran);

  // Every strict prefix of a body is refused as a Status, never read past.
  ASSERT_EQ(bodies.size(), 3u);
  ASSERT_TRUE(persist::DecodeWalRecord(bodies[1]).ok());
  for (size_t len = 0; len < bodies[1].size(); ++len) {
    EXPECT_FALSE(persist::DecodeWalRecord(bodies[1].substr(0, len)).ok())
        << "prefix of " << len << " bytes";
  }
  // So are trailing bytes, an unknown solve outcome and unknown types.
  EXPECT_FALSE(persist::DecodeWalRecord(bodies[1] + '\0').ok());
  std::string bad_outcome = bodies[1];
  for (char b : {3, 7}) {
    bad_outcome.back() = b;
    EXPECT_FALSE(persist::DecodeWalRecord(bad_outcome).ok()) << int{b};
  }
  std::string unknown = bodies[1];
  unknown[0] = 9;
  EXPECT_FALSE(persist::DecodeWalRecord(unknown).ok());

  // A CRC-valid record whose body lacks the outcome ends the valid log
  // there.
  std::string short_body = bodies[0].substr(0, bodies[0].size() - 1);
  persist::ByteWriter frame;
  frame.U32(static_cast<uint32_t>(short_body.size()));
  for (char c : short_body) frame.U8(static_cast<uint8_t>(c));
  frame.U32(persist::Crc32(short_body));
  {
    std::ofstream f(path, std::ios::binary | std::ios::app);
    f.write(frame.bytes().data(),
            static_cast<std::streamsize>(frame.bytes().size()));
  }
  auto cut = persist::RecoverWal(path);
  ASSERT_TRUE(cut.ok());
  EXPECT_TRUE(cut->truncated_torn_tail);
  EXPECT_EQ(cut->records.size(), 3u);
}

TEST(WalTest, OlderVersionIsRefusedAtTheHeader) {
  // A version-2 log journaled a bool `solved` where version 3 journals the
  // solve outcome; its batch records would misread, so the header refuses
  // it before any record is decoded.
  std::string dir = TempDirFor("wal_v2");
  std::filesystem::create_directories(dir);
  std::string path = dir + "/wal-1.log";
  persist::ByteWriter w;
  for (char c : persist::kWalMagic) w.U8(static_cast<uint8_t>(c));
  w.U32(2);
  w.U64(1);
  {
    std::ofstream f(path, std::ios::binary);
    f.write(w.bytes().data(), static_cast<std::streamsize>(w.bytes().size()));
  }
  auto old = persist::RecoverWal(path);
  ASSERT_FALSE(old.ok());
  EXPECT_EQ(old.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(old.status().ToString().find("version 2"), std::string::npos)
      << old.status().ToString();
}

TEST(WalTest, MissingFileIsNotFoundBadHeaderIsInvalid) {
  std::string dir = TempDirFor("wal_missing");
  std::filesystem::create_directories(dir);
  auto missing = persist::RecoverWal(dir + "/nope.log");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);

  std::string bad = dir + "/bad.log";
  {
    std::ofstream f(bad, std::ios::binary);
    f << "NOTAWAL0-and-some-bytes-after";
  }
  auto parsed = persist::RecoverWal(bad);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
}

// --- Checkpoint format and manager ---------------------------------------

TEST(CheckpointTest, EncodeDecodeRoundTripWithUnknownSection) {
  persist::Checkpoint ckpt;
  ckpt.seq = 12;
  ckpt.sections.push_back({"meta", std::string("\x01\x02\x03", 3)});
  ckpt.sections.push_back({"future.unknown", "opaque-payload"});
  std::string encoded = persist::EncodeCheckpoint(ckpt);

  auto decoded = persist::DecodeCheckpoint(encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->seq, 12u);
  ASSERT_EQ(decoded->sections.size(), 2u);
  ASSERT_NE(decoded->Find("meta"), nullptr);
  EXPECT_EQ(decoded->Find("meta")->payload.size(), 3u);
  // Forward compatibility: a section this reader does not understand is
  // carried through intact (consumers look up only the names they know).
  ASSERT_NE(decoded->Find("future.unknown"), nullptr);
  EXPECT_EQ(decoded->Find("future.unknown")->payload, "opaque-payload");
  EXPECT_EQ(decoded->Find("absent"), nullptr);
}

TEST(CheckpointTest, CorruptPayloadFailsWholeFile) {
  persist::Checkpoint ckpt;
  ckpt.seq = 1;
  ckpt.sections.push_back({"meta", "payload-bytes-here"});
  std::string encoded = persist::EncodeCheckpoint(ckpt);
  encoded[encoded.size() - 7] ^= 0x10;  // inside the payload
  auto decoded = persist::DecodeCheckpoint(encoded);
  ASSERT_FALSE(decoded.ok());

  std::string bad_magic = persist::EncodeCheckpoint(ckpt);
  bad_magic[0] = 'X';
  EXPECT_FALSE(persist::DecodeCheckpoint(bad_magic).ok());

  EXPECT_FALSE(persist::DecodeCheckpoint("short").ok());
}

TEST(CheckpointTest, PreviousVersionIsRefused) {
  // Version 1 saved a full capacity estimator in every replica.<i>
  // section; version 2 saves it once, in replica.0. An old file would
  // misread, so the header refuses it before any section is decoded.
  persist::Checkpoint ckpt;
  ckpt.seq = 3;
  ckpt.sections.push_back({"meta", "payload"});
  std::string encoded = persist::EncodeCheckpoint(ckpt);
  const uint32_t old_version = persist::kCheckpointVersion - 1;
  std::memcpy(encoded.data() + sizeof(persist::kCheckpointMagic),
              &old_version, sizeof(old_version));
  auto old = persist::DecodeCheckpoint(encoded);
  ASSERT_FALSE(old.ok());
  EXPECT_EQ(old.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(old.status().ToString().find("version 1"), std::string::npos)
      << old.status().ToString();
}

persist::Checkpoint TinyCheckpoint(uint64_t seq) {
  persist::Checkpoint ckpt;
  ckpt.seq = seq;
  ckpt.sections.push_back({"meta", "seq " + std::to_string(seq)});
  return ckpt;
}

TEST(CheckpointTest, ManagerRetentionPrunesCheckpointAndWal) {
  std::string dir = TempDirFor("mgr_retention");
  persist::CheckpointManager mgr(dir, /*retain=*/2, /*do_fsync=*/false);
  ASSERT_TRUE(mgr.EnsureDir().ok());
  for (uint64_t seq = 1; seq <= 4; ++seq) {
    ASSERT_TRUE(mgr.Write(TinyCheckpoint(seq)).ok());
    auto wal = persist::WalWriter::Create(mgr.WalPath(seq), seq, false);
    ASSERT_TRUE(wal.ok());
  }
  // Only the two newest survive; their WALs ride along, older pairs are
  // unlinked.
  EXPECT_EQ(mgr.ListSeqs(), (std::vector<uint64_t>{3, 4}));
  EXPECT_FALSE(std::filesystem::exists(mgr.CheckpointPath(1)));
  EXPECT_FALSE(std::filesystem::exists(mgr.WalPath(2)));
  EXPECT_TRUE(std::filesystem::exists(mgr.WalPath(3)));

  auto loaded = mgr.LoadNewest();
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->checkpoint.seq, 4u);
  EXPECT_EQ(loaded->skipped_corrupt, 0u);
}

TEST(CheckpointTest, LoadNewestFallsBackPastCorruptFiles) {
  std::string dir = TempDirFor("mgr_corrupt");
  persist::CheckpointManager mgr(dir, 3, false);
  ASSERT_TRUE(mgr.EnsureDir().ok());
  for (uint64_t seq = 1; seq <= 3; ++seq) {
    ASSERT_TRUE(mgr.Write(TinyCheckpoint(seq)).ok());
  }
  CorruptByteAt(mgr.CheckpointPath(3), 30);
  auto loaded = mgr.LoadNewest();
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->checkpoint.seq, 2u);
  EXPECT_EQ(loaded->skipped_corrupt, 1u);

  CorruptByteAt(mgr.CheckpointPath(2), 30);
  CorruptByteAt(mgr.CheckpointPath(1), 30);
  auto none = mgr.LoadNewest();
  ASSERT_FALSE(none.ok());
  EXPECT_EQ(none.status().code(), StatusCode::kNotFound);
}

// --- State serializer round trips ----------------------------------------

TEST(SerializerTest, RequestsRoundTrip) {
  std::vector<sim::Request> requests = {WalRequest(5), WalRequest(-3)};
  persist::ByteWriter w;
  persist::WriteRequests(&w, requests);
  persist::ByteReader r(w.bytes());
  auto back = persist::ReadRequests(&r);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->size(), 2u);
  EXPECT_EQ((*back)[0].id, 5);
  EXPECT_EQ((*back)[1].id, -3);
  EXPECT_EQ((*back)[0].housing_embedding, requests[0].housing_embedding);
  EXPECT_EQ((*back)[0].district, 4u);
}

TEST(SerializerTest, NeuralUcbStateRestoresBitExactly) {
  bandit::NeuralUcbConfig cfg;
  cfg.arm_values = {1.0, 2.0, 3.0};
  cfg.context_dim = 3;
  cfg.hidden_sizes = {6};
  cfg.batch_size = 4;
  cfg.replay_capacity = 32;
  cfg.minibatch_size = 4;
  cfg.seed = 7;
  auto bandit = bandit::NeuralUcb::Create(cfg);
  ASSERT_TRUE(bandit.ok());
  // Drive past a training pass so optimizer moments, the replay ring, and
  // the covariance all hold non-initial state.
  for (int i = 0; i < 9; ++i) {
    la::Vector ctx = {0.1 * i, 0.5, 1.0 - 0.05 * i};
    ASSERT_TRUE(bandit->Observe(ctx, 1.0 + i % 3, 0.4 + 0.05 * i).ok());
  }
  persist::ByteWriter w;
  ASSERT_TRUE(bandit->SaveState(&w).ok());

  auto restored = bandit::NeuralUcb::Create(cfg);
  ASSERT_TRUE(restored.ok());
  persist::ByteReader r(w.bytes());
  ASSERT_TRUE(restored->LoadState(&r).ok());
  EXPECT_EQ(r.remaining(), 0u);

  // Same serialized image…
  persist::ByteWriter w2;
  ASSERT_TRUE(restored->SaveState(&w2).ok());
  EXPECT_EQ(w.bytes(), w2.bytes());
  // …and same forward behavior, including the exploration RNG stream.
  la::Vector probe = {0.3, 0.3, 0.3};
  for (int i = 0; i < 3; ++i) {
    auto a = bandit->SelectValue(probe);
    auto b = restored->SelectValue(probe);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_DOUBLE_EQ(*a, *b);
  }
}

TEST(SerializerTest, PlatformStateRestoresBitExactly) {
  sim::DatasetConfig cfg;
  cfg.name = "persist";
  cfg.num_brokers = 10;
  cfg.num_requests = 60;
  cfg.num_days = 2;
  cfg.seed = 11;
  cfg.appeal_rate = 0.5;
  auto platform = sim::Platform::Create(cfg);
  ASSERT_TRUE(platform.ok());
  ASSERT_TRUE(platform->StartDayExternal(0).ok());
  const std::vector<sim::Request>& batch0 = platform->all_requests()[0][0];
  std::vector<int64_t> assignment(batch0.size());
  for (size_t i = 0; i < assignment.size(); ++i) {
    assignment[i] = static_cast<int64_t>(i % cfg.num_brokers);
  }
  ASSERT_TRUE(platform->CommitExternalBatch(batch0, assignment, 1).ok());

  persist::ByteWriter w;
  ASSERT_TRUE(platform->SaveState(&w).ok());

  auto restored = sim::Platform::Create(cfg);
  ASSERT_TRUE(restored.ok());
  persist::ByteReader r(w.bytes());
  ASSERT_TRUE(restored->LoadState(&r).ok());
  EXPECT_EQ(r.remaining(), 0u);

  persist::ByteWriter w2;
  ASSERT_TRUE(restored->SaveState(&w2).ok());
  EXPECT_EQ(w.bytes(), w2.bytes());

  // The restored environment continues bit-identically: same duplicate
  // dedup, same appeal draws, same end-of-day outcome.
  const std::vector<sim::Request>& batch1 = platform->all_requests()[0][1];
  std::vector<int64_t> next(batch1.size(), 0);
  auto c1 = platform->CommitExternalBatch(batch1, next, 2);
  auto c2 = restored->CommitExternalBatch(batch1, next, 2);
  ASSERT_TRUE(c1.ok());
  ASSERT_TRUE(c2.ok());
  EXPECT_EQ(c1->appealed.size(), c2->appealed.size());
  auto d1 = platform->EndDay();
  auto d2 = restored->EndDay();
  ASSERT_TRUE(d1.ok());
  ASSERT_TRUE(d2.ok());
  EXPECT_DOUBLE_EQ(d1->realized_utility, d2->realized_utility);
  EXPECT_EQ(d1->appeals, d2->appeals);
}

// --- Crash-recovery gate -------------------------------------------------

// Serve dataset (matches serve_test.cc's TinyConfig) with appeals on: 3
// days × 20 lockstep batches of 6 requests; LACB-Opt (suite index 8) is
// the heaviest stateful policy — NN bandit, value function, carryover.
sim::DatasetConfig RecoveryConfig() {
  sim::DatasetConfig cfg;
  cfg.name = "serve";
  cfg.num_brokers = 30;
  cfg.num_requests = 360;
  cfg.num_days = 3;
  cfg.imbalance = 0.2;
  cfg.seed = 321;
  cfg.appeal_rate = 0.4;
  return cfg;
}

// How every batch's solve degrades to the greedy fallback: never, skipped
// outright by an injected deadline abort (no solve runs), or measured past a
// 1 µs budget (the solve runs, its result is discarded).
enum class Degrade { kNone, kSkipEvery, kOverrunEvery };

serve::ServeOptions RecoveryServeOptions(
    const std::string& checkpoint_dir, uint64_t kill_after_commits,
    std::shared_ptr<const scenario::CompiledScenario> churn = nullptr,
    Degrade degrade = Degrade::kNone) {
  serve::ServeOptions opts;
  if (degrade == Degrade::kSkipEvery) {
    opts.solve_budget = std::chrono::hours(1);  // never overrun for real
    opts.fault_plan.solve_over_budget_rate = 1.0;
  } else if (degrade == Degrade::kOverrunEvery) {
    opts.solve_budget = std::chrono::microseconds(1);
  }
  opts.scenario = std::move(churn);
  opts.num_workers = 1;
  opts.max_batch_size = 1u << 20;
  opts.max_batch_delay = std::chrono::seconds(300);
  opts.queue_capacity = 4096;
  if (!checkpoint_dir.empty()) {
    opts.checkpoint_dir = checkpoint_dir;
    opts.checkpoint_interval_batches = 4;
    opts.wal_fsync = false;  // tmpfs CI: durability-under-power-loss is
                             // not what this gate measures
  }
  opts.fault_plan.kill_after_commits = kill_after_commits;
  return opts;
}

policy::PolicyFactory RecoveryFactory(const sim::DatasetConfig& cfg) {
  core::PolicySuiteConfig suite;
  suite.seed = 55;
  return core::SuitePolicyFactory(cfg, suite, /*index=*/8);  // LACB-Opt
}

struct RunLedger {
  std::vector<double> daily_utility;
  std::string platform_state;
  std::string replica_state;
};

// Drives `service` through the rest of the horizon in lockstep (submit a
// scheduled batch, flush, drain, optional interval checkpoint), starting
// at (start_day, start_batch); the start day is not re-opened when the
// restored state says it is already mid-flight.
Status DriveToEnd(serve::AssignmentService* service, size_t start_day,
                  uint64_t start_batch, bool day_already_open,
                  RunLedger* out) {
  const auto& schedule = service->platform().all_requests();
  for (size_t day = start_day; day < schedule.size(); ++day) {
    uint64_t first = day == start_day ? start_batch : 0;
    if (!(day == start_day && day_already_open)) {
      LACB_RETURN_NOT_OK(service->OpenDay(day));
    }
    for (uint64_t j = first; j < schedule[day].size(); ++j) {
      for (const sim::Request& r : schedule[day][j]) {
        if (!service->Submit(r)) {
          return Status::Internal("lockstep submit was shed");
        }
      }
      service->Flush();
      LACB_RETURN_NOT_OK(service->WaitIdle());
      LACB_RETURN_NOT_OK(service->MaybeCheckpoint());
    }
    LACB_ASSIGN_OR_RETURN(sim::DayOutcome outcome, service->CloseDay());
    out->daily_utility.push_back(outcome.realized_utility);
  }
  LACB_ASSIGN_OR_RETURN(out->platform_state,
                        service->SerializePlatformState());
  LACB_ASSIGN_OR_RETURN(out->replica_state, service->SerializeReplicaState(0));
  return Status::OK();
}

RunLedger UninterruptedBaseline(
    const sim::DatasetConfig& cfg,
    std::shared_ptr<const scenario::CompiledScenario> churn = nullptr,
    Degrade degrade = Degrade::kNone) {
  obs::ScopedTelemetry telemetry;
  auto service = serve::AssignmentService::Create(
      cfg, RecoveryFactory(cfg), RecoveryServeOptions("", 0, churn, degrade));
  EXPECT_TRUE(service.ok());
  EXPECT_TRUE((*service)->Start().ok());
  RunLedger ledger;
  Status st = DriveToEnd(service->get(), 0, 0, false, &ledger);
  EXPECT_TRUE(st.ok()) << st.ToString();
  (*service)->Shutdown();
  return ledger;
}

// Runs the persisted twin until the injected kill fires; returns the
// day-0 outcome it observed before dying.
std::vector<double> RunUntilKilled(
    const sim::DatasetConfig& cfg, const std::string& dir,
    uint64_t kill_after_commits,
    std::shared_ptr<const scenario::CompiledScenario> churn = nullptr,
    Degrade degrade = Degrade::kNone) {
  obs::ScopedTelemetry telemetry;
  auto service = serve::AssignmentService::Create(
      cfg, RecoveryFactory(cfg),
      RecoveryServeOptions(dir, kill_after_commits, churn, degrade));
  EXPECT_TRUE(service.ok());
  EXPECT_TRUE((*service)->Start().ok());
  EXPECT_FALSE((*service)->restore_info().restored);
  RunLedger partial;
  Status st = DriveToEnd(service->get(), 0, 0, false, &partial);
  EXPECT_FALSE(st.ok()) << "the injected kill must interrupt the run";
  EXPECT_EQ(st.code(), StatusCode::kInternal) << st.ToString();
  (*service)->Shutdown();
  return partial.daily_utility;
}

TEST(CrashRecoveryTest, KillAndRecoverFinishesBitIdentical) {
  sim::DatasetConfig cfg = RecoveryConfig();
  RunLedger expected = UninterruptedBaseline(cfg);
  ASSERT_EQ(expected.daily_utility.size(), 3u);

  // Kill after 27 live commits: day 0 contributes 20, so the process dies
  // mid-day-1 after its 7th batch — 3 batches past the interval
  // checkpoint cut at 24 commits, leaving a WAL tail to replay.
  std::string dir = TempDirFor("kill_recover");
  std::vector<double> before_kill = RunUntilKilled(cfg, dir, 27);
  ASSERT_EQ(before_kill.size(), 1u);
  EXPECT_DOUBLE_EQ(before_kill[0], expected.daily_utility[0]);

  obs::ScopedTelemetry telemetry;
  auto service = serve::AssignmentService::Create(cfg, RecoveryFactory(cfg),
                                                  RecoveryServeOptions(dir, 0));
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE((*service)->Start().ok()) << "warm restart failed";
  const serve::RestoreInfo& info = (*service)->restore_info();
  ASSERT_TRUE(info.restored);
  EXPECT_EQ(info.day, 1u);
  EXPECT_TRUE(info.day_open);
  EXPECT_EQ(info.batches_committed_today, 7u);
  EXPECT_EQ(info.replayed_batches, 3u);

  RunLedger resumed;
  Status st = DriveToEnd(service->get(), info.day,
                         info.batches_committed_today, info.day_open,
                         &resumed);
  ASSERT_TRUE(st.ok()) << st.ToString();

  // The recovered run finishes the horizon bit-identical to the
  // uninterrupted twin: remaining day outcomes, the full platform ledger
  // (RNG stream, rolled-forward broker profiles), and the replica's
  // learned state (bandit, value function, estimator) all match exactly.
  ASSERT_EQ(resumed.daily_utility.size(), 2u);
  EXPECT_DOUBLE_EQ(resumed.daily_utility[0], expected.daily_utility[1]);
  EXPECT_DOUBLE_EQ(resumed.daily_utility[1], expected.daily_utility[2]);
  EXPECT_EQ(resumed.platform_state, expected.platform_state);
  EXPECT_EQ(resumed.replica_state, expected.replica_state);

  // Replay reproduced every journaled decision from restored state.
  obs::MetricRegistry& registry = obs::ActiveRegistry();
  EXPECT_EQ(registry.GetCounter("persist.replay_divergence").value(), 0u);
  uint64_t restored_carryover =
      registry.GetCounter("persist.restore_carryover_requests").value();

  (*service)->Shutdown();
  // Request conservation across the crash: everything this process
  // admitted plus the carryover it inherited reached exactly one terminal.
  serve::ServeStats stats = (*service)->Stats();
  EXPECT_EQ(stats.submitted + restored_carryover,
            stats.assigned + stats.unmatched + stats.failed +
                stats.dropped_appeals);
}

// --- Golden fixtures -----------------------------------------------------
//
// tests/data/persist holds the newest checkpoint (format v1) and its WAL
// (format v3) exactly as the kill-and-recover run above leaves them on
// disk: RecoveryConfig, LACB-Opt, killed after 27 commits, so the
// checkpoint cut at 24 commits is followed by a 3-batch WAL tail. Today's
// decoders must read those committed bytes, and a service restored from
// them must finish the horizon as the uninterrupted run does, so any drift
// in either format or in replay fails here. A deliberate format change
// bumps the version and regenerates them by running persist_test with
// --gtest_also_run_disabled_tests and
// --gtest_filter='GoldenFixtureTest.DISABLED_WriteFixtures'.

constexpr uint64_t kGoldenSeq = 8;

std::string GoldenDir() {
  return std::string(LACB_TEST_DATA_DIR) + "/persist";
}

std::string ReadBytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.is_open()) << path;
  return std::string(std::istreambuf_iterator<char>(f), {});
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// The u32 version field follows the 8-byte magic in both formats.
std::string WithVersionBumped(std::string bytes) {
  uint32_t version = 0;
  std::memcpy(&version, bytes.data() + 8, sizeof(version));
  ++version;
  std::memcpy(bytes.data() + 8, &version, sizeof(version));
  return bytes;
}

TEST(GoldenFixtureTest, DISABLED_WriteFixtures) {
  std::string dir = TempDirFor("golden_source");
  RunUntilKilled(RecoveryConfig(), dir, 27);
  persist::CheckpointManager mgr(dir, 3, false);
  uint64_t newest = mgr.ListSeqs().back();
  std::filesystem::create_directories(GoldenDir());
  for (const std::string& path :
       {mgr.CheckpointPath(newest), mgr.WalPath(newest)}) {
    std::filesystem::copy_file(
        path,
        GoldenDir() + "/" + std::filesystem::path(path).filename().string(),
        std::filesystem::copy_options::overwrite_existing);
  }
  std::printf("wrote seq %llu into %s\n",
              static_cast<unsigned long long>(newest), GoldenDir().c_str());
}

TEST(GoldenFixtureTest, DecodesAndRestoresToTheRecordedState) {
  persist::CheckpointManager golden(GoldenDir(), 3, false);
  const std::string ckpt_bytes =
      ReadBytes(golden.CheckpointPath(kGoldenSeq));
  auto ckpt = persist::DecodeCheckpoint(ckpt_bytes);
  ASSERT_TRUE(ckpt.ok()) << ckpt.status().ToString();
  EXPECT_EQ(ckpt->seq, kGoldenSeq);
  std::vector<std::string> names;
  for (const persist::CheckpointSection& s : ckpt->sections) {
    names.push_back(s.name);
  }
  EXPECT_EQ(names, (std::vector<std::string>{"meta", "platform", "store",
                                             "replica.0", "batcher"}));
  // The writer still produces the committed bytes.
  EXPECT_EQ(persist::EncodeCheckpoint(*ckpt), ckpt_bytes);

  const std::string wal_path = golden.WalPath(kGoldenSeq);
  auto wal = persist::RecoverWal(wal_path);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  EXPECT_EQ(wal->checkpoint_seq, kGoldenSeq);
  EXPECT_FALSE(wal->truncated_torn_tail);
  EXPECT_EQ(wal->valid_bytes, std::filesystem::file_size(wal_path));
  ASSERT_EQ(wal->records.size(), 3u);
  for (const persist::WalRecord& record : wal->records) {
    EXPECT_EQ(record.type, persist::WalRecordType::kBatch);
    EXPECT_EQ(record.day, 1u);
    EXPECT_EQ(record.solve, persist::SolveOutcome::kSolved);
    EXPECT_EQ(record.requests.size(), record.assignment.size());
  }

  // Restored from the committed bytes alone, the service picks up where
  // the killed run stopped and finishes bit-identical to the run that was
  // never killed.
  sim::DatasetConfig cfg = RecoveryConfig();
  RunLedger expected = UninterruptedBaseline(cfg);
  std::string dir = TempDirFor("golden_restore");
  std::filesystem::create_directories(dir);
  persist::CheckpointManager mgr(dir, 3, false);
  WriteBytes(mgr.CheckpointPath(kGoldenSeq), ckpt_bytes);
  WriteBytes(mgr.WalPath(kGoldenSeq), ReadBytes(wal_path));

  obs::ScopedTelemetry telemetry;
  auto service = serve::AssignmentService::Create(cfg, RecoveryFactory(cfg),
                                                  RecoveryServeOptions(dir, 0));
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE((*service)->Start().ok()) << "restore from fixtures failed";
  const serve::RestoreInfo& info = (*service)->restore_info();
  ASSERT_TRUE(info.restored);
  EXPECT_EQ(info.day, 1u);
  EXPECT_TRUE(info.day_open);
  EXPECT_EQ(info.batches_committed_today, 7u);
  EXPECT_EQ(info.replayed_batches, 3u);
  EXPECT_EQ(
      obs::ActiveRegistry().GetCounter("persist.replay_divergence").value(),
      0u);

  RunLedger resumed;
  Status st = DriveToEnd(service->get(), info.day,
                         info.batches_committed_today, info.day_open,
                         &resumed);
  ASSERT_TRUE(st.ok()) << st.ToString();
  (*service)->Shutdown();
  ASSERT_EQ(resumed.daily_utility.size(), 2u);
  EXPECT_DOUBLE_EQ(resumed.daily_utility[0], expected.daily_utility[1]);
  EXPECT_DOUBLE_EQ(resumed.daily_utility[1], expected.daily_utility[2]);
  EXPECT_EQ(resumed.platform_state, expected.platform_state);
  EXPECT_EQ(resumed.replica_state, expected.replica_state);
}

TEST(GoldenFixtureTest, BumpedVersionsAreRefused) {
  persist::CheckpointManager golden(GoldenDir(), 3, false);
  auto ckpt = persist::DecodeCheckpoint(
      WithVersionBumped(ReadBytes(golden.CheckpointPath(kGoldenSeq))));
  ASSERT_FALSE(ckpt.ok());
  EXPECT_EQ(ckpt.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(ckpt.status().ToString().find("version"), std::string::npos)
      << ckpt.status().ToString();

  std::string dir = TempDirFor("golden_bumped");
  std::filesystem::create_directories(dir);
  std::string wal_path = dir + "/wal-bumped.log";
  WriteBytes(wal_path,
             WithVersionBumped(ReadBytes(golden.WalPath(kGoldenSeq))));
  auto wal = persist::RecoverWal(wal_path);
  ASSERT_FALSE(wal.ok());
  EXPECT_EQ(wal.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(wal.status().ToString().find("version"), std::string::npos)
      << wal.status().ToString();
}

TEST(CrashRecoveryTest, MultiWorkerCheckpointRestoresEveryReplica) {
  // Three workers checkpoint mid-day and restore from the checkpoint and
  // its WAL tail: the platform and every replica come back byte for byte. Only replica 0 saves the shared
  // capacity stage; the other sections hold per-replica state alone.
  sim::DatasetConfig cfg = RecoveryConfig();
  std::string dir = TempDirFor("multi_worker");
  serve::ServeOptions opts = RecoveryServeOptions(dir, 0);
  opts.num_workers = 3;
  std::string platform_state;
  std::vector<std::string> replica_state;
  {
    obs::ScopedTelemetry telemetry;
    auto service =
        serve::AssignmentService::Create(cfg, RecoveryFactory(cfg), opts);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    ASSERT_TRUE((*service)->Start().ok());
    const auto& schedule = (*service)->platform().all_requests();
    for (size_t day = 0; day < 2; ++day) {
      ASSERT_TRUE((*service)->OpenDay(day).ok());
      // Day 0 runs whole; day 1 stops halfway with the day still open.
      size_t batches = day == 0 ? schedule[day].size()
                                : schedule[day].size() / 2;
      for (size_t j = 0; j < batches; ++j) {
        for (const sim::Request& r : schedule[day][j]) {
          ASSERT_TRUE((*service)->Submit(r));
        }
        (*service)->Flush();
        ASSERT_TRUE((*service)->WaitIdle().ok());
      }
      if (day == 0) {
        ASSERT_TRUE((*service)->CloseDay().ok());
      }
    }
    ASSERT_TRUE((*service)->Checkpoint().ok());
    // Shutdown flushes the day's carried-over appeals as one more batch,
    // which the WAL journals after the checkpoint: snapshot after it.
    (*service)->Shutdown();
    auto platform = (*service)->SerializePlatformState();
    ASSERT_TRUE(platform.ok());
    platform_state = *platform;
    for (size_t i = 0; i < opts.num_workers; ++i) {
      auto state = (*service)->SerializeReplicaState(i);
      ASSERT_TRUE(state.ok());
      replica_state.push_back(*state);
    }
  }
  for (size_t i = 1; i < replica_state.size(); ++i) {
    EXPECT_LT(replica_state[i].size(), replica_state[0].size() / 4)
        << "replica " << i << " saved a capacity stage of its own";
  }

  obs::ScopedTelemetry telemetry;
  auto service =
      serve::AssignmentService::Create(cfg, RecoveryFactory(cfg), opts);
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE((*service)->Start().ok());
  ASSERT_TRUE((*service)->restore_info().restored);
  EXPECT_EQ((*service)->restore_info().day, 1u);
  EXPECT_TRUE((*service)->restore_info().day_open);
  auto platform = (*service)->SerializePlatformState();
  ASSERT_TRUE(platform.ok());
  EXPECT_EQ(*platform, platform_state);
  for (size_t i = 0; i < opts.num_workers; ++i) {
    auto state = (*service)->SerializeReplicaState(i);
    ASSERT_TRUE(state.ok());
    EXPECT_EQ(*state, replica_state[i]) << "replica " << i;
  }
  // The restored day finishes on the restored state.
  EXPECT_TRUE((*service)->CloseDay().ok());
  (*service)->Shutdown();
}

TEST(CrashRecoveryTest, CorruptCheckpointAndTornWalStillRecover) {
  sim::DatasetConfig cfg = RecoveryConfig();
  RunLedger expected = UninterruptedBaseline(cfg);

  std::string dir = TempDirFor("corrupt_recover");
  std::vector<double> before_kill = RunUntilKilled(cfg, dir, 27);
  ASSERT_EQ(before_kill.size(), 1u);

  // Sabotage the durable state the way a real crash can: the newest
  // checkpoint is corrupt (torn disk block) and the live WAL lost its
  // final record (torn tail). Restore must fall back to the previous
  // checkpoint, replay the WAL *chain* across the corrupt one, drop the
  // torn record, and resume one batch earlier.
  persist::CheckpointManager mgr(dir, 3, false);
  std::vector<uint64_t> seqs = mgr.ListSeqs();
  ASSERT_GE(seqs.size(), 2u);
  uint64_t newest = seqs.back();
  CorruptByteAt(mgr.CheckpointPath(newest), 40);
  TruncateFileBy(mgr.WalPath(newest), 5);

  obs::ScopedTelemetry telemetry;
  auto service = serve::AssignmentService::Create(cfg, RecoveryFactory(cfg),
                                                  RecoveryServeOptions(dir, 0));
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE((*service)->Start().ok()) << "fallback restart failed";

  obs::MetricRegistry& registry = obs::ActiveRegistry();
  EXPECT_GE(registry.GetCounter("persist.checkpoint_load_failures").value(),
            1u);
  EXPECT_GE(registry.GetCounter("persist.torn_tail_truncations").value(), 1u);

  const serve::RestoreInfo& info = (*service)->restore_info();
  ASSERT_TRUE(info.restored);
  EXPECT_EQ(info.day, 1u);
  EXPECT_TRUE(info.day_open);
  // The torn tail cost exactly the unsynced final record: 6 of the 7
  // pre-kill batches survive, and the WAL chain re-covered the batches
  // that sat under the corrupt checkpoint.
  EXPECT_EQ(info.batches_committed_today, 6u);
  EXPECT_GE(info.replayed_batches, 6u);

  RunLedger resumed;
  Status st = DriveToEnd(service->get(), info.day,
                         info.batches_committed_today, info.day_open,
                         &resumed);
  ASSERT_TRUE(st.ok()) << st.ToString();
  (*service)->Shutdown();

  ASSERT_EQ(resumed.daily_utility.size(), 2u);
  EXPECT_DOUBLE_EQ(resumed.daily_utility[0], expected.daily_utility[1]);
  EXPECT_DOUBLE_EQ(resumed.daily_utility[1], expected.daily_utility[2]);
  EXPECT_EQ(resumed.platform_state, expected.platform_state);
  EXPECT_EQ(resumed.replica_state, expected.replica_state);
}

TEST(CrashRecoveryTest, WalChainReplayCrossesDayBoundary) {
  sim::DatasetConfig cfg = RecoveryConfig();
  RunLedger expected = UninterruptedBaseline(cfg);

  std::string dir = TempDirFor("day_boundary_recover");
  std::vector<double> before_kill = RunUntilKilled(cfg, dir, 27);
  ASSERT_EQ(before_kill.size(), 1u);

  // Corrupt the two newest checkpoints so restore falls back behind the
  // day-0 close. The chain walk must then cross the day boundary: wal-6
  // ends with kDayClose(0); wal-7 opens day 1 and holds its first four
  // batches; wal-8 holds the rest. The day-open record sits in a
  // different WAL file than the batches under the corrupt ckpt-8, so a
  // replayer that only reads the newest checkpoint's own WAL would come
  // up with the day cursor wrong.
  persist::CheckpointManager mgr(dir, 3, false);
  std::vector<uint64_t> seqs = mgr.ListSeqs();
  ASSERT_GE(seqs.size(), 3u);
  CorruptByteAt(mgr.CheckpointPath(seqs[seqs.size() - 1]), 40);
  CorruptByteAt(mgr.CheckpointPath(seqs[seqs.size() - 2]), 40);

  obs::ScopedTelemetry telemetry;
  auto service = serve::AssignmentService::Create(cfg, RecoveryFactory(cfg),
                                                  RecoveryServeOptions(dir, 0));
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE((*service)->Start().ok()) << "day-boundary restart failed";

  obs::MetricRegistry& registry = obs::ActiveRegistry();
  EXPECT_GE(registry.GetCounter("persist.checkpoint_load_failures").value(),
            2u);

  const serve::RestoreInfo& info = (*service)->restore_info();
  ASSERT_TRUE(info.restored);
  EXPECT_EQ(info.day, 1u);
  EXPECT_TRUE(info.day_open);
  EXPECT_EQ(info.batches_committed_today, 7u);
  // The replay re-ran day 1's seven batches from the pre-close anchor.
  EXPECT_GE(info.replayed_batches, 7u);

  RunLedger resumed;
  Status st = DriveToEnd(service->get(), info.day,
                         info.batches_committed_today, info.day_open,
                         &resumed);
  ASSERT_TRUE(st.ok()) << st.ToString();
  (*service)->Shutdown();

  ASSERT_EQ(resumed.daily_utility.size(), 2u);
  EXPECT_DOUBLE_EQ(resumed.daily_utility[0], expected.daily_utility[1]);
  EXPECT_DOUBLE_EQ(resumed.daily_utility[1], expected.daily_utility[2]);
  EXPECT_EQ(resumed.platform_state, expected.platform_state);
  EXPECT_EQ(resumed.replica_state, expected.replica_state);
}

TEST(CrashRecoveryTest, KillAndRecoverUnderChurnIsBitIdentical) {
  // A broker leaves after day 0's second commit and stays away, so the
  // batches replayed on day 1 must see it saturated exactly as the live
  // batches did: LACB-Opt backs its value function up along each
  // assignment and draws CBS pivots from the replica's RNG, so a replay
  // fed a different input leaves the replica in a different state.
  sim::DatasetConfig cfg = RecoveryConfig();
  for (size_t victim = 0; victim < cfg.num_brokers; ++victim) {
    SCOPED_TRACE("victim broker " + std::to_string(victim));
    scenario::ScenarioSpec spec;
    scenario::ChurnEvent leave;
    leave.day = 0;
    leave.batch_offset = 2;
    leave.broker = victim;
    leave.kind = scenario::ChurnKind::kLeave;
    spec.churn.push_back(leave);
    auto compiled = scenario::CompiledScenario::Compile(spec, cfg);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    auto churn =
        std::make_shared<const scenario::CompiledScenario>(*compiled);

    RunLedger expected = UninterruptedBaseline(cfg, churn);
    ASSERT_EQ(expected.daily_utility.size(), 3u);
    std::string dir = TempDirFor("churn_recover_" + std::to_string(victim));
    std::vector<double> before_kill = RunUntilKilled(cfg, dir, 27, churn);
    ASSERT_EQ(before_kill.size(), 1u);
    EXPECT_DOUBLE_EQ(before_kill[0], expected.daily_utility[0]);

    obs::ScopedTelemetry telemetry;
    auto service = serve::AssignmentService::Create(
        cfg, RecoveryFactory(cfg), RecoveryServeOptions(dir, 0, churn));
    ASSERT_TRUE(service.ok());
    ASSERT_TRUE((*service)->Start().ok()) << "warm restart failed";
    const serve::RestoreInfo& info = (*service)->restore_info();
    ASSERT_TRUE(info.restored);
    EXPECT_EQ(info.day, 1u);
    EXPECT_EQ(info.replayed_batches, 3u);

    RunLedger resumed;
    Status st = DriveToEnd(service->get(), info.day,
                           info.batches_committed_today, info.day_open,
                           &resumed);
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(obs::ActiveRegistry()
                  .GetCounter("persist.replay_divergence")
                  .value(),
              0u);
    (*service)->Shutdown();

    ASSERT_EQ(resumed.daily_utility.size(), 2u);
    EXPECT_DOUBLE_EQ(resumed.daily_utility[0], expected.daily_utility[1]);
    EXPECT_DOUBLE_EQ(resumed.daily_utility[1], expected.daily_utility[2]);
    // Plain comparisons: a failure names the victim without dumping the
    // serialized state.
    EXPECT_TRUE(resumed.platform_state == expected.platform_state);
    EXPECT_TRUE(resumed.replica_state == expected.replica_state);
  }
}

// Kills a run whose every batch degraded to the greedy fallback after 27
// commits and restores it: replay must end in the uninterrupted run's
// replica and platform state without flagging any divergence.
void ExpectDegradedRunRecoversBitIdentically(Degrade degrade,
                                             const std::string& name) {
  sim::DatasetConfig cfg = RecoveryConfig();
  RunLedger expected = UninterruptedBaseline(cfg, nullptr, degrade);
  ASSERT_EQ(expected.daily_utility.size(), 3u);

  std::string dir = TempDirFor(name);
  std::vector<double> before_kill =
      RunUntilKilled(cfg, dir, 27, nullptr, degrade);
  ASSERT_EQ(before_kill.size(), 1u);
  EXPECT_DOUBLE_EQ(before_kill[0], expected.daily_utility[0]);

  obs::ScopedTelemetry telemetry;
  auto service = serve::AssignmentService::Create(
      cfg, RecoveryFactory(cfg), RecoveryServeOptions(dir, 0, nullptr, degrade));
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE((*service)->Start().ok()) << "warm restart failed";
  const serve::RestoreInfo& info = (*service)->restore_info();
  ASSERT_TRUE(info.restored);
  EXPECT_EQ(info.day, 1u);
  EXPECT_EQ(info.replayed_batches, 3u);

  RunLedger resumed;
  Status st = DriveToEnd(service->get(), info.day,
                         info.batches_committed_today, info.day_open,
                         &resumed);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(obs::ActiveRegistry()
                .GetCounter("persist.replay_divergence")
                .value(),
            0u);
  (*service)->Shutdown();
  EXPECT_GT((*service)->Stats().degraded_batches, 0u);

  ASSERT_EQ(resumed.daily_utility.size(), 2u);
  EXPECT_DOUBLE_EQ(resumed.daily_utility[0], expected.daily_utility[1]);
  EXPECT_DOUBLE_EQ(resumed.daily_utility[1], expected.daily_utility[2]);
  EXPECT_TRUE(resumed.platform_state == expected.platform_state);
  EXPECT_TRUE(resumed.replica_state == expected.replica_state);
}

TEST(CrashRecoveryTest, SkippedSolvesAreNotReSolvedOnReplay) {
  // Every batch's solve is an injected deadline abort: the live process
  // never runs LACB-Opt's batch solve (no value-function backups, no CBS
  // draws) and commits the greedy fallback. The WAL journals those batches
  // skipped, so replay must not run the solve either — otherwise the
  // restored replica advances past the one that died.
  ExpectDegradedRunRecoversBitIdentically(Degrade::kSkipEvery,
                                          "skipped_solves_recover");
}

TEST(CrashRecoveryTest, OverrunSolvesReplayWithoutDivergence) {
  // Every solve runs past a 1 µs budget: the live process runs the solve
  // (its replica state changes stand) and commits the greedy fallback. The
  // WAL journals those batches overran, so replay re-runs the solve to keep
  // the replica in step but does not compare it with the committed
  // fallback — a comparison that would flag every such batch as drift.
  ExpectDegradedRunRecoversBitIdentically(Degrade::kOverrunEvery,
                                          "overrun_solves_recover");
}

TEST(CrashRecoveryTest, DisabledPersistenceKeepsServePathUnchanged) {
  // checkpoint_dir empty: no manager, no WAL, restore_info stays default,
  // MaybeCheckpoint is a no-op and Checkpoint refuses.
  sim::DatasetConfig cfg = RecoveryConfig();
  cfg.num_days = 1;
  obs::ScopedTelemetry telemetry;
  auto service =
      serve::AssignmentService::Create(cfg, RecoveryFactory(cfg),
                                       RecoveryServeOptions("", 0));
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE((*service)->Start().ok());
  EXPECT_FALSE((*service)->restore_info().restored);
  EXPECT_TRUE((*service)->MaybeCheckpoint().ok());
  EXPECT_EQ((*service)->Checkpoint().code(), StatusCode::kFailedPrecondition);
  (*service)->Shutdown();
}

}  // namespace
}  // namespace lacb
