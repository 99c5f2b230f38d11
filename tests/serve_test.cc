// Online serving layer: queue admission control, micro-batcher close
// causes, sharded store consistency, and the determinism gate — with one
// worker and lockstep replay the served path must be bit-identical to the
// offline engine (core::RunPolicy), appeals included.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <thread>
#include <vector>

#include "lacb/core/engine.h"
#include "lacb/core/policy_suite.h"
#include "lacb/obs/obs.h"
#include "lacb/persist/bytes.h"
#include "lacb/policy/capacity_stage.h"
#include "lacb/serve/serve.h"

namespace lacb {
namespace {

using serve::BatchCloseCause;
using serve::BoundedRequestQueue;
using serve::MicroBatcher;
using serve::MicroBatcherOptions;
using serve::PopResult;
using serve::QueueItem;

sim::Request MakeRequest(int64_t id) {
  sim::Request r;
  r.id = id;
  r.housing_embedding = {0.5, 0.5};
  return r;
}

sim::DatasetConfig TinyConfig() {
  sim::DatasetConfig cfg;
  cfg.name = "serve";
  cfg.num_brokers = 30;
  cfg.num_requests = 360;
  cfg.num_days = 3;
  cfg.imbalance = 0.2;
  cfg.seed = 321;
  return cfg;
}

// --- BoundedRequestQueue -------------------------------------------------

TEST(RequestQueueTest, ShedsAtCapacity) {
  BoundedRequestQueue q(3);
  EXPECT_TRUE(q.TryPush(QueueItem::Of(MakeRequest(0))));
  EXPECT_TRUE(q.TryPush(QueueItem::Of(MakeRequest(1))));
  EXPECT_TRUE(q.TryPush(QueueItem::Of(MakeRequest(2))));
  // Admission control: the bound is hard, the fourth arrival is shed.
  EXPECT_FALSE(q.TryPush(QueueItem::Of(MakeRequest(3))));
  EXPECT_EQ(q.size(), 3u);

  QueueItem item;
  EXPECT_EQ(q.Pop(&item), PopResult::kItem);
  EXPECT_EQ(item.request.id, 0);
  // Room again.
  EXPECT_TRUE(q.TryPush(QueueItem::Of(MakeRequest(4))));
}

TEST(RequestQueueTest, CloseDrainsBacklogThenReportsClosed) {
  BoundedRequestQueue q(8);
  ASSERT_TRUE(q.TryPush(QueueItem::Of(MakeRequest(7))));
  q.Close();
  EXPECT_FALSE(q.TryPush(QueueItem::Of(MakeRequest(8))));

  QueueItem item;
  EXPECT_EQ(q.Pop(&item), PopResult::kItem);
  EXPECT_EQ(item.request.id, 7);
  EXPECT_EQ(q.Pop(&item), PopResult::kClosed);
  EXPECT_EQ(q.Pop(&item), PopResult::kClosed);  // idempotent
}

TEST(RequestQueueTest, PopUntilTimesOutOnEmptyQueue) {
  BoundedRequestQueue q(8);
  QueueItem item;
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(5);
  EXPECT_EQ(q.PopUntil(deadline, &item), PopResult::kTimeout);
}

// --- MicroBatcher --------------------------------------------------------

TEST(MicroBatcherTest, ClosesOnSize) {
  BoundedRequestQueue q(64);
  MicroBatcherOptions opts;
  opts.max_batch_size = 4;
  opts.max_batch_delay = std::chrono::seconds(10);
  MicroBatcher batcher(&q, opts);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(q.TryPush(QueueItem::Of(MakeRequest(i))));
  }
  auto batch = batcher.NextBatch();
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(batch->requests.size(), 4u);
  EXPECT_EQ(batch->from_queue, 4u);
  EXPECT_EQ(batch->close_cause, BatchCloseCause::kSize);
  EXPECT_EQ(batch->requests[0].id, 0);
  EXPECT_EQ(batch->requests[3].id, 3);
}

TEST(MicroBatcherTest, ClosesOnDeadlineWithPartialBatch) {
  BoundedRequestQueue q(64);
  MicroBatcherOptions opts;
  opts.max_batch_size = 100;
  opts.max_batch_delay = std::chrono::milliseconds(20);
  MicroBatcher batcher(&q, opts);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(q.TryPush(QueueItem::Of(MakeRequest(i))));
  }
  // Far below max_batch_size: only the deadline can close this batch.
  auto batch = batcher.NextBatch();
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(batch->requests.size(), 3u);
  EXPECT_EQ(batch->close_cause, BatchCloseCause::kDeadline);
}

TEST(MicroBatcherTest, EmptyFlushEmitsNoBatch) {
  BoundedRequestQueue q(64);
  MicroBatcherOptions opts;
  opts.max_batch_size = 100;
  opts.max_batch_delay = std::chrono::seconds(10);
  std::atomic<int> flushes{0};
  MicroBatcher batcher(&q, opts, [&] { flushes.fetch_add(1); });
  // A flush with nothing pending is consumed silently; the batch that
  // eventually closes contains only the real request that followed it.
  ASSERT_TRUE(q.TryPush(QueueItem::Flush()));
  ASSERT_TRUE(q.TryPush(QueueItem::Of(MakeRequest(42))));
  ASSERT_TRUE(q.TryPush(QueueItem::Flush()));
  auto batch = batcher.NextBatch();
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(batch->requests.size(), 1u);
  EXPECT_EQ(batch->requests[0].id, 42);
  EXPECT_EQ(batch->close_cause, BatchCloseCause::kFlush);
  EXPECT_EQ(flushes.load(), 2);
}

TEST(MicroBatcherTest, CarryoverAppendsToEndOfNextBatch) {
  BoundedRequestQueue q(64);
  MicroBatcherOptions opts;
  opts.max_batch_size = 100;
  opts.max_batch_delay = std::chrono::seconds(10);
  MicroBatcher batcher(&q, opts);
  // Appealed clients re-enter at the *end* of the next closing batch —
  // the offline platform's appeal placement, load-bearing for the
  // determinism gate.
  batcher.AddCarryover({MakeRequest(100), MakeRequest(101)});
  EXPECT_EQ(batcher.carryover_size(), 2u);
  ASSERT_TRUE(q.TryPush(QueueItem::Of(MakeRequest(0))));
  ASSERT_TRUE(q.TryPush(QueueItem::Flush()));
  auto batch = batcher.NextBatch();
  ASSERT_TRUE(batch.has_value());
  ASSERT_EQ(batch->requests.size(), 3u);
  EXPECT_EQ(batch->requests[0].id, 0);
  EXPECT_EQ(batch->requests[1].id, 100);
  EXPECT_EQ(batch->requests[2].id, 101);
  // Only the queued request counts toward in-system retirement.
  EXPECT_EQ(batch->from_queue, 1u);
  EXPECT_EQ(batcher.carryover_size(), 0u);
}

TEST(MicroBatcherTest, EmptyFlushHoldsCarryoverForNextRealBatch) {
  BoundedRequestQueue q(64);
  MicroBatcherOptions opts;
  opts.max_batch_size = 100;
  opts.max_batch_delay = std::chrono::seconds(10);
  MicroBatcher batcher(&q, opts);
  // A flush with no forming batch must NOT emit the pending carryover:
  // appeals ride the end of the next real batch (offline, end-of-day
  // appeals join the *next day's* first batch, never one of their own).
  batcher.AddCarryover({MakeRequest(7)});
  ASSERT_TRUE(q.TryPush(QueueItem::Flush()));
  ASSERT_TRUE(q.TryPush(QueueItem::Of(MakeRequest(1))));
  ASSERT_TRUE(q.TryPush(QueueItem::Flush()));
  auto batch = batcher.NextBatch();
  ASSERT_TRUE(batch.has_value());
  ASSERT_EQ(batch->requests.size(), 2u);
  EXPECT_EQ(batch->requests[0].id, 1);
  EXPECT_EQ(batch->requests[1].id, 7);
  EXPECT_EQ(batch->from_queue, 1u);
  EXPECT_EQ(batch->close_cause, BatchCloseCause::kFlush);
}

TEST(MicroBatcherTest, ShutdownEmitsFinalPartialBatchOnce) {
  BoundedRequestQueue q(64);
  MicroBatcherOptions opts;
  opts.max_batch_size = 100;
  opts.max_batch_delay = std::chrono::seconds(10);
  MicroBatcher batcher(&q, opts);
  ASSERT_TRUE(q.TryPush(QueueItem::Of(MakeRequest(1))));
  ASSERT_TRUE(q.TryPush(QueueItem::Of(MakeRequest(2))));
  q.Close();
  auto batch = batcher.NextBatch();
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(batch->requests.size(), 2u);
  EXPECT_EQ(batch->close_cause, BatchCloseCause::kShutdown);
  EXPECT_FALSE(batcher.NextBatch().has_value());
}

// --- ShardedBrokerStore --------------------------------------------------

TEST(BrokerStoreTest, CommitSnapshotResetRoundTrip) {
  serve::ShardedBrokerStore store(8, 3);
  EXPECT_EQ(store.num_brokers(), 8u);
  store.SetCapacities(std::vector<double>(8, 5.0));

  std::vector<sim::CommittedEdge> edges;
  edges.push_back({2, 0.9});
  edges.push_back({2, 0.8});
  edges.push_back({5, 0.7});
  store.CommitAccepted(edges);

  std::vector<double> workloads;
  store.SnapshotWorkloads(&workloads);
  ASSERT_EQ(workloads.size(), 8u);
  EXPECT_DOUBLE_EQ(workloads[2], 2.0);
  EXPECT_DOUBLE_EQ(workloads[5], 1.0);
  EXPECT_DOUBLE_EQ(store.TotalWorkload(), 3.0);
  EXPECT_DOUBLE_EQ(store.Get(2).day_utility, 0.9 + 0.8);
  EXPECT_EQ(store.Get(2).served_total, 2u);

  std::vector<double> residual = store.ResidualCapacities(99.0);
  EXPECT_DOUBLE_EQ(residual[2], 3.0);
  EXPECT_DOUBLE_EQ(residual[0], 5.0);

  store.ResetDay();
  EXPECT_DOUBLE_EQ(store.TotalWorkload(), 0.0);
  // Capacities and lifetime counters persist across days.
  EXPECT_DOUBLE_EQ(store.ResidualCapacities(99.0)[2], 5.0);
  EXPECT_EQ(store.Get(2).served_total, 2u);
}

TEST(BrokerStoreTest, ConcurrentCommitsAreConsistent) {
  serve::ShardedBrokerStore store(16, 4);
  constexpr int kThreads = 4;
  constexpr int kCommitsPerThread = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, t] {
      for (int i = 0; i < kCommitsPerThread; ++i) {
        std::vector<sim::CommittedEdge> edges;
        edges.push_back({static_cast<size_t>((t * 7 + i) % 16), 0.5});
        edges.push_back({static_cast<size_t>((t * 11 + i) % 16), 0.25});
        store.CommitAccepted(edges);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_DOUBLE_EQ(store.TotalWorkload(), kThreads * kCommitsPerThread * 2.0);
  double utility = 0.0;
  for (size_t b = 0; b < 16; ++b) utility += store.Get(b).day_utility;
  EXPECT_DOUBLE_EQ(utility, kThreads * kCommitsPerThread * 0.75);
}

// --- Determinism gate ----------------------------------------------------

// Lockstep serve options: only flush tokens close batches, so batch edges
// coincide exactly with the platform's scheduled protocol.
serve::ServedRunOptions LockstepOptions() {
  serve::ServedRunOptions opts;
  opts.mode = serve::LoadMode::kLockstepReplay;
  opts.serve.num_workers = 1;
  opts.serve.max_batch_size = 1u << 20;
  opts.serve.max_batch_delay = std::chrono::seconds(300);
  opts.serve.queue_capacity = 4096;
  return opts;
}

void ExpectBitIdentical(const core::PolicyRunResult& offline,
                        const core::PolicyRunResult& served) {
  EXPECT_EQ(offline.policy, served.policy);
  EXPECT_DOUBLE_EQ(offline.total_utility, served.total_utility);
  ASSERT_EQ(offline.daily_utility.size(), served.daily_utility.size());
  for (size_t d = 0; d < offline.daily_utility.size(); ++d) {
    EXPECT_DOUBLE_EQ(offline.daily_utility[d], served.daily_utility[d])
        << "day " << d;
  }
  EXPECT_EQ(offline.broker_requests, served.broker_requests);
  EXPECT_EQ(offline.broker_utility, served.broker_utility);
  EXPECT_EQ(offline.overloaded_broker_days, served.overloaded_broker_days);
  EXPECT_EQ(offline.total_appeals, served.total_appeals);
  EXPECT_EQ(served.shed_requests, 0u);
}

class ServedDeterminism : public ::testing::TestWithParam<size_t> {};

TEST_P(ServedDeterminism, LockstepSingleWorkerMatchesOfflineEngine) {
  size_t index = GetParam();
  sim::DatasetConfig cfg = TinyConfig();
  core::PolicySuiteConfig suite;
  suite.seed = 55;

  auto offline_policy = core::MakeSuitePolicy(cfg, suite, index);
  ASSERT_TRUE(offline_policy.ok());
  auto offline = core::RunPolicy(cfg, offline_policy->get());
  ASSERT_TRUE(offline.ok());

  auto served = serve::RunPolicyServed(
      cfg, core::SuitePolicyFactory(cfg, suite, index), LockstepOptions());
  ASSERT_TRUE(served.ok()) << served.status().ToString();

  ExpectBitIdentical(*offline, *served);
}

// Top-3 (RNG-consuming tie-breaks), KM (the cubic optimal matcher), AN
// (exact solve over the capacity-eligible columns), LACB (the dummy-padded
// solve) and LACB-Opt (bandit + NN + CBS: the heaviest stateful policy).
INSTANTIATE_TEST_SUITE_P(Suite, ServedDeterminism,
                         ::testing::Values(1u, 5u, 6u, 7u, 8u));

TEST(ServedDeterminismTest, AppealsRequeueBitIdentically) {
  // With appeals on, assigned clients bounce back into later batches; the
  // carryover path must mirror the platform's re-queue placement and RNG
  // draw order exactly.
  sim::DatasetConfig cfg = TinyConfig();
  cfg.appeal_rate = 0.4;
  core::PolicySuiteConfig suite;
  suite.seed = 55;
  const size_t index = 1;  // Top-3

  auto offline_policy = core::MakeSuitePolicy(cfg, suite, index);
  ASSERT_TRUE(offline_policy.ok());
  auto offline = core::RunPolicy(cfg, offline_policy->get());
  ASSERT_TRUE(offline.ok());
  ASSERT_GT(offline->total_appeals, 0u) << "appeal path not exercised";

  auto served = serve::RunPolicyServed(
      cfg, core::SuitePolicyFactory(cfg, suite, index), LockstepOptions());
  ASSERT_TRUE(served.ok()) << served.status().ToString();

  ExpectBitIdentical(*offline, *served);
}

// --- Service backpressure and concurrency --------------------------------

// A policy slow enough to stall the worker pool: the batch channel fills,
// the batcher stalls, the bounded queue fills, and admission sheds.
class SlowUnmatchedPolicy : public policy::AssignmentPolicy {
 public:
  std::string name() const override { return "SlowUnmatched"; }
  Result<std::vector<int64_t>> AssignBatch(
      const policy::BatchInput& input) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    return std::vector<int64_t>(input.requests->size(), -1);
  }
};

TEST(ServiceTest, OverflowShedsAtBoundedQueue) {
  obs::ScopedTelemetry telemetry;  // isolate serve.* counters per test
  sim::DatasetConfig cfg = TinyConfig();
  serve::ServeOptions opts;
  opts.queue_capacity = 4;
  opts.max_batch_size = 2;
  opts.max_batch_delay = std::chrono::microseconds(200);
  opts.num_workers = 1;
  opts.batch_channel_capacity = 1;

  policy::PolicyFactory factory =
      []() -> Result<std::unique_ptr<policy::AssignmentPolicy>> {
    return std::unique_ptr<policy::AssignmentPolicy>(
        new SlowUnmatchedPolicy());
  };
  auto service = serve::AssignmentService::Create(cfg, factory, opts);
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE((*service)->Start().ok());
  ASSERT_TRUE((*service)->OpenDay(0).ok());

  size_t pumped = 0;
  for (const auto& batch : (*service)->platform().all_requests()[0]) {
    for (const sim::Request& r : batch) {
      (*service)->Submit(r);
      ++pumped;
    }
  }
  auto outcome = (*service)->CloseDay();
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();

  serve::ServeStats stats = (*service)->Stats();
  EXPECT_EQ(stats.submitted + stats.shed, pumped);
  EXPECT_GT(stats.shed, 0u) << "backpressure never reached admission";
  EXPECT_GT(stats.submitted, 0u);
  EXPECT_EQ(stats.assigned + stats.unmatched, stats.submitted);
  (*service)->Shutdown();
}

TEST(ServiceTest, SubmitOutsideOpenDayIsShed) {
  obs::ScopedTelemetry telemetry;  // isolate serve.* counters per test
  sim::DatasetConfig cfg = TinyConfig();
  core::PolicySuiteConfig suite;
  auto service = serve::AssignmentService::Create(
      cfg, core::SuitePolicyFactory(cfg, suite, 0), serve::ServeOptions());
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE((*service)->Start().ok());
  EXPECT_FALSE((*service)->Submit(MakeRequest(1)));
  EXPECT_EQ((*service)->Stats().shed, 1u);
  (*service)->Shutdown();
}

TEST(ServiceTest, ConcurrentWorkersCompleteFreeRunDay) {
  // Four workers, free-run pumping, micro-batches shaped by size/deadline:
  // exercises the concurrent commit path end to end (TSan covers this in
  // CI). Realized utility is batching-dependent here, so the assertions
  // are structural, not bit-exact.
  sim::DatasetConfig cfg = TinyConfig();
  core::PolicySuiteConfig suite;
  suite.seed = 55;
  serve::ServedRunOptions opts;
  opts.mode = serve::LoadMode::kFreeRunReplay;
  opts.serve.num_workers = 4;
  opts.serve.max_batch_size = 16;
  opts.serve.max_batch_delay = std::chrono::milliseconds(1);
  opts.serve.queue_capacity = 4096;

  auto run = serve::RunPolicyServed(
      cfg, core::SuitePolicyFactory(cfg, suite, 1), opts);  // Top-3
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->daily_utility.size(), 3u);
  EXPECT_GT(run->total_utility, 0.0);
  EXPECT_EQ(run->shed_requests, 0u);  // queue bound far above arrival burst
  double total_served = 0.0;
  for (double w : run->broker_requests) total_served += w;
  EXPECT_GT(total_served, 0.0);
}

TEST(ServiceTest, ReplicasShareOneCapacityStage) {
  // Capacity estimation (Sec. V) runs once per service: every replica
  // assigns under the lead replica's stage, which alone is trained at the
  // day boundaries, so day-boundary telemetry is counted once.
  obs::ScopedTelemetry telemetry;
  sim::DatasetConfig cfg = TinyConfig();
  core::PolicySuiteConfig suite;
  suite.seed = 55;
  const size_t index = 8;  // LACB-Opt: bandit estimator + value function
  serve::ServeOptions opts;
  opts.num_workers = 3;
  opts.max_batch_size = 8;
  opts.max_batch_delay = std::chrono::milliseconds(1);
  opts.queue_capacity = 4096;
  auto service = serve::AssignmentService::Create(
      cfg, core::SuitePolicyFactory(cfg, suite, index), opts);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  ASSERT_TRUE((*service)->Start().ok());

  const policy::CapacityStage* stage =
      (*service)->replica(0)->capacity_stage();
  ASSERT_NE(stage, nullptr);
  for (size_t replica = 1; replica < opts.num_workers; ++replica) {
    EXPECT_EQ((*service)->replica(replica)->capacity_stage(), stage)
        << "replica " << replica;
  }
  EXPECT_EQ((*service)->replica(opts.num_workers), nullptr);

  std::vector<double> first_day;
  uint64_t expected_hits = 0;
  for (size_t day = 0; day < cfg.num_days; ++day) {
    ASSERT_TRUE((*service)->OpenDay(day).ok());
    const std::vector<double> today = stage->capacities();
    ASSERT_EQ(today.size(), cfg.num_brokers);
    if (day == 0) first_day = today;
    if (day + 1 == cfg.num_days) {
      EXPECT_NE(today, first_day) << "capacities never retrained";
    }
    for (const auto& batch : (*service)->platform().all_requests()[day]) {
      for (const sim::Request& r : batch) ASSERT_TRUE((*service)->Submit(r));
    }
    auto outcome = (*service)->CloseDay();
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    EXPECT_GT((*service)->day_boundary_seconds(), 0.0);
    for (const sim::TrialTriple& t : outcome->trials) {
      if (today[t.broker] > 0.0 && t.workload >= today[t.broker]) {
        ++expected_hits;
      }
    }
  }
  EXPECT_EQ(stage->days_elapsed(), cfg.num_days);
  EXPECT_GT(expected_hits, 0u);
  EXPECT_EQ(telemetry.registry().GetCounter("lacb.capacity_hits").value(),
            expected_hits);
  EXPECT_GT((*service)->Stats().batches, 3 * cfg.num_days);
  (*service)->Shutdown();
}

// --- Fault injection primitives ------------------------------------------

TEST(FaultInjectorTest, FixedSeedReplaysBitIdentically) {
  serve::FaultPlan plan;
  plan.seed = 42;
  plan.commit_transient_rate = 0.3;
  plan.commit_stall_rate = 0.2;
  plan.solve_over_budget_rate = 0.25;
  plan.store_stall_rate = 0.2;
  plan.worker_stall_rate = 0.2;
  plan.worker_crash_rate = 0.1;
  ASSERT_TRUE(plan.enabled());

  // Two injectors over the same plan emit identical streams at every site.
  serve::FaultInjector a(plan);
  serve::FaultInjector b(plan);
  for (int i = 0; i < 500; ++i) {
    for (size_t s = 0; s < serve::kNumFaultSites; ++s) {
      auto site = static_cast<serve::FaultSite>(s);
      serve::FaultDecision da = a.Decide(site);
      serve::FaultDecision db = b.Decide(site);
      ASSERT_EQ(da.action, db.action) << "site " << s << " draw " << i;
      ASSERT_EQ(da.stall.count(), db.stall.count());
    }
  }
  EXPECT_EQ(a.decisions(serve::FaultSite::kCommit), 500u);

  // Per-site streams are independent: draining another site's stream must
  // not perturb the commit stream (workers hit sites in racy interleavings,
  // so cross-site independence is what makes replay order-insensitive).
  serve::FaultInjector c(plan);
  std::vector<serve::FaultAction> commit_stream;
  for (int i = 0; i < 500; ++i) {
    commit_stream.push_back(c.Decide(serve::FaultSite::kCommit).action);
  }
  serve::FaultInjector d(plan);
  for (int i = 0; i < 100; ++i) d.Decide(serve::FaultSite::kSolve);
  for (int i = 0; i < 500; ++i) {
    ASSERT_EQ(d.Decide(serve::FaultSite::kCommit).action, commit_stream[i]);
  }

  // A different seed diverges.
  serve::FaultPlan other = plan;
  other.seed = 43;
  serve::FaultInjector e(other);
  bool diverged = false;
  for (int i = 0; i < 500 && !diverged; ++i) {
    diverged = e.Decide(serve::FaultSite::kCommit).action != commit_stream[i];
  }
  EXPECT_TRUE(diverged);
}

TEST(FaultTest, GreedyCapacityAssignRespectsResidualCapacity) {
  std::vector<sim::Request> requests = {MakeRequest(0), MakeRequest(1),
                                        MakeRequest(2)};
  la::Matrix utility(3, 2);
  utility(0, 0) = 0.9;
  utility(0, 1) = 0.5;
  utility(1, 0) = 0.8;
  utility(1, 1) = 0.6;
  utility(2, 0) = 0.7;
  utility(2, 1) = 0.1;
  std::vector<double> workloads(2, 0.0);
  policy::BatchInput input;
  input.requests = &requests;
  input.utility = &utility;
  input.workloads = &workloads;

  // Broker 0 dominates on utility but only has room for one request; the
  // third request finds everything full and stays unmatched.
  auto got = serve::GreedyCapacityAssign(input, {1.0, 1.0});
  EXPECT_EQ(got, (std::vector<int64_t>{0, 1, -1}));

  // +inf residual (unknown capacity) never exhausts.
  auto open = serve::GreedyCapacityAssign(
      input, {1.0, std::numeric_limits<double>::infinity()});
  EXPECT_EQ(open, (std::vector<int64_t>{0, 1, 1}));
}

// --- Chaos property tests (see docs/robustness.md) -----------------------

// A fault mix with every site active at >= 10% — the acceptance floor the
// robustness CI jobs exercise under TSan and ASan/UBSan.
serve::FaultPlan ChaosPlan(uint64_t seed) {
  serve::FaultPlan plan;
  plan.seed = seed;
  plan.commit_transient_rate = 0.15;
  plan.commit_after_apply_fraction = 0.5;
  plan.commit_stall_rate = 0.10;
  plan.solve_over_budget_rate = 0.20;
  plan.store_stall_rate = 0.10;
  plan.worker_stall_rate = 0.10;
  plan.worker_crash_rate = 0.10;
  plan.stall_duration = std::chrono::microseconds(2000);
  return plan;
}

// Greedy capacity-capped test policy: assigns through the same
// GreedyCapacityAssign primitive the degradation path uses, against a flat
// per-broker capacity. Any double-applied commit (a retried lost ack, a
// redriven twin) would push some broker past that capacity — which
// MaxOverCapacity() catches.
class CappedGreedyPolicy : public policy::AssignmentPolicy {
 public:
  explicit CappedGreedyPolicy(double per_broker_capacity)
      : capacity_(per_broker_capacity) {}
  std::string name() const override { return "CappedGreedy"; }
  Result<std::vector<int64_t>> AssignBatch(
      const policy::BatchInput& input) override {
    std::vector<double> residual(input.workloads->size());
    for (size_t b = 0; b < residual.size(); ++b) {
      residual[b] = std::max(0.0, capacity_ - (*input.workloads)[b]);
    }
    return serve::GreedyCapacityAssign(input, std::move(residual));
  }

 private:
  double capacity_;
};

policy::PolicyFactory CappedGreedyFactory(double capacity) {
  return [capacity]() -> Result<std::unique_ptr<policy::AssignmentPolicy>> {
    return std::unique_ptr<policy::AssignmentPolicy>(
        new CappedGreedyPolicy(capacity));
  };
}

// Bit-identical replay: with one worker, lockstep batches, and no
// supervisor (redrives would add wall-clock-dependent twin decisions), a
// fixed fault seed must reproduce the run exactly — injected faults
// included. This is the "chaos schedules are deterministic" gate.
TEST(ChaosTest, FixedFaultSeedReplaysBitIdentically) {
  sim::DatasetConfig cfg = TinyConfig();
  cfg.appeal_rate = 0.3;
  core::PolicySuiteConfig suite;
  suite.seed = 55;

  serve::ServedRunOptions opts = LockstepOptions();
  opts.serve.solve_budget = std::chrono::seconds(10);
  opts.serve.fault_plan = ChaosPlan(11);
  opts.serve.fault_plan.worker_crash_rate = 0.0;  // crashes need a supervisor
  opts.serve.fault_plan.stall_duration = std::chrono::microseconds(200);

  auto run1 = serve::RunPolicyServed(
      cfg, core::SuitePolicyFactory(cfg, suite, 1), opts);
  ASSERT_TRUE(run1.ok()) << run1.status().ToString();
  auto run2 = serve::RunPolicyServed(
      cfg, core::SuitePolicyFactory(cfg, suite, 1), opts);
  ASSERT_TRUE(run2.ok()) << run2.status().ToString();

  EXPECT_GT(run1->degraded_batches, 0u) << "no fault ever fired";
  EXPECT_DOUBLE_EQ(run1->total_utility, run2->total_utility);
  EXPECT_EQ(run1->daily_utility, run2->daily_utility);
  EXPECT_EQ(run1->broker_requests, run2->broker_requests);
  EXPECT_EQ(run1->broker_utility, run2->broker_utility);
  EXPECT_EQ(run1->total_appeals, run2->total_appeals);
  EXPECT_EQ(run1->degraded_batches, run2->degraded_batches);
  EXPECT_EQ(run1->failed_requests, run2->failed_requests);
  EXPECT_EQ(run1->shed_requests, 0u);
  EXPECT_EQ(run2->shed_requests, 0u);
}

// Open-loop pump across all days under the full chaos mix with worker
// supervision: every day drains cleanly and the request ledger balances
// exactly — submitted == assigned + unmatched + failed + dropped_appeals —
// no matter which stalls, crashes, lost acks, and redrives fired.
TEST(ChaosTest, ConservationAndDrainUnderSupervisedFaults) {
  obs::ScopedTelemetry telemetry;  // isolate serve.* counters per test
  sim::DatasetConfig cfg = TinyConfig();
  cfg.appeal_rate = 0.3;
  core::PolicySuiteConfig suite;
  suite.seed = 55;

  serve::ServeOptions opts;
  opts.num_workers = 3;
  opts.max_batch_size = 8;
  opts.max_batch_delay = std::chrono::microseconds(300);
  opts.queue_capacity = 4096;
  opts.solve_budget = std::chrono::seconds(10);
  opts.stall_timeout = std::chrono::microseconds(1000);
  opts.supervisor_poll = std::chrono::microseconds(200);
  opts.fault_plan = ChaosPlan(7);

  auto service = serve::AssignmentService::Create(
      cfg, core::SuitePolicyFactory(cfg, suite, 1), opts);
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE((*service)->Start().ok());

  size_t pumped = 0;
  for (size_t day = 0; day < cfg.num_days; ++day) {
    ASSERT_TRUE((*service)->OpenDay(day).ok());
    for (const auto& batch : (*service)->platform().all_requests()[day]) {
      for (const sim::Request& r : batch) {
        (*service)->Submit(r);
        ++pumped;
      }
    }
    auto outcome = (*service)->CloseDay();
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  }
  (*service)->Shutdown();

  serve::ServeStats stats = (*service)->Stats();
  EXPECT_EQ(stats.submitted + stats.shed, pumped);
  EXPECT_EQ(stats.assigned + stats.unmatched + stats.failed +
                stats.dropped_appeals,
            stats.submitted)
      << "conservation violated: a request was lost or double-counted;"
      << " assigned=" << stats.assigned << " unmatched=" << stats.unmatched
      << " failed=" << stats.failed
      << " dropped_appeals=" << stats.dropped_appeals
      << " appeals=" << stats.appeals << " batches=" << stats.batches
      << " redriven=" << stats.redriven_batches
      << " stalls=" << stats.worker_stalls
      << " crashes=" << stats.worker_crashes
      << " retries=" << stats.commit_retries;
  EXPECT_GT(stats.degraded_batches, 0u);
  EXPECT_GT(stats.commit_retries, 0u);
  EXPECT_EQ(stats.worker_restarts, stats.worker_crashes);
}

// Every commit attempt loses its acknowledgement: without idempotent
// tokens each retry would re-apply the batch (double-decrementing broker
// capacity); with them the platform dedups and the post-exhaustion
// reconciliation recovers the cached outcome — exactly-once end to end.
TEST(ChaosTest, LostAcksCommitExactlyOnce) {
  obs::ScopedTelemetry telemetry;  // isolate serve.* counters per test
  sim::DatasetConfig cfg = TinyConfig();
  cfg.num_days = 1;
  serve::ServeOptions opts;
  opts.num_workers = 1;
  opts.max_batch_size = 8;
  opts.max_batch_delay = std::chrono::microseconds(300);
  opts.commit_max_attempts = 3;
  opts.commit_backoff_base = std::chrono::microseconds(50);
  opts.commit_backoff_cap = std::chrono::microseconds(200);
  opts.fault_plan.commit_transient_rate = 1.0;
  opts.fault_plan.commit_after_apply_fraction = 1.0;  // all lost acks

  const double kCapacity = 3.0;
  auto service = serve::AssignmentService::Create(
      cfg, CappedGreedyFactory(kCapacity), opts);
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE((*service)->Start().ok());
  (*service)->SetStoreCapacities(
      std::vector<double>(cfg.num_brokers, kCapacity));

  ASSERT_TRUE((*service)->OpenDay(0).ok());
  for (const auto& batch : (*service)->platform().all_requests()[0]) {
    for (const sim::Request& r : batch) (*service)->Submit(r);
  }
  ASSERT_TRUE((*service)->CloseDay().ok());
  (*service)->Shutdown();

  serve::ServeStats stats = (*service)->Stats();
  EXPECT_EQ(stats.failed, 0u) << "lost acks must reconcile, not fail";
  EXPECT_EQ(stats.assigned + stats.unmatched + stats.dropped_appeals,
            stats.submitted);
  // Every attempt "failed", so every batch burned its full retry budget.
  EXPECT_EQ(stats.commit_retries, stats.batches * opts.commit_max_attempts);
  // The exactly-once proof: no broker exceeds its capacity even though
  // every batch was applied on attempt 1 and retried twice more.
  EXPECT_LE((*service)->store().MaxOverCapacity(), 0.0);
}

// Commit faults that never apply: after the retry budget the batch is
// declared failed with exact accounting (nothing committed, nothing lost).
TEST(ChaosTest, CommitExhaustionFailsBatchesWithExactAccounting) {
  obs::ScopedTelemetry telemetry;  // isolate serve.* counters per test
  sim::DatasetConfig cfg = TinyConfig();
  cfg.num_days = 1;
  core::PolicySuiteConfig suite;
  serve::ServeOptions opts;
  opts.num_workers = 2;
  opts.max_batch_size = 8;
  opts.max_batch_delay = std::chrono::microseconds(300);
  opts.commit_max_attempts = 2;
  opts.commit_backoff_base = std::chrono::microseconds(50);
  opts.commit_backoff_cap = std::chrono::microseconds(100);
  opts.fault_plan.commit_transient_rate = 1.0;
  opts.fault_plan.commit_after_apply_fraction = 0.0;  // never applies

  auto service = serve::AssignmentService::Create(
      cfg, core::SuitePolicyFactory(cfg, suite, 0), opts);
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE((*service)->Start().ok());
  ASSERT_TRUE((*service)->OpenDay(0).ok());
  size_t pumped = 0;
  for (const auto& batch : (*service)->platform().all_requests()[0]) {
    for (const sim::Request& r : batch) {
      (*service)->Submit(r);
      ++pumped;
    }
  }
  ASSERT_TRUE((*service)->CloseDay().ok());
  (*service)->Shutdown();

  serve::ServeStats stats = (*service)->Stats();
  EXPECT_EQ(stats.submitted, pumped);
  EXPECT_EQ(stats.assigned, 0u);
  EXPECT_EQ(stats.failed, stats.submitted);
  EXPECT_EQ(stats.commit_retries, stats.batches * opts.commit_max_attempts);
}

// Stall + crash redrives with one worker and tight capacities: the
// supervisor re-drives parked batches and restarts crashed workers, the
// slower twin of every redrive hits the terminal claim and evaporates, and
// the capacity ledger proves nothing committed twice.
TEST(ChaosTest, RedrivenBatchesCommitExactlyOnce) {
  obs::ScopedTelemetry telemetry;  // isolate serve.* counters per test
  sim::DatasetConfig cfg = TinyConfig();
  cfg.num_days = 1;
  serve::ServeOptions opts;
  opts.num_workers = 1;
  opts.max_batch_size = 8;
  opts.max_batch_delay = std::chrono::microseconds(300);
  opts.stall_timeout = std::chrono::microseconds(500);
  opts.supervisor_poll = std::chrono::microseconds(100);
  opts.fault_plan.worker_stall_rate = 0.3;
  opts.fault_plan.worker_crash_rate = 0.3;
  opts.fault_plan.stall_duration = std::chrono::microseconds(2000);

  const double kCapacity = 3.0;
  auto service = serve::AssignmentService::Create(
      cfg, CappedGreedyFactory(kCapacity), opts);
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE((*service)->Start().ok());
  (*service)->SetStoreCapacities(
      std::vector<double>(cfg.num_brokers, kCapacity));

  ASSERT_TRUE((*service)->OpenDay(0).ok());
  for (const auto& batch : (*service)->platform().all_requests()[0]) {
    for (const sim::Request& r : batch) (*service)->Submit(r);
  }
  ASSERT_TRUE((*service)->CloseDay().ok());
  (*service)->Shutdown();

  serve::ServeStats stats = (*service)->Stats();
  EXPECT_EQ(stats.assigned + stats.unmatched + stats.failed +
                stats.dropped_appeals,
            stats.submitted);
  EXPECT_GT(stats.worker_crashes, 0u) << "crash path never exercised";
  EXPECT_EQ(stats.worker_restarts, stats.worker_crashes);
  EXPECT_GT(stats.redriven_batches, 0u);
  EXPECT_LE((*service)->store().MaxOverCapacity(), 0.0)
      << "a redriven twin double-committed";
  // The service weathered the chaos without leaving the healthy/degraded
  // band (crashed workers were restarted, so unhealthy never latched).
  EXPECT_NE((*service)->Health().state, obs::HealthState::kUnhealthy);
}

// The shutdown-bug regression: a day left open with requests still forming
// in the batcher must flush and commit them on Shutdown, not drop them.
TEST(ServiceTest, ShutdownCommitsResidualFormingBatch) {
  obs::ScopedTelemetry telemetry;  // isolate serve.* counters per test
  sim::DatasetConfig cfg = TinyConfig();
  core::PolicySuiteConfig suite;
  serve::ServeOptions opts;
  opts.num_workers = 1;
  opts.max_batch_size = 1u << 20;                    // size never closes
  opts.max_batch_delay = std::chrono::seconds(300);  // deadline never fires
  auto service = serve::AssignmentService::Create(
      cfg, core::SuitePolicyFactory(cfg, suite, 0), opts);
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE((*service)->Start().ok());
  ASSERT_TRUE((*service)->OpenDay(0).ok());

  const auto& day0 = (*service)->platform().all_requests()[0];
  size_t pumped = 0;
  for (const sim::Request& r : day0[0]) {
    ASSERT_TRUE((*service)->Submit(r));
    ++pumped;
  }
  ASSERT_GT(pumped, 0u);
  // No CloseDay: the requests are sitting in the batcher's forming batch.
  (*service)->Shutdown();

  serve::ServeStats stats = (*service)->Stats();
  EXPECT_EQ(stats.submitted, pumped);
  // Drained empty, nothing silently dropped: every request reached a real
  // commit terminal through the residual flush.
  EXPECT_EQ(stats.assigned + stats.unmatched, stats.submitted);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_GE(stats.batches, 1u);
}

TEST(ServiceTest, PoissonLoadCompletesAndPacksBatches) {
  sim::DatasetConfig cfg = TinyConfig();
  cfg.num_requests = 60;  // keep the paced run short
  cfg.num_days = 1;
  core::PolicySuiteConfig suite;
  serve::ServedRunOptions opts;
  opts.mode = serve::LoadMode::kPoisson;
  opts.poisson_rate = 20000.0;  // ~50µs mean gap: fast but still paced
  opts.serve.num_workers = 2;
  opts.serve.max_batch_size = 8;
  opts.serve.max_batch_delay = std::chrono::milliseconds(1);

  auto run = serve::RunPolicyServed(
      cfg, core::SuitePolicyFactory(cfg, suite, 0), opts);  // Top-1
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->daily_utility.size(), 1u);
  EXPECT_GE(run->p99_batch_latency, 0.0);
}

// Open-loop Poisson load must offer the rate it is asked for: wakeup
// overshoot of one arrival must not add up across the day.
TEST(ServiceTest, PoissonPacingOffersTheAskedRate) {
  obs::ScopedTelemetry telemetry;
  sim::DatasetConfig cfg = TinyConfig();
  cfg.num_requests = 2000;
  cfg.num_days = 1;
  core::PolicySuiteConfig suite;
  serve::ServedRunOptions opts;
  opts.mode = serve::LoadMode::kPoisson;
  opts.poisson_rate = 10000.0;
  opts.serve.num_workers = 1;
  opts.serve.queue_capacity = 4096;
  auto service = serve::AssignmentService::Create(
      cfg, core::SuitePolicyFactory(cfg, suite, 0), opts.serve);  // Top-1
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE((*service)->Start().ok());
  ASSERT_TRUE((*service)->OpenDay(0).ok());

  size_t requests = 0;
  for (const auto& batch : (*service)->platform().all_requests()[0]) {
    requests += batch.size();
  }
  ASSERT_GE(requests, 1000u);
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(serve::PumpDay(service->get(), 0, opts).ok());
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  const double expected = static_cast<double>(requests) / opts.poisson_rate;
  // The sum of ~2 000 exponential gaps lies within a few percent of its
  // mean, so both bounds sit many standard deviations out.
  EXPECT_LE(elapsed, 1.3 * expected) << requests << " requests";
  EXPECT_GE(elapsed, 0.8 * expected) << requests << " requests";
  ASSERT_TRUE((*service)->CloseDay().ok());
  (*service)->Shutdown();
}

// --- Performance attribution plane ---------------------------------------

// Stage attribution and solver introspection are observers: with the knobs
// on, the lockstep single-worker gate must still be bit-identical to the
// offline engine, and the stage/solver instruments must be populated.
TEST(ServedDeterminismTest, AttributionKnobsDoNotPerturbResults) {
  sim::DatasetConfig cfg = TinyConfig();
  core::PolicySuiteConfig suite;
  suite.seed = 55;
  const size_t index = 5;  // KM: exercises the introspected cubic solver

  auto offline_policy = core::MakeSuitePolicy(cfg, suite, index);
  ASSERT_TRUE(offline_policy.ok());
  auto offline = core::RunPolicy(cfg, offline_policy->get());
  ASSERT_TRUE(offline.ok());

  serve::ServedRunOptions opts = LockstepOptions();
  opts.serve.stage_attribution = true;
  opts.serve.solver_introspection = true;
  auto served = serve::RunPolicyServed(
      cfg, core::SuitePolicyFactory(cfg, suite, index), opts);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  ExpectBitIdentical(*offline, *served);

  ASSERT_NE(served->telemetry, nullptr);
  const auto& m = served->telemetry->metrics;
  auto counter = [&](const char* name) -> uint64_t {
    auto it = m.counters.find(name);
    return it == m.counters.end() ? 0 : it->second;
  };
  const uint64_t batches = counter("serve.batches");
  ASSERT_GT(batches, 0u);

  // Every committed batch contributes one sample to the batch-scoped
  // stage histograms and at least one introspected solve.
  auto solve = m.histograms.find("serve.stage.solve_seconds");
  ASSERT_NE(solve, m.histograms.end());
  EXPECT_EQ(solve->second.count, batches);
  auto channel = m.histograms.find("serve.stage.channel_wait_seconds");
  ASSERT_NE(channel, m.histograms.end());
  EXPECT_EQ(channel->second.count, batches);
  auto queue_wait = m.histograms.find("serve.stage.queue_wait_seconds");
  ASSERT_NE(queue_wait, m.histograms.end());
  EXPECT_GT(queue_wait->second.count, 0u);
  EXPECT_GE(counter("serve.solver.solves"), batches);
  EXPECT_GT(counter("serve.solver.iterations"), 0u);
  // The critical-path gauges add up to a positive attributed total.
  double attributed = 0.0;
  for (const char* g :
       {"serve.stage.queue_wait_total_seconds",
        "serve.stage.channel_wait_total_seconds",
        "serve.stage.solve_total_seconds",
        "serve.stage.commit_total_seconds",
        "serve.stage.disposition_total_seconds"}) {
    auto it = m.gauges.find(g);
    ASSERT_NE(it, m.gauges.end()) << g;
    attributed += it->second;
  }
  EXPECT_GT(attributed, 0.0);

  // Default knobs register none of it: the plain path stays instrument-free.
  auto plain = serve::RunPolicyServed(
      cfg, core::SuitePolicyFactory(cfg, suite, index), LockstepOptions());
  ASSERT_TRUE(plain.ok());
  ASSERT_NE(plain->telemetry, nullptr);
  const auto& pm = plain->telemetry->metrics;
  EXPECT_EQ(pm.histograms.find("serve.stage.solve_seconds"),
            pm.histograms.end());
  EXPECT_EQ(pm.counters.find("serve.solver.solves"), pm.counters.end());
}

// Declarative SLOs through the service: a shed storm drives the critical
// admission SLO into fast burn (both windows hot) and Health() escalates
// to unhealthy, while a generous latency SLO stays quiet. Runs under TSan
// in CI: SLO recording happens on producer + worker threads concurrently
// with Health() probes.
TEST(ServiceTest, SloBurnTransitionsSurfaceInHealth) {
  obs::ScopedTelemetry telemetry;  // isolate serve.* counters per test
  sim::DatasetConfig cfg = TinyConfig();
  serve::ServeOptions opts;
  opts.queue_capacity = 4;
  opts.max_batch_size = 2;
  opts.max_batch_delay = std::chrono::microseconds(200);
  opts.num_workers = 1;
  opts.batch_channel_capacity = 1;
  serve::ServedSlo admission;
  admission.target = serve::SloTarget::kAdmission;
  admission.spec.name = "admission";
  admission.spec.objective = 0.99;
  admission.spec.critical = true;
  opts.slos.push_back(admission);
  serve::ServedSlo latency;
  latency.target = serve::SloTarget::kLatency;
  latency.spec.name = "commit_latency";
  latency.spec.objective = 0.99;
  latency.spec.latency_threshold_seconds = 10.0;  // nothing is this slow
  opts.slos.push_back(latency);

  policy::PolicyFactory factory =
      []() -> Result<std::unique_ptr<policy::AssignmentPolicy>> {
    return std::unique_ptr<policy::AssignmentPolicy>(
        new SlowUnmatchedPolicy());
  };
  auto service = serve::AssignmentService::Create(cfg, factory, opts);
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE((*service)->Start().ok());

  // No events yet: trackers sit at kOk and the budget is untouched.
  EXPECT_EQ((*service)->Health().state, obs::HealthState::kHealthy);

  ASSERT_TRUE((*service)->OpenDay(0).ok());
  for (const auto& batch : (*service)->platform().all_requests()[0]) {
    for (const sim::Request& r : batch) {
      (*service)->Submit(r);
      (*service)->Health();  // concurrent probes while recording
    }
  }
  auto outcome = (*service)->CloseDay();
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ASSERT_GT((*service)->Stats().shed, 0u) << "no shed, SLO never burned";

  obs::HealthReport report = (*service)->Health();
  EXPECT_EQ(report.state, obs::HealthState::kUnhealthy);
  EXPECT_NE(report.detail.find("admission"), std::string::npos)
      << report.detail;

  obs::MetricsSnapshot snap = telemetry.registry().Snapshot();
  // Shed fraction is way past the 1% budget in both windows; fast burn is
  // state 2 and the budget is overspent.
  EXPECT_GE(snap.gauges.at("slo.admission.burn_rate_short"), 14.4);
  EXPECT_GE(snap.gauges.at("slo.admission.burn_rate_long"), 14.4);
  EXPECT_DOUBLE_EQ(snap.gauges.at("slo.admission.state"), 2.0);
  EXPECT_LT(snap.gauges.at("slo.admission.budget_remaining"), 0.0);
  // The latency SLO saw only good events: kOk, full budget.
  EXPECT_DOUBLE_EQ(snap.gauges.at("slo.commit_latency.state"), 0.0);
  EXPECT_DOUBLE_EQ(snap.gauges.at("slo.commit_latency.budget_remaining"),
                   1.0);
  (*service)->Shutdown();
}

TEST(ChaosTest, PoissonOpenLoopConservesUnderFaults) {
  // Open-loop paced arrivals (no lockstep barrier) + the full chaos plan
  // + supervision: the end-to-end serving entry point must drain every
  // day (CloseDay would fail otherwise) and the request ledger must
  // still balance exactly, read back from the run's own telemetry.
  sim::DatasetConfig cfg = TinyConfig();
  cfg.appeal_rate = 0.2;
  core::PolicySuiteConfig suite;
  suite.seed = 55;
  serve::ServedRunOptions opts;
  opts.mode = serve::LoadMode::kPoisson;
  opts.poisson_rate = 20000.0;  // ~50µs mean gap
  opts.serve.num_workers = 2;
  opts.serve.max_batch_size = 8;
  opts.serve.max_batch_delay = std::chrono::microseconds(300);
  opts.serve.queue_capacity = 4096;
  opts.serve.solve_budget = std::chrono::seconds(10);
  opts.serve.stall_timeout = std::chrono::microseconds(1000);
  opts.serve.supervisor_poll = std::chrono::microseconds(200);
  opts.serve.fault_plan = ChaosPlan(13);

  auto run = serve::RunPolicyServed(
      cfg, core::SuitePolicyFactory(cfg, suite, 1), opts);  // Top-3
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_NE(run->telemetry, nullptr);
  const auto& counters = run->telemetry->metrics.counters;
  auto count = [&](const char* name) -> uint64_t {
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  };
  uint64_t submitted = count("serve.submitted");
  EXPECT_GT(submitted, 0u);
  EXPECT_EQ(count("serve.assigned_requests") +
                count("serve.unmatched_requests") +
                count("serve.failed_requests") +
                count("serve.dropped_appeals"),
            submitted)
      << "conservation violated under Poisson open-loop chaos";
  EXPECT_GT(count("serve.batches"), 0u);
}

}  // namespace
}  // namespace lacb
