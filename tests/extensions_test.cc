// Tests for the extension modules: Thompson sampling, Pearson/Spearman
// correlation, trace I/O, and the Greedy / Flow policies.

#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "lacb/bandit/thompson.h"
#include "lacb/core/engine.h"
#include "lacb/core/policy_suite.h"
#include "lacb/persist/bytes.h"
#include "lacb/policy/capacity_stage.h"
#include "lacb/policy/flow_policy.h"
#include "lacb/policy/greedy_policy.h"
#include "lacb/sim/trace_io.h"
#include "lacb/stats/correlation.h"

namespace lacb {
namespace {

// --------------------------- LinearThompson -------------------------------

TEST(LinearThompsonTest, CreateValidation) {
  bandit::LinearThompsonConfig c;
  EXPECT_FALSE(bandit::LinearThompson::Create(c).ok());
  c.arm_values = {1.0};
  c.context_dim = 0;
  EXPECT_FALSE(bandit::LinearThompson::Create(c).ok());
  c.context_dim = 2;
  c.posterior_scale = -1.0;
  EXPECT_FALSE(bandit::LinearThompson::Create(c).ok());
}

TEST(LinearThompsonTest, ConvergesOnLinearReward) {
  bandit::LinearThompsonConfig c;
  c.arm_values = {0.0, 1.0, 2.0};
  c.context_dim = 1;
  c.posterior_scale = 0.3;
  c.seed = 3;
  auto b = bandit::LinearThompson::Create(c);
  ASSERT_TRUE(b.ok());
  Rng rng(4);
  size_t best_picks = 0;
  for (int t = 0; t < 400; ++t) {
    bandit::Vector ctx = {rng.Uniform()};
    double v = b->SelectValue(ctx).value();
    double reward = 0.5 - 0.2 * v + rng.Normal(0.0, 0.01);  // best arm: 0
    ASSERT_TRUE(b->Observe(ctx, v, reward).ok());
    if (t >= 200 && v == 0.0) ++best_picks;
  }
  EXPECT_GT(best_picks, 150u);
  // Mean prediction reflects the fitted model.
  EXPECT_GT(b->PredictReward({0.5}, 0.0).value(),
            b->PredictReward({0.5}, 2.0).value());
}

// ----------------------------- Correlation --------------------------------

TEST(CorrelationTest, PearsonKnownValues) {
  EXPECT_NEAR(
      stats::PearsonCorrelation({1, 2, 3, 4}, {2, 4, 6, 8}).value(), 1.0,
      1e-12);
  EXPECT_NEAR(
      stats::PearsonCorrelation({1, 2, 3, 4}, {8, 6, 4, 2}).value(), -1.0,
      1e-12);
  EXPECT_FALSE(stats::PearsonCorrelation({1, 1}, {2, 3}).ok());
  EXPECT_FALSE(stats::PearsonCorrelation({1}, {2}).ok());
}

TEST(CorrelationTest, SpearmanMonotoneNonlinear) {
  // Monotone but non-linear: Spearman is exactly 1, Pearson is below 1.
  std::vector<double> xs = {1, 2, 3, 4, 5};
  std::vector<double> ys = {1, 8, 27, 64, 125};
  EXPECT_NEAR(stats::SpearmanCorrelation(xs, ys).value(), 1.0, 1e-12);
  EXPECT_LT(stats::PearsonCorrelation(xs, ys).value(), 1.0);
}

TEST(CorrelationTest, AverageRanksTies) {
  auto ranks = stats::AverageRanks({10.0, 20.0, 20.0, 30.0});
  EXPECT_DOUBLE_EQ(ranks[0], 1.0);
  EXPECT_DOUBLE_EQ(ranks[1], 2.5);
  EXPECT_DOUBLE_EQ(ranks[2], 2.5);
  EXPECT_DOUBLE_EQ(ranks[3], 4.0);
}

// ------------------------------ Trace I/O ---------------------------------

TEST(TraceIoTest, BrokerRoundTrip) {
  sim::DatasetConfig cfg;
  cfg.num_brokers = 8;
  Rng rng(7);
  auto brokers = sim::GenerateBrokers(cfg, &rng);
  std::string path =
      (std::filesystem::temp_directory_path() / "lacb_brokers.csv").string();
  ASSERT_TRUE(sim::ExportBrokersCsv(brokers, path).ok());
  auto back = sim::ImportBrokersCsv(path);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->size(), brokers.size());
  for (size_t i = 0; i < brokers.size(); ++i) {
    EXPECT_EQ((*back)[i].id, brokers[i].id);
    EXPECT_DOUBLE_EQ((*back)[i].age, brokers[i].age);
    EXPECT_EQ((*back)[i].education, brokers[i].education);
    EXPECT_DOUBLE_EQ((*back)[i].latent.true_capacity,
                     brokers[i].latent.true_capacity);
    EXPECT_EQ((*back)[i].preference.district_affinity,
              brokers[i].preference.district_affinity);
    EXPECT_EQ((*back)[i].preference.housing_embedding,
              brokers[i].preference.housing_embedding);
    EXPECT_EQ((*back)[i].profile.served_clients,
              brokers[i].profile.served_clients);
  }
  std::remove(path.c_str());
}

TEST(TraceIoTest, RequestRoundTrip) {
  sim::DatasetConfig cfg;
  cfg.num_brokers = 20;
  cfg.num_requests = 60;
  cfg.num_days = 2;
  cfg.imbalance = 0.3;
  Rng rng(8);
  auto requests = sim::GenerateRequests(cfg, &rng);
  std::string path =
      (std::filesystem::temp_directory_path() / "lacb_requests.csv").string();
  ASSERT_TRUE(sim::ExportRequestsCsv(requests, path).ok());
  auto back = sim::ImportRequestsCsv(path);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->size(), requests.size());
  size_t total = 0;
  for (size_t d = 0; d < requests.size(); ++d) {
    ASSERT_EQ((*back)[d].size(), requests[d].size());
    for (size_t b = 0; b < requests[d].size(); ++b) {
      ASSERT_EQ((*back)[d][b].size(), requests[d][b].size());
      for (size_t i = 0; i < requests[d][b].size(); ++i) {
        EXPECT_EQ((*back)[d][b][i].id, requests[d][b][i].id);
        EXPECT_EQ((*back)[d][b][i].district, requests[d][b][i].district);
        EXPECT_EQ((*back)[d][b][i].housing_embedding,
                  requests[d][b][i].housing_embedding);
        ++total;
      }
    }
  }
  EXPECT_EQ(total, 60u);
  std::remove(path.c_str());
}

TEST(TraceIoTest, ImportRejectsGarbage) {
  EXPECT_FALSE(sim::ImportBrokersCsv("/nonexistent/file.csv").ok());
  std::string path =
      (std::filesystem::temp_directory_path() / "lacb_bad.csv").string();
  {
    std::ofstream f(path);
    f << "not,a,real,header\n";
  }
  EXPECT_FALSE(sim::ImportBrokersCsv(path).ok());
  EXPECT_FALSE(sim::ImportRequestsCsv(path).ok());
  std::remove(path.c_str());
}

TEST(TraceIoTest, ExportsCarryVerifiedChecksumTrailer) {
  sim::DatasetConfig cfg;
  cfg.num_brokers = 4;
  Rng rng(7);
  auto brokers = sim::GenerateBrokers(cfg, &rng);
  std::string path =
      (std::filesystem::temp_directory_path() / "lacb_crc.csv").string();
  ASSERT_TRUE(sim::ExportBrokersCsv(brokers, path).ok());

  // The file ends with a #crc32 trailer over everything before it.
  std::string content;
  {
    std::ifstream f(path, std::ios::binary);
    std::ostringstream buf;
    buf << f.rdbuf();
    content = buf.str();
  }
  size_t pos = content.rfind("#crc32,");
  ASSERT_NE(pos, std::string::npos);
  EXPECT_EQ(content.substr(pos).size(), 16u);  // "#crc32," + 8 hex + \n
  EXPECT_TRUE(sim::ImportBrokersCsv(path).ok());
  std::remove(path.c_str());
}

TEST(TraceIoTest, ChecksumMismatchIsRejected) {
  sim::DatasetConfig cfg;
  cfg.num_brokers = 4;
  cfg.num_requests = 20;
  cfg.num_days = 1;
  Rng rng(9);
  auto brokers = sim::GenerateBrokers(cfg, &rng);
  auto requests = sim::GenerateRequests(cfg, &rng);
  std::string bpath =
      (std::filesystem::temp_directory_path() / "lacb_flip_b.csv").string();
  std::string rpath =
      (std::filesystem::temp_directory_path() / "lacb_flip_r.csv").string();
  ASSERT_TRUE(sim::ExportBrokersCsv(brokers, bpath).ok());
  ASSERT_TRUE(sim::ExportRequestsCsv(requests, rpath).ok());

  // Flip one byte inside the checksummed region (header or data — the
  // trailer covers both): the file may still parse as valid CSV, so only
  // the checksum reliably catches the tamper.
  for (const std::string& path : {bpath, rpath}) {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    std::streamoff off = path == bpath ? 600 : 80;
    f.seekg(off);
    char c = 0;
    f.read(&c, 1);
    c = c == '7' ? '3' : '7';
    f.seekp(off);
    f.write(&c, 1);
  }
  auto b = sim::ImportBrokersCsv(bpath);
  ASSERT_FALSE(b.ok());
  EXPECT_EQ(b.status().code(), StatusCode::kInvalidArgument);
  auto r = sim::ImportRequestsCsv(rpath);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  std::remove(bpath.c_str());
  std::remove(rpath.c_str());
}

TEST(TraceIoTest, TruncatedFileIsRejected) {
  sim::DatasetConfig cfg;
  cfg.num_brokers = 6;
  Rng rng(11);
  auto brokers = sim::GenerateBrokers(cfg, &rng);
  std::string path =
      (std::filesystem::temp_directory_path() / "lacb_trunc.csv").string();
  ASSERT_TRUE(sim::ExportBrokersCsv(brokers, path).ok());
  // Drop the tail but keep (a stale copy of) the trailer — the classic
  // torn download. The checksum no longer covers the body that remains.
  std::string content;
  {
    std::ifstream f(path, std::ios::binary);
    std::ostringstream buf;
    buf << f.rdbuf();
    content = buf.str();
  }
  size_t trailer = content.rfind("#crc32,");
  ASSERT_NE(trailer, std::string::npos);
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f << content.substr(0, trailer / 2) << content.substr(trailer);
  }
  auto back = sim::ImportBrokersCsv(path);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kInvalidArgument);

  // A malformed trailer (bad magic/version analogue for the CSV format)
  // is also an error, not a silent fallback.
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f << content.substr(0, trailer) << "#crc32,zzzzzzzz\n";
  }
  EXPECT_FALSE(sim::ImportBrokersCsv(path).ok());
  std::remove(path.c_str());
}

// ------------------------- Greedy & Flow policies -------------------------

sim::DatasetConfig TinyConfig() {
  sim::DatasetConfig cfg;
  cfg.name = "tiny";
  cfg.num_brokers = 25;
  cfg.num_requests = 250;
  cfg.num_days = 2;
  cfg.imbalance = 0.2;
  cfg.seed = 9;
  return cfg;
}

TEST(GreedyPolicyTest, AssignsDistinctBrokersAndRespectsCap) {
  policy::GreedyPolicy greedy;
  EXPECT_EQ(greedy.name(), "Greedy");
  policy::GreedyPolicy capped(2.0);
  EXPECT_EQ(capped.name(), "Greedy-Cap");

  la::Matrix u(2, 3);
  u(0, 0) = 0.9;
  u(0, 1) = 0.5;
  u(0, 2) = 0.1;
  u(1, 0) = 0.8;
  u(1, 1) = 0.2;
  u(1, 2) = 0.3;
  std::vector<double> w = {2.0, 0.0, 0.0};  // broker 0 at the cap
  std::vector<sim::Request> reqs(2);
  policy::BatchInput input;
  input.requests = &reqs;
  input.utility = &u;
  input.workloads = &w;

  auto free_run = greedy.AssignBatch(input);
  ASSERT_TRUE(free_run.ok());
  EXPECT_EQ((*free_run)[0], 0);  // takes the overloaded best
  EXPECT_EQ((*free_run)[1], 2);  // next-best free broker

  auto capped_run = capped.AssignBatch(input);
  ASSERT_TRUE(capped_run.ok());
  EXPECT_EQ((*capped_run)[0], 1);  // broker 0 filtered by the cap
  EXPECT_EQ((*capped_run)[1], 2);
}

TEST(GreedyPolicyTest, NeverBeatsKmOnBatchUtility) {
  auto platform = sim::Platform::Create(TinyConfig());
  ASSERT_TRUE(platform.ok());
  ASSERT_TRUE(platform->StartDay(0).ok());
  auto u = platform->BatchUtility(0);
  ASSERT_TRUE(u.ok());
  auto reqs = platform->BatchRequests(0);
  ASSERT_TRUE(reqs.ok());
  policy::BatchInput input;
  input.requests = &*reqs;
  input.utility = &*u;
  input.workloads = &platform->workloads_today();
  policy::GreedyPolicy greedy;
  policy::KmPolicy km;
  auto g = greedy.AssignBatch(input);
  auto k = km.AssignBatch(input);
  ASSERT_TRUE(g.ok());
  ASSERT_TRUE(k.ok());
  auto total = [&](const std::vector<int64_t>& a) {
    double t = 0.0;
    for (size_t r = 0; r < a.size(); ++r) {
      if (a[r] >= 0) t += (*u)(r, static_cast<size_t>(a[r]));
    }
    return t;
  };
  EXPECT_LE(total(*g), total(*k) + 1e-9);
}

TEST(FlowPolicyTest, LifecycleAndCapacityRespect) {
  policy::FlowPolicyConfig cfg;
  cfg.estimator.bandit = core::DefaultBanditConfig(TinyConfig(), 10);
  auto flow = policy::FlowPolicy::Create(cfg);
  ASSERT_TRUE(flow.ok());
  EXPECT_EQ((*flow)->name(), "Flow");

  auto run = core::RunPolicy(TinyConfig(), flow->get());
  ASSERT_TRUE(run.ok());
  EXPECT_GT(run->total_utility, 0.0);
  // Daily peaks stay within the largest candidate capacity.
  double max_arm = 0.0;
  for (double a : cfg.estimator.bandit.arm_values) max_arm = std::max(max_arm, a);
  for (double peak : run->broker_peak_workload) {
    EXPECT_LE(peak, max_arm + 1e-9);
  }
}

TEST(FlowPolicyTest, SaveLoadResumesTheTrainedEstimator) {
  // After two days, a fresh Flow policy restored from the trained one's
  // state estimates the next day's capacities bit for bit.
  policy::FlowPolicyConfig cfg;
  cfg.estimator.bandit = core::DefaultBanditConfig(TinyConfig(), 13);
  auto trained = policy::FlowPolicy::Create(cfg);
  ASSERT_TRUE(trained.ok());
  ASSERT_TRUE(core::RunPolicy(TinyConfig(), trained->get()).ok());
  persist::ByteWriter w;
  ASSERT_TRUE((*trained)->SaveState(&w).ok());

  auto platform = sim::Platform::Create(TinyConfig());
  ASSERT_TRUE(platform.ok());
  auto restored = policy::FlowPolicy::Create(cfg);
  ASSERT_TRUE(restored.ok());
  ASSERT_TRUE((*restored)->Initialize(*platform).ok());
  persist::ByteReader r(w.bytes());
  ASSERT_TRUE((*restored)->LoadState(&r).ok());
  EXPECT_EQ(r.remaining(), 0u);

  ASSERT_TRUE((*trained)->BeginDay(*platform, 2).ok());
  ASSERT_TRUE((*restored)->BeginDay(*platform, 2).ok());
  const std::vector<double>& want =
      (*trained)->capacity_stage()->capacities();
  const std::vector<double>& got =
      (*restored)->capacity_stage()->capacities();
  ASSERT_EQ(got.size(), want.size());
  for (size_t b = 0; b < want.size(); ++b) {
    EXPECT_EQ(std::bit_cast<uint64_t>(got[b]), std::bit_cast<uint64_t>(want[b]))
        << "broker " << b;
  }
  // The untrained estimator does not give the same answer.
  auto fresh = policy::FlowPolicy::Create(cfg);
  ASSERT_TRUE(fresh.ok());
  ASSERT_TRUE((*fresh)->Initialize(*platform).ok());
  ASSERT_TRUE((*fresh)->BeginDay(*platform, 2).ok());
  EXPECT_NE((*fresh)->capacity_stage()->capacities(), want);
}

TEST(FlowPolicyTest, AllowsMultipleRequestsPerBrokerPerBatch) {
  // One strong broker with spare residual capacity must absorb several
  // requests of a single batch — the capability VFGA's per-batch KM lacks.
  sim::DatasetConfig data = TinyConfig();
  data.num_brokers = 2;
  data.num_requests = 20;
  data.imbalance = 1.5;  // 3 per batch
  policy::FlowPolicyConfig cfg;
  cfg.estimator.bandit = core::DefaultBanditConfig(data, 11);
  auto flow = policy::FlowPolicy::Create(cfg);
  ASSERT_TRUE(flow.ok());
  auto platform = sim::Platform::Create(data);
  ASSERT_TRUE(platform.ok());
  ASSERT_TRUE((*flow)->Initialize(*platform).ok());
  ASSERT_TRUE((*flow)->BeginDay(*platform, 0).ok());

  la::Matrix u(3, 2, 0.0);
  for (size_t r = 0; r < 3; ++r) {
    u(r, 0) = 0.9;  // broker 0 dominates every request
    u(r, 1) = 0.1;
  }
  std::vector<double> w = {0.0, 0.0};
  std::vector<sim::Request> reqs(3);
  policy::BatchInput input;
  input.requests = &reqs;
  input.utility = &u;
  input.workloads = &w;
  auto a = (*flow)->AssignBatch(input);
  ASSERT_TRUE(a.ok());
  // All candidate capacities are >= 10, so broker 0 takes every request.
  EXPECT_EQ((*a)[0], 0);
  EXPECT_EQ((*a)[1], 0);
  EXPECT_EQ((*a)[2], 0);
}

TEST(FlowPolicyTest, RejectsMismatchedBatchWidth) {
  policy::FlowPolicyConfig cfg;
  sim::DatasetConfig data = TinyConfig();
  cfg.estimator.bandit = core::DefaultBanditConfig(data, 12);
  auto flow = policy::FlowPolicy::Create(cfg);
  ASSERT_TRUE(flow.ok());
  la::Matrix u(1, 3, 0.5);
  std::vector<double> w(3, 0.0);
  std::vector<sim::Request> reqs(1);
  policy::BatchInput input;
  input.requests = &reqs;
  input.utility = &u;
  input.workloads = &w;
  // AssignBatch before Initialize/BeginDay must fail cleanly.
  EXPECT_FALSE((*flow)->AssignBatch(input).ok());
}

}  // namespace
}  // namespace lacb
