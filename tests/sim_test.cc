// Unit tests for lacb/sim: broker contexts, sign-up model shape (the
// Sec. II phenomena), utility model, dataset generation, and the platform's
// day/batch protocol.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include <gtest/gtest.h>

#include "kernel_lanes.h"
#include "lacb/sim/dataset.h"
#include "lacb/sim/platform.h"
#include "lacb/sim/signup_model.h"
#include "lacb/sim/utility_model.h"

namespace lacb::sim {
namespace {

Broker MakeBroker(double capacity = 30.0, double quality = 0.2) {
  Broker b;
  b.id = 0;
  b.latent.true_capacity = capacity;
  b.latent.base_quality = quality;
  b.latent.overload_slope = 0.2;
  b.latent.fatigue_sensitivity = 0.2;
  b.recent_workload = 10.0;
  return b;
}

TEST(BrokerTest, ContextVectorShapeAndRange) {
  DatasetConfig cfg;
  cfg.num_brokers = 5;
  Rng rng(1);
  auto brokers = GenerateBrokers(cfg, &rng);
  for (const Broker& b : brokers) {
    la::Vector x = b.ContextVector();
    ASSERT_EQ(x.size(), Broker::kContextDim);
    for (double v : x) {
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 1.0);
    }
  }
}

TEST(BrokerTest, ContextReflectsWorkloadState) {
  Broker b = MakeBroker();
  la::Vector before = b.ContextVector();
  b.workload_today = 40.0;
  b.recent_workload = 50.0;
  la::Vector after = b.ContextVector();
  EXPECT_NE(before, after);
}

TEST(SignupModelTest, QualityPeaksAtKneeAndFallsAbove) {
  SignupModelConfig cfg;
  cfg.binomial_observation = false;
  SignupModel m(cfg);
  Broker b = MakeBroker(30.0);
  b.recent_workload = 0.0;  // no fatigue
  // Rising ramp toward the knee (the paper's interior peak)...
  EXPECT_LT(m.QualityFactor(b, 10.0), m.QualityFactor(b, 20.0));
  EXPECT_LT(m.QualityFactor(b, 20.0), m.QualityFactor(b, 30.0));
  EXPECT_NEAR(m.QualityFactor(b, 30.0), 1.0, 1e-12);
  // ...then hyperbolic collapse: 1/(1+0.2*10) at w=40.
  double q40 = m.QualityFactor(b, 40.0);
  double q60 = m.QualityFactor(b, 60.0);
  EXPECT_NEAR(q40, 1.0 / 3.0, 1e-9);
  EXPECT_LT(q60, q40);
}

TEST(SignupModelTest, WarmupRampBelowFullQuality) {
  SignupModel m;
  Broker b = MakeBroker(30.0);
  b.recent_workload = 0.0;
  double q1 = m.QualityFactor(b, 1.0);
  EXPECT_GT(q1, 0.5);  // floor + one request's worth of ramp
  EXPECT_LT(q1, 0.7);
  EXPECT_NEAR(m.QualityFactor(b, 0.0), 1.0, 1e-12);
}

TEST(SignupModelTest, FatigueLowersEffectiveCapacity) {
  SignupModel m;
  Broker fresh = MakeBroker(30.0);
  fresh.recent_workload = 0.0;
  Broker tired = MakeBroker(30.0);
  tired.recent_workload = 45.0;  // sustained overload
  EXPECT_LT(m.EffectiveCapacity(tired), m.EffectiveCapacity(fresh));
  // The tired broker degrades earlier.
  EXPECT_LT(m.QualityFactor(tired, 29.0), m.QualityFactor(fresh, 29.0));
}

TEST(SignupModelTest, SignupProbabilityScalesWithBaseQuality) {
  SignupModel m;
  Broker weak = MakeBroker(30.0, 0.1);
  Broker strong = MakeBroker(30.0, 0.3);
  weak.recent_workload = strong.recent_workload = 0.0;
  // At the knee the quality factor is exactly 1, so the probability is the
  // broker's base quality.
  EXPECT_NEAR(m.SignupProbability(weak, 30.0), 0.1, 1e-12);
  EXPECT_NEAR(m.SignupProbability(strong, 30.0), 0.3, 1e-12);
}

TEST(SignupModelTest, ObservationIsBinomialMean) {
  SignupModelConfig cfg;
  cfg.binomial_observation = true;
  SignupModel m(cfg);
  Broker b = MakeBroker(30.0, 0.25);
  b.recent_workload = 0.0;
  Rng rng(2);
  double sum = 0.0;
  const int kDays = 400;
  for (int i = 0; i < kDays; ++i) {
    sum += m.ObserveDailySignupRate(b, 30.0, &rng);  // loaded to the knee
  }
  EXPECT_NEAR(sum / kDays, 0.25, 0.02);
  EXPECT_DOUBLE_EQ(m.ObserveDailySignupRate(b, 0.0, &rng), 0.0);
}

TEST(SignupModelTest, OracleBestCapacityNearKnee) {
  SignupModel m;
  Broker b = MakeBroker(30.0);
  b.recent_workload = 0.0;
  std::vector<double> candidates = {10, 20, 30, 40, 50, 60};
  // Quality is flat up to 30 and drops beyond: ties below the knee break
  // toward the larger capacity, so the oracle picks 30.
  EXPECT_DOUBLE_EQ(m.OracleBestCapacity(b, candidates), 30.0);
}

TEST(UtilityModelTest, DeterministicAndBounded) {
  DatasetConfig cfg;
  cfg.num_brokers = 20;
  Rng rng(3);
  auto brokers = GenerateBrokers(cfg, &rng);
  auto um = UtilityModel::Create(brokers);
  ASSERT_TRUE(um.ok());
  auto requests = GenerateRequests(cfg, &rng);
  const Request& q = requests[0][0][0];
  double u1 = um->Utility(q, brokers[3]);
  double u2 = um->Utility(q, brokers[3]);
  EXPECT_DOUBLE_EQ(u1, u2);
  for (const Broker& b : brokers) {
    double u = um->Utility(q, b);
    EXPECT_GE(u, 0.0);
    EXPECT_LE(u, 1.0);
  }
}

TEST(UtilityModelTest, HigherQualityBrokersScoreHigherOnAverage) {
  DatasetConfig cfg;
  cfg.num_brokers = 60;
  cfg.num_requests = 200;
  Rng rng(4);
  auto brokers = GenerateBrokers(cfg, &rng);
  auto um = UtilityModel::Create(brokers);
  ASSERT_TRUE(um.ok());
  auto requests = GenerateRequests(cfg, &rng);
  // Identify the best and worst broker by latent quality.
  size_t best = 0;
  size_t worst = 0;
  for (size_t i = 0; i < brokers.size(); ++i) {
    if (brokers[i].latent.base_quality > brokers[best].latent.base_quality) best = i;
    if (brokers[i].latent.base_quality < brokers[worst].latent.base_quality) worst = i;
  }
  double sum_best = 0.0;
  double sum_worst = 0.0;
  int count = 0;
  for (const auto& day : requests) {
    for (const auto& batch : day) {
      for (const Request& q : batch) {
        sum_best += um->Utility(q, brokers[best]);
        sum_worst += um->Utility(q, brokers[worst]);
        ++count;
      }
    }
  }
  ASSERT_GT(count, 0);
  EXPECT_GT(sum_best / count, sum_worst / count);
}

// u_{r,b} transcribed from the model's definition, one pair at a time, with
// the broker's embedding zero-padded to the roster's widest
// (`embedding_width`), as UtilityMatrix packs it. For finite entries a
// padded term adds ±0 to a sum that is never −0, so this is also
// Utility(); with non-finite entries (∞·0 is NaN) it defines the matrix.
double PairFormula(const Request& q, const Broker& b, double quality,
                   const UtilityModelConfig& c, size_t embedding_width) {
  double district = q.district < b.preference.district_affinity.size()
                        ? b.preference.district_affinity[q.district]
                        : 0.0;
  const std::vector<double>& e = b.preference.housing_embedding;
  double taste = 0.0;
  size_t dims = std::min(q.housing_embedding.size(), embedding_width);
  for (size_t i = 0; i < dims; ++i) {
    taste += q.housing_embedding[i] * (i < e.size() ? e[i] : 0.0);
  }
  taste = std::clamp(0.5 * (taste + 1.0), 0.0, 1.0);
  double affinity = 0.5 * district + 0.5 * taste;
  affinity = (1.0 - q.pickiness) * affinity + q.pickiness * affinity * affinity;
  uint64_t z = c.noise_seed;
  z += 0x9e3779b97f4a7c15ULL * (static_cast<uint64_t>(q.id) + 1);
  z += 0xd1b54a32d192ed03ULL * (static_cast<uint64_t>(b.id) + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  double noise = static_cast<double>(z >> 11) * 0x1.0p-53;
  double total = c.quality_weight + c.affinity_weight + c.noise_weight;
  double u = (c.quality_weight * quality + c.affinity_weight * affinity +
              c.noise_weight * noise) /
             total;
  return std::clamp(u, 0.0, 1.0);
}

uint64_t Bits(double v) {
  uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

// A roster of n brokers with ragged embeddings (widths 0..11) and affinity
// lists (0..14 long), in a shuffled id order (ids stay dense), so padding
// and the column ↔ id mapping are both exercised.
std::vector<Broker> RaggedRoster(size_t n, Rng* rng) {
  DatasetConfig cfg;
  cfg.num_brokers = n;
  std::vector<Broker> brokers = GenerateBrokers(cfg, rng);
  for (size_t i = 0; i < brokers.size(); ++i) {
    Preference& p = brokers[i].preference;
    p.housing_embedding.resize(i % 12);
    for (double& v : p.housing_embedding) v = rng->Uniform(-0.6, 0.6);
    p.district_affinity.resize((3 * i) % 15);
    for (double& v : p.district_affinity) v = rng->Uniform();
  }
  rng->Shuffle(&brokers);
  return brokers;
}

std::vector<Request> RaggedRequests(size_t n, Rng* rng) {
  std::vector<Request> requests;
  for (size_t r = 0; r < n; ++r) {
    Request q;
    q.id = static_cast<int64_t>(1000 + 7 * r);
    // Districts past every broker's list (up to 20 against at most 14).
    q.district = static_cast<size_t>(rng->UniformInt(0, 20));
    // Shorter than, equal to and longer than the widest broker embedding.
    q.housing_embedding.resize(r % 16);
    for (double& v : q.housing_embedding) v = rng->Uniform(-0.6, 0.6);
    q.pickiness = rng->Uniform();
    requests.push_back(q);
  }
  return requests;
}

// The packed build's expected matrix, pair by pair.
std::vector<double> ExpectedMatrix(const std::vector<Broker>& roster,
                                   const std::vector<Request>& requests,
                                   const UtilityModelConfig& config) {
  double max_q = 0.0;
  size_t width = 0;
  for (const Broker& b : roster) {
    max_q = std::max(max_q, b.latent.base_quality * b.latent.popularity);
    width = std::max(width, b.preference.housing_embedding.size());
  }
  std::vector<double> want;
  for (const Request& q : requests) {
    for (const Broker& b : roster) {
      double raw = b.latent.base_quality * b.latent.popularity / max_q;
      double quality = std::pow(raw, config.quality_compression);
      want.push_back(PairFormula(q, b, quality, config, width));
    }
  }
  return want;
}

UtilityModelConfig TestUtilityConfig() {
  UtilityModelConfig config;
  config.quality_compression = 0.7;
  config.noise_seed = 4242;
  return config;
}

// The utility rows run at every kernel width this CPU supports.
class UtilityModelLanesTest : public KernelLanesTest {};
LACB_INSTANTIATE_KERNEL_LANES(UtilityModelLanesTest);

TEST_P(UtilityModelLanesTest, UtilityMatrixMatchesPairFormulaBitForBit) {
  Rng rng(11);
  const UtilityModelConfig config = TestUtilityConfig();
  // Rosters shorter than one vector, a whole number of vectors, and with a
  // partial last vector at every width.
  for (size_t n : {1, 2, 3, 5, 7, 8, 9, 13, 16, 17, 37}) {
    std::vector<Broker> roster = RaggedRoster(n, &rng);
    auto um = UtilityModel::Create(roster, config);
    ASSERT_TRUE(um.ok());
    std::vector<Request> requests = RaggedRequests(29, &rng);
    la::Matrix m = um->UtilityMatrix(requests);
    ASSERT_EQ(m.rows(), requests.size());
    ASSERT_EQ(m.cols(), roster.size());
    std::vector<double> want = ExpectedMatrix(roster, requests, config);
    for (size_t r = 0; r < requests.size(); ++r) {
      for (size_t b = 0; b < roster.size(); ++b) {
        // Bit equality, not tolerance: every lane runs the same
        // floating-point operations in the same order.
        EXPECT_EQ(m(r, b), want[r * n + b]) << "n=" << n << " r=" << r
                                            << " b=" << b;
        EXPECT_EQ(m(r, b), um->Utility(requests[r], roster[b]))
            << "n=" << n << " r=" << r << " b=" << b;
      }
    }
    // Into a reused matrix that last held a larger batch.
    la::Matrix reused(64, n + 9, -1.0);
    std::vector<Request> head(requests.begin(), requests.begin() + 5);
    um->UtilityMatrix(head, &reused);
    ASSERT_EQ(reused.rows(), head.size());
    ASSERT_EQ(reused.cols(), n);
    for (size_t i = 0; i < head.size() * n; ++i) {
      EXPECT_EQ(Bits(reused.data()[i]), Bits(m.data()[i])) << "n=" << n;
    }
    EXPECT_EQ(um->UtilityMatrix({}).rows(), 0u);
  }
}

TEST_P(UtilityModelLanesTest, NonFiniteEmbeddingsMatchPaddedFormula) {
  Rng rng(12);
  const UtilityModelConfig config = TestUtilityConfig();
  const double kInf = std::numeric_limits<double>::infinity();
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  const double odd[] = {kInf, -kInf, kNaN, 1e300, -1e300};
  std::vector<Broker> roster = RaggedRoster(21, &rng);
  for (size_t i = 0; i < roster.size(); i += 3) {
    std::vector<double>& e = roster[i].preference.housing_embedding;
    if (!e.empty()) e[i % e.size()] = odd[i % 5];
  }
  auto um = UtilityModel::Create(roster, config);
  ASSERT_TRUE(um.ok());
  std::vector<Request> requests = RaggedRequests(23, &rng);
  for (size_t r = 0; r < requests.size(); r += 2) {
    std::vector<double>& x = requests[r].housing_embedding;
    if (!x.empty()) x[(r / 2) % x.size()] = odd[(r / 2) % 5];
  }
  la::Matrix m = um->UtilityMatrix(requests);
  std::vector<double> want = ExpectedMatrix(roster, requests, config);
  size_t nan = 0;
  for (size_t i = 0; i < want.size(); ++i) {
    // Bits, so NaN (clamp passes it through) compares too.
    EXPECT_EQ(Bits(m.data()[i]), Bits(want[i])) << "entry " << i;
    nan += std::isnan(want[i]) ? 1 : 0;
  }
  EXPECT_GT(nan, 0u);
}

TEST(UtilityModelTest, CreateValidation) {
  EXPECT_FALSE(UtilityModel::Create({}).ok());
  Broker bad = MakeBroker();
  bad.id = 5;  // not dense
  EXPECT_FALSE(UtilityModel::Create({bad}).ok());
}

TEST(DatasetTest, BatchArithmetic) {
  DatasetConfig cfg;
  cfg.num_brokers = 2000;
  cfg.num_requests = 50000;
  cfg.num_days = 14;
  cfg.imbalance = 0.015;
  EXPECT_EQ(cfg.RequestsPerBatch(), 30u);
  EXPECT_EQ(cfg.TotalBatches(), (50000 + 29) / 30);
  EXPECT_GE(cfg.BatchesPerDay() * cfg.num_days, cfg.TotalBatches());
}

TEST(DatasetTest, GenerateRequestsCountsMatch) {
  DatasetConfig cfg;
  cfg.num_brokers = 100;
  cfg.num_requests = 500;
  cfg.num_days = 5;
  cfg.imbalance = 0.1;
  Rng rng(5);
  auto requests = GenerateRequests(cfg, &rng);
  size_t total = 0;
  int64_t max_id = -1;
  for (const auto& day : requests) {
    for (const auto& batch : day) {
      total += batch.size();
      for (const Request& q : batch) max_id = std::max(max_id, q.id);
    }
  }
  EXPECT_EQ(total, 500u);
  EXPECT_EQ(max_id, 499);
}

TEST(DatasetTest, PoissonArrivalsPreserveVolume) {
  DatasetConfig cfg;
  cfg.num_brokers = 100;
  cfg.num_requests = 900;
  cfg.num_days = 3;
  cfg.imbalance = 0.1;  // mean 10 per batch
  cfg.poisson_arrivals = true;
  Rng rng(44);
  auto requests = GenerateRequests(cfg, &rng);
  size_t total = 0;
  std::set<size_t> batch_sizes;
  for (const auto& day : requests) {
    for (const auto& batch : day) {
      total += batch.size();
      batch_sizes.insert(batch.size());
    }
  }
  // The full volume is emitted and the batch sizes actually vary.
  EXPECT_EQ(total, 900u);
  EXPECT_GT(batch_sizes.size(), 3u);
}

TEST(DatasetTest, CityPresetsMatchTableIV) {
  auto a = CityPreset('A');
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->num_brokers, 5515u);
  EXPECT_EQ(a->num_requests, 103106u);
  EXPECT_EQ(a->num_days, 21u);
  auto b = CityPreset('B');
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->num_brokers, 8155u);
  EXPECT_EQ(b->num_requests, 387339u);
  auto c = CityPreset('C');
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->num_brokers, 3689u);
  EXPECT_EQ(c->num_requests, 74831u);
  EXPECT_FALSE(CityPreset('X').ok());
}

TEST(DatasetTest, ScaleDownPreservesBatchSizeAndDays) {
  auto a = CityPreset('A');
  ASSERT_TRUE(a.ok());
  DatasetConfig s = ScaleDown(*a, 0.1);
  EXPECT_NEAR(static_cast<double>(s.num_brokers), 551.5, 1.0);
  EXPECT_NEAR(static_cast<double>(s.num_requests), 10310.6, 1.0);
  EXPECT_EQ(s.num_days, a->num_days);
  // σ is re-derived so days keep enough batches to overload a broker —
  // see ScaleDown's comment. Batches still hold several requests and stay
  // no larger than the original.
  size_t batches_per_day = s.BatchesPerDay();
  EXPECT_GE(batches_per_day, 60u);
  EXPECT_GE(s.RequestsPerBatch(), 2u);
  EXPECT_LE(s.RequestsPerBatch(), a->RequestsPerBatch());
}

TEST(DatasetTest, BrokerPopulationHasLongTail) {
  DatasetConfig cfg;
  cfg.num_brokers = 500;
  Rng rng(6);
  auto brokers = GenerateBrokers(cfg, &rng);
  std::vector<double> pop;
  for (const Broker& b : brokers) pop.push_back(b.latent.popularity);
  std::sort(pop.begin(), pop.end(), std::greater<double>());
  double mean = 0.0;
  for (double p : pop) mean += p;
  mean /= pop.size();
  EXPECT_GT(pop[0], 3.0 * mean);  // heavy tail
  // Capacities land in the configured range.
  for (const Broker& b : brokers) {
    EXPECT_GE(b.latent.true_capacity, 8.0);
    EXPECT_LE(b.latent.true_capacity, 90.0);
  }
}

DatasetConfig TinyConfig() {
  DatasetConfig cfg;
  cfg.name = "tiny";
  cfg.num_brokers = 30;
  cfg.num_requests = 120;
  cfg.num_days = 3;
  cfg.imbalance = 0.2;  // 6 requests per batch
  cfg.seed = 7;
  return cfg;
}

TEST(PlatformTest, CreateValidation) {
  DatasetConfig bad = TinyConfig();
  bad.num_brokers = 0;
  EXPECT_FALSE(Platform::Create(bad).ok());
  bad = TinyConfig();
  bad.imbalance = 0.0;
  EXPECT_FALSE(Platform::Create(bad).ok());
}

TEST(PlatformTest, ProtocolEnforcement) {
  auto p = Platform::Create(TinyConfig());
  ASSERT_TRUE(p.ok());
  EXPECT_FALSE(p->EndDay().ok());                  // no day open
  EXPECT_FALSE(p->BatchRequests(0).ok());          // no day open
  ASSERT_TRUE(p->StartDay(0).ok());
  EXPECT_FALSE(p->StartDay(1).ok());               // day still open
  EXPECT_FALSE(p->EndDay().ok());                  // batches uncommitted
  size_t batches = p->NumBatchesToday();
  ASSERT_GT(batches, 0u);
  for (size_t i = 0; i < batches; ++i) {
    auto reqs = p->BatchRequests(i);
    ASSERT_TRUE(reqs.ok());
    std::vector<int64_t> none(reqs->size(), -1);
    ASSERT_TRUE(p->CommitAssignment(i, none).ok());
    EXPECT_FALSE(p->CommitAssignment(i, none).ok());  // double commit
  }
  ASSERT_TRUE(p->EndDay().ok());
  EXPECT_FALSE(p->StartDay(99).ok());  // beyond horizon
}

TEST(PlatformTest, CommitValidatesAssignment) {
  auto p = Platform::Create(TinyConfig());
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE(p->StartDay(0).ok());
  auto reqs = p->BatchRequests(0);
  ASSERT_TRUE(reqs.ok());
  std::vector<int64_t> wrong_size(reqs->size() + 3, -1);
  EXPECT_FALSE(p->CommitAssignment(0, wrong_size).ok());
  std::vector<int64_t> bad_broker(reqs->size(), 9999);
  EXPECT_FALSE(p->CommitAssignment(0, bad_broker).ok());
}

TEST(PlatformTest, WorkloadsAndUtilityAccumulate) {
  auto p = Platform::Create(TinyConfig());
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE(p->StartDay(0).ok());
  size_t batches = p->NumBatchesToday();
  size_t assigned = 0;
  for (size_t i = 0; i < batches; ++i) {
    auto reqs = p->BatchRequests(i);
    ASSERT_TRUE(reqs.ok());
    // Assign everything to broker 0.
    std::vector<int64_t> all_zero(reqs->size(), 0);
    ASSERT_TRUE(p->CommitAssignment(i, all_zero).ok());
    assigned += reqs->size();
  }
  EXPECT_DOUBLE_EQ(p->workloads_today()[0], static_cast<double>(assigned));
  auto outcome = p->EndDay();
  ASSERT_TRUE(outcome.ok());
  EXPECT_GT(outcome->realized_utility, 0.0);
  EXPECT_DOUBLE_EQ(outcome->per_broker_workload[0],
                   static_cast<double>(assigned));
  EXPECT_GT(outcome->per_broker_utility[0], 0.0);
  for (size_t b = 1; b < p->num_brokers(); ++b) {
    EXPECT_DOUBLE_EQ(outcome->per_broker_utility[b], 0.0);
  }
  // Trial triples: one per broker, broker 0 worked, others idle.
  ASSERT_EQ(outcome->trials.size(), p->num_brokers());
  EXPECT_GT(outcome->trials[0].workload, 0.0);
  EXPECT_DOUBLE_EQ(outcome->trials[1].workload, 0.0);
  EXPECT_DOUBLE_EQ(outcome->trials[1].signup_rate, 0.0);
}

TEST(PlatformTest, OverloadingDestroysRealizedUtility) {
  // Same requests; concentrating them on one broker must yield less
  // realized utility than spreading once the broker is far past capacity.
  DatasetConfig cfg = TinyConfig();
  cfg.num_requests = 300;
  cfg.num_days = 1;
  cfg.imbalance = 1.0;  // 30 per batch, 10 batches in the day
  auto concentrated = Platform::Create(cfg);
  auto spread = Platform::Create(cfg);
  ASSERT_TRUE(concentrated.ok());
  ASSERT_TRUE(spread.ok());

  ASSERT_TRUE(concentrated->StartDay(0).ok());
  for (size_t i = 0; i < concentrated->NumBatchesToday(); ++i) {
    auto reqs = concentrated->BatchRequests(i);
    std::vector<int64_t> to_zero(reqs->size(), 0);
    ASSERT_TRUE(concentrated->CommitAssignment(i, to_zero).ok());
  }
  auto out_c = concentrated->EndDay();
  ASSERT_TRUE(out_c.ok());

  ASSERT_TRUE(spread->StartDay(0).ok());
  int64_t next = 0;
  for (size_t i = 0; i < spread->NumBatchesToday(); ++i) {
    auto reqs = spread->BatchRequests(i);
    std::vector<int64_t> round_robin(reqs->size());
    for (auto& a : round_robin) {
      a = next;
      next = (next + 1) % static_cast<int64_t>(spread->num_brokers());
    }
    ASSERT_TRUE(spread->CommitAssignment(i, round_robin).ok());
  }
  auto out_s = spread->EndDay();
  ASSERT_TRUE(out_s.ok());
  EXPECT_GT(out_s->realized_utility, out_c->realized_utility);
}

TEST(PlatformTest, AppealsRequeueRequests) {
  DatasetConfig cfg = TinyConfig();
  cfg.appeal_rate = 1.0;  // every low-affinity client appeals
  auto p = Platform::Create(cfg);
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE(p->StartDay(0).ok());
  size_t batches = p->NumBatchesToday();
  size_t first_batch_size = p->BatchRequests(0)->size();
  std::vector<int64_t> to_zero(first_batch_size, 0);
  ASSERT_TRUE(p->CommitAssignment(0, to_zero).ok());
  size_t second_batch_size = p->BatchRequests(1)->size();
  // With appeal_rate 1 and utilities < 1, most clients re-queue.
  EXPECT_GT(second_batch_size, first_batch_size / 2);
  for (size_t i = 1; i < batches; ++i) {
    auto reqs = p->BatchRequests(i);
    std::vector<int64_t> none(reqs->size(), -1);
    ASSERT_TRUE(p->CommitAssignment(i, none).ok());
  }
  auto outcome = p->EndDay();
  ASSERT_TRUE(outcome.ok());
  EXPECT_GT(outcome->appeals, 0u);
}

TEST(PlatformTest, DeterministicAcrossInstances) {
  auto p1 = Platform::Create(TinyConfig());
  auto p2 = Platform::Create(TinyConfig());
  ASSERT_TRUE(p1.ok());
  ASSERT_TRUE(p2.ok());
  ASSERT_TRUE(p1->StartDay(0).ok());
  ASSERT_TRUE(p2->StartDay(0).ok());
  auto u1 = p1->BatchUtility(0);
  auto u2 = p2->BatchUtility(0);
  ASSERT_TRUE(u1.ok());
  ASSERT_TRUE(u2.ok());
  EXPECT_EQ(u1->data(), u2->data());
}

}  // namespace
}  // namespace lacb::sim
