// Unit tests for lacb/bandit: LinUCB, NeuralUCB (Eq. 5 / Alg. 1), ε-greedy,
// and regret tracking. The convergence tests run the bandits against small
// synthetic environments with known optima.

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "lacb/bandit/eps_greedy.h"
#include "lacb/bandit/lin_ucb.h"
#include "lacb/bandit/neural_ucb.h"
#include "lacb/common/rng.h"
#include "lacb/persist/bytes.h"

namespace lacb::bandit {
namespace {

TEST(RegretTrackerTest, AccumulatesAndRecords) {
  RegretTracker t;
  t.Record(0.5, 0.8);
  t.Record(0.8, 0.8);
  EXPECT_NEAR(t.cumulative_regret(), 0.3, 1e-12);
  EXPECT_EQ(t.num_trials(), 2u);
  EXPECT_NEAR(t.average_regret(), 0.15, 1e-12);
  ASSERT_EQ(t.history().size(), 2u);
  EXPECT_NEAR(t.history()[0], 0.3, 1e-12);
  EXPECT_NEAR(t.history()[1], 0.3, 1e-12);
}

LinUcbConfig MakeLinConfig() {
  LinUcbConfig c;
  c.arm_values = {0.0, 1.0, 2.0};
  c.context_dim = 2;
  c.alpha = 0.5;
  c.lambda = 1.0;
  return c;
}

TEST(LinUcbTest, CreateValidation) {
  LinUcbConfig c = MakeLinConfig();
  c.arm_values.clear();
  EXPECT_FALSE(LinUcb::Create(c).ok());
  c = MakeLinConfig();
  c.context_dim = 0;
  EXPECT_FALSE(LinUcb::Create(c).ok());
  c = MakeLinConfig();
  c.alpha = -1.0;
  EXPECT_FALSE(LinUcb::Create(c).ok());
}

TEST(LinUcbTest, RejectsWrongContextDim) {
  auto b = LinUcb::Create(MakeLinConfig());
  ASSERT_TRUE(b.ok());
  EXPECT_FALSE(b->SelectValue({1.0}).ok());
  EXPECT_FALSE(b->Observe({1.0}, 1.0, 0.5).ok());
  EXPECT_FALSE(b->PredictReward({1.0, 2.0, 3.0}, 1.0).ok());
}

TEST(LinUcbTest, LearnsLinearRewardFunction) {
  // Reward = 0.2 + 0.5·x0 − 0.3·value: the best arm is always value 0.
  auto b = LinUcb::Create(MakeLinConfig());
  ASSERT_TRUE(b.ok());
  Rng rng(1);
  for (int t = 0; t < 300; ++t) {
    Vector ctx = {rng.Uniform(), rng.Uniform()};
    double v = b->SelectValue(ctx).value();
    double reward = 0.2 + 0.5 * ctx[0] - 0.3 * v + rng.Normal(0.0, 0.01);
    ASSERT_TRUE(b->Observe(ctx, v, reward).ok());
  }
  // After exploration the prediction is accurate at the well-sampled
  // optimal arm, ranks arms correctly, and selection favors the optimum.
  // (Extrapolation at rarely played arms stays ridge-biased toward zero,
  // so only the ordering is asserted there.)
  Vector ctx = {0.5, 0.5};
  EXPECT_NEAR(b->PredictReward(ctx, 0.0).value(), 0.45, 0.05);
  EXPECT_GT(b->PredictReward(ctx, 0.0).value(),
            b->PredictReward(ctx, 2.0).value());
  EXPECT_EQ(b->SelectValue(ctx).value(), 0.0);
}

TEST(LinUcbTest, UcbWidthShrinksWithObservations) {
  auto b = LinUcb::Create(MakeLinConfig());
  ASSERT_TRUE(b.ok());
  Vector ctx = {1.0, 0.0};
  double pre_score = b->UcbScore(ctx, 1.0).value();
  double pre_mean = b->PredictReward(ctx, 1.0).value();
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(b->Observe(ctx, 1.0, 0.0).ok());
  }
  double post_score = b->UcbScore(ctx, 1.0).value();
  double post_mean = b->PredictReward(ctx, 1.0).value();
  EXPECT_LT(post_score - post_mean, pre_score - pre_mean);
}

NeuralUcbConfig MakeNeuralConfig() {
  NeuralUcbConfig c;
  c.arm_values = {10.0, 20.0, 30.0, 40.0};
  c.context_dim = 3;
  c.hidden_sizes = {16, 8};
  c.alpha = 0.05;
  c.lambda = 0.01;
  c.batch_size = 8;
  c.train_epochs = 60;
  c.learning_rate = 0.02;
  c.value_scale = 1.0 / 40.0;
  c.covariance = CovarianceMode::kDiagonal;
  c.seed = 3;
  return c;
}

TEST(NeuralUcbTest, CreateValidation) {
  NeuralUcbConfig c = MakeNeuralConfig();
  c.arm_values.clear();
  EXPECT_FALSE(NeuralUcb::Create(c).ok());
  c = MakeNeuralConfig();
  c.context_dim = 0;
  EXPECT_FALSE(NeuralUcb::Create(c).ok());
  c = MakeNeuralConfig();
  c.lambda = 0.0;
  EXPECT_FALSE(NeuralUcb::Create(c).ok());
  c = MakeNeuralConfig();
  c.batch_size = 0;
  EXPECT_FALSE(NeuralUcb::Create(c).ok());
}

TEST(NeuralUcbTest, BuffersAndTrainsAtBatchSize) {
  auto b = NeuralUcb::Create(MakeNeuralConfig());
  ASSERT_TRUE(b.ok());
  Vector ctx = {0.5, 0.5, 0.5};
  for (size_t i = 0; i < 7; ++i) {
    ASSERT_TRUE(b->Observe(ctx, 20.0, 0.2).ok());
  }
  EXPECT_EQ(b->buffered_observations(), 7u);
  EXPECT_EQ(b->training_passes(), 0u);
  ASSERT_TRUE(b->Observe(ctx, 20.0, 0.2).ok());  // 8th fills the buffer
  EXPECT_EQ(b->buffered_observations(), 0u);
  EXPECT_EQ(b->training_passes(), 1u);
}

TEST(NeuralUcbTest, FlushTrainsPartialBuffer) {
  auto b = NeuralUcb::Create(MakeNeuralConfig());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(b->Observe({0.1, 0.1, 0.1}, 10.0, 0.3).ok());
  ASSERT_TRUE(b->FlushTraining().ok());
  EXPECT_EQ(b->buffered_observations(), 0u);
  EXPECT_EQ(b->training_passes(), 1u);
  // Flushing an empty buffer is a no-op.
  ASSERT_TRUE(b->FlushTraining().ok());
  EXPECT_EQ(b->training_passes(), 1u);
}

// The environment of the paper: reward (sign-up rate) is flat below a
// capacity knee and collapses above it. The bandit must learn to pick the
// knee arm rather than the largest.
TEST(NeuralUcbTest, LearnsCapacityKnee) {
  auto b = NeuralUcb::Create(MakeNeuralConfig());
  ASSERT_TRUE(b.ok());
  Rng rng(4);
  auto reward_fn = [](double v) {
    return v <= 20.0 ? 0.25 : 0.25 / (1.0 + 0.4 * (v - 20.0));
  };
  for (int t = 0; t < 400; ++t) {
    Vector ctx = {rng.Uniform(), rng.Uniform(), rng.Uniform()};
    double v = b->SelectValue(ctx).value();
    ASSERT_TRUE(b->Observe(ctx, v, reward_fn(v) + rng.Normal(0.0, 0.01)).ok());
  }
  ASSERT_TRUE(b->FlushTraining().ok());
  // Predictions must rank the below-knee arm above the heavily overloaded one.
  Vector ctx = {0.5, 0.5, 0.5};
  EXPECT_GT(b->PredictReward(ctx, 20.0).value(),
            b->PredictReward(ctx, 40.0).value());
}

TEST(NeuralUcbTest, FullMatrixCovarianceWorks) {
  NeuralUcbConfig c = MakeNeuralConfig();
  c.hidden_sizes = {6};  // keep d² small
  c.covariance = CovarianceMode::kFullMatrix;
  auto b = NeuralUcb::Create(c);
  ASSERT_TRUE(b.ok());
  Rng rng(5);
  for (int t = 0; t < 50; ++t) {
    Vector ctx = {rng.Uniform(), rng.Uniform(), rng.Uniform()};
    double v = b->SelectValue(ctx).value();
    ASSERT_TRUE(b->Observe(ctx, v, 0.2).ok());
  }
  EXPECT_GT(b->training_passes(), 0u);
}

TEST(NeuralUcbTest, CreateWithNetworkChecksInputDim) {
  NeuralUcbConfig c = MakeNeuralConfig();
  Rng rng(6);
  nn::MlpConfig wrong;
  wrong.layer_sizes = {2, 4};  // context_dim+1 would be 4
  auto net = nn::Mlp::Create(wrong, &rng);
  ASSERT_TRUE(net.ok());
  EXPECT_FALSE(NeuralUcb::CreateWithNetwork(c, std::move(*net)).ok());
}

TEST(NeuralUcbTest, UcbScoreExceedsMeanPrediction) {
  auto b = NeuralUcb::Create(MakeNeuralConfig());
  ASSERT_TRUE(b.ok());
  Vector ctx = {0.2, 0.4, 0.6};
  double score = b->UcbScore(ctx, 20.0).value();
  double mean = b->PredictReward(ctx, 20.0).value();
  EXPECT_GE(score, mean);
}

TEST(NeuralUcbTest, NetworkInputIncludesArmFeatures) {
  NeuralUcbConfig c = MakeNeuralConfig();
  auto b = NeuralUcb::Create(c);
  ASSERT_TRUE(b.ok());
  // Input layer = context + one RBF per arm + the scaled raw value.
  EXPECT_EQ(b->network().input_dim(),
            c.context_dim + c.arm_values.size() + 1);
}

TEST(NeuralUcbTest, PaperLiteralBufferTrainingStillWorks) {
  NeuralUcbConfig c = MakeNeuralConfig();
  c.replay_capacity = 0;  // paper-literal Alg. 1
  auto b = NeuralUcb::Create(c);
  ASSERT_TRUE(b.ok());
  Vector ctx = {0.5, 0.5, 0.5};
  for (size_t i = 0; i < c.batch_size; ++i) {
    ASSERT_TRUE(b->Observe(ctx, 20.0, 0.2).ok());
  }
  EXPECT_EQ(b->training_passes(), 1u);
  EXPECT_EQ(b->buffered_observations(), 0u);
}

TEST(NeuralUcbTest, ReplayRetainsOldObservations) {
  // With replay, a prediction learned from early data survives later
  // training on very different data; without replay it is forgotten.
  auto run = [](size_t replay_capacity) {
    NeuralUcbConfig c = MakeNeuralConfig();
    c.replay_capacity = replay_capacity;
    c.train_epochs = 120;
    auto b = NeuralUcb::Create(c);
    EXPECT_TRUE(b.ok());
    Vector ctx_a = {0.0, 0.0, 0.0};
    Vector ctx_b = {1.0, 1.0, 1.0};
    // Phase 1: ctx_a has reward 0.8 at arm 10.
    for (int i = 0; i < 64; ++i) {
      EXPECT_TRUE(b->Observe(ctx_a, 10.0, 0.8).ok());
    }
    // Phase 2: a flood of unrelated observations.
    for (int i = 0; i < 256; ++i) {
      EXPECT_TRUE(b->Observe(ctx_b, 40.0, 0.1).ok());
    }
    return b->PredictReward(ctx_a, 10.0).value();
  };
  double with_replay = run(4096);
  double without_replay = run(0);
  // The replay-trained model stays much closer to the true 0.8.
  EXPECT_LT(std::fabs(with_replay - 0.8),
            std::fabs(without_replay - 0.8));
}

TEST(NeuralUcbTest, CopyCovarianceTransfersConfidence) {
  auto a = NeuralUcb::Create(MakeNeuralConfig());
  auto b = NeuralUcb::Create(MakeNeuralConfig());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Narrow a's confidence by playing it repeatedly.
  Vector ctx = {0.5, 0.5, 0.5};
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(a->SelectValue(ctx).ok());
  }
  double fresh_width = b->UcbScore(ctx, 20.0).value() -
                       b->PredictReward(ctx, 20.0).value();
  ASSERT_TRUE(b->CopyCovariance(*a).ok());
  double copied_width = b->UcbScore(ctx, 20.0).value() -
                        b->PredictReward(ctx, 20.0).value();
  EXPECT_LT(copied_width, fresh_width);

  // Mismatched shapes are rejected.
  NeuralUcbConfig other = MakeNeuralConfig();
  other.hidden_sizes = {4};
  auto c = NeuralUcb::Create(other);
  ASSERT_TRUE(c.ok());
  EXPECT_FALSE(c->CopyCovariance(*a).ok());
}

// FNV-1a over the bandit's serialized state: network, covariance, replay
// ring, training RNG — everything a training or scoring change could move.
uint64_t StateDigest(const NeuralUcb& b) {
  persist::ByteWriter w;
  EXPECT_TRUE(b.SaveState(&w).ok());
  uint64_t h = 1469598103934665603ULL;
  for (char c : w.bytes()) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

// A fixed seeded stream of select/observe steps against a knee-shaped
// reward; every seventh reward is exactly zero and the noise makes some
// negative, so the loss sees zero and negative targets.
void DriveTrajectory(NeuralUcb* b, uint64_t seed, size_t steps) {
  Rng rng(seed);
  for (size_t t = 0; t < steps; ++t) {
    Vector ctx(b->context_dim());
    for (double& c : ctx) c = rng.Uniform(-1.0, 1.0);
    auto v = b->SelectValue(ctx);
    ASSERT_TRUE(v.ok());
    double w = *v * rng.Uniform(0.5, 1.5);
    double reward = (w <= 25.0 ? 0.3 : 0.3 / (1.0 + 0.1 * (w - 25.0))) +
                    0.1 * rng.Normal();
    if (t % 7 == 0) reward = 0.0;
    ASSERT_TRUE(b->Observe(ctx, w, reward).ok());
  }
  ASSERT_TRUE(b->FlushTraining().ok());
}

// The learner's whole trajectory is pinned bit for bit: the digests were
// recorded from the per-example reference implementation of the MLP
// (before the batched kernel), so any reordering of a floating-point sum
// in training or scoring shows up here.
TEST(NeuralUcbTest, TrajectoryStateIsBitStable) {
  // The shipped shape: 18 context features + 6 arms + value -> 32 -> 16 -> 1,
  // replay minibatches of 128 once the replay outgrows them.
  NeuralUcbConfig shipped;
  shipped.arm_values = {10.0, 20.0, 30.0, 40.0, 50.0, 60.0};
  shipped.context_dim = 18;
  shipped.hidden_sizes = {32, 16};
  shipped.alpha = 0.5;
  shipped.lambda = 0.001;
  shipped.batch_size = 16;
  shipped.train_epochs = 30;
  shipped.learning_rate = 0.05;
  shipped.value_scale = 1.0 / 60.0;
  shipped.seed = 11;
  auto base = NeuralUcb::Create(shipped);
  ASSERT_TRUE(base.ok());
  DriveTrajectory(&*base, 21, 400);
  EXPECT_EQ(base->training_passes(), 25u);
  EXPECT_EQ(StateDigest(*base), 3622887116828818902ULL);

  // Paper-literal buffer training with the full covariance matrix.
  NeuralUcbConfig literal = MakeNeuralConfig();
  literal.replay_capacity = 0;
  literal.batch_size = 5;
  literal.covariance = CovarianceMode::kFullMatrix;
  auto lit = NeuralUcb::Create(literal);
  ASSERT_TRUE(lit.ok());
  DriveTrajectory(&*lit, 22, 60);
  EXPECT_EQ(StateDigest(*lit), 7711089985819139116ULL);

  // Layer transfer: the trained base network with all but the last layer
  // frozen, training on every observation from a replay smaller than the
  // minibatch.
  nn::Mlp net = base->network();
  for (size_t l = 0; l + 1 < net.num_layers(); ++l) {
    ASSERT_TRUE(net.SetLayerTrainable(l, false).ok());
  }
  NeuralUcbConfig personal = shipped;
  personal.batch_size = 1;
  personal.seed = 29;
  auto fine = NeuralUcb::CreateWithNetwork(personal, std::move(net));
  ASSERT_TRUE(fine.ok());
  ASSERT_TRUE(fine->CopyCovariance(*base).ok());
  DriveTrajectory(&*fine, 23, 40);
  EXPECT_EQ(StateDigest(*fine), 3557414385667547584ULL);
}

// SelectValue scores every arm in one batched pass; it must pick exactly
// the arm a one-at-a-time UcbScore argmax picks (first maximum wins), on
// a twin restored from the same state.
TEST(NeuralUcbTest, SelectValueMatchesPerArmScores) {
  NeuralUcbConfig c = MakeNeuralConfig();
  c.arm_values = {10.0, 20.0, 30.0, 40.0, 25.0, 15.0};
  auto b = NeuralUcb::Create(c);
  ASSERT_TRUE(b.ok());
  DriveTrajectory(&*b, 31, 120);
  Rng rng(32);
  for (int t = 0; t < 40; ++t) {
    persist::ByteWriter w;
    ASSERT_TRUE(b->SaveState(&w).ok());
    auto twin = NeuralUcb::Create(c);
    ASSERT_TRUE(twin.ok());
    persist::ByteReader r(w.bytes().data(), w.bytes().size());
    ASSERT_TRUE(twin->LoadState(&r).ok());

    Vector ctx = {rng.Uniform(), rng.Uniform(), rng.Uniform()};
    double want = c.arm_values.front();
    double best = -std::numeric_limits<double>::infinity();
    for (double v : c.arm_values) {
      double score = twin->UcbScore(ctx, v).value();
      if (score > best) {
        best = score;
        want = v;
      }
    }
    auto got = b->SelectValue(ctx);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, want) << "step " << t;
  }
}

TEST(EpsGreedyTest, CreateValidation) {
  EpsGreedyConfig c;
  c.arm_values = {1.0};
  c.epsilon = 1.5;
  EXPECT_FALSE(EpsGreedy::Create(c).ok());
  c.epsilon = 0.1;
  c.arm_values.clear();
  EXPECT_FALSE(EpsGreedy::Create(c).ok());
}

TEST(EpsGreedyTest, ConvergesToBestArm) {
  EpsGreedyConfig c;
  c.arm_values = {1.0, 2.0, 3.0};
  c.context_dim = 1;
  c.epsilon = 0.1;
  c.seed = 7;
  auto b = EpsGreedy::Create(c);
  ASSERT_TRUE(b.ok());
  Rng rng(8);
  auto reward_fn = [](double v) { return v == 2.0 ? 1.0 : 0.1; };
  size_t best_picks = 0;
  for (int t = 0; t < 500; ++t) {
    double v = b->SelectValue({0.0}).value();
    if (t >= 250 && v == 2.0) ++best_picks;
    ASSERT_TRUE(b->Observe({0.0}, v, reward_fn(v)).ok());
  }
  EXPECT_GT(best_picks, 200u);  // ≥80% of the exploit phase
}

TEST(EpsGreedyTest, PredictRewardTracksMeans) {
  EpsGreedyConfig c;
  c.arm_values = {1.0, 2.0};
  c.context_dim = 1;
  c.epsilon = 0.0;
  auto b = EpsGreedy::Create(c);
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(b->Observe({0.0}, 1.0, 0.4).ok());
  ASSERT_TRUE(b->Observe({0.0}, 1.0, 0.6).ok());
  EXPECT_NEAR(b->PredictReward({0.0}, 1.0).value(), 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(b->PredictReward({0.0}, 2.0).value(), 0.0);
  // Nearest-arm snapping: 1.4 maps to arm 1.0.
  EXPECT_NEAR(b->PredictReward({0.0}, 1.4).value(), 0.5, 1e-12);
}

// Head-to-head: contextual UCB policies should accumulate less regret than
// ε-greedy on a context-dependent reward (ε-greedy cannot use context).
TEST(BanditComparisonTest, ContextualBeatsContextFreeOnContextualRewards) {
  // Reward depends on context: optimal value = 1 if ctx[0] < 0.5 else 3.
  auto reward_fn = [](const Vector& ctx, double v) {
    double best = ctx[0] < 0.5 ? 1.0 : 3.0;
    return 1.0 - 0.3 * std::fabs(v - best);
  };
  LinUcbConfig lc;
  lc.arm_values = {1.0, 2.0, 3.0};
  lc.context_dim = 1;
  lc.alpha = 0.3;
  auto lin = LinUcb::Create(lc);
  ASSERT_TRUE(lin.ok());
  EpsGreedyConfig ec;
  ec.arm_values = lc.arm_values;
  ec.context_dim = 1;
  ec.epsilon = 0.1;
  ec.seed = 9;
  auto eps = EpsGreedy::Create(ec);
  ASSERT_TRUE(eps.ok());

  RegretTracker lin_regret;
  RegretTracker eps_regret;
  Rng rng(10);
  for (int t = 0; t < 600; ++t) {
    Vector ctx = {rng.Uniform()};
    double optimal = 1.0;  // reward at the best arm is always 1.0
    double lv = lin->SelectValue(ctx).value();
    ASSERT_TRUE(lin->Observe(ctx, lv, reward_fn(ctx, lv)).ok());
    lin_regret.Record(reward_fn(ctx, lv), optimal);
    double ev = eps->SelectValue(ctx).value();
    ASSERT_TRUE(eps->Observe(ctx, ev, reward_fn(ctx, ev)).ok());
    eps_regret.Record(reward_fn(ctx, ev), optimal);
  }
  EXPECT_LT(lin_regret.cumulative_regret(), eps_regret.cumulative_regret());
}

}  // namespace
}  // namespace lacb::bandit
