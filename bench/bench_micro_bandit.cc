// Microbenchmarks of the capacity-estimation substrate: the Eq. 5 scoring
// path (forward + parameter gradient + covariance quadratic form), arm
// selection, training passes, and the diagonal-vs-full covariance cost gap
// that motivates the diagonal default for paper-sized networks.

#include <benchmark/benchmark.h>

#include "lacb/bandit/lin_ucb.h"
#include "lacb/bandit/neural_ucb.h"
#include "lacb/common/rng.h"
#include "lacb/nn/mlp.h"

namespace lacb {
namespace {

bandit::NeuralUcbConfig MakeConfig(size_t hidden, bandit::CovarianceMode mode) {
  bandit::NeuralUcbConfig cfg;
  cfg.arm_values = {10, 20, 30, 40, 50, 60};
  cfg.context_dim = 18;
  cfg.hidden_sizes = {hidden, hidden / 2};
  cfg.alpha = 0.5;
  cfg.lambda = 0.001;
  cfg.batch_size = 16;
  cfg.train_epochs = 30;
  cfg.learning_rate = 0.05;
  cfg.value_scale = 1.0 / 60.0;
  cfg.covariance = mode;
  cfg.seed = 1;
  return cfg;
}

bandit::Vector RandomContext(Rng* rng) {
  bandit::Vector ctx(18);
  for (double& v : ctx) v = rng->Uniform();
  return ctx;
}

void BM_MlpForward(benchmark::State& state) {
  Rng rng(1);
  nn::MlpConfig cfg;
  cfg.layer_sizes = {25, static_cast<size_t>(state.range(0)),
                     static_cast<size_t>(state.range(0)) / 2};
  auto net = nn::Mlp::Create(cfg, &rng).value();
  la::Vector x(25, 0.3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.Forward(x).value());
  }
}
BENCHMARK(BM_MlpForward)->Arg(16)->Arg(32)->Arg(64)->Arg(128);

void BM_MlpParamGradient(benchmark::State& state) {
  Rng rng(1);
  nn::MlpConfig cfg;
  cfg.layer_sizes = {25, static_cast<size_t>(state.range(0)),
                     static_cast<size_t>(state.range(0)) / 2};
  auto net = nn::Mlp::Create(cfg, &rng).value();
  std::vector<la::Vector> inputs = {la::Vector(25, 0.3)};
  la::Vector outputs;
  std::vector<la::Vector> grads;
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.OutputGradients(inputs, &outputs, &grads));
    benchmark::DoNotOptimize(grads[0].data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_MlpParamGradient)->Arg(16)->Arg(32)->Arg(64)->Arg(128);

// One Alg. 1 selection: |C| UCB scores + the chosen arm's D update.
void BM_NeuralUcbSelect_Diagonal(benchmark::State& state) {
  auto b = bandit::NeuralUcb::Create(
               MakeConfig(static_cast<size_t>(state.range(0)),
                          bandit::CovarianceMode::kDiagonal))
               .value();
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(b.SelectValue(RandomContext(&rng)).value());
  }
}
BENCHMARK(BM_NeuralUcbSelect_Diagonal)->Arg(16)->Arg(32)->Arg(64);

void BM_NeuralUcbSelect_FullMatrix(benchmark::State& state) {
  auto b = bandit::NeuralUcb::Create(
               MakeConfig(static_cast<size_t>(state.range(0)),
                          bandit::CovarianceMode::kFullMatrix))
               .value();
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(b.SelectValue(RandomContext(&rng)).value());
  }
}
// The full d×d covariance is O(d²) per arm score: keep d modest.
BENCHMARK(BM_NeuralUcbSelect_FullMatrix)->Arg(8)->Arg(16)->Arg(32);

// One full training pass over a 16-observation buffer (Alg. 1 lines 13-18
// with replay minibatches).
void BM_NeuralUcbTrainingPass(benchmark::State& state) {
  auto cfg = MakeConfig(32, bandit::CovarianceMode::kDiagonal);
  auto b = bandit::NeuralUcb::Create(cfg).value();
  Rng rng(3);
  for (auto _ : state) {
    for (size_t i = 0; i < cfg.batch_size; ++i) {
      (void)b.Observe(RandomContext(&rng), 30.0, 0.2);
    }
  }
}
BENCHMARK(BM_NeuralUcbTrainingPass);

void BM_LinUcbSelect(benchmark::State& state) {
  bandit::LinUcbConfig cfg;
  cfg.arm_values = {10, 20, 30, 40, 50, 60};
  cfg.context_dim = 18;
  cfg.alpha = 0.5;
  auto b = bandit::LinUcb::Create(cfg).value();
  Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(b.SelectValue(RandomContext(&rng)).value());
  }
}
BENCHMARK(BM_LinUcbSelect);

// A full day of capacity estimation for a broker fleet (the per-day cost
// LACB adds on top of assignment).
void BM_FleetDailyEstimation(benchmark::State& state) {
  size_t fleet = static_cast<size_t>(state.range(0));
  auto b = bandit::NeuralUcb::Create(
               MakeConfig(32, bandit::CovarianceMode::kDiagonal))
               .value();
  Rng rng(5);
  std::vector<bandit::Vector> contexts;
  for (size_t i = 0; i < fleet; ++i) contexts.push_back(RandomContext(&rng));
  for (auto _ : state) {
    for (const auto& ctx : contexts) {
      benchmark::DoNotOptimize(b.SelectValue(ctx).value());
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(fleet));
}
BENCHMARK(BM_FleetDailyEstimation)->Arg(100)->Arg(500)->Arg(2000);

}  // namespace
}  // namespace lacb
