// Unit tests for lacb/nn: forward correctness, gradient checking (both the
// parameter gradient used by Eq. 5 and the loss gradient of Eq. 6),
// freezing, optimizers, and end-to-end regression fitting.

#include <cmath>
#include <cstring>
#include <numeric>
#include <string>

#include <gtest/gtest.h>

#include "kernel_lanes.h"
#include "lacb/nn/mlp.h"
#include "lacb/nn/optimizer.h"

namespace lacb::nn {
namespace {

MlpConfig SmallConfig() {
  MlpConfig c;
  c.layer_sizes = {3, 5, 4};  // 3 -> 5 -> 4 -> 1
  c.use_bias = true;
  return c;
}

TEST(MlpTest, CreateValidation) {
  Rng rng(1);
  MlpConfig bad;
  EXPECT_FALSE(Mlp::Create(bad, &rng).ok());
  bad.layer_sizes = {3, 0};
  EXPECT_FALSE(Mlp::Create(bad, &rng).ok());
}

TEST(MlpTest, ParamCount) {
  Rng rng(1);
  auto net = Mlp::Create(SmallConfig(), &rng);
  ASSERT_TRUE(net.ok());
  // (3*5+5) + (5*4+4) + (4*1+1) = 20 + 24 + 5 = 49.
  EXPECT_EQ(net->num_params(), 49u);
  EXPECT_EQ(net->input_dim(), 3u);
  EXPECT_EQ(net->num_layers(), 3u);
}

TEST(MlpTest, ForwardMatchesManualSingleLayer) {
  Rng rng(2);
  MlpConfig c;
  c.layer_sizes = {2};  // 2 -> 1, purely linear
  c.use_bias = true;
  auto net = Mlp::Create(c, &rng);
  ASSERT_TRUE(net.ok());
  ASSERT_TRUE(net->SetParams({0.5, -1.5, 0.25}).ok());  // w0 w1 b
  auto y = net->Forward({2.0, 1.0});
  ASSERT_TRUE(y.ok());
  EXPECT_NEAR(*y, 0.5 * 2.0 - 1.5 * 1.0 + 0.25, 1e-12);
}

TEST(MlpTest, ForwardReluClips) {
  Rng rng(3);
  MlpConfig c;
  c.layer_sizes = {1, 1};  // 1 -> 1 -> 1 with ReLU in between
  c.use_bias = false;
  auto net = Mlp::Create(c, &rng);
  ASSERT_TRUE(net.ok());
  ASSERT_TRUE(net->SetParams({1.0, 2.0}).ok());  // hidden w, output w
  EXPECT_NEAR(net->Forward({3.0}).value(), 6.0, 1e-12);
  EXPECT_NEAR(net->Forward({-3.0}).value(), 0.0, 1e-12);  // ReLU kills it
}

TEST(MlpTest, ForwardRejectsWrongDim) {
  Rng rng(4);
  auto net = Mlp::Create(SmallConfig(), &rng);
  ASSERT_TRUE(net.ok());
  EXPECT_FALSE(net->Forward({1.0}).ok());
}

// Sets every parameter to a smooth deterministic pattern so no ReLU unit
// sits exactly on its kink (zero-initialized biases can leave pre-activations
// at exactly 0, where the subgradient and a central finite difference
// legitimately disagree).
void SetSmoothParams(Mlp* net) {
  la::Vector p(net->num_params());
  for (size_t i = 0; i < p.size(); ++i) {
    p[i] = 0.3 * std::sin(static_cast<double>(i) + 1.0) + 0.05;
  }
  ASSERT_TRUE(net->SetParams(p).ok());
}

// Finite-difference check of the parameter gradient g_θ(x) = ∇_θ S_θ(x).
TEST(MlpTest, ParamGradientMatchesFiniteDifference) {
  Rng rng(5);
  auto net = Mlp::Create(SmallConfig(), &rng);
  ASSERT_TRUE(net.ok());
  SetSmoothParams(&*net);
  la::Vector x = {0.7, -0.2, 0.4};
  la::Vector outputs;
  std::vector<la::Vector> grads;
  ASSERT_TRUE(net->OutputGradients({x}, &outputs, &grads).ok());
  const la::Vector& grad = grads[0];
  la::Vector params = net->params();
  const double eps = 1e-6;
  for (size_t i = 0; i < params.size(); i += 3) {  // spot-check every 3rd
    la::Vector p = params;
    p[i] += eps;
    ASSERT_TRUE(net->SetParams(p).ok());
    double up = net->Forward(x).value();
    p[i] -= 2 * eps;
    ASSERT_TRUE(net->SetParams(p).ok());
    double down = net->Forward(x).value();
    ASSERT_TRUE(net->SetParams(params).ok());
    double fd = (up - down) / (2 * eps);
    EXPECT_NEAR(grad[i], fd, 1e-4) << "param " << i;
  }
}

TEST(MlpTest, LossGradientMatchesFiniteDifference) {
  Rng rng(6);
  auto net = Mlp::Create(SmallConfig(), &rng);
  ASSERT_TRUE(net.ok());
  SetSmoothParams(&*net);
  std::vector<Example> batch = {
      {{0.1, 0.2, 0.3}, 0.5},
      {{-0.4, 0.9, 0.0}, -0.2},
      {{1.0, -1.0, 0.5}, 0.8},
  };
  const double l2 = 0.01;
  auto grad = net->LossGradient(batch, l2);
  ASSERT_TRUE(grad.ok());
  la::Vector params = net->params();
  const double eps = 1e-6;
  for (size_t i = 0; i < params.size(); i += 5) {
    la::Vector p = params;
    p[i] += eps;
    ASSERT_TRUE(net->SetParams(p).ok());
    double up = net->Loss(batch, l2).value();
    p[i] -= 2 * eps;
    ASSERT_TRUE(net->SetParams(p).ok());
    double down = net->Loss(batch, l2).value();
    ASSERT_TRUE(net->SetParams(params).ok());
    double fd = (up - down) / (2 * eps);
    EXPECT_NEAR((*grad)[i], fd, 1e-4) << "param " << i;
  }
}

TEST(MlpTest, FrozenLayersReceiveNoUpdate) {
  Rng rng(7);
  auto net = Mlp::Create(SmallConfig(), &rng);
  ASSERT_TRUE(net.ok());
  // Freeze all but the last layer (the paper's layer transfer).
  ASSERT_TRUE(net->SetLayerTrainable(0, false).ok());
  ASSERT_TRUE(net->SetLayerTrainable(1, false).ok());
  la::Vector before = net->params();
  la::Vector grad(net->num_params(), 1.0);
  ASSERT_TRUE(net->ApplyGradient(grad).ok());
  la::Vector after = net->params();
  auto span0 = net->LayerParamSpan(0).value();
  auto span1 = net->LayerParamSpan(1).value();
  auto span2 = net->LayerParamSpan(2).value();
  for (size_t i = span0.begin; i < span1.end; ++i) {
    EXPECT_DOUBLE_EQ(before[i], after[i]) << "frozen param " << i;
  }
  for (size_t i = span2.begin; i < span2.end; ++i) {
    EXPECT_DOUBLE_EQ(before[i] - 1.0, after[i]) << "trainable param " << i;
  }
  EXPECT_FALSE(net->SetLayerTrainable(9, true).ok());
  EXPECT_FALSE(net->LayerParamSpan(9).ok());
}

TEST(MlpTest, LayerSpansPartitionParams) {
  Rng rng(8);
  auto net = Mlp::Create(SmallConfig(), &rng);
  ASSERT_TRUE(net.ok());
  size_t covered = 0;
  for (size_t l = 0; l < net->num_layers(); ++l) {
    auto span = net->LayerParamSpan(l).value();
    EXPECT_EQ(span.begin, covered);
    covered = span.end;
  }
  EXPECT_EQ(covered, net->num_params());
}

TEST(MlpTest, MaxLayerOperatorNormPositive) {
  Rng rng(9);
  auto net = Mlp::Create(SmallConfig(), &rng);
  ASSERT_TRUE(net.ok());
  EXPECT_GT(net->MaxLayerOperatorNorm(), 0.0);
}

// --- Bit-identity of the batched kernel ----------------------------------
//
// The per-example implementation the library shipped before its batched
// kernel: forward with a cache, then backprop one example at a time into
// the flattened gradient. The kernel must reproduce it byte for byte.
class ReferenceMlp {
 public:
  explicit ReferenceMlp(const MlpConfig& config)
      : sizes_(config.layer_sizes), bias_(config.use_bias) {
    size_t offset = 0;
    for (size_t l = 0; l < sizes_.size(); ++l) {
      weight_offsets_.push_back(offset);
      offset += out_dim(l) * in_dim(l);
      bias_offsets_.push_back(offset);
      if (bias_) offset += out_dim(l);
    }
  }

  double Forward(const la::Vector& params, const la::Vector& x) const {
    Cache cache;
    ForwardWithCache(params, x, &cache);
    return cache.output;
  }

  la::Vector ParamGradient(const la::Vector& params,
                           const la::Vector& x) const {
    Cache cache;
    ForwardWithCache(params, x, &cache);
    la::Vector grad(params.size(), 0.0);
    Accumulate(params, cache, 1.0, &grad);
    return grad;
  }

  la::Vector LossGradient(const la::Vector& params,
                          const std::vector<Example>& data,
                          const std::vector<size_t>& rows, double l2) const {
    la::Vector grad(params.size(), 0.0);
    Cache cache;
    for (size_t r : rows) {
      ForwardWithCache(params, data[r].x, &cache);
      double residual = cache.output - data[r].target;
      Accumulate(params, cache, 2.0 * residual, &grad);
    }
    if (l2 > 0.0) {
      for (size_t i = 0; i < grad.size(); ++i) grad[i] += 2.0 * l2 * params[i];
    }
    return grad;
  }

 private:
  struct Cache {
    std::vector<la::Vector> activations;
    std::vector<la::Vector> pre;
    double output = 0.0;
  };

  size_t in_dim(size_t l) const { return sizes_[l]; }
  size_t out_dim(size_t l) const {
    return l + 1 < sizes_.size() ? sizes_[l + 1] : 1;
  }

  void ForwardWithCache(const la::Vector& params, const la::Vector& x,
                        Cache* cache) const {
    size_t n_layers = sizes_.size();
    cache->activations.assign(n_layers + 1, {});
    cache->pre.assign(n_layers, {});
    cache->activations[0] = x;
    for (size_t l = 0; l < n_layers; ++l) {
      size_t in = in_dim(l);
      size_t out = out_dim(l);
      const la::Vector& a = cache->activations[l];
      la::Vector z(out, 0.0);
      const double* w = params.data() + weight_offsets_[l];
      for (size_t i = 0; i < out; ++i) {
        const double* row = w + i * in;
        double acc = bias_ ? params[bias_offsets_[l] + i] : 0.0;
        for (size_t j = 0; j < in; ++j) acc += row[j] * a[j];
        z[i] = acc;
      }
      cache->pre[l] = z;
      if (l + 1 == n_layers) {
        cache->output = z[0];
        cache->activations[l + 1] = std::move(z);
      } else {
        la::Vector act(out);
        for (size_t i = 0; i < out; ++i) act[i] = z[i] > 0.0 ? z[i] : 0.0;
        cache->activations[l + 1] = std::move(act);
      }
    }
  }

  void Accumulate(const la::Vector& params, const Cache& cache,
                  double out_grad, la::Vector* grad) const {
    la::Vector delta(1, out_grad);
    for (size_t li = sizes_.size(); li > 0; --li) {
      size_t l = li - 1;
      size_t in = in_dim(l);
      size_t out = out_dim(l);
      const la::Vector& a = cache.activations[l];
      double* gw = grad->data() + weight_offsets_[l];
      for (size_t i = 0; i < out; ++i) {
        double d = delta[i];
        if (bias_) (*grad)[bias_offsets_[l] + i] += d;
        if (d == 0.0) continue;
        double* row = gw + i * in;
        for (size_t j = 0; j < in; ++j) row[j] += d * a[j];
      }
      if (l == 0) break;
      const double* w = params.data() + weight_offsets_[l];
      la::Vector prev(in, 0.0);
      for (size_t i = 0; i < out; ++i) {
        double d = delta[i];
        if (d == 0.0) continue;
        const double* row = w + i * in;
        for (size_t j = 0; j < in; ++j) prev[j] += d * row[j];
      }
      const la::Vector& pre_prev = cache.pre[l - 1];
      for (size_t j = 0; j < in; ++j) {
        if (pre_prev[j] <= 0.0) prev[j] = 0.0;
      }
      delta = std::move(prev);
    }
  }

  std::vector<size_t> sizes_;
  bool bias_;
  std::vector<size_t> weight_offsets_;
  std::vector<size_t> bias_offsets_;
};

bool SameBytes(const la::Vector& a, const la::Vector& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool SameBytes(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Shapes with every tail the kernel tiles have to handle: odd widths,
// widths below and between tile sizes, a purely linear net, deep nets.
std::vector<MlpConfig> KernelShapes() {
  std::vector<MlpConfig> shapes;
  for (std::vector<size_t> sizes :
       std::vector<std::vector<size_t>>{{25, 32, 16},
                                        {3, 5, 4},
                                        {7},
                                        {1, 1},
                                        {6, 9, 3, 5},
                                        {2, 17, 1, 8}}) {
    for (bool bias : {true, false}) {
      MlpConfig c;
      c.layer_sizes = sizes;
      c.use_bias = bias;
      shapes.push_back(c);
    }
  }
  return shapes;
}

// Random parameters with a share of zeros and of strongly negative values,
// so some ReLU units are dead for every input and others sit on the kink
// (zero pre-activation from all-zero inputs without biases).
void RandomizeParams(Mlp* net, Rng* rng) {
  la::Vector p = net->params();
  for (double& v : p) {
    double u = rng->Uniform();
    v = u < 0.1 ? 0.0 : u < 0.2 ? -8.0 : rng->Normal(0.0, 0.6);
  }
  ASSERT_TRUE(net->SetParams(p).ok());
}

std::vector<Example> RandomExamples(size_t n, size_t dim, Rng* rng) {
  std::vector<Example> data(n);
  for (size_t k = 0; k < n; ++k) {
    data[k].x.resize(dim);
    bool zero_input = k % 11 == 3;
    for (double& v : data[k].x) {
      v = zero_input ? 0.0 : rng->Uniform(-2.0, 2.0);
    }
    // Zero, negative and positive targets.
    data[k].target = k % 5 == 0 ? 0.0 : rng->Uniform(-1.5, 1.5);
  }
  return data;
}

// Each kernel test runs at every lane width this CPU supports.
class MlpKernelTest : public KernelLanesTest {};
LACB_INSTANTIATE_KERNEL_LANES(MlpKernelTest);

TEST_P(MlpKernelTest, LossGradientMatchesReferenceBytes) {
  Rng rng(101);
  for (const MlpConfig& shape : KernelShapes()) {
    auto net = Mlp::Create(shape, &rng);
    ASSERT_TRUE(net.ok());
    RandomizeParams(&*net, &rng);
    // Freezing changes what ApplyGradient touches, not the gradient.
    if (net->num_layers() > 1) {
      ASSERT_TRUE(net->SetLayerTrainable(0, false).ok());
    }
    ReferenceMlp ref(shape);
    for (size_t replay : {size_t{5}, size_t{300}}) {
      std::vector<Example> data =
          RandomExamples(replay, shape.layer_sizes.front(), &rng);
      for (size_t mb : {1, 3, 127, 128, 129}) {
        std::vector<size_t> rows(mb);
        for (size_t& r : rows) {
          r = static_cast<size_t>(
              rng.UniformInt(0, static_cast<int64_t>(replay) - 1));
        }
        for (double l2 : {0.0, 0.003}) {
          la::Vector got;
          ASSERT_TRUE(net->LossGradient(data, rows, l2, &got).ok());
          la::Vector want = ref.LossGradient(net->params(), data, rows, l2);
          EXPECT_TRUE(SameBytes(got, want))
              << "layers " << shape.layer_sizes.size() << " bias "
              << shape.use_bias << " replay " << replay << " minibatch "
              << mb << " l2 " << l2;
        }
      }
    }
    // The whole-batch overload is the identity row order.
    std::vector<Example> batch =
        RandomExamples(70, shape.layer_sizes.front(), &rng);
    std::vector<size_t> all(batch.size());
    std::iota(all.begin(), all.end(), size_t{0});
    auto whole = net->LossGradient(batch, 0.01);
    ASSERT_TRUE(whole.ok());
    EXPECT_TRUE(
        SameBytes(*whole, ref.LossGradient(net->params(), batch, all, 0.01)));
  }
}

TEST_P(MlpKernelTest, ForwardAndParamGradientMatchReferenceBytes) {
  Rng rng(202);
  for (const MlpConfig& shape : KernelShapes()) {
    auto net = Mlp::Create(shape, &rng);
    ASSERT_TRUE(net.ok());
    RandomizeParams(&*net, &rng);
    ReferenceMlp ref(shape);
    // 6 arms as SelectValue scores them, plus a batch longer than a chunk.
    for (size_t n : {1, 6, 45}) {
      std::vector<Example> data =
          RandomExamples(n, shape.layer_sizes.front(), &rng);
      std::vector<la::Vector> inputs;
      for (const Example& ex : data) inputs.push_back(ex.x);
      la::Vector outputs;
      std::vector<la::Vector> grads;
      ASSERT_TRUE(net->OutputGradients(inputs, &outputs, &grads).ok());
      ASSERT_EQ(outputs.size(), n);
      ASSERT_EQ(grads.size(), n);
      for (size_t k = 0; k < n; ++k) {
        double want_out = ref.Forward(net->params(), inputs[k]);
        la::Vector want_grad = ref.ParamGradient(net->params(), inputs[k]);
        EXPECT_TRUE(SameBytes(outputs[k], want_out)) << "input " << k;
        EXPECT_TRUE(SameBytes(grads[k], want_grad)) << "input " << k;
        EXPECT_TRUE(SameBytes(net->Forward(inputs[k]).value(), want_out));
        la::Vector one_output;
        std::vector<la::Vector> one_grad;
        ASSERT_TRUE(
            net->OutputGradients({inputs[k]}, &one_output, &one_grad).ok());
        EXPECT_TRUE(SameBytes(one_output[0], want_out));
        EXPECT_TRUE(SameBytes(one_grad[0], want_grad));
      }
    }
  }
}

TEST_P(MlpKernelTest, RejectsBadRowsAndInputs) {
  Rng rng(303);
  auto net = Mlp::Create(SmallConfig(), &rng);
  ASSERT_TRUE(net.ok());
  std::vector<Example> data = {{{0.1, 0.2, 0.3}, 0.5}, {{0.4}, 0.1}};
  la::Vector grad;
  EXPECT_EQ(net->LossGradient(data, {0, 2}, 0.0, &grad).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(net->LossGradient(data, {0, 1}, 0.0, &grad).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(net->LossGradient(data, {0, 0}, 0.0, &grad).ok());
  la::Vector outputs;
  std::vector<la::Vector> grads;
  EXPECT_FALSE(net->OutputGradients({{1.0}}, &outputs, &grads).ok());
  EXPECT_FALSE(net->Loss(data, 0.0).ok());
}

TEST(SgdTest, FitsLinearFunction) {
  Rng rng(10);
  MlpConfig c;
  c.layer_sizes = {2};  // linear model
  auto net = Mlp::Create(c, &rng);
  ASSERT_TRUE(net.ok());
  // Target: y = 2 x0 − x1 + 0.5.
  std::vector<Example> data;
  Rng data_rng(11);
  for (int i = 0; i < 50; ++i) {
    la::Vector x = {data_rng.Uniform(-1, 1), data_rng.Uniform(-1, 1)};
    data.push_back({x, 2 * x[0] - x[1] + 0.5});
  }
  Sgd opt(0.01);
  auto loss = TrainFullBatch(data, 0.0, 500, &opt, &*net);
  ASSERT_TRUE(loss.ok());
  EXPECT_LT(*loss, 1e-3);
  EXPECT_NEAR(net->params()[0], 2.0, 0.05);
  EXPECT_NEAR(net->params()[1], -1.0, 0.05);
  EXPECT_NEAR(net->params()[2], 0.5, 0.05);
}

TEST(AdamTest, FitsNonlinearFunction) {
  Rng rng(12);
  MlpConfig c;
  c.layer_sizes = {1, 16, 16};
  auto net = Mlp::Create(c, &rng);
  ASSERT_TRUE(net.ok());
  // Target: the capacity-knee shape quality(w) = 1 for w<0.5, declining after.
  std::vector<Example> data;
  for (int i = 0; i <= 40; ++i) {
    double w = i / 40.0;
    double y = w < 0.5 ? 1.0 : 1.0 / (1.0 + 6.0 * (w - 0.5));
    data.push_back({{w}, y});
  }
  Adam opt(0.01);
  auto loss = TrainFullBatch(data, 0.0, 800, &opt, &*net);
  ASSERT_TRUE(loss.ok());
  EXPECT_LT(*loss / data.size(), 5e-3);
  // The fitted curve must decline past the knee.
  EXPECT_GT(net->Forward({0.3}).value(), net->Forward({0.95}).value());
}

TEST(OptimizerTest, StepValidatesSize) {
  Rng rng(13);
  auto net = Mlp::Create(SmallConfig(), &rng);
  ASSERT_TRUE(net.ok());
  Sgd sgd(0.1);
  Adam adam(0.1);
  la::Vector wrong(3, 0.0);
  EXPECT_FALSE(sgd.Step(wrong, &*net).ok());
  EXPECT_FALSE(adam.Step(wrong, &*net).ok());
}

TEST(OptimizerTest, MomentumAcceleratesDescent) {
  Rng rng(14);
  MlpConfig c;
  c.layer_sizes = {1};
  auto net1 = Mlp::Create(c, &rng);
  Rng rng2(14);
  auto net2 = Mlp::Create(c, &rng2);
  ASSERT_TRUE(net1.ok());
  ASSERT_TRUE(net2.ok());
  std::vector<Example> data = {{{1.0}, 5.0}};
  Sgd plain(0.01);
  Sgd momentum(0.01, 0.9);
  auto l1 = TrainFullBatch(data, 0.0, 30, &plain, &*net1);
  auto l2 = TrainFullBatch(data, 0.0, 30, &momentum, &*net2);
  ASSERT_TRUE(l1.ok());
  ASSERT_TRUE(l2.ok());
  EXPECT_LT(*l2, *l1);
}

TEST(TrainFullBatchTest, RejectsEmptyData) {
  Rng rng(15);
  auto net = Mlp::Create(SmallConfig(), &rng);
  ASSERT_TRUE(net.ok());
  Sgd opt(0.1);
  EXPECT_FALSE(TrainFullBatch({}, 0.0, 10, &opt, &*net).ok());
}

}  // namespace
}  // namespace lacb::nn
