#include "lacb/nn/mlp.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <utility>

#include "lacb/common/cpu.h"
#include "lacb/common/simd.h"

namespace lacb::nn {

Mlp::Mlp(std::vector<size_t> layer_sizes, bool use_bias, Vector params)
    : layer_sizes_(std::move(layer_sizes)),
      use_bias_(use_bias),
      params_(std::move(params)) {
  size_t offset = 0;
  size_t n_layers = layer_sizes_.size();
  weight_offsets_.resize(n_layers);
  bias_offsets_.resize(n_layers);
  layer_trainable_.assign(n_layers, true);
  for (size_t l = 0; l < n_layers; ++l) {
    weight_offsets_[l] = offset;
    offset += out_dim(l) * in_dim(l);
    bias_offsets_[l] = offset;
    if (use_bias_) offset += out_dim(l);
  }
  LACB_CHECK_EQ(offset, params_.size());
}

size_t Mlp::in_dim(size_t layer) const { return layer_sizes_[layer]; }

size_t Mlp::out_dim(size_t layer) const {
  return layer + 1 < layer_sizes_.size() ? layer_sizes_[layer + 1] : 1;
}

Result<Mlp> Mlp::Create(const MlpConfig& config, Rng* rng) {
  if (config.layer_sizes.empty()) {
    return Status::InvalidArgument("MLP needs at least an input layer size");
  }
  for (size_t s : config.layer_sizes) {
    if (s == 0) return Status::InvalidArgument("MLP layer sizes must be > 0");
  }
  size_t n_layers = config.layer_sizes.size();
  size_t total = 0;
  for (size_t l = 0; l < n_layers; ++l) {
    size_t in = config.layer_sizes[l];
    size_t out = l + 1 < n_layers ? config.layer_sizes[l + 1] : 1;
    total += in * out + (config.use_bias ? out : 0);
  }
  Vector params(total, 0.0);
  // Initialize weights layer by layer (biases stay zero).
  size_t offset = 0;
  for (size_t l = 0; l < n_layers; ++l) {
    size_t in = config.layer_sizes[l];
    size_t out = l + 1 < n_layers ? config.layer_sizes[l + 1] : 1;
    double stddev = config.init_stddev > 0.0
                        ? config.init_stddev
                        : std::sqrt(2.0 / static_cast<double>(in));
    for (size_t i = 0; i < in * out; ++i) {
      params[offset + i] = rng->Normal(0.0, stddev);
    }
    offset += in * out + (config.use_bias ? out : 0);
  }
  return Mlp(config.layer_sizes, config.use_bias, std::move(params));
}

namespace {

using simd::Lanes;
using simd::Load;
using simd::Store;

// x in the lanes where m is set, +0.0 elsewhere. Adding +0.0 to a running
// sum that started at +0.0 never changes it (such a sum is never −0.0), so
// a masked-out term is exactly a skipped one.
template <class V, class M>
LACB_TILE void AddSelected(V& acc, const V& x, const M& m) {
  acc += (V)((M)x & m);
}
template <class V, class M>
LACB_TILE void StoreSelected(double* p, const V& x, const M& m) {
  Store(p, (V)((M)x & m));
}

// Inputs per pass of the kernel.
constexpr size_t kChunk = 32;

size_t RoundUp(size_t n, size_t k) { return (n + k - 1) / k * k; }

// One layer of a chunk: raw pointers into the network's parameters and the
// workspace, so a kernel entry takes nothing but plain data.
struct LayerPass {
  const double* w;     // [out][in] row-major
  const double* bias;  // [out], or nullptr without biases
  size_t in, out;
  size_t cols;  // in + bias column, rounded up to the pass's lane count
  double* act;    // a: feature-major [in][nb]
  double* pre;    // z: [out][nb]
  double* delta;  // δ: [out][nb]
  double* act_t;  // a: example-major [n][cols], 1.0 in the bias column
  double* grad;   // gradient accumulator [out][cols]
};

struct Chunk {
  const LayerPass* layers;
  size_t n_layers;
  size_t n;   // live examples
  size_t nb;  // lanes per feature row: n rounded up to a tile (2·L)
};

// z[i][e] = bias_i + Σ_j w_ij·a[j][e] for rows [i0, i0+RI) and examples
// [e0, e0+2L), j in order. a and z are feature-major with stride nb.
template <int L, int RI>
LACB_TILE void ForwardTile(const LayerPass& p, size_t i0, size_t nb,
                           size_t e0) {
  using V = typename Lanes<L>::V;
  V acc[RI][2] = {};
  if (p.bias != nullptr) {
#pragma GCC unroll 4
    for (int r = 0; r < RI; ++r) {
      // A broadcast: b − (+0.0) is exactly b, −0.0 included.
      acc[r][0] = p.bias[i0 + r] - V{};
      acc[r][1] = acc[r][0];
    }
  }
  for (size_t j = 0; j < p.in; ++j) {
    V a0 = {}, a1 = {};
    Load(a0, p.act + j * nb + e0);
    Load(a1, p.act + j * nb + e0 + L);
#pragma GCC unroll 4
    for (int r = 0; r < RI; ++r) {
      double wr = p.w[(i0 + r) * p.in + j];
      acc[r][0] += wr * a0;
      acc[r][1] += wr * a1;
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < RI; ++r) {
    Store(p.pre + (i0 + r) * nb + e0, acc[r][0]);
    Store(p.pre + (i0 + r) * nb + e0 + L, acc[r][1]);
  }
}

// p[j][e] = Σ_i δ[i][e]·w_ij over i in order, skipping δ = 0, then zeroed
// where zprev[j][e] ≤ 0 — for rows [j0, j0+RJ) and examples [e0, e0+2L).
template <int L, int RJ>
LACB_TILE void BackTile(const LayerPass& p, const LayerPass& below,
                        size_t j0, size_t nb, size_t e0) {
  using V = typename Lanes<L>::V;
  using M = typename Lanes<L>::M;
  V acc[RJ][2] = {};
  for (size_t i = 0; i < p.out; ++i) {
    V d0 = {}, d1 = {};
    Load(d0, p.delta + i * nb + e0);
    Load(d1, p.delta + i * nb + e0 + L);
    M m0 = d0 != 0.0;
    M m1 = d1 != 0.0;
#pragma GCC unroll 4
    for (int r = 0; r < RJ; ++r) {
      double wr = p.w[i * p.in + j0 + r];
      AddSelected(acc[r][0], d0 * wr, m0);
      AddSelected(acc[r][1], d1 * wr, m1);
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < RJ; ++r) {
#pragma GCC unroll 2
    for (size_t c = 0; c < 2; ++c) {
      size_t at = (j0 + r) * nb + e0 + L * c;
      V z = {};
      Load(z, below.pre + at);
      StoreSelected(below.delta + at, acc[r][c], ~(z <= 0.0));
    }
  }
}

// g[j] += Σ_t δ[idx[t]]·a_t[idx[t]][j] over t in order, for columns
// [j0, j0+L·RJ) of one gradient row. idx lists the row's examples with a
// nonzero delta: skipping the others is exactly the reference's
// `δ = 0 → skip`.
template <int L, int RJ>
LACB_TILE void GradTile(const LayerPass& p, const double* d,
                        const uint32_t* idx, size_t k, size_t j0, double* g) {
  using V = typename Lanes<L>::V;
  V acc[RJ] = {};
#pragma GCC unroll 8
  for (int c = 0; c < RJ; ++c) Load(acc[c], g + j0 + L * c);
  for (size_t t = 0; t < k; ++t) {
    const double* a = p.act_t + idx[t] * p.cols + j0;
    double dt = d[idx[t]];
#pragma GCC unroll 8
    for (int c = 0; c < RJ; ++c) {
      V ac = {};
      Load(ac, a + L * c);
      acc[c] += dt * ac;
    }
  }
#pragma GCC unroll 8
  for (int c = 0; c < RJ; ++c) Store(g + j0 + L * c, acc[c]);
}

// Pre-activations of every layer, with the ReLU of each hidden layer
// written as the next layer's activations.
template <int L>
LACB_TILE void ForwardStage(const Chunk& c) {
  using V = typename Lanes<L>::V;
  for (size_t l = 0; l < c.n_layers; ++l) {
    const LayerPass& p = c.layers[l];
    size_t i = 0;
    for (; i + 4 <= p.out; i += 4) {
      for (size_t e = 0; e < c.nb; e += 2 * L) {
        ForwardTile<L, 4>(p, i, c.nb, e);
      }
    }
    for (; i < p.out; ++i) {
      for (size_t e = 0; e < c.nb; e += 2 * L) {
        ForwardTile<L, 1>(p, i, c.nb, e);
      }
    }
    if (l + 1 == c.n_layers) break;
    double* next = c.layers[l + 1].act;
    for (size_t k = 0; k < p.out * c.nb; k += L) {
      V zk = {};
      Load(zk, p.pre + k);
      StoreSelected(next + k, zk, zk > 0.0);
    }
  }
}

// Deltas of every layer from the output gradients, then every layer's
// activations laid out per example for the gradient tiles.
template <int L>
LACB_TILE void BackwardStage(const Chunk& c) {
  for (size_t l = c.n_layers - 1; l > 0; --l) {
    const LayerPass& p = c.layers[l];
    const LayerPass& below = c.layers[l - 1];
    size_t j = 0;
    for (; j + 4 <= p.in; j += 4) {
      for (size_t e = 0; e < c.nb; e += 2 * L) {
        BackTile<L, 4>(p, below, j, c.nb, e);
      }
    }
    for (; j < p.in; ++j) {
      for (size_t e = 0; e < c.nb; e += 2 * L) {
        BackTile<L, 1>(p, below, j, c.nb, e);
      }
    }
  }
  for (size_t l = 0; l < c.n_layers; ++l) {
    const LayerPass& p = c.layers[l];
    for (size_t e = 0; e < c.n; ++e) {
      double* row = p.act_t + e * p.cols;
      for (size_t j = 0; j < p.in; ++j) row[j] = p.act[j * c.nb + e];
      for (size_t j = p.in; j < p.cols; ++j) row[j] = 0.0;
      if (p.bias != nullptr) row[p.in] = 1.0;
    }
  }
}

// Adds the parameter gradients of examples [begin, end), in order.
template <int L>
LACB_TILE void AccumulateStage(const Chunk& c, size_t begin, size_t end) {
  uint32_t idx[kChunk];
  for (size_t l = 0; l < c.n_layers; ++l) {
    const LayerPass& p = c.layers[l];
    for (size_t i = 0; i < p.out; ++i) {
      const double* d = p.delta + i * c.nb;
      size_t k = 0;
      for (size_t e = begin; e < end; ++e) {
        idx[k] = static_cast<uint32_t>(e);
        k += d[e] != 0.0;
      }
      if (k == 0) continue;
      double* g = p.grad + i * p.cols;
      size_t j = 0;
      for (; j + 8 * L <= p.cols; j += 8 * L) {
        GradTile<L, 8>(p, d, idx, k, j, g);
      }
      for (; j + 4 * L <= p.cols; j += 4 * L) {
        GradTile<L, 4>(p, d, idx, k, j, g);
      }
      for (; j < p.cols; j += L) GradTile<L, 1>(p, d, idx, k, j, g);
    }
  }
}

enum class Stage { kForward, kBackward, kAccumulate };

template <int L>
LACB_TILE void RunStage(Stage stage, const Chunk& c, size_t begin,
                        size_t end) {
  switch (stage) {
    case Stage::kForward:
      ForwardStage<L>(c);
      break;
    case Stage::kBackward:
      BackwardStage<L>(c);
      break;
    case Stage::kAccumulate:
      AccumulateStage<L>(c, begin, end);
      break;
  }
}

// The kernel's only out-of-line entries, one per lane count. Each inlines
// the whole stage, so wide vectors never cross a call and the ISA of an
// entry never reaches code shared with the rest of the program.
using StageFn = void (*)(Stage, const Chunk&, size_t, size_t);
void RunStage2(Stage s, const Chunk& c, size_t begin, size_t end) {
  RunStage<2>(s, c, begin, end);
}
#if defined(__x86_64__)
[[LACB_TARGET_LANES4]] void RunStage4(Stage s, const Chunk& c, size_t begin,
                                     size_t end) {
  RunStage<4>(s, c, begin, end);
}
[[LACB_TARGET_LANES8]] void RunStage8(Stage s, const Chunk& c, size_t begin,
                                     size_t end) {
  RunStage<8>(s, c, begin, end);
}
#endif

StageFn StageFor(size_t lanes) {
  switch (lanes) {
#if defined(__x86_64__)
    case 8:
      return RunStage8;
    case 4:
      return RunStage4;
#endif
    default:
      return RunStage2;
  }
}

// Lanes for a pass whose chunks hold up to n inputs: the widest the CPU
// runs that pads a chunk to no more lanes than the narrowest tile (4) does,
// so one input or SelectValue's six arms do not pay for 16-lane tiles.
size_t PassLanes(size_t n) {
  size_t lanes = KernelLanes();
  if (KernelLanesForced()) return lanes;
  while (lanes > 2 && RoundUp(n, 2 * lanes) > RoundUp(n, 4)) lanes /= 2;
  return lanes;
}

}  // namespace

// Per pass: the lane count L, its kernel entry, and per layer the buffers
// of LayerPass, carved from one allocation with every buffer starting on a
// 64-byte line (and L-lane rows that keep it), so no vector load of a tile
// straddles two lines. Lanes past n hold zero inputs and zero output
// gradients.
struct Mlp::Workspace {
  size_t n = 0;
  size_t nb = 0;
  size_t lanes = 2;
  StageFn run = RunStage2;
  std::vector<double> buffer;
  std::vector<LayerPass> layers;
  std::vector<const double*> inputs;

  Chunk chunk() const { return Chunk{layers.data(), layers.size(), n, nb}; }
};

Mlp::Workspace& Mlp::PrepareWorkspace(size_t n) const {
  constexpr size_t kLine = 64 / sizeof(double);
  thread_local Workspace ws;
  size_t chunk = std::min(std::max<size_t>(n, 1), kChunk);
  ws.lanes = PassLanes(chunk);
  ws.run = StageFor(ws.lanes);
  size_t nb = RoundUp(chunk, 2 * ws.lanes);
  size_t n_layers = layer_sizes_.size();
  ws.layers.resize(n_layers);
  for (size_t l = 0; l < n_layers; ++l) {
    LayerPass& p = ws.layers[l];
    p.w = params_.data() + weight_offsets_[l];
    p.bias = use_bias_ ? params_.data() + bias_offsets_[l] : nullptr;
    p.in = in_dim(l);
    p.out = out_dim(l);
    p.cols = RoundUp(p.in + (use_bias_ ? 1 : 0), ws.lanes);
  }
  // Sizes first, then pointers: both walk the same sequence of buffers.
  auto carve = [&](auto&& take) {
    for (LayerPass& p : ws.layers) {
      take(&p.act, p.in * nb);
      take(&p.pre, p.out * nb);
      take(&p.delta, p.out * nb);
      take(&p.act_t, chunk * p.cols);
      take(&p.grad, p.out * p.cols);
    }
  };
  size_t size = kLine;
  carve([&](double**, size_t count) { size += RoundUp(count, kLine); });
  if (ws.buffer.size() < size) ws.buffer.resize(size);
  double* at = ws.buffer.data();
  at += (kLine - reinterpret_cast<uintptr_t>(at) / sizeof(double) % kLine) %
        kLine;
  carve([&](double** region, size_t count) {
    *region = at;
    at += RoundUp(count, kLine);
  });
  if (ws.inputs.size() < chunk) ws.inputs.resize(chunk);
  return ws;
}

void Mlp::ForwardChunk(const double* const* inputs, size_t n,
                       Workspace* ws) const {
  ws->n = n;
  ws->nb = RoundUp(n, 2 * ws->lanes);
  const size_t nb = ws->nb;
  double* a0 = ws->layers.front().act;
  for (size_t j = 0; j < input_dim(); ++j) {
    double* row = a0 + j * nb;
    for (size_t e = 0; e < n; ++e) row[e] = inputs[e][j];
    for (size_t e = n; e < nb; ++e) row[e] = 0.0;
  }
  ws->run(Stage::kForward, ws->chunk(), 0, 0);
  double* d_out = ws->layers.back().delta;
  for (size_t e = n; e < nb; ++e) d_out[e] = 0.0;
}

double Mlp::ChunkOutput(const Workspace& ws, size_t e) const {
  return ws.layers.back().pre[e];
}

void Mlp::SetOutputGradient(Workspace* ws, size_t e, double g) const {
  ws->layers.back().delta[e] = g;
}

void Mlp::BackwardChunk(Workspace* ws) const {
  ws->run(Stage::kBackward, ws->chunk(), 0, 0);
}

void Mlp::AccumulateGradient(Workspace* ws, size_t begin,
                             size_t end) const {
  ws->run(Stage::kAccumulate, ws->chunk(), begin, end);
}

void Mlp::ZeroGradient(Workspace* ws) const {
  for (const LayerPass& p : ws->layers) {
    std::fill(p.grad, p.grad + p.out * p.cols, 0.0);
  }
}

void Mlp::ScatterGradient(const Workspace& ws, Vector* grad) const {
  grad->resize(params_.size());
  for (size_t l = 0; l < layer_sizes_.size(); ++l) {
    const LayerPass& p = ws.layers[l];
    for (size_t i = 0; i < p.out; ++i) {
      const double* g = p.grad + i * p.cols;
      std::copy(g, g + p.in, grad->begin() + weight_offsets_[l] + i * p.in);
      if (use_bias_) (*grad)[bias_offsets_[l] + i] = g[p.in];
    }
  }
}

void Mlp::WriteInputGradient(const Workspace& ws, size_t e,
                             Vector* grad) const {
  grad->resize(params_.size());
  double* out = grad->data();
  for (size_t l = 0; l < layer_sizes_.size(); ++l) {
    const LayerPass& p = ws.layers[l];
    for (size_t i = 0; i < p.out; ++i) {
      // The accumulator sums from +0.0 and skips δ = 0, so a skipped row
      // is +0.0 and a kept term is 0.0 + δ·a, never the raw product: the
      // sum turns a −0.0 product into +0.0. The bias input is 1.0.
      const double d = p.delta[i * ws.nb + e];
      double* row = out + weight_offsets_[l] + i * p.in;
      if (d == 0.0) {
        std::fill(row, row + p.in, 0.0);
      } else {
        for (size_t j = 0; j < p.in; ++j) {
          row[j] = 0.0 + d * p.act[j * ws.nb + e];
        }
      }
      if (use_bias_) out[bias_offsets_[l] + i] = d == 0.0 ? 0.0 : 0.0 + d;
    }
  }
}

Status Mlp::CheckInput(const Vector& x) const {
  if (x.size() != input_dim()) {
    return Status::InvalidArgument("MLP forward: input dimension mismatch");
  }
  return Status::OK();
}

Result<double> Mlp::Forward(const Vector& x) const {
  LACB_RETURN_NOT_OK(CheckInput(x));
  Workspace& ws = PrepareWorkspace(1);
  const double* input = x.data();
  ForwardChunk(&input, 1, &ws);
  return ChunkOutput(ws, 0);
}

Status Mlp::OutputGradients(const std::vector<Vector>& inputs,
                            Vector* outputs,
                            std::vector<Vector>* grads) const {
  for (const Vector& x : inputs) LACB_RETURN_NOT_OK(CheckInput(x));
  outputs->resize(inputs.size());
  grads->resize(inputs.size());
  Workspace& ws = PrepareWorkspace(inputs.size());
  for (size_t s = 0; s < inputs.size(); s += kChunk) {
    size_t n = std::min(kChunk, inputs.size() - s);
    for (size_t e = 0; e < n; ++e) ws.inputs[e] = inputs[s + e].data();
    ForwardChunk(ws.inputs.data(), n, &ws);
    for (size_t e = 0; e < n; ++e) {
      (*outputs)[s + e] = ChunkOutput(ws, e);
      SetOutputGradient(&ws, e, 1.0);
    }
    BackwardChunk(&ws);
    for (size_t e = 0; e < n; ++e) WriteInputGradient(ws, e, &(*grads)[s + e]);
  }
  return Status::OK();
}

Status Mlp::LossGradient(const std::vector<Example>& data,
                         const std::vector<size_t>& rows, double l2,
                         Vector* grad) const {
  for (size_t r : rows) {
    if (r >= data.size()) {
      return Status::OutOfRange("LossGradient: row index out of range");
    }
    LACB_RETURN_NOT_OK(CheckInput(data[r].x));
  }
  Workspace& ws = PrepareWorkspace(rows.size());
  ZeroGradient(&ws);
  for (size_t s = 0; s < rows.size(); s += kChunk) {
    size_t n = std::min(kChunk, rows.size() - s);
    for (size_t e = 0; e < n; ++e) ws.inputs[e] = data[rows[s + e]].x.data();
    ForwardChunk(ws.inputs.data(), n, &ws);
    for (size_t e = 0; e < n; ++e) {
      double residual = ChunkOutput(ws, e) - data[rows[s + e]].target;
      SetOutputGradient(&ws, e, 2.0 * residual);
    }
    BackwardChunk(&ws);
    AccumulateGradient(&ws, 0, n);
  }
  ScatterGradient(ws, grad);
  if (l2 > 0.0) {
    for (size_t i = 0; i < grad->size(); ++i) {
      (*grad)[i] += 2.0 * l2 * params_[i];
    }
  }
  return Status::OK();
}

Result<Vector> Mlp::LossGradient(const std::vector<Example>& batch,
                                 double l2) const {
  std::vector<size_t> rows(batch.size());
  std::iota(rows.begin(), rows.end(), size_t{0});
  Vector grad;
  LACB_RETURN_NOT_OK(LossGradient(batch, rows, l2, &grad));
  return grad;
}

Result<double> Mlp::Loss(const std::vector<Example>& batch, double l2) const {
  for (const Example& ex : batch) LACB_RETURN_NOT_OK(CheckInput(ex.x));
  double loss = 0.0;
  Workspace& ws = PrepareWorkspace(batch.size());
  for (size_t s = 0; s < batch.size(); s += kChunk) {
    size_t n = std::min(kChunk, batch.size() - s);
    for (size_t e = 0; e < n; ++e) ws.inputs[e] = batch[s + e].x.data();
    ForwardChunk(ws.inputs.data(), n, &ws);
    for (size_t e = 0; e < n; ++e) {
      double r = ChunkOutput(ws, e) - batch[s + e].target;
      loss += r * r;
    }
  }
  if (l2 > 0.0) loss += l2 * la::Dot(params_, params_);
  return loss;
}

Status Mlp::SetParams(Vector params) {
  if (params.size() != params_.size()) {
    return Status::InvalidArgument("SetParams size mismatch");
  }
  params_ = std::move(params);
  return Status::OK();
}

Status Mlp::SetLayerTrainable(size_t layer, bool trainable) {
  if (layer >= layer_trainable_.size()) {
    return Status::OutOfRange("layer index out of range");
  }
  layer_trainable_[layer] = trainable;
  return Status::OK();
}

Result<Mlp::LayerSpan> Mlp::LayerParamSpan(size_t layer) const {
  if (layer >= layer_sizes_.size()) {
    return Status::OutOfRange("layer index out of range");
  }
  size_t end = layer + 1 < layer_sizes_.size() ? weight_offsets_[layer + 1]
                                               : params_.size();
  return LayerSpan{weight_offsets_[layer], end};
}

Status Mlp::ApplyGradient(const Vector& grad) {
  if (grad.size() != params_.size()) {
    return Status::InvalidArgument("ApplyGradient size mismatch");
  }
  for (size_t l = 0; l < layer_trainable_.size(); ++l) {
    if (!layer_trainable_[l]) continue;
    LayerSpan span = LayerParamSpan(l).value();
    for (size_t i = span.begin; i < span.end; ++i) params_[i] -= grad[i];
  }
  return Status::OK();
}

double Mlp::MaxLayerOperatorNorm() const {
  double best = 0.0;
  for (size_t l = 0; l < layer_sizes_.size(); ++l) {
    size_t in = in_dim(l);
    size_t out = out_dim(l);
    la::Matrix w(out, in);
    const double* src = params_.data() + weight_offsets_[l];
    for (size_t i = 0; i < out * in; ++i) w.data()[i] = src[i];
    best = std::max(best, w.OperatorNormEstimate());
  }
  return best;
}

}  // namespace lacb::nn
