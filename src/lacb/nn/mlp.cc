#include "lacb/nn/mlp.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <utility>

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

// Two double lanes: SSE2 on x86-64, NEON on AArch64, scalar pairs
// elsewhere. Comparisons yield all-ones/all-zeros 64-bit lane masks.
using v2d = double __attribute__((vector_size(16)));
using v2m = int64_t __attribute__((vector_size(16)));

inline v2d Load2(const double* p) {
  v2d v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
inline void Store2(double* p, v2d v) { std::memcpy(p, &v, sizeof(v)); }
inline v2d Splat(double x) { return v2d{x, x}; }
// x in the lanes where m is set, +0.0 elsewhere. Adding +0.0 to a running
// sum that started at +0.0 never changes it (such a sum is never −0.0), so
// a masked-out term is exactly a skipped one.
inline v2d Select(v2d x, v2m m) { return (v2d)((v2m)x & m); }

// Lanes per forward/backward tile: two example pairs.
constexpr size_t kBlock = 4;

size_t RoundUp(size_t n, size_t k) { return (n + k - 1) / k * k; }

// z[i][e] = bias_i + Σ_j w_ij·a[j][e] for rows [i0, i0+RI) and examples
// [e0, e0+4), j in order. a and z are feature-major with stride nb.
template <int RI>
void ForwardTile(const double* w, size_t in, const double* bias, size_t i0,
                 const double* a, size_t nb, size_t e0, double* z) {
  v2d acc[RI][2];
#pragma GCC unroll 4
  for (int r = 0; r < RI; ++r) {
    v2d b = Splat(bias != nullptr ? bias[i0 + r] : 0.0);
    acc[r][0] = b;
    acc[r][1] = b;
  }
  for (size_t j = 0; j < in; ++j) {
    v2d a0 = Load2(a + j * nb + e0);
    v2d a1 = Load2(a + j * nb + e0 + 2);
#pragma GCC unroll 4
    for (int r = 0; r < RI; ++r) {
      v2d wr = Splat(w[(i0 + r) * in + j]);
      acc[r][0] += wr * a0;
      acc[r][1] += wr * a1;
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < RI; ++r) {
    Store2(z + (i0 + r) * nb + e0, acc[r][0]);
    Store2(z + (i0 + r) * nb + e0 + 2, acc[r][1]);
  }
}

// p[j][e] = Σ_i δ[i][e]·w_ij over i in order, skipping δ = 0, then zeroed
// where zprev[j][e] ≤ 0 — for rows [j0, j0+RJ) and examples [e0, e0+4).
template <int RJ>
void BackTile(const double* w, size_t in, size_t out, const double* d,
              size_t nb, size_t j0, size_t e0, const double* zprev,
              double* p) {
  v2d acc[RJ][2] = {};
  for (size_t i = 0; i < out; ++i) {
    v2d d0 = Load2(d + i * nb + e0);
    v2d d1 = Load2(d + i * nb + e0 + 2);
    v2m m0 = d0 != 0.0;
    v2m m1 = d1 != 0.0;
#pragma GCC unroll 4
    for (int r = 0; r < RJ; ++r) {
      v2d wr = Splat(w[i * in + j0 + r]);
      acc[r][0] += Select(d0 * wr, m0);
      acc[r][1] += Select(d1 * wr, m1);
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < RJ; ++r) {
    for (size_t c = 0; c < 2; ++c) {
      v2d z = Load2(zprev + (j0 + r) * nb + e0 + 2 * c);
      Store2(p + (j0 + r) * nb + e0 + 2 * c, Select(acc[r][c], ~(z <= 0.0)));
    }
  }
}

// g[j] += Σ_t δ[idx[t]]·a_t[idx[t]][j] over t in order, for columns
// [j0, j0+2·RJ) of one gradient row. idx lists the row's examples with a
// nonzero delta: skipping the others is exactly the reference's
// `δ = 0 → skip`. a_t is example-major with `cols` columns (the last real
// one is the bias's 1.0).
template <int RJ>
void GradTile(const double* d, const uint32_t* idx, size_t k,
              const double* a_t, size_t cols, size_t j0, double* g) {
  v2d acc[RJ];
#pragma GCC unroll 8
  for (int c = 0; c < RJ; ++c) acc[c] = Load2(g + j0 + 2 * c);
  for (size_t t = 0; t < k; ++t) {
    const double* a = a_t + idx[t] * cols + j0;
    v2d dv = Splat(d[idx[t]]);
#pragma GCC unroll 8
    for (int c = 0; c < RJ; ++c) acc[c] += dv * Load2(a + 2 * c);
  }
#pragma GCC unroll 8
  for (int c = 0; c < RJ; ++c) Store2(g + j0 + 2 * c, acc[c]);
}

}  // namespace

// Per layer l (in_l inputs, out_l outputs, cols_l = in_l + bias rounded up
// to even): activations a_l feature-major [in_l][nb]; pre-activations z_l
// and deltas δ_l [out_l][nb]; a_l example-major with a 1.0 bias column
// [n][cols_l]; gradient accumulator [out_l][cols_l]. Lanes past n hold
// zero inputs and zero output gradients.
struct Mlp::Workspace {
  size_t n = 0;
  size_t nb = 0;
  std::vector<double> act, pre, delta, act_t, grad;
  std::vector<size_t> act_off, pre_off, act_t_off, grad_off, cols;
  std::vector<const double*> inputs;
};

Mlp::Workspace& Mlp::PrepareWorkspace(size_t n) const {
  thread_local Workspace ws;
  size_t chunk = std::min(std::max<size_t>(n, 1), kChunk);
  size_t nb = RoundUp(chunk, kBlock);
  size_t n_layers = layer_sizes_.size();
  for (std::vector<size_t>* v :
       {&ws.act_off, &ws.pre_off, &ws.act_t_off, &ws.grad_off, &ws.cols}) {
    v->resize(n_layers);
  }
  size_t act = 0, pre = 0, act_t = 0, grad = 0;
  for (size_t l = 0; l < n_layers; ++l) {
    size_t cols = RoundUp(in_dim(l) + (use_bias_ ? 1 : 0), 2);
    ws.cols[l] = cols;
    ws.act_off[l] = act;
    act += in_dim(l) * nb;
    ws.pre_off[l] = pre;
    pre += out_dim(l) * nb;
    ws.act_t_off[l] = act_t;
    act_t += chunk * cols;
    ws.grad_off[l] = grad;
    grad += out_dim(l) * cols;
  }
  auto grow = [](std::vector<double>* v, size_t size) {
    if (v->size() < size) v->resize(size);
  };
  grow(&ws.act, act);
  grow(&ws.pre, pre);
  grow(&ws.delta, pre);
  grow(&ws.act_t, act_t);
  grow(&ws.grad, grad);
  if (ws.inputs.size() < chunk) ws.inputs.resize(chunk);
  return ws;
}

void Mlp::ForwardChunk(const double* const* inputs, size_t n,
                       Workspace* ws) const {
  ws->n = n;
  ws->nb = RoundUp(n, kBlock);
  const size_t nb = ws->nb;
  double* a0 = ws->act.data() + ws->act_off[0];
  for (size_t j = 0; j < input_dim(); ++j) {
    double* row = a0 + j * nb;
    for (size_t e = 0; e < n; ++e) row[e] = inputs[e][j];
    for (size_t e = n; e < nb; ++e) row[e] = 0.0;
  }
  size_t n_layers = layer_sizes_.size();
  for (size_t l = 0; l < n_layers; ++l) {
    size_t in = in_dim(l);
    size_t out = out_dim(l);
    const double* w = params_.data() + weight_offsets_[l];
    const double* bias =
        use_bias_ ? params_.data() + bias_offsets_[l] : nullptr;
    const double* a = ws->act.data() + ws->act_off[l];
    double* z = ws->pre.data() + ws->pre_off[l];
    size_t i = 0;
    for (; i + 4 <= out; i += 4) {
      for (size_t e = 0; e < nb; e += kBlock) {
        ForwardTile<4>(w, in, bias, i, a, nb, e, z);
      }
    }
    for (; i < out; ++i) {
      for (size_t e = 0; e < nb; e += kBlock) {
        ForwardTile<1>(w, in, bias, i, a, nb, e, z);
      }
    }
    if (l + 1 == n_layers) break;
    double* next = ws->act.data() + ws->act_off[l + 1];
    for (size_t k = 0; k < out * nb; k += 2) {
      v2d zk = Load2(z + k);
      Store2(next + k, Select(zk, zk > 0.0));
    }
  }
  double* d_out = ws->delta.data() + ws->pre_off[n_layers - 1];
  for (size_t e = n; e < nb; ++e) d_out[e] = 0.0;
}

double Mlp::ChunkOutput(const Workspace& ws, size_t e) const {
  return ws.pre[ws.pre_off[layer_sizes_.size() - 1] + e];
}

void Mlp::SetOutputGradient(Workspace* ws, size_t e, double g) const {
  ws->delta[ws->pre_off[layer_sizes_.size() - 1] + e] = g;
}

void Mlp::BackwardChunk(Workspace* ws) const {
  const size_t nb = ws->nb;
  for (size_t l = layer_sizes_.size() - 1; l > 0; --l) {
    size_t in = in_dim(l);
    size_t out = out_dim(l);
    const double* w = params_.data() + weight_offsets_[l];
    const double* d = ws->delta.data() + ws->pre_off[l];
    const double* zprev = ws->pre.data() + ws->pre_off[l - 1];
    double* p = ws->delta.data() + ws->pre_off[l - 1];
    size_t j = 0;
    for (; j + 4 <= in; j += 4) {
      for (size_t e = 0; e < nb; e += kBlock) {
        BackTile<4>(w, in, out, d, nb, j, e, zprev, p);
      }
    }
    for (; j < in; ++j) {
      for (size_t e = 0; e < nb; e += kBlock) {
        BackTile<1>(w, in, out, d, nb, j, e, zprev, p);
      }
    }
  }
  for (size_t l = 0; l < layer_sizes_.size(); ++l) {
    size_t in = in_dim(l);
    size_t cols = ws->cols[l];
    const double* a = ws->act.data() + ws->act_off[l];
    double* a_t = ws->act_t.data() + ws->act_t_off[l];
    for (size_t e = 0; e < ws->n; ++e) {
      double* row = a_t + e * cols;
      for (size_t j = 0; j < in; ++j) row[j] = a[j * nb + e];
      for (size_t j = in; j < cols; ++j) row[j] = 0.0;
      if (use_bias_) row[in] = 1.0;
    }
  }
}

void Mlp::AccumulateGradient(Workspace* ws, size_t begin,
                             size_t end) const {
  uint32_t idx[kChunk];
  for (size_t l = 0; l < layer_sizes_.size(); ++l) {
    size_t cols = ws->cols[l];
    const double* a_t = ws->act_t.data() + ws->act_t_off[l];
    for (size_t i = 0; i < out_dim(l); ++i) {
      const double* d = ws->delta.data() + ws->pre_off[l] + i * ws->nb;
      size_t k = 0;
      for (size_t e = begin; e < end; ++e) {
        idx[k] = static_cast<uint32_t>(e);
        k += d[e] != 0.0;
      }
      if (k == 0) continue;
      double* g = ws->grad.data() + ws->grad_off[l] + i * cols;
      size_t j = 0;
      for (; j + 16 <= cols; j += 16) GradTile<8>(d, idx, k, a_t, cols, j, g);
      for (; j + 8 <= cols; j += 8) GradTile<4>(d, idx, k, a_t, cols, j, g);
      for (; j < cols; j += 2) GradTile<1>(d, idx, k, a_t, cols, j, g);
    }
  }
}

void Mlp::ZeroGradient(Workspace* ws) const {
  size_t last = layer_sizes_.size() - 1;
  size_t size = ws->grad_off[last] + out_dim(last) * ws->cols[last];
  std::fill(ws->grad.begin(), ws->grad.begin() + size, 0.0);
}

void Mlp::ScatterGradient(const Workspace& ws, Vector* grad) const {
  grad->resize(params_.size());
  for (size_t l = 0; l < layer_sizes_.size(); ++l) {
    size_t in = in_dim(l);
    size_t cols = ws.cols[l];
    const double* g = ws.grad.data() + ws.grad_off[l];
    for (size_t i = 0; i < out_dim(l); ++i) {
      std::copy(g + i * cols, g + i * cols + in,
                grad->begin() + weight_offsets_[l] + i * in);
      if (use_bias_) (*grad)[bias_offsets_[l] + i] = g[i * cols + in];
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

Result<Vector> Mlp::ParamGradient(const Vector& x) const {
  Vector outputs;
  std::vector<Vector> grads;
  LACB_RETURN_NOT_OK(OutputGradients({x}, &outputs, &grads));
  return std::move(grads[0]);
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
    for (size_t e = 0; e < n; ++e) {
      ZeroGradient(&ws);
      AccumulateGradient(&ws, e, e + 1);
      ScatterGradient(ws, &(*grads)[s + e]);
    }
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
