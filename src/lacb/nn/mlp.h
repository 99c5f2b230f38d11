// Fully connected MLP with ReLU activations and a scalar output.
//
// This implements the reward mapping function S_θ(x, c) of the paper's
// Eq. (4). Beyond the usual forward/backward passes, the bandit module
// needs the *parameter* gradient g_θ(x) = ∇_θ S_θ(x) of the scalar output
// (Eq. 5), so the network exposes it directly as a flattened vector. All
// parameters are stored flattened, which makes optimizers, covariance
// matrices over gradients, and layer freezing (Sec. V-D layer transfer)
// straightforward.
//
// Every pass runs one batched kernel: inputs are processed in chunks, a
// layer at a time for the whole chunk, with SIMD lanes across inputs for
// the forward and delta passes and register tiles across weights for the
// gradient. It never reorders a floating-point sum, so every result is
// bit-identical to evaluating the inputs one at a time:
//
//   - pre-activation  z_i = b_i + Σ_j w_ij·a_j, summed left to right in j
//     starting from the bias (from 0.0 without biases);
//   - delta           δ'_j = Σ_i δ_i·w_ij in i order from 0.0, skipping
//     δ_i = 0, then zeroed where the layer below has z_j ≤ 0;
//   - weight gradient ∂w_ij = Σ_e δ_i(e)·a_j(e) and bias ∂b_i = Σ_e δ_i(e),
//     each summed from 0.0 over the examples e in the order given (a
//     minibatch's row order), skipping δ_i(e) = 0;
//   - loss            the output gradient of example e is 2·(S(x_e) − t_e);
//     the L2 term 2·l2·θ is added after the example sums.
//
// The kernel is one template over its lane count L: vectors of L doubles,
// forward/backward tiles of 2·L inputs, gradient rows padded to a multiple
// of L columns. Each lane carries one input's (or one weight's) sum in the
// order above, so L changes the speed and never a bit. L is 8 (AVX-512F
// with DQ), 4 (AVX2) or 2 (SSE2, and the only width off x86-64): the
// widest this CPU runs (KernelLanes, common/cpu.h, which also holds the
// test seam that forces it), narrowed for passes too small to fill its
// tiles.
// Every product is rounded before it is added: the library is built with
// -ffp-contract=off (src/CMakeLists.txt), since GCC would otherwise fuse
// them into FMAs wherever the target has them. Scratch lives in a
// thread-local workspace, so copies of a network share nothing and cost
// nothing extra.

#ifndef LACB_NN_MLP_H_
#define LACB_NN_MLP_H_

#include <cstddef>
#include <vector>

#include "lacb/common/result.h"
#include "lacb/common/rng.h"
#include "lacb/la/matrix.h"

namespace lacb::nn {

using la::Vector;

/// \brief Architecture and initialization of an Mlp.
struct MlpConfig {
  /// Layer widths from input to the last hidden layer; the output layer is
  /// always scalar. E.g. {10, 64, 32} is a 3-layer net 10 -> 64 -> 32 -> 1.
  std::vector<size_t> layer_sizes;
  /// Include bias terms. The paper's Eq. (4) writes none; biases are kept
  /// optional (and on by default) because they materially help training.
  bool use_bias = true;
  /// Stddev of the Gaussian initialization (Alg. 1 line 3). Non-positive
  /// selects He initialization (sqrt(2/fan_in)) per layer.
  double init_stddev = -1.0;
};

/// \brief One training example: input vector and scalar target.
struct Example {
  Vector x;
  double target = 0.0;
};

/// \brief Scalar-output multi-layer perceptron.
class Mlp {
 public:
  /// \brief Builds a randomly initialized network.
  static Result<Mlp> Create(const MlpConfig& config, Rng* rng);

  size_t input_dim() const { return layer_sizes_.front(); }
  size_t num_layers() const { return layer_sizes_.size(); }  // incl. output
  size_t num_params() const { return params_.size(); }

  /// \brief Forward pass; x must have input_dim() entries.
  Result<double> Forward(const Vector& x) const;

  /// \brief Forward and parameter gradient of several inputs in one batched
  /// pass: (*outputs)[k] = S(inputs[k]) and (*grads)[k] = ∇_θ S(inputs[k]),
  /// flattened in the same layout as params(). Each input's results are
  /// bit-identical to Forward and to a one-input batch. The caller's
  /// buffers are reused (no allocation once they are sized).
  Status OutputGradients(const std::vector<Vector>& inputs, Vector* outputs,
                         std::vector<Vector>* grads) const;

  /// \brief Gradient of the minibatch loss Σ_k (S(x)−t)² + l2·‖θ‖² (paper
  /// Eq. 6) over the examples data[rows[0]], data[rows[1]], … (repeats
  /// allowed), summed in row order and written into *grad.
  Status LossGradient(const std::vector<Example>& data,
                      const std::vector<size_t>& rows, double l2,
                      Vector* grad) const;

  /// \brief The same over every example of `batch`, in order.
  Result<Vector> LossGradient(const std::vector<Example>& batch,
                              double l2) const;

  /// \brief Batch loss value (for convergence tests).
  Result<double> Loss(const std::vector<Example>& batch, double l2) const;

  const Vector& params() const { return params_; }
  Status SetParams(Vector params);

  /// \brief Marks a layer (0-based, output layer = num_layers()-1) as frozen;
  /// frozen layers receive zero gradient from ApplyGradient.
  Status SetLayerTrainable(size_t layer, bool trainable);

  /// \brief Per-layer trainable flags (checkpoint serialization).
  const std::vector<bool>& trainable_mask() const { return layer_trainable_; }

  /// \brief In-place params ← params − grad on every trainable layer (the
  /// caller scales grad by the learning rate; see optimizer.h for stateful
  /// rules).
  Status ApplyGradient(const Vector& grad);

  /// \brief Parameter index range [begin, end) of a layer's weights+biases.
  struct LayerSpan {
    size_t begin;
    size_t end;
  };
  Result<LayerSpan> LayerParamSpan(size_t layer) const;

  /// \brief Largest per-layer operator norm (the ξ of Theorem 1).
  double MaxLayerOperatorNorm() const;

 private:
  Mlp(std::vector<size_t> layer_sizes, bool use_bias, Vector params);

  // Weight matrix of `layer` has shape out_dim(layer) x in_dim(layer),
  // stored row-major at weight_offsets_[layer]; biases (if any) follow.
  size_t in_dim(size_t layer) const;
  size_t out_dim(size_t layer) const;

  // Batched kernel over a thread-local Workspace (mlp.cc). A pass covers at
  // most 32 inputs (a chunk); `inputs[e]` points at input_dim() doubles.
  struct Workspace;
  Workspace& PrepareWorkspace(size_t n) const;
  void ForwardChunk(const double* const* inputs, size_t n,
                    Workspace* ws) const;
  double ChunkOutput(const Workspace& ws, size_t e) const;
  // Backpropagates the output gradients set with SetOutputGradient to every
  // layer's pre-activation and lays the activations out per example.
  void SetOutputGradient(Workspace* ws, size_t e, double g) const;
  void BackwardChunk(Workspace* ws) const;
  // Adds the parameter gradients of chunk examples [begin, end), in order,
  // to the workspace's gradient accumulator; ZeroGradient and
  // ScatterGradient clear it and copy it out in params() layout.
  void AccumulateGradient(Workspace* ws, size_t begin, size_t end) const;
  void ZeroGradient(Workspace* ws) const;
  void ScatterGradient(const Workspace& ws, Vector* grad) const;
  // Chunk example e's own parameter gradient, written straight into *grad
  // in params() layout: exactly what AccumulateGradient(ws, e, e + 1) into
  // a zeroed accumulator followed by ScatterGradient leaves there.
  void WriteInputGradient(const Workspace& ws, size_t e, Vector* grad) const;
  Status CheckInput(const Vector& x) const;

  std::vector<size_t> layer_sizes_;  // input + hidden widths (output is 1)
  bool use_bias_;
  Vector params_;
  std::vector<size_t> weight_offsets_;
  std::vector<size_t> bias_offsets_;
  std::vector<bool> layer_trainable_;
};

}  // namespace lacb::nn

#endif  // LACB_NN_MLP_H_
