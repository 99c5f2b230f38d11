// NN-enhanced UCB (paper Sec. V-C, Eq. 5, Alg. 1).
//
// Replaces LinUCB's linear reward model with an MLP S_θ([x; c]) and its
// confidence width with √(g_θᵀ D⁻¹ g_θ), where g_θ = ∇_θ S_θ and
// D = λI + Σ g g ᵀ over played arms. Observations are buffered and the
// network is retrained on the squared loss of Eq. 6 whenever the buffer
// reaches `batch_size` (Alg. 1 lines 13–18).
//
// The covariance can be kept as the full d×d matrix (faithful to Eq. 5,
// O(d²) per step — fine for small networks) or as the standard diagonal
// NeuralUCB approximation (O(d), required for paper-sized networks). This
// same class also serves as the "AN" baseline's NeuralUCB estimator.

#ifndef LACB_BANDIT_NEURAL_UCB_H_
#define LACB_BANDIT_NEURAL_UCB_H_

#include <memory>
#include <vector>

#include "lacb/bandit/contextual_bandit.h"
#include "lacb/la/linalg.h"
#include "lacb/nn/mlp.h"
#include "lacb/nn/optimizer.h"
#include "lacb/persist/bytes.h"

namespace lacb::bandit {

/// \brief How the gradient covariance D is represented.
enum class CovarianceMode {
  kFullMatrix,  ///< Exact Eq. 5 via Sherman–Morrison, O(d²) per step.
  kDiagonal,    ///< Diagonal approximation, O(d) per step.
};

/// \brief Configuration of a NeuralUcb policy.
struct NeuralUcbConfig {
  /// Candidate arm values (the capacity set C). Must be non-empty.
  std::vector<double> arm_values;
  size_t context_dim = 0;
  /// Hidden layer widths of S_θ; the input layer is context_dim + 1 and the
  /// output is scalar. {64, 16} gives the paper's 3-layer MLP.
  std::vector<size_t> hidden_sizes = {64, 16};
  /// Exploration coefficient α (paper uses 0.001).
  double alpha = 0.001;
  /// Ridge λ: initializes D = λI and weighs the L2 term of Eq. 6
  /// (paper uses 0.001).
  double lambda = 0.001;
  /// Observation-buffer size triggering a training pass (paper uses 16).
  size_t batch_size = 16;
  /// Gradient-descent steps per training pass.
  size_t train_epochs = 40;
  /// Learning rate of the training steps (Alg. 1 line 17).
  double learning_rate = 0.01;
  /// Experience replay: observations are retained (up to this many, ring
  /// eviction) and each training pass samples minibatches from the whole
  /// replay, as in the original NeuralUCB. 0 reproduces the paper's
  /// literal Alg. 1 (train on the fresh 16-observation buffer only), which
  /// suffers catastrophic forgetting — compared in the ablation bench.
  size_t replay_capacity = 4096;
  /// Minibatch size sampled from the replay per training step.
  size_t minibatch_size = 128;
  /// Arm values are multiplied by this before entering the network (they
  /// also enter as RBF activations over the arm anchors; see NetInput).
  double value_scale = 1.0;
  CovarianceMode covariance = CovarianceMode::kDiagonal;
  uint64_t seed = 1;
};

/// \brief Contextual bandit with the NN-enhanced UCB policy.
class NeuralUcb : public ContextualBandit {
 public:
  static Result<NeuralUcb> Create(const NeuralUcbConfig& config);

  /// \brief Builds a NeuralUcb around an existing network (used by the
  /// personalized estimator to clone a pre-trained base network).
  static Result<NeuralUcb> CreateWithNetwork(const NeuralUcbConfig& config,
                                             nn::Mlp network);

  Result<double> SelectValue(const Vector& context) override;
  Result<double> PredictReward(const Vector& context,
                               double value) const override;
  Status Observe(const Vector& context, double value, double reward) override;

  const std::vector<double>& arm_values() const override {
    return config_.arm_values;
  }
  size_t context_dim() const override { return config_.context_dim; }

  /// \brief UCB score of one arm value: S_θ + α√(gᵀD⁻¹g) (Eq. 5).
  Result<double> UcbScore(const Vector& context, double value) const;

  /// \brief Flushes the observation buffer through a training pass even if
  /// it is not full (used at end-of-horizon).
  Status FlushTraining();

  /// \brief Copies the covariance state D from another bandit with the
  /// same network shape and covariance mode. Used by layer transfer
  /// (Sec. V-D): a freshly personalized bandit inherits the base bandit's
  /// accumulated confidence instead of re-exploring from scratch.
  Status CopyCovariance(const NeuralUcb& other);

  /// \brief The reward network (read for layer transfer).
  const nn::Mlp& network() const { return net_; }

  size_t buffered_observations() const { return buffer_.size(); }
  size_t training_passes() const { return training_passes_; }

  /// \brief Serializes all mutable state (network parameters + trainable
  /// mask, covariance, optimizer momentum, observation buffer, replay
  /// ring, training RNG); LoadState restores it bit-exactly into a bandit
  /// created from the same config.
  Status SaveState(persist::ByteWriter* w) const;
  Status LoadState(persist::ByteReader* r);

 private:
  NeuralUcb(NeuralUcbConfig config, nn::Mlp net);

  // Writes the network input for (context, value) into *in.
  Status NetInput(const Vector& context, double value, Vector* in) const;
  // (*width2)[k] = gradsᵀ[k] D⁻¹ grads[k], the squared confidence widths.
  Status Width2(const std::vector<Vector>& grads, Vector* width2) const;
  Status CovarianceUpdate(const Vector& grad);

  NeuralUcbConfig config_;
  nn::Mlp net_;
  double rbf_bandwidth_;  // of NetInput's arm-anchor features
  // Exactly one of the two is engaged, per config_.covariance.
  std::unique_ptr<la::ShermanMorrisonInverse> full_cov_;
  std::unique_ptr<la::DiagonalInverse> diag_cov_;
  nn::Sgd optimizer_;
  std::vector<nn::Example> buffer_;
  std::vector<nn::Example> replay_;
  size_t replay_next_ = 0;  // ring-eviction cursor
  Rng train_rng_;
  size_t training_passes_ = 0;
};

}  // namespace lacb::bandit

#endif  // LACB_BANDIT_NEURAL_UCB_H_
