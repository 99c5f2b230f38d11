// Personalized workload-capacity estimation (paper Sec. V-D).
//
// One generic NN-enhanced-UCB bandit is trained on the pooled observations
// of all brokers (∪_b T_b). Once a broker has accumulated enough personal
// observations, it receives its own bandit whose network is a copy of the
// base network with the first L−1 layers *frozen* — only the last layer
// fine-tunes on that broker's data (layer transfer). This gives
// personalization without per-broker data starvation.

#ifndef LACB_CAPACITY_PERSONALIZED_ESTIMATOR_H_
#define LACB_CAPACITY_PERSONALIZED_ESTIMATOR_H_

#include <memory>
#include <vector>

#include "lacb/bandit/neural_ucb.h"

namespace lacb::capacity {

/// \brief Configuration of the personalized estimator pool.
struct PersonalizedEstimatorConfig {
  bandit::NeuralUcbConfig bandit;
  /// Personal observations a broker must accumulate before receiving a
  /// fine-tuned bandit of its own. Transfer pays off only once the shared
  /// trunk is mature and the broker has enough data for the last layer to
  /// fit its latent residual rather than noise — roughly a month of daily
  /// observations.
  size_t personalization_threshold = 30;
  /// Base-network training passes required before any layer transfer.
  size_t base_training_passes = 1;
  /// Training-buffer size of the *personal* bandits. Brokers receive about
  /// one observation per day, so the base's buffer size (16) would mean a
  /// personal bandit almost never trains; small personal buffers keep the
  /// fine-tuned last layer current.
  size_t personal_batch_size = 4;
  /// Per-broker observations retained to warm-start a fresh personal
  /// bandit (its replay is seeded with this history at transfer time).
  size_t history_capacity = 64;
  /// Fine-tune learning rate and steps per personal training pass.
  double personal_learning_rate = 0.05;
  size_t personal_train_epochs = 30;
  /// Keep feeding observations to the base bandit after personalization
  /// (improves later transfers; off reproduces the paper's train-then-copy).
  bool continue_base_training = true;
};

/// \brief Pool of capacity estimators: shared base + per-broker fine-tunes.
class PersonalizedCapacityEstimator {
 public:
  static Result<PersonalizedCapacityEstimator> Create(
      const PersonalizedEstimatorConfig& config, size_t num_brokers);

  /// \brief B_b.estimate(x): the capacity with maximal UCB for broker b.
  /// Uses the personal bandit when one exists, the base bandit otherwise.
  Result<double> Estimate(size_t broker, const bandit::Vector& context);

  /// \brief B_b.update(x, w, s): feeds one observation triple; may trigger
  /// layer transfer for the broker.
  Status Update(size_t broker, const bandit::Vector& context, double workload,
                double signup_rate);

  /// \brief Number of brokers that currently own a personal bandit.
  size_t personalized_count() const { return personalized_count_; }

  bool IsPersonalized(size_t broker) const {
    return broker < personal_.size() && personal_[broker] != nullptr;
  }

  /// \brief Serializes the full pool: base bandit, per-broker observation
  /// counts + history, and every personal bandit. LoadState rebuilds each
  /// personal bandit with the live transfer recipe (TransferBase) before
  /// overwriting its state, so a restored pool is bit-identical.
  Status SaveState(persist::ByteWriter* w) const;
  Status LoadState(persist::ByteReader* r);

 private:
  PersonalizedCapacityEstimator(PersonalizedEstimatorConfig config,
                                std::unique_ptr<bandit::NeuralUcb> base,
                                size_t num_brokers);

  /// Layer transfer (Sec. V-D): broker's personal bandit around a copy of
  /// the base network with every layer but the last frozen, configured for
  /// fine-tuning. The one recipe both a live transfer and a restore use.
  Result<bandit::NeuralUcb> TransferBase(size_t broker) const;
  Status MaybePersonalize(size_t broker);

  struct HistoryEntry {
    bandit::Vector context;
    double workload;
    double signup_rate;
  };

  PersonalizedEstimatorConfig config_;
  std::unique_ptr<bandit::NeuralUcb> base_;
  std::vector<std::unique_ptr<bandit::NeuralUcb>> personal_;
  std::vector<size_t> observations_;
  std::vector<std::vector<HistoryEntry>> history_;
  size_t personalized_count_ = 0;
};

}  // namespace lacb::capacity

#endif  // LACB_CAPACITY_PERSONALIZED_ESTIMATOR_H_
