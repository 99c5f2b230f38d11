// LACB: Learned Assignment with Contextual Bandits (paper Secs. V–VI).
//
// The full proposed system. Each day, every broker's workload capacity is
// estimated by its personalized NN-enhanced-UCB bandit (shared base network
// + per-broker fine-tuned last layer). Each batch runs Value Function
// Guided Assignment (Alg. 2): brokers with residual capacity form B₊,
// edge utilities of brokers that frequently exhaust their capacity are
// refined with the TD-learned capacity value function (Eq. 15), and a
// Kuhn–Munkres assignment is solved. With `use_cbs` the Candidate Broker
// Selection optimization (Alg. 3) first prunes the broker side to the
// per-request top-|R| candidates — this is LACB-Opt, which by Theorem 2
// preserves the optimal utility while cutting KM to O(|R|³).

#ifndef LACB_POLICY_LACB_POLICY_H_
#define LACB_POLICY_LACB_POLICY_H_

#include <memory>
#include <string>
#include <vector>

#include "lacb/capacity/personalized_estimator.h"
#include "lacb/common/rng.h"
#include "lacb/la/matrix.h"
#include "lacb/policy/assignment_policy.h"
#include "lacb/policy/value_function.h"

namespace lacb::policy {

/// \brief Configuration of LACB / LACB-Opt.
struct LacbPolicyConfig {
  capacity::PersonalizedEstimatorConfig estimator;
  /// TD learning rate β (paper: 0.25).
  double td_learning_rate = 0.25;
  /// TD discount γ (paper: 0.9).
  double td_discount = 0.9;
  /// Capacity-hit frequency threshold δ (paper: 0.8).
  double capacity_hit_threshold = 0.8;
  /// Days of history required before f_b is trusted against δ: a
  /// frequency over one or two days is a coin flip, and refining on it
  /// steers early assignments with a still-untrained value function.
  size_t min_days_for_hit_frequency = 5;
  /// Largest residual capacity representable in the value table.
  size_t value_table_max = 100;
  /// Enables Candidate Broker Selection (LACB-Opt).
  bool use_cbs = false;
  /// Dummy-pad KM to a square matrix (the paper's O(|B|³) formulation);
  /// LACB-Opt always solves the pruned rectangular instance.
  bool pad_to_square = true;
  /// Ablation switch: disable the Eq. 15 refinement entirely.
  bool use_value_function = true;
  /// Clamp the refinement γV(cr−1) − V(cr) at zero: for a value function
  /// monotone in the residual the term is a non-positive scarcity price,
  /// and clamping bounds mid-training noise. Off by default — Eq. 15 as
  /// printed; available for sensitivity studies.
  bool clamp_refinement = false;
  uint64_t seed = 7;
};

/// \brief The proposed capacity-aware assignment policy.
class LacbPolicy : public AssignmentPolicy {
 public:
  static Result<std::unique_ptr<LacbPolicy>> Create(
      const LacbPolicyConfig& config);

  std::string name() const override {
    return config_.use_cbs ? "LACB-Opt" : "LACB";
  }

  Status Initialize(const sim::Platform& platform) override;
  Status BeginDay(const sim::Platform& platform, size_t day) override;
  Result<std::vector<int64_t>> AssignBatch(const BatchInput& input) override;
  Status EndDay(const sim::DayOutcome& outcome) override;

  /// \brief Today's capacity estimate per broker (after BeginDay).
  const std::vector<double>& capacities() const { return capacity_; }

  /// \brief Replaces today's capacity estimate for one broker (valid
  /// after BeginDay). The scenario engine uses this to install the
  /// cold-start prior on a broker's join day; from the next day on the
  /// bandit estimate takes over again (docs/scenarios.md).
  Status OverrideCapacity(size_t broker, double capacity) {
    if (broker >= capacity_.size()) {
      return Status::OutOfRange("capacity override: unknown broker");
    }
    capacity_[broker] = capacity;
    return Status::OK();
  }

  /// \brief Fraction of past days broker b exhausted its capacity (f_b).
  double CapacityHitFrequency(size_t broker) const;

  const capacity::PersonalizedCapacityEstimator& estimator() const {
    return *estimator_;
  }

  Status SaveState(persist::ByteWriter* w) const override;
  Status LoadState(persist::ByteReader* r) override;

 private:
  LacbPolicy(LacbPolicyConfig config, CapacityValueFunction value_function)
      : config_(std::move(config)),
        value_function_(std::move(value_function)),
        rng_(config_.seed) {}

  LacbPolicyConfig config_;
  std::unique_ptr<capacity::PersonalizedCapacityEstimator> estimator_;
  CapacityValueFunction value_function_;
  Rng rng_;

  std::vector<double> capacity_;       // today's estimates
  std::vector<size_t> capacity_hits_;  // days the broker hit capacity
  size_t days_elapsed_ = 0;

  // AssignBatch's buffers, kept so a served replica (one per worker)
  // allocates none of them per batch once it has seen its widest batch.
  struct BatchScratch {
    std::vector<size_t> eligible;      // B₊ as broker columns
    std::vector<double> column_delta;  // Eq. 15 delta per eligible column
    la::Matrix refined;                // refined eligible columns
    std::vector<size_t> active;        // CBS candidates within `eligible`
    la::Matrix pruned;                 // refined restricted to `active`
  };
  BatchScratch scratch_;
};

}  // namespace lacb::policy

#endif  // LACB_POLICY_LACB_POLICY_H_
