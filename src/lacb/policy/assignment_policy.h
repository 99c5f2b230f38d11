// AssignmentPolicy: the interface every compared algorithm implements.
//
// The engine (lacb::core) drives a policy through the platform's day/batch
// protocol: Initialize once, BeginDay before each day's batches, AssignBatch
// per batch, EndDay with the platform's feedback (trial triples). Policies
// see only what the production system would see — predicted utilities,
// observable broker contexts, workload counters, and sign-up feedback —
// never the simulator's latent ground truth.

#ifndef LACB_POLICY_ASSIGNMENT_POLICY_H_
#define LACB_POLICY_ASSIGNMENT_POLICY_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "lacb/common/result.h"
#include "lacb/la/matrix.h"
#include "lacb/matching/solve_stats.h"
#include "lacb/persist/bytes.h"
#include "lacb/sim/platform.h"

namespace lacb::capacity {
struct PersonalizedEstimatorConfig;
}  // namespace lacb::capacity

namespace lacb::policy {

class CapacityStage;

/// \brief Everything a policy may inspect when assigning one batch.
struct BatchInput {
  /// Requests of this batch.
  const std::vector<sim::Request>* requests = nullptr;
  /// Predicted utility u_{r,b}, |requests| × |all brokers|.
  const la::Matrix* utility = nullptr;
  /// Requests served so far today, per broker.
  const std::vector<double>* workloads = nullptr;
  size_t day = 0;
  size_t batch = 0;
  /// When set, the policy records solver introspection for this batch,
  /// readable via AssignmentPolicy::last_solve_stats() until the next
  /// AssignBatch call. Off by default (no extra clock reads in solvers).
  bool collect_solve_stats = false;
};

/// \brief Base class of all assignment/recommendation algorithms.
class AssignmentPolicy {
 public:
  virtual ~AssignmentPolicy() = default;

  virtual std::string name() const = 0;

  /// \brief One-time setup with read-only access to the broker roster.
  virtual Status Initialize(const sim::Platform& platform) {
    (void)platform;
    return Status::OK();
  }

  /// \brief Day preamble. The default, like EndDay, SaveState and
  /// LoadState, drives the capacity stage this policy built, if any.
  virtual Status BeginDay(const sim::Platform& platform, size_t day);

  /// \brief Returns assignment[i] = broker index (or -1) per request.
  virtual Result<std::vector<int64_t>> AssignBatch(const BatchInput& input) = 0;

  /// \brief Day epilogue with the platform's feedback.
  virtual Status EndDay(const sim::DayOutcome& outcome);

  /// \brief Serializes all mutable policy state (bandit posteriors, value
  /// tables, RNG streams) for checkpointing. LoadState must restore a
  /// policy created from the same configuration bit-exactly.
  virtual Status SaveState(persist::ByteWriter* w) const;
  virtual Status LoadState(persist::ByteReader* r);

  /// \brief Solver introspection for the most recent AssignBatch, or null
  /// when the batch did not request stats (or the policy runs no solver).
  const matching::SolveStats* last_solve_stats() const {
    return solve_stats_valid_ ? &solve_stats_ : nullptr;
  }

  /// \brief The capacity stage (Sec. V) this policy assigns under; null for
  /// a capacity-oblivious policy or before Initialize.
  CapacityStage* capacity_stage() const { return capacity_stage_.get(); }

  /// \brief Call before Initialize: this policy then assigns under the
  /// initialized `lead`'s stage, which only `lead` trains and saves.
  void ShareCapacityStageOf(const AssignmentPolicy& lead) {
    capacity_stage_ = lead.capacity_stage_;
    builds_capacity_stage_ = false;
  }

 protected:
  /// \brief A capacity-estimating policy's Initialize builds its stage.
  Status InitializeCapacityStage(
      const capacity::PersonalizedEstimatorConfig& config, size_t num_brokers);

  /// \brief Today's capacities; FailedPrecondition until a day over
  /// `num_brokers` brokers has begun.
  Result<const std::vector<double>*> TodaysCapacities(size_t num_brokers) const;

  /// \brief Policies call this at the top of AssignBatch: resets the
  /// per-batch record and returns the stats sink to thread into solver
  /// calls (null when the batch did not opt in).
  matching::SolveStats* StatsSink(const BatchInput& input) {
    solve_stats_valid_ = input.collect_solve_stats;
    solve_stats_ = matching::SolveStats{};
    return solve_stats_valid_ ? &solve_stats_ : nullptr;
  }

 private:
  matching::SolveStats solve_stats_;
  bool solve_stats_valid_ = false;
  std::shared_ptr<CapacityStage> capacity_stage_;
  bool builds_capacity_stage_ = true;  // false once ShareCapacityStageOf ran
  CapacityStage* built_stage() const {
    return builds_capacity_stage_ ? capacity_stage_.get() : nullptr;
  }
};

/// \brief Builds fresh, identically-configured policy instances on demand.
///
/// The online serving layer gives each assignment worker its own replica
/// (policies carry mutable per-batch state — bandit posteriors, RNG
/// streams — so sharing one instance across threads would race); a factory
/// captures the full configuration so every replica starts bit-identical.
using PolicyFactory =
    std::function<Result<std::unique_ptr<AssignmentPolicy>>()>;

/// \brief Shared KM helper: maximum-weight assignment of requests (rows) to
/// the broker columns listed in `eligible`.
///
/// When `pad_to_square` is set, the weight matrix is dummy-padded to
/// |eligible|×|eligible| before solving — faithful to the paper's KM
/// implementation and its O(|B|³) behaviour; otherwise the rectangular
/// solver runs directly. If fewer eligible brokers than requests exist, the
/// surplus requests stay unassigned (prefix order).
Result<std::vector<int64_t>> SolveBatchAssignment(
    const la::Matrix& utility, const std::vector<size_t>& eligible,
    bool pad_to_square, matching::SolveStats* stats = nullptr);

}  // namespace lacb::policy

#endif  // LACB_POLICY_ASSIGNMENT_POLICY_H_
