// CapacityStage: LACB's capacity-estimation module (paper Sec. V), run once
// a day; assignment (Sec. VI) reads its capacities batch after batch. LACB,
// AN and Flow each assign under one; served replicas share the lead's.

#ifndef LACB_POLICY_CAPACITY_STAGE_H_
#define LACB_POLICY_CAPACITY_STAGE_H_

#include <utility>
#include <vector>

#include "lacb/capacity/personalized_estimator.h"
#include "lacb/common/result.h"
#include "lacb/persist/bytes.h"
#include "lacb/sim/platform.h"

namespace lacb::policy {

/// \brief Daily capacity estimates per broker and the estimator behind
/// them. Written only at day boundaries, when no batch is in flight, so
/// assignment threads may read capacities() concurrently during the day.
class CapacityStage {
 public:
  explicit CapacityStage(capacity::PersonalizedCapacityEstimator estimator)
      : estimator_(std::move(estimator)) {}

  /// \brief B_b.estimate(x) for every broker: today's capacities.
  Status BeginDay(const sim::Platform& platform);

  /// \brief Counts the brokers whose workload reached today's capacity and
  /// feeds every trial with a positive workload to the estimator.
  Status EndDay(const sim::DayOutcome& outcome);

  /// \brief Today's capacity estimate per broker (after BeginDay).
  const std::vector<double>& capacities() const { return capacities_; }

  /// \brief Replaces today's estimate for one broker (valid after
  /// BeginDay). The scenario engine installs the cold-start prior on a
  /// broker's join day with it; the next BeginDay re-estimates.
  Status OverrideCapacity(size_t broker, double capacity);

  /// \brief Days on which each broker's workload reached its capacity.
  const std::vector<size_t>& capacity_hits() const { return capacity_hits_; }
  /// \brief Days closed by EndDay so far.
  size_t days_elapsed() const { return days_elapsed_; }

  /// \brief Mean |estimate − latent true capacity| over the roster
  /// (telemetry only: the simulator's truth never reaches a policy).
  double MeanAbsoluteError(const sim::Platform& platform) const;

  Status SaveState(persist::ByteWriter* w) const;
  Status LoadState(persist::ByteReader* r);

 private:
  capacity::PersonalizedCapacityEstimator estimator_;
  std::vector<double> capacities_;     // today's estimates
  std::vector<size_t> capacity_hits_;  // days the broker hit capacity
  size_t days_elapsed_ = 0;
};

}  // namespace lacb::policy

#endif  // LACB_POLICY_CAPACITY_STAGE_H_
