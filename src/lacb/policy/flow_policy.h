// FlowPolicy: exact capacity-constrained batch assignment via min-cost
// flow — an *extension* beyond the paper's VFGA.
//
// VFGA lets each broker serve at most one request per batch and relies on
// the value function to ration residual capacity across batches. When
// batches are large relative to broker capacities, the natural exact
// formulation is a transportation problem: each broker is a column with
// arc capacity equal to its *residual daily capacity*, and the batch is
// solved as one min-cost max-flow. This policy implements that formulation
// under the same personalized CapacityStage as LACB, giving the extension
// bench a principled upper-ish baseline for per-batch decisions.

#ifndef LACB_POLICY_FLOW_POLICY_H_
#define LACB_POLICY_FLOW_POLICY_H_

#include <memory>
#include <string>

#include "lacb/capacity/personalized_estimator.h"
#include "lacb/policy/assignment_policy.h"

namespace lacb::policy {

/// \brief Configuration of the flow-based policy.
struct FlowPolicyConfig {
  capacity::PersonalizedEstimatorConfig estimator;
};

/// \brief Min-cost-flow batch assignment under estimated residual
/// capacities (multiple requests per broker per batch allowed).
class FlowPolicy : public AssignmentPolicy {
 public:
  static Result<std::unique_ptr<FlowPolicy>> Create(
      const FlowPolicyConfig& config);

  std::string name() const override { return "Flow"; }

  Status Initialize(const sim::Platform& platform) override;
  Result<std::vector<int64_t>> AssignBatch(const BatchInput& input) override;

 private:
  explicit FlowPolicy(FlowPolicyConfig config) : config_(std::move(config)) {}

  FlowPolicyConfig config_;
};

}  // namespace lacb::policy

#endif  // LACB_POLICY_FLOW_POLICY_H_
