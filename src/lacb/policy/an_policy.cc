#include "lacb/policy/an_policy.h"

#include <limits>

#include "lacb/capacity/personalized_estimator.h"

namespace lacb::policy {

Result<std::unique_ptr<AnPolicy>> AnPolicy::Create(
    const AnPolicyConfig& config) {
  return std::unique_ptr<AnPolicy>(new AnPolicy(config));
}

Status AnPolicy::Initialize(const sim::Platform& platform) {
  // Never personalize and keep no history: every estimate and update goes
  // to the one generic bandit.
  capacity::PersonalizedEstimatorConfig generic;
  generic.bandit = config_.bandit;
  generic.personalization_threshold = std::numeric_limits<size_t>::max();
  generic.history_capacity = 0;
  return InitializeCapacityStage(generic, platform.num_brokers());
}

Result<std::vector<int64_t>> AnPolicy::AssignBatch(const BatchInput& input) {
  const la::Matrix& u = *input.utility;
  const std::vector<double>& w = *input.workloads;
  LACB_ASSIGN_OR_RETURN(const std::vector<double>* capacity,
                        TodaysCapacities(u.cols()));
  std::vector<size_t> eligible;
  for (size_t c = 0; c < u.cols(); ++c) {
    if (w[c] < (*capacity)[c]) eligible.push_back(c);
  }
  return SolveBatchAssignment(u, eligible, config_.pad_to_square,
                              StatsSink(input));
}

}  // namespace lacb::policy
