// AN baseline: "Assignment with NeuralUCB" (paper Sec. VII-A).
//
// A single generic NeuralUCB bandit (Zhou et al.) estimates one capacity
// per broker per day from the broker's context; each batch is then solved
// by capacity-filtered KM. No personalization, no value function — this
// isolates what plain neural-bandit capacity estimation buys. The bandit
// runs as LACB's CapacityStage with personalization switched off.

#ifndef LACB_POLICY_AN_POLICY_H_
#define LACB_POLICY_AN_POLICY_H_

#include <memory>
#include <string>

#include "lacb/bandit/neural_ucb.h"
#include "lacb/policy/assignment_policy.h"

namespace lacb::policy {

/// \brief Configuration of the AN baseline.
struct AnPolicyConfig {
  bandit::NeuralUcbConfig bandit;
  /// Keep the paper's padded O(|B|³) KM formulation.
  bool pad_to_square = true;
};

/// \brief NeuralUCB capacity estimation + per-batch KM.
class AnPolicy : public AssignmentPolicy {
 public:
  static Result<std::unique_ptr<AnPolicy>> Create(const AnPolicyConfig& config);

  std::string name() const override { return "AN"; }

  Status Initialize(const sim::Platform& platform) override;
  Result<std::vector<int64_t>> AssignBatch(const BatchInput& input) override;

 private:
  explicit AnPolicy(AnPolicyConfig config) : config_(std::move(config)) {}

  AnPolicyConfig config_;
};

}  // namespace lacb::policy

#endif  // LACB_POLICY_AN_POLICY_H_
