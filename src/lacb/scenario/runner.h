// RunPolicyScenario: the offline engine loop under a compiled scenario.
//
// Mirrors core::RunPolicy through the platform's *external-day* protocol
// (StartDayExternal + CommitExternalBatch), which draws the identical RNG
// stream for identical batch compositions — so with an empty scenario the
// result is bit-identical to core::RunPolicy (gated in scenario_test).
// On top of that loop it applies the three scenario stressors:
//
//   * churn — the compiled timeline is applied at batch boundaries:
//     joins activate dormant roster slots (cold capacity prior installed
//     into the policy's CapacityStage), leaves deactivate, fails also void
//     the broker's in-flight day. Inactive brokers are steered away from
//     (workload pinned huge in the policy's view) and sanitized out of
//     returned assignments (counted as churn_rejected, terminally
//     unmatched — the conservation identity is preserved).
//   * arrival shaping — the schedule is reshaped before the run.
//   * two-sided mode — the per-batch assignment comes from the
//     matching::TwoSided* backends instead of the policy's AssignBatch
//     (budgets/limits derived per request from the spec seed); every
//     batch is re-checked by CheckTwoSidedFeasible. Requires
//     appeal_rate == 0 (engagement edges cannot re-queue).

#ifndef LACB_SCENARIO_RUNNER_H_
#define LACB_SCENARIO_RUNNER_H_

#include <cstddef>

#include "lacb/core/engine.h"
#include "lacb/policy/assignment_policy.h"
#include "lacb/scenario/engine.h"
#include "lacb/sim/dataset.h"

namespace lacb::scenario {

/// \brief Request-conservation ledger of one scenario run:
/// submitted == assigned + unmatched + dropped_appeals.
struct ScenarioLedger {
  /// Scheduled arrivals after shaping (appeal re-queues not re-counted).
  size_t submitted = 0;
  /// Requests with a surviving committed edge (two-sided: ≥ 1 edge).
  size_t assigned = 0;
  /// Terminally unmatched requests (includes churn_rejected).
  size_t unmatched = 0;
  /// Appeals still pending when the horizon ended.
  size_t dropped_appeals = 0;
  /// Assignments voided because the target broker had churned away
  /// (a subset of `unmatched`).
  size_t churn_rejected = 0;
  /// Two-sided engagement edges beyond each request's primary one
  /// (value-bearing, but not part of the request count identity).
  size_t extra_assigned = 0;

  bool ConservationHolds() const {
    return submitted == assigned + unmatched + dropped_appeals;
  }
};

/// \brief Everything measured over one scenario run.
struct ScenarioRunResult {
  core::PolicyRunResult run;
  ScenarioLedger ledger;
  /// Churn events actually applied (repeat hits on departed brokers and
  /// joins of already-active brokers are no-ops and not counted).
  size_t churn_applied = 0;
  /// Two-sided batches whose solution failed CheckTwoSidedFeasible
  /// (always 0; re-checked per batch and exported by bench_scenario).
  size_t feasibility_violations = 0;
};

/// \brief Runs `policy` over `config` under `scenario`.
Result<ScenarioRunResult> RunPolicyScenario(const sim::DatasetConfig& config,
                                            policy::AssignmentPolicy* policy,
                                            const CompiledScenario& scenario);

}  // namespace lacb::scenario

#endif  // LACB_SCENARIO_RUNNER_H_
