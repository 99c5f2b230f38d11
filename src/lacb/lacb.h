// Umbrella header: the full public API of the LACB library.
//
// LACB reproduces "Towards Capacity-Aware Broker Matching: From
// Recommendation to Assignment" (ICDE 2023). Typical use:
//
//   #include "lacb/lacb.h"
//
//   lacb::sim::DatasetConfig data = lacb::sim::SyntheticDefault();
//   lacb::core::PolicySuiteConfig suite;
//   auto policy = lacb::policy::LacbPolicy::Create(
//       lacb::core::DefaultLacbConfig(data, suite, /*use_cbs=*/true));
//   auto run = lacb::core::RunPolicy(data, policy.value().get());
//   std::cout << run->total_utility << "\n";

#ifndef LACB_LACB_H_
#define LACB_LACB_H_

#include "lacb/bandit/contextual_bandit.h"
#include "lacb/bandit/eps_greedy.h"
#include "lacb/bandit/lin_ucb.h"
#include "lacb/bandit/neural_ucb.h"
#include "lacb/bandit/thompson.h"
#include "lacb/capacity/personalized_estimator.h"
#include "lacb/common/discrete_sampler.h"
#include "lacb/common/logging.h"
#include "lacb/common/result.h"
#include "lacb/common/rng.h"
#include "lacb/common/status.h"
#include "lacb/common/stopwatch.h"
#include "lacb/common/table_printer.h"
#include "lacb/core/engine.h"
#include "lacb/gbdt/booster.h"
#include "lacb/gbdt/tree.h"
#include "lacb/core/metrics.h"
#include "lacb/core/policy_suite.h"
#include "lacb/la/linalg.h"
#include "lacb/la/matrix.h"
#include "lacb/matching/assignment.h"
#include "lacb/matching/min_cost_flow.h"
#include "lacb/matching/selection.h"
#include "lacb/matching/two_sided.h"
#include "lacb/nn/mlp.h"
#include "lacb/nn/optimizer.h"
#include "lacb/obs/obs.h"
#include "lacb/policy/an_policy.h"
#include "lacb/policy/assignment_policy.h"
#include "lacb/policy/capacity_stage.h"
#include "lacb/policy/flow_policy.h"
#include "lacb/policy/greedy_policy.h"
#include "lacb/policy/km_policy.h"
#include "lacb/policy/lacb_policy.h"
#include "lacb/policy/recommendation.h"
#include "lacb/policy/value_function.h"
#include "lacb/scenario/engine.h"
#include "lacb/scenario/runner.h"
#include "lacb/scenario/spec.h"
#include "lacb/serve/serve.h"
#include "lacb/sim/broker.h"
#include "lacb/sim/dataset.h"
#include "lacb/sim/platform.h"
#include "lacb/sim/learned_utility.h"
#include "lacb/sim/request.h"
#include "lacb/sim/signup_model.h"
#include "lacb/sim/trace_io.h"
#include "lacb/sim/utility_model.h"
#include "lacb/stats/descriptive.h"
#include "lacb/stats/correlation.h"
#include "lacb/stats/hypothesis.h"
#include "lacb/stats/kde.h"

#endif  // LACB_LACB_H_
