// ScenarioSpec: the versioned, validated description of one dynamic
// workload scenario (docs/scenarios.md).
//
// A spec composes three orthogonal stressors over a base dataset:
//
//   * broker churn   — scripted events plus seed-driven stochastic rates;
//     joins activate initially-dormant roster slots with a cold-start
//     capacity prior, leaves stop new work cleanly, fails additionally
//     void the broker's in-flight day (value destroyed, conservation
//     intact).
//   * arrival shaping — day-of-week seasonality and intra-day diurnal
//     curves reshape the request schedule; flash-crowd windows and
//     Pareto inter-arrival gaps shape the *pacing* of open-loop load
//     generation (serve::LoadMode::kScenario).
//   * two-sided mode — requests carry budgets and matching limits that
//     the matching layer enforces (matching::TwoSidedExact/Approx).
//
// Specs serialize to versioned JSON (obs::JsonValue) so benches, tests,
// and the cluster driver share one format. A default-constructed spec is
// empty: every consumer treats it as "scenario off" and stays
// byte-identical to the pre-scenario path.

#ifndef LACB_SCENARIO_SPEC_H_
#define LACB_SCENARIO_SPEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "lacb/common/result.h"
#include "lacb/obs/json.h"

namespace lacb::scenario {

/// \brief Kinds of broker churn.
enum class ChurnKind : uint8_t {
  /// An initially-inactive roster slot comes online (cold capacity prior).
  kJoin = 0,
  /// The broker stops accepting new work; today's committed edges stand.
  kLeave = 1,
  /// Hard mid-day failure: like kLeave, plus every edge committed to the
  /// broker today is voided (Platform::RetireBrokerDay).
  kFail = 2,
};

const char* ChurnKindName(ChurnKind k);

/// \brief One scripted churn event.
struct ChurnEvent {
  size_t day = 0;
  /// Number of batch commits into the day after which the event fires;
  /// 0 = at day open.
  size_t batch_offset = 0;
  size_t broker = 0;
  ChurnKind kind = ChurnKind::kLeave;
  /// Cold-start capacity prior for kJoin (0 = median capacity candidate
  /// of the dataset config). Ignored for leave/fail.
  double cold_capacity = 0.0;
};

/// \brief Seed-driven churn rates, expanded deterministically at compile
/// time (CompiledScenario) into concrete events.
struct StochasticChurn {
  /// Expected events per day of each kind (Poisson).
  double join_rate = 0.0;
  double leave_rate = 0.0;
  double fail_rate = 0.0;
  /// Fraction of the roster held initially inactive as the join pool.
  /// Required > 0 when join_rate > 0.
  double join_pool_fraction = 0.0;

  bool Empty() const {
    return join_rate == 0.0 && leave_rate == 0.0 && fail_rate == 0.0 &&
           join_pool_fraction == 0.0;
  }
};

/// \brief One reusable flash-crowd window: within matching days, the
/// pacing rate is multiplied inside [start, start+length) of the day.
struct FlashWindow {
  double start_fraction = 0.0;
  double length_fraction = 0.0;
  double multiplier = 1.0;
  /// Fire on days where day % period == phase; period 0 = every day.
  size_t period = 0;
  size_t phase = 0;
};

/// \brief Arrival-curve shaping.
struct ArrivalShape {
  /// Day-of-week volume multipliers (empty = flat, else exactly 7,
  /// indexed by day % 7). Scales each day's scheduled request count.
  std::vector<double> day_of_week;
  /// Intra-day relative weights (empty = flat). Reweights batch sizes
  /// within each day offline, and the instantaneous pacing rate online.
  std::vector<double> diurnal;
  /// Flash-crowd pacing windows (open-loop load generation only).
  std::vector<FlashWindow> flash;
  /// Pareto tail exponent for inter-arrival gaps in open-loop pacing;
  /// 0 = exponential gaps. Must be > 1 when set (finite mean).
  double pareto_shape = 0.0;

  bool Empty() const {
    return day_of_week.empty() && diurnal.empty() && flash.empty() &&
           pareto_shape == 0.0;
  }
};

/// \brief Matching backend for two-sided mode.
enum class TwoSidedBackend : uint8_t { kExact = 0, kApprox = 1 };

/// \brief Two-sided-capacity workload mode (docs/scenarios.md).
struct TwoSidedSpec {
  bool enabled = false;
  /// Budget tightness in [0, 1): 0 = slack (budgets cover the full
  /// matching limit at maximum broker cost), →1 = only the cheapest
  /// single engagement fits.
  double tightness = 0.0;
  /// Matching limits are drawn per request in [1, max_limit].
  int64_t max_limit = 1;
  TwoSidedBackend backend = TwoSidedBackend::kExact;
};

/// \brief The full scenario description.
struct ScenarioSpec {
  int64_t version = 1;
  /// Master seed for every stochastic element of the scenario (churn
  /// expansion, arrival clones, two-sided parameter draws).
  uint64_t seed = 1;

  std::vector<ChurnEvent> churn;
  StochasticChurn stochastic;
  ArrivalShape arrivals;
  TwoSidedSpec two_sided;

  /// \brief True when the spec changes nothing (the byte-identical gate).
  bool Empty() const {
    return churn.empty() && stochastic.Empty() && arrivals.Empty() &&
           !two_sided.enabled;
  }

  /// \brief Structural validation independent of any dataset.
  Status Validate() const;

  obs::JsonValue ToJson() const;
  static Result<ScenarioSpec> FromJson(const obs::JsonValue& v);

  /// \brief JSON text round-trip (Parse validates).
  std::string Serialize() const;
  static Result<ScenarioSpec> Parse(const std::string& text);
};

}  // namespace lacb::scenario

#endif  // LACB_SCENARIO_SPEC_H_
