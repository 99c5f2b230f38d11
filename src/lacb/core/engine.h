// Engine: runs one assignment policy through a simulated matching instance
// and collects the metrics every paper figure is built from.
//
// A fresh Platform is created per run from the dataset configuration, so
// every compared policy faces the *same* brokers, requests, and ground
// truth (paired comparison). Timing covers policy compute only (BeginDay +
// AssignBatch), mirroring the paper's "running time" axis which measures
// the assignment algorithms, not the environment.

#ifndef LACB_CORE_ENGINE_H_
#define LACB_CORE_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "lacb/obs/snapshot.h"
#include "lacb/policy/assignment_policy.h"
#include "lacb/sim/dataset.h"
#include "lacb/sim/platform.h"

namespace lacb::core {

/// \brief Everything measured over one policy × dataset run.
struct PolicyRunResult {
  std::string policy;
  std::string dataset;

  /// Σ realized utility (u_{r,b} × quality at the broker's daily workload).
  double total_utility = 0.0;
  /// Policy compute time (seconds) across the whole horizon.
  double policy_seconds = 0.0;

  /// Per-day series (cumulative forms are derived by benches).
  std::vector<double> daily_utility;
  std::vector<double> daily_policy_seconds;

  /// Per-broker aggregates over the horizon.
  std::vector<double> broker_utility;
  std::vector<double> broker_requests;       // total served
  std::vector<double> broker_peak_workload;  // max daily workload
  std::vector<double> broker_mean_workload;  // mean daily workload

  /// Broker-days on which the daily workload exceeded the broker's latent
  /// capacity knee (ground-truth overload count; evaluation-only metric).
  size_t overloaded_broker_days = 0;
  /// Σ over broker-days of max(0, workload − latent knee): overload
  /// *severity*, which separates one broker being buried (top-k) from many
  /// brokers being nudged slightly past their knees.
  double overload_excess = 0.0;
  size_t total_appeals = 0;

  /// Serving-path summary (zero for offline engine runs): requests refused
  /// at admission control, and the p99 of per-batch assignment latency in
  /// seconds. Populated by serve::RunPolicyServed so BenchTelemetryLog
  /// serializes offline and served runs uniformly.
  size_t shed_requests = 0;
  double p99_batch_latency = 0.0;
  /// Fault-tolerance ledger of a served run (zero offline): batches that
  /// fell back to the greedy degradation solve, and requests whose commit
  /// exhausted its retry budget (see docs/robustness.md).
  size_t degraded_batches = 0;
  size_t failed_requests = 0;

  /// Structured run telemetry: metrics + span tree collected while this
  /// run executed (see docs/observability.md). Always set by
  /// core::RunPolicy and serve::RunPolicyServed. Shared so copies of the
  /// result stay cheap.
  std::shared_ptr<const obs::RunTelemetry> telemetry;
};

/// \brief Runs `policy` over a fresh instance of `config`.
Result<PolicyRunResult> RunPolicy(const sim::DatasetConfig& config,
                                  policy::AssignmentPolicy* policy);

}  // namespace lacb::core

#endif  // LACB_CORE_ENGINE_H_
