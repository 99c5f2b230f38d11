#include "lacb/core/engine.h"

#include <algorithm>
#include <cmath>

#include "lacb/common/stopwatch.h"
#include "lacb/core/metrics.h"
#include "lacb/matching/assignment.h"
#include "lacb/obs/obs.h"
#include "lacb/policy/capacity_stage.h"

namespace lacb::core {

Result<PolicyRunResult> RunPolicy(const sim::DatasetConfig& config,
                                  policy::AssignmentPolicy* policy) {
  if (policy == nullptr) {
    return Status::InvalidArgument("RunPolicy requires a policy");
  }
  // Every instrumented call site below this frame (policy, matching,
  // bandit layers) writes into this run-scoped context, so the captured
  // snapshot covers exactly one policy × dataset run.
  obs::ScopedTelemetry telemetry;
  obs::Counter& batches_counter =
      telemetry.registry().GetCounter("engine.batches");
  obs::Counter& requests_counter =
      telemetry.registry().GetCounter("engine.requests");
  obs::Counter& assigned_counter =
      telemetry.registry().GetCounter("engine.assigned_requests");
  obs::Histogram& batch_latency =
      telemetry.registry().GetHistogram("engine.batch_assign_seconds");

  LACB_ASSIGN_OR_RETURN(sim::Platform platform, sim::Platform::Create(config));

  PolicyRunResult result;
  result.policy = policy->name();
  result.dataset = config.name;
  size_t n = platform.num_brokers();
  result.broker_utility.assign(n, 0.0);
  result.broker_requests.assign(n, 0.0);
  result.broker_peak_workload.assign(n, 0.0);
  result.broker_mean_workload.assign(n, 0.0);

  LACB_RETURN_NOT_OK(policy->Initialize(platform));

  size_t days = platform.num_days();
  for (size_t day = 0; day < days; ++day) {
    LACB_TRACE_SPAN("day");
    {
      LACB_TRACE_SPAN("env_step");
      LACB_RETURN_NOT_OK(platform.StartDay(day));
    }
    double policy_time = 0.0;

    {
      LACB_TRACE_SPAN("policy_begin_day");
      Stopwatch sw;
      LACB_RETURN_NOT_OK(policy->BeginDay(platform, day));
      policy_time += sw.ElapsedSeconds();
    }

    size_t batches = platform.NumBatchesToday();
    batches_counter.Increment(batches);
    for (size_t batch = 0; batch < batches; ++batch) {
      std::vector<sim::Request> requests;
      la::Matrix utility;
      {
        LACB_TRACE_SPAN("env_step");
        LACB_ASSIGN_OR_RETURN(requests, platform.BatchRequests(batch));
        LACB_ASSIGN_OR_RETURN(utility, platform.BatchUtility(batch));
      }
      policy::BatchInput input;
      input.requests = &requests;
      input.utility = &utility;
      input.workloads = &platform.workloads_today();
      input.day = day;
      input.batch = batch;
      requests_counter.Increment(requests.size());

      std::vector<int64_t> assignment;
      {
        LACB_TRACE_SPAN("assign_batch");
        Stopwatch sw;
        LACB_ASSIGN_OR_RETURN(assignment, policy->AssignBatch(input));
        double elapsed = sw.ElapsedSeconds();
        policy_time += elapsed;
        batch_latency.Record(elapsed);
      }
      for (int64_t a : assignment) {
        if (a != matching::kUnmatched) assigned_counter.Increment();
      }

      {
        LACB_TRACE_SPAN("env_step");
        LACB_RETURN_NOT_OK(platform.CommitAssignment(batch, assignment));
      }
    }

    sim::DayOutcome outcome;
    {
      LACB_TRACE_SPAN("env_step");
      LACB_ASSIGN_OR_RETURN(outcome, platform.EndDay());
    }
    {
      LACB_TRACE_SPAN("policy_end_day");
      Stopwatch sw;
      LACB_RETURN_NOT_OK(policy->EndDay(outcome));
      policy_time += sw.ElapsedSeconds();
    }

    result.daily_utility.push_back(outcome.realized_utility);
    result.daily_policy_seconds.push_back(policy_time);
    result.total_utility += outcome.realized_utility;
    result.policy_seconds += policy_time;
    result.total_appeals += outcome.appeals;
    for (size_t b = 0; b < n; ++b) {
      result.broker_utility[b] += outcome.per_broker_utility[b];
      double w = outcome.per_broker_workload[b];
      result.broker_requests[b] += w;
      result.broker_peak_workload[b] =
          std::max(result.broker_peak_workload[b], w);
      double knee = platform.brokers()[b].latent.true_capacity;
      if (w > knee) {
        ++result.overloaded_broker_days;
        result.overload_excess += w - knee;
      }
    }

    // Per-day trajectory gauges (the end-of-run snapshot keeps the final
    // day's value): realized utility, overload concentration (Gini) and,
    // for capacity-aware policies, capacity-estimate error against truth.
    obs::MetricRegistry& reg = telemetry.registry();
    reg.GetGauge("engine.day_utility").Set(outcome.realized_utility);
    reg.GetGauge("engine.workload_gini")
        .Set(GiniCoefficient(outcome.per_broker_workload));
    if (const policy::CapacityStage* stage = policy->capacity_stage();
        stage != nullptr && stage->capacities().size() == n) {
      reg.GetGauge("engine.capacity_mae")
          .Set(stage->MeanAbsoluteError(platform));
    }
  }
  double d = static_cast<double>(std::max<size_t>(1, days));
  for (size_t b = 0; b < n; ++b) {
    result.broker_mean_workload[b] = result.broker_requests[b] / d;
  }

  std::map<std::string, std::string> meta;
  meta["policy"] = result.policy;
  meta["dataset"] = result.dataset;
  meta["num_brokers"] = std::to_string(platform.num_brokers());
  meta["num_days"] = std::to_string(days);
  meta["policy_seconds"] = std::to_string(result.policy_seconds);
  result.telemetry = std::make_shared<obs::RunTelemetry>(obs::CaptureRun(
      telemetry.registry(), telemetry.tracer(), std::move(meta)));
  return result;
}

}  // namespace lacb::core
