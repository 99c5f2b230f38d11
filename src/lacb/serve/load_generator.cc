#include "lacb/serve/load_generator.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>
#include <utility>

#include "lacb/common/rng.h"
#include "lacb/common/stopwatch.h"
#include "lacb/obs/obs.h"

namespace lacb::serve {

namespace {

Status PumpLockstep(AssignmentService* service,
                    const std::vector<std::vector<sim::Request>>& batches) {
  for (const std::vector<sim::Request>& batch : batches) {
    for (const sim::Request& r : batch) {
      if (!service->Submit(r)) {
        // Lockstep replay exists to mirror the offline protocol exactly;
        // shedding would silently change the instance.
        return Status::FailedPrecondition(
            "lockstep replay shed a request; raise queue_capacity above "
            "the scheduled batch size");
      }
    }
    service->Flush();
    LACB_RETURN_NOT_OK(service->WaitIdle());
    // Quiesce point: the service is idle between lockstep batches, so a
    // mid-day interval checkpoint (when enabled) can snapshot here.
    LACB_RETURN_NOT_OK(service->MaybeCheckpoint());
  }
  return Status::OK();
}

Status PumpFreeRun(AssignmentService* service,
                   const std::vector<std::vector<sim::Request>>& batches) {
  for (const std::vector<sim::Request>& batch : batches) {
    for (const sim::Request& r : batch) {
      service->Submit(r);  // shed arrivals are counted by the service
    }
  }
  return Status::OK();
}

// Open-loop arrivals at `poisson_rate`. With a scenario, its pacing
// multiplier (mean-normalized diurnal curve × day-of-week scale × every
// active flash window) modulates the rate per arrival slot and the spec's
// Pareto tail exponent (> 1) switches the gaps heavy-tailed; without one
// the gaps are exponential at the plain rate. Pacing uses absolute
// deadlines (sleep_until against an accumulated schedule): a relative
// sleep_for per arrival adds up every wakeup's overshoot and delivers well
// under the asked rate.
Status PumpOpenLoop(AssignmentService* service,
                    const std::vector<std::vector<sim::Request>>& batches,
                    size_t day, const ServedRunOptions& options,
                    const scenario::CompiledScenario* sc) {
  if (options.poisson_rate <= 0.0) return PumpFreeRun(service, batches);
  size_t total = 0;
  for (const std::vector<sim::Request>& batch : batches) {
    total += batch.size();
  }
  // Per-day fork: the arrival clock is deterministic and independent of
  // how many arrivals earlier days consumed.
  Rng rng = Rng(options.poisson_seed).Fork(day);
  const double pareto = sc != nullptr ? sc->ParetoShape() : 0.0;
  auto deadline = std::chrono::steady_clock::now();
  size_t index = 0;
  for (const std::vector<sim::Request>& batch : batches) {
    for (const sim::Request& r : batch) {
      const double mult =
          sc != nullptr
              ? std::max(1e-9, sc->PacingMultiplier(day, index, total))
              : 1.0;
      const double mean_gap = 1.0 / (options.poisson_rate * mult);
      double u = rng.Uniform();
      if (u < 1e-12) u = 1e-12;
      double gap;
      if (pareto > 1.0) {
        // Pareto via inverse CDF, scale chosen so the mean matches the
        // exponential gap: E[gap] = xm·a/(a−1) = mean_gap.
        const double a = pareto;
        const double xm = mean_gap * (a - 1.0) / a;
        gap = xm * std::pow(u, -1.0 / a);
      } else {
        // Exponential inter-arrival gap via inverse CDF.
        gap = -mean_gap * std::log(u);
      }
      deadline += std::chrono::duration_cast<
          std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(gap));
      std::this_thread::sleep_until(deadline);
      service->Submit(r);  // open-loop: shed when admission refuses
      ++index;
    }
  }
  return Status::OK();
}

}  // namespace

Status PumpDay(AssignmentService* service, size_t day,
               const ServedRunOptions& options) {
  if (service == nullptr) {
    return Status::InvalidArgument("PumpDay requires a service");
  }
  const auto& schedule = service->platform().all_requests();
  if (day >= schedule.size()) {
    return Status::OutOfRange("day beyond dataset horizon");
  }
  switch (options.mode) {
    case LoadMode::kLockstepReplay:
      return PumpLockstep(service, schedule[day]);
    case LoadMode::kFreeRunReplay:
      return PumpFreeRun(service, schedule[day]);
    case LoadMode::kPoisson:
      return PumpOpenLoop(service, schedule[day], day, options, nullptr);
    case LoadMode::kScenario:
      if (options.serve.scenario == nullptr) {
        return Status::InvalidArgument(
            "LoadMode::kScenario requires ServeOptions::scenario");
      }
      return PumpOpenLoop(service, schedule[day], day, options,
                          options.serve.scenario.get());
  }
  return Status::Internal("unknown load mode");
}

Result<core::PolicyRunResult> RunPolicyServed(
    const sim::DatasetConfig& config, const policy::PolicyFactory& factory,
    const ServedRunOptions& options) {
  // Same run-scoped collection pattern as core::RunPolicy: everything the
  // service and its worker threads record lands in this context.
  obs::ScopedTelemetry telemetry;
  obs::ScopedContextAdoption record(&telemetry.registry(), &telemetry.tracer(),
                                    options.recorder);

  LACB_ASSIGN_OR_RETURN(std::unique_ptr<AssignmentService> service,
                        AssignmentService::Create(config, factory, options.serve));
  LACB_RETURN_NOT_OK(service->Start());

  // Wall-clock sampling of the run's registry (the sampling thread holds a
  // pointer to the run-scoped registry, which outlives it).
  std::unique_ptr<obs::TimeSeriesSampler> sampler;
  if (options.sample_interval.count() > 0) {
    obs::TimeSeriesSampler::Options sampler_opts;
    sampler_opts.instruments = options.sample_instruments;
    sampler_opts.time_unit = "seconds";
    sampler = std::make_unique<obs::TimeSeriesSampler>(std::move(sampler_opts));
    LACB_RETURN_NOT_OK(sampler->StartPeriodic(options.sample_interval));
  }

  const sim::Platform& platform = service->platform();
  core::PolicyRunResult result;
  result.policy = service->policy_name();
  result.dataset = config.name;
  size_t n = platform.num_brokers();
  result.broker_utility.assign(n, 0.0);
  result.broker_requests.assign(n, 0.0);
  result.broker_peak_workload.assign(n, 0.0);
  result.broker_mean_workload.assign(n, 0.0);

  size_t days = platform.num_days();
  double assign_seconds_before = 0.0;
  for (size_t day = 0; day < days; ++day) {
    LACB_TRACE_SPAN("serve.day");
    LACB_RETURN_NOT_OK(service->OpenDay(day));
    LACB_RETURN_NOT_OK(PumpDay(service.get(), day, options));
    LACB_ASSIGN_OR_RETURN(sim::DayOutcome outcome, service->CloseDay());

    double assign_seconds_now = service->Stats().assign_seconds;
    double policy_time = service->day_boundary_seconds() +
                         (assign_seconds_now - assign_seconds_before);
    assign_seconds_before = assign_seconds_now;

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
  }
  double d = static_cast<double>(std::max<size_t>(1, days));
  for (size_t b = 0; b < n; ++b) {
    result.broker_mean_workload[b] = result.broker_requests[b] / d;
  }

  ServeStats stats = service->Stats();
  result.shed_requests = stats.shed;
  result.degraded_batches = stats.degraded_batches;
  result.failed_requests = stats.failed;
  service->Shutdown();
  if (sampler != nullptr) sampler->StopPeriodic();

  obs::MetricsSnapshot metrics = telemetry.registry().Snapshot();
  auto latency = metrics.histograms.find("serve.batch_assign_seconds");
  if (latency != metrics.histograms.end()) {
    result.p99_batch_latency = latency->second.p99;
  }

  std::map<std::string, std::string> meta;
  meta["policy"] = result.policy;
  meta["dataset"] = result.dataset;
  meta["path"] = "serve";
  meta["num_brokers"] = std::to_string(n);
  meta["num_days"] = std::to_string(days);
  meta["num_workers"] = std::to_string(options.serve.num_workers);
  meta["policy_seconds"] = std::to_string(result.policy_seconds);
  meta["degraded_batches"] = std::to_string(stats.degraded_batches);
  meta["failed_requests"] = std::to_string(stats.failed);
  obs::RunTelemetry captured = obs::CaptureRun(
      telemetry.registry(), telemetry.tracer(), std::move(meta));
  if (sampler != nullptr) captured.series = sampler->Series();
  result.telemetry = std::make_shared<obs::RunTelemetry>(std::move(captured));
  return result;
}

}  // namespace lacb::serve
