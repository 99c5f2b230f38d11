// Load drivers for the online serving layer.
//
// Two ways to feed an AssignmentService from a platform-generated request
// schedule:
//
//  - Trace replay walks the dataset's day/batch schedule. In *lockstep*
//    mode each scheduled batch is submitted, flushed, and fully drained
//    before the next one — batch edges then coincide exactly with the
//    offline protocol, which is what makes the single-worker determinism
//    gate bit-identical to core::RunPolicy. In *free-run* mode all of a
//    day's requests are pumped as fast as the queue admits them and the
//    micro-batcher's size/deadline limits shape the batches — the
//    saturation mode the throughput bench measures.
//
//  - The open-loop generator submits on the wall clock regardless of
//    downstream progress (arrivals beyond the admission bound are shed —
//    that is the point of open-loop load), each arrival at an absolute
//    deadline so the offered rate is the asked one. Poisson mode draws
//    exponential inter-arrival gaps at a fixed rate; scenario mode
//    modulates that rate with a compiled scenario's pacing curve (diurnal,
//    day-of-week, flash windows) and optional Pareto gaps. A non-positive
//    rate degenerates to free-run pumping.
//
// RunPolicyServed drives a whole run — days opened/closed around the
// chosen load mode — and aggregates the same PolicyRunResult the offline
// engine produces, so benches and tests compare the two paths directly.

#ifndef LACB_SERVE_LOAD_GENERATOR_H_
#define LACB_SERVE_LOAD_GENERATOR_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "lacb/core/engine.h"
#include "lacb/serve/service.h"

namespace lacb::serve {

/// \brief How a run's requests reach the service.
enum class LoadMode {
  kLockstepReplay,  ///< Batch-by-batch, drained between scheduled batches.
  kFreeRunReplay,   ///< Pump each day as fast as admission allows.
  kPoisson,         ///< Open-loop Poisson arrivals at `poisson_rate`.
  kScenario,        ///< Open-loop arrivals at `poisson_rate` modulated
                    ///< by the compiled scenario's pacing curve (diurnal ×
                    ///< day-of-week × flash windows) with the spec's
                    ///< Pareto tail; requires ServeOptions::scenario
                    ///< (docs/scenarios.md).
};

/// \brief Options of a served run.
struct ServedRunOptions {
  ServeOptions serve;
  LoadMode mode = LoadMode::kLockstepReplay;
  /// Mean arrivals per second of the open-loop modes (LoadMode::kPoisson,
  /// and the base rate kScenario modulates); <= 0 pumps with no pacing
  /// (saturation).
  double poisson_rate = 0.0;
  /// Seed of the open-loop arrival clock (independent of the dataset seed).
  uint64_t poisson_seed = 1234;
  /// Wall-clock cadence of time-series samples over the run's registry
  /// (queue depth, carryover, shed, ... — see sample_instruments); zero
  /// disables sampling. The series lands in the result's
  /// RunTelemetry::series.
  std::chrono::milliseconds sample_interval{0};
  /// Instrument selection for the sampler; empty samples every counter
  /// and gauge.
  std::vector<std::string> sample_instruments;
  /// Optional event-timeline recorder (not owned): installed for the
  /// driving thread and forwarded by the service to its batcher/worker
  /// threads, so one request is traceable across the pipeline and every
  /// span (serve.batch, km_solve, ...) shows up as a slice. For a
  /// flamegraph, pass the result's RunTelemetry::spans to
  /// obs::WriteFoldedStacks.
  obs::EventRecorder* recorder = nullptr;
};

/// \brief Submits day `day` of the service's request schedule in the given
/// mode (the day must already be open). Lockstep flushes + drains per
/// scheduled batch; the other modes only submit.
Status PumpDay(AssignmentService* service, size_t day, const ServedRunOptions&
               options);

/// \brief Runs `factory`'s policy over `config` through the online serving
/// path and aggregates the offline engine's PolicyRunResult (plus the
/// serve-only fields: shed_requests, p99_batch_latency, and the serve.*
/// telemetry instruments).
Result<core::PolicyRunResult> RunPolicyServed(
    const sim::DatasetConfig& config, const policy::PolicyFactory& factory,
    const ServedRunOptions& options);

}  // namespace lacb::serve

#endif  // LACB_SERVE_LOAD_GENERATOR_H_
