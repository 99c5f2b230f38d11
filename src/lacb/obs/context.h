// Telemetry context: which registry/tracer instrumented call sites write
// to, and the RAII guard that scopes a fresh pair to one run.
//
// Call sites (engine, policies, matching, bandits) never hold a registry —
// they ask for ActiveRegistry()/ActiveTracer() at the point of the event.
// By default both resolve to process-lifetime singletons; RunPolicy
// installs a ScopedTelemetry so each policy run collects into its own
// instruments and the captured snapshot is per-run, not cumulative. The
// active pointers are thread-local: a future parallel runner installs one
// context per worker thread and runs do not bleed into each other.

#ifndef LACB_OBS_CONTEXT_H_
#define LACB_OBS_CONTEXT_H_

#include <memory>

#include "lacb/obs/metrics.h"
#include "lacb/obs/trace.h"

namespace lacb::obs {

class EventRecorder;

/// \brief Registry that instrumentation on this thread currently targets.
MetricRegistry& ActiveRegistry();

/// \brief Tracer that LACB_TRACE_SPAN on this thread currently targets.
Tracer& ActiveTracer();

/// \brief Event-timeline recorder installed on this thread, or null —
/// unlike the registry/tracer there is no process default: timeline
/// recording is opt-in via ScopedContextAdoption (it retains every event,
/// not aggregates, so it is a debugging/profiling plane, not an always-on
/// one). Every LACB_TRACE_SPAN on the thread records into it.
EventRecorder* ActiveEventRecorder();

/// \brief A call site's handle on one counter of this thread's active
/// registry. Get() looks the name up (a string search under the registry
/// mutex) only when the active registry changed since its last call, so a
/// per-request or per-solve site pays that once per run. The cache is
/// unsynchronized: keep one handle per thread (`thread_local`). It is keyed
/// on MetricRegistry::id(), never on the address, which a later registry
/// may reuse.
class ActiveCounter {
 public:
  explicit constexpr ActiveCounter(const char* name) : name_(name) {}
  ActiveCounter(const ActiveCounter&) = delete;
  ActiveCounter& operator=(const ActiveCounter&) = delete;

  Counter& Get();

 private:
  const char* name_;
  uint64_t registry_id_ = 0;
  Counter* counter_ = nullptr;
};

/// \brief Installs an *existing* registry + tracer (owned elsewhere) as
/// this thread's active context for the guard's lifetime. This is how a
/// worker-thread pool points its threads at the run-scoped telemetry of
/// the thread that launched it (the serve layer's batcher and assignment
/// workers adopt the service's context): both instruments are internally
/// thread-safe, so many threads may adopt the same pair. Null
/// registry/tracer pointers re-select the process-wide default context;
/// the optional event recorder is forwarded as-is (null = no recording on
/// the adopting thread). Installing a run's own registry + tracer together
/// with a recorder is how a caller records that run's timeline.
class ScopedContextAdoption {
 public:
  ScopedContextAdoption(MetricRegistry* registry, Tracer* tracer,
                        EventRecorder* recorder = nullptr);
  ~ScopedContextAdoption();
  ScopedContextAdoption(const ScopedContextAdoption&) = delete;
  ScopedContextAdoption& operator=(const ScopedContextAdoption&) = delete;

 private:
  MetricRegistry* prev_registry_;
  Tracer* prev_tracer_;
  EventRecorder* prev_recorder_;
};

/// \brief Installs a fresh registry + tracer as this thread's active
/// context for the guard's lifetime; restores the previous context on
/// destruction. Non-reentrant data is per-instance, so guards nest.
class ScopedTelemetry {
 public:
  ScopedTelemetry();
  ~ScopedTelemetry();
  ScopedTelemetry(const ScopedTelemetry&) = delete;
  ScopedTelemetry& operator=(const ScopedTelemetry&) = delete;

  MetricRegistry& registry() { return *registry_; }
  Tracer& tracer() { return *tracer_; }

 private:
  std::unique_ptr<MetricRegistry> registry_;
  std::unique_ptr<Tracer> tracer_;
  MetricRegistry* prev_registry_;
  Tracer* prev_tracer_;
};

}  // namespace lacb::obs

#endif  // LACB_OBS_CONTEXT_H_
