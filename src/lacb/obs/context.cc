#include "lacb/obs/context.h"

namespace lacb::obs {

namespace {

MetricRegistry& GlobalRegistry() {
  static MetricRegistry* registry = new MetricRegistry();
  return *registry;
}

Tracer& GlobalTracer() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

thread_local MetricRegistry* tl_registry = nullptr;
thread_local Tracer* tl_tracer = nullptr;
thread_local EventRecorder* tl_recorder = nullptr;

}  // namespace

MetricRegistry& ActiveRegistry() {
  return tl_registry != nullptr ? *tl_registry : GlobalRegistry();
}

Tracer& ActiveTracer() {
  return tl_tracer != nullptr ? *tl_tracer : GlobalTracer();
}

EventRecorder* ActiveEventRecorder() { return tl_recorder; }

Counter& ActiveCounter::Get() {
  MetricRegistry& registry = ActiveRegistry();
  if (registry.id() != registry_id_) {
    counter_ = &registry.GetCounter(name_);
    registry_id_ = registry.id();
  }
  return *counter_;
}

ScopedContextAdoption::ScopedContextAdoption(MetricRegistry* registry,
                                             Tracer* tracer,
                                             EventRecorder* recorder)
    : prev_registry_(tl_registry),
      prev_tracer_(tl_tracer),
      prev_recorder_(tl_recorder) {
  tl_registry = registry;
  tl_tracer = tracer;
  tl_recorder = recorder;
}

ScopedContextAdoption::~ScopedContextAdoption() {
  tl_registry = prev_registry_;
  tl_tracer = prev_tracer_;
  tl_recorder = prev_recorder_;
}

ScopedTelemetry::ScopedTelemetry()
    : registry_(std::make_unique<MetricRegistry>()),
      tracer_(std::make_unique<Tracer>()),
      prev_registry_(tl_registry),
      prev_tracer_(tl_tracer) {
  tl_registry = registry_.get();
  tl_tracer = tracer_.get();
}

ScopedTelemetry::~ScopedTelemetry() {
  tl_registry = prev_registry_;
  tl_tracer = prev_tracer_;
}

}  // namespace lacb::obs
