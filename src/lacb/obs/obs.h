// Umbrella header for the observability subsystem.
//
//   obs::ActiveRegistry().GetCounter("matching.km.solves").Increment();
//   { LACB_TRACE_SPAN("km_solve"); ... }
//   obs::RunTelemetry t = obs::CaptureRun(reg, tracer, {{"policy", "LACB"}});
//   obs::WriteJsonFile(t, "BENCH_run.json");
//
// See docs/observability.md for the metric name inventory and JSON schema.

#ifndef LACB_OBS_OBS_H_
#define LACB_OBS_OBS_H_

#include "lacb/obs/build_info.h"
#include "lacb/obs/context.h"
#include "lacb/obs/event_trace.h"
#include "lacb/obs/exposition.h"
#include "lacb/obs/json.h"
#include "lacb/obs/metrics.h"
#include "lacb/obs/prometheus.h"
#include "lacb/obs/slo.h"
#include "lacb/obs/snapshot.h"
#include "lacb/obs/timeseries.h"
#include "lacb/obs/trace.h"

#endif  // LACB_OBS_OBS_H_
