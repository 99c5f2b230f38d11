// Structured run telemetry: one serializable snapshot of everything the
// obs layer collected during a run — metrics, the span tree, and free-form
// engine metadata — plus the JSON exporter the benches use for
// BENCH_*.json. The JSON schema is documented in docs/observability.md;
// FromJson inverts ToJson so snapshots can be reloaded for comparison
// tooling (and is what the round-trip test exercises).

#ifndef LACB_OBS_SNAPSHOT_H_
#define LACB_OBS_SNAPSHOT_H_

#include <map>
#include <string>
#include <vector>

#include "lacb/common/result.h"
#include "lacb/obs/json.h"
#include "lacb/obs/metrics.h"
#include "lacb/obs/timeseries.h"
#include "lacb/obs/trace.h"

namespace lacb::obs {

/// \brief Everything observed over one run.
struct RunTelemetry {
  /// Engine-provided context: policy, dataset, sizes (all stringified).
  std::map<std::string, std::string> metadata;
  MetricsSnapshot metrics;
  /// Aggregated span forest (children of the implicit root).
  std::vector<SpanSnapshot> spans;
  /// Sampled trajectory over the run (empty unless a TimeSeriesSampler's
  /// series was stored here, as serve::RunPolicyServed does when
  /// ServedRunOptions::sample_interval is set); serialized as
  /// "time_series" when non-empty.
  TimeSeries series;

  /// \brief Flat per-label totals over the whole span forest.
  std::map<std::string, SpanAggregate> SpansByLabel() const;

  JsonValue ToJson() const;
  static Result<RunTelemetry> FromJson(const JsonValue& json);
};

/// \brief Snapshots the given registry + tracer into a RunTelemetry.
RunTelemetry CaptureRun(const MetricRegistry& registry, const Tracer& tracer,
                        std::map<std::string, std::string> metadata);

/// \brief Serializes `telemetry` as pretty-printed JSON to `path`.
Status WriteJsonFile(const RunTelemetry& telemetry, const std::string& path);

/// \brief Serializes an arbitrary JSON document to `path` (the benches'
/// BENCH_*.json envelope, which nests several RunTelemetry objects).
Status WriteJsonFile(const JsonValue& json, const std::string& path);

}  // namespace lacb::obs

#endif  // LACB_OBS_SNAPSHOT_H_
