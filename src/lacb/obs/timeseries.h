// Time-series telemetry: periodic snapshots of named counters/gauges plus
// derived probes, accumulated into an exportable series.
//
// The end-of-run RunTelemetry answers "what happened in total"; the paper's
// claims are about *trajectories* — capacity estimates converge over days,
// queue depth breathes with load, overload concentrates as days pass. The
// TimeSeriesSampler records those trajectories with two cadences:
//
//   - manual:   the caller calls Sample(t, registry) at points it chooses
//     (t is whatever axis it picks, e.g. a day index);
//   - periodic: StartPeriodic spawns a thread sampling every wall-clock
//     interval (t = seconds since the periodic clock started).
//
// Each sample snapshots the selected instruments of a MetricRegistry (all
// counters and gauges when no selection is given) and evaluates registered
// probes — arbitrary double() callbacks for quantities that are not
// instruments, e.g. capacity-estimate MAE against latent truth. The series
// serializes as a JSON object (carried inside RunTelemetry / BENCH_*.json)
// or as JSONL, one sample per line, for streaming consumers.

#ifndef LACB_OBS_TIMESERIES_H_
#define LACB_OBS_TIMESERIES_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "lacb/common/result.h"
#include "lacb/obs/json.h"
#include "lacb/obs/metrics.h"

namespace lacb::obs {

/// \brief One sampling instant.
struct SamplePoint {
  /// Sample time: the caller's axis (manual cadence) or seconds since the
  /// periodic clock started (periodic cadence).
  double t = 0.0;
  std::map<std::string, double> values;
};

/// \brief An ordered series of samples plus its time axis unit.
struct TimeSeries {
  /// Unit of `t`, e.g. "day" for per-day ticks, "seconds" for wall-clock
  /// ones.
  std::string time_unit = "seconds";
  std::vector<SamplePoint> points;

  bool empty() const { return points.empty(); }

  JsonValue ToJson() const;
  static Result<TimeSeries> FromJson(const JsonValue& json);

  /// \brief Writes one compact-JSON object per line:
  /// {"t": 3, "values": {"serve.queue_depth": 12, ...}}.
  Status WriteJsonl(const std::string& path) const;
};

/// \brief Collects SamplePoints from a registry, manually or periodically.
class TimeSeriesSampler {
 public:
  struct Options {
    /// Counter/gauge names to sample; empty samples every counter and
    /// gauge present at each tick. Histograms are not sampled (their
    /// cumulative state lives in the end-of-run snapshot).
    std::vector<std::string> instruments;
    std::string time_unit = "seconds";
  };

  TimeSeriesSampler() : TimeSeriesSampler(Options()) {}
  explicit TimeSeriesSampler(Options options);
  ~TimeSeriesSampler();
  TimeSeriesSampler(const TimeSeriesSampler&) = delete;
  TimeSeriesSampler& operator=(const TimeSeriesSampler&) = delete;

  /// \brief Registers a derived quantity evaluated at every sample (on the
  /// sampling thread — the callback must be thread-safe under periodic
  /// mode). Probe names share the instrument namespace.
  void AddProbe(const std::string& name, std::function<double()> probe);

  /// \brief Takes one sample at time `t` from `registry`.
  void Sample(double t, const MetricRegistry& registry);
  /// \brief Same, from this thread's ActiveRegistry().
  void Sample(double t);

  /// \brief Spawns a thread sampling the *caller's* ActiveRegistry() every
  /// `interval` until StopPeriodic (t = seconds since this call). Fails
  /// when periodic sampling is already running or interval is zero.
  Status StartPeriodic(std::chrono::milliseconds interval);
  /// \brief Takes one final sample, then joins the periodic thread.
  /// Idempotent; the destructor calls it.
  void StopPeriodic();

  /// \brief Copy of everything sampled so far (thread-safe).
  TimeSeries Series() const;

 private:
  void PeriodicLoop(const MetricRegistry* registry,
                    std::chrono::milliseconds interval,
                    std::chrono::steady_clock::time_point epoch);

  Options options_;

  mutable std::mutex mu_;  // guards points_ and probes_
  std::vector<SamplePoint> points_;
  std::vector<std::pair<std::string, std::function<double()>>> probes_;

  // Periodic mode.
  std::mutex periodic_mu_;
  std::condition_variable periodic_cv_;
  bool periodic_stop_ = false;
  std::thread periodic_thread_;
};

}  // namespace lacb::obs

#endif  // LACB_OBS_TIMESERIES_H_
