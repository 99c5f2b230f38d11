// Shared plumbing of the benchmark harness: command-line arguments, the
// result record every workload fills, and small statistics helpers.
//
// Every workload drives the library only through its public entry points
// and times each layer from outside, around those calls. A run reports
// either the end-to-end metrics (untraced) or the per-layer metrics (traced
// run with the in-program instrumentation switched on); see README.md.

#ifndef LACB_PERFBENCH_PERFBENCH_H_
#define LACB_PERFBENCH_PERFBENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "lacb/common/result.h"
#include "lacb/common/status.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string shard_binary;  // lacb_shard, for the fleet workload
  std::string workdir;       // shard checkpoints and WALs
};

/// \brief What one run reports. Metrics are keyed by name; run.py checks
/// the names against BENCHMARK.json.
struct Report {
  std::vector<std::string> violations;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, std::pair<double, std::string>> e2e;
  std::map<std::string, std::pair<double, std::string>> layer;

  /// Records a correctness violation when `ok` is false.
  void Check(bool ok, const std::string& what) {
    if (!ok) violations.push_back(what);
  }
  void E2e(const std::string& name, double value, const std::string& unit) {
    e2e[name] = {value, unit};
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    layer[name] = {value, unit};
  }
};

/// The value a workload's run recorded under `name` in a span aggregate or
/// metric snapshot map. An instrument the workload exercises but that was
/// never recorded (renamed or dropped in the library) fails the run rather
/// than reading 0.
template <typename Map>
lacb::Result<typename Map::mapped_type> Recorded(const Map& map,
                                                 const std::string& name) {
  auto it = map.find(name);
  if (it == map.end()) {
    return lacb::Status::Internal("instrument '" + name +
                                  "' was never recorded");
  }
  return it->second;
}

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}
inline double Mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

/// The q-quantile of each run of `window` consecutive samples, and the
/// median over those windows (a trailing partial window is dropped unless
/// it is the only one). The host stalls for a second or more now and then;
/// such a stall moves a few windows instead of the whole figure.
double WindowedQuantile(const std::vector<double>& samples, size_t window,
                        double q);

/// Peak resident set of this process plus that of its largest reaped
/// child (the fleet's shard processes), MB.
double PeakRssMb();

/// Moves the calling thread to the next CPU of the process's initial
/// affinity set. Host vCPUs run at different speeds from second to second;
/// a single-threaded workload that rotates samples all of them instead of
/// whichever one the scheduler left it on.
void RotateCpu();

/// Nanoseconds per hot-path instrument use (registry lookup + histogram
/// record), the cost every instrumented solve pays.
double InstrumentCostNs();

/// Host-speed calibration. The shared host's speed drifts by tens of
/// percent between runs, longer than any run, so compute-bound timings are
/// reported at a fixed reference speed: a workload runs a calibration
/// kernel between its timed pieces, while the library is idle, and divides
/// its timings by Slowness(its calibration time). The kernel is a dense
/// 256 x 256 Hungarian assignment solve, the same kind of work as the
/// matching layer, written here so that no change to the library moves it.
/// At that size (a 512 KB matrix, about 4 ms) it tracked the offline
/// workload's slowdowns better than at 64 or 128, or than a memory scan.
///
/// The kernel's time at the reference speed (about the median of its
/// per-day minima on the 4-vCPU host the benchmark was tuned on), ms.
constexpr double kReferenceCalibrationMs = 4.0;

/// One run of the calibration kernel on the calling thread, ms.
double CalibrationMs();

/// One run of the calibration kernel pinned to each CPU of the process's
/// initial affinity set in turn (the caller's affinity is restored), ms.
std::vector<double> CalibrateEachCpu();

/// How much slower than the reference the host ran, given the workload's
/// calibration statistic: a time t at that speed is t / Slowness at the
/// reference speed, a rate r is r * Slowness.
inline double Slowness(double calibration_ms) {
  return calibration_ms / kReferenceCalibrationMs;
}

lacb::Status RunOffline(const Args& args, Report* report);
lacb::Status RunServe(const Args& args, Report* report);
lacb::Status RunFleet(const Args& args, Report* report);

}  // namespace perfbench

#endif  // LACB_PERFBENCH_PERFBENCH_H_
