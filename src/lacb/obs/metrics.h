// Process-wide metrics primitives: monotonic counters, gauges, and
// histograms with fixed buckets plus streaming P² quantile estimators.
//
// All instruments are safe to update from multiple threads — counters and
// gauges are lock-free atomics; a histogram takes a short mutex per record
// for its quantile markers — so later parallelism PRs inherit correct
// telemetry without changes at the call sites. Instruments are owned by a
// MetricRegistry and referenced by dotted snake_case names (e.g.
// "matching.km.solves"); a reference stays valid for the registry's
// lifetime, so hot paths may cache it across calls within one run.

#ifndef LACB_OBS_METRICS_H_
#define LACB_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace lacb::obs {

/// \brief Monotonically increasing event count.
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// \brief Last-write-wins instantaneous value (also supports Add).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double delta) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// \brief Point-in-time view of a histogram.
struct HistogramSnapshot {
  uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  /// Bucket upper bounds; counts has one extra entry for the overflow
  /// bucket (values above the last bound).
  std::vector<double> bounds;
  std::vector<uint64_t> counts;

  double mean() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
};

/// \brief Streaming quantile estimator (Jain & Chlamtac's P² algorithm):
/// five markers track one quantile in O(1) memory per observation.
class P2Quantile {
 public:
  explicit P2Quantile(double quantile) : q_(quantile) {}

  void Record(double x);
  /// \brief Current estimate; exact while fewer than 5 observations.
  double Estimate() const;

 private:
  double Parabolic(int i, double d) const;
  double Linear(int i, double d) const;

  double q_;
  size_t n_ = 0;        // observations seen
  double heights_[5];   // marker heights
  double pos_[5];       // marker positions (1-based)
  double desired_[5];   // desired marker positions
  double incr_[5];      // desired-position increments
};

/// \brief Fixed-bucket histogram with streaming p50/p95/p99.
class Histogram {
 public:
  /// \brief `bounds` are strictly increasing bucket upper limits; an
  /// implicit overflow bucket catches larger values.
  explicit Histogram(std::vector<double> bounds);

  void Record(double value);
  HistogramSnapshot Snapshot() const;

  /// \brief Exponential 1µs…~131s grid, sized for latencies in seconds.
  static std::vector<double> DefaultLatencyBounds();

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<uint64_t>> bucket_counts_;  // bounds + overflow

  mutable std::mutex mu_;  // guards everything below
  uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  P2Quantile p50_{0.50};
  P2Quantile p95_{0.95};
  P2Quantile p99_{0.99};
};

/// \brief Point-in-time view of every instrument in a registry.
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
  /// Help strings by (dotted) instrument name — instruments registered
  /// without a description are simply absent. Exporters emit these as
  /// `# HELP` lines (see prometheus.cc).
  std::map<std::string, std::string> help;
};

/// \brief True when `name` is valid dotted snake_case: non-empty
/// '.'-separated segments, each `[a-z_][a-z0-9_]*`.
bool IsValidInstrumentName(const std::string& name);

/// \brief Thread-safe name → instrument registry.
///
/// Get* creates the instrument on first use; returned references remain
/// valid (and their addresses stable) until the registry is destroyed.
/// Names are validated at registration: a malformed name (see
/// IsValidInstrumentName) or a name re-registered as a *different*
/// instrument type fails fast with LACB_CHECK — both are call-site bugs
/// that would otherwise surface as silently-forked metric families in the
/// exporters.
class MetricRegistry {
 public:
  MetricRegistry();
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  /// \brief Process-unique and never reused, unlike the registry's address
  /// (a registry destroyed and the next one built may share it), so it can
  /// key a cache of this registry's instruments (ActiveCounter).
  uint64_t id() const { return id_; }

  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  /// \brief Uses Histogram::DefaultLatencyBounds() on first registration.
  Histogram& GetHistogram(const std::string& name);
  /// \brief Custom bounds apply only on first registration of `name`.
  Histogram& GetHistogram(const std::string& name,
                          std::vector<double> bounds);

  /// \brief Registration variants carrying a help string: the description
  /// rides into MetricsSnapshot::help and the Prometheus exporter emits it
  /// as the family's `# HELP` line. The first non-empty description of a
  /// name wins; later registrations never overwrite it.
  Counter& GetCounter(const std::string& name, const std::string& help);
  Gauge& GetGauge(const std::string& name, const std::string& help);
  Histogram& GetHistogram(const std::string& name, std::vector<double> bounds,
                          const std::string& help);

  MetricsSnapshot Snapshot() const;

 private:
  enum class InstrumentKind { kCounter, kGauge, kHistogram };

  /// Validates `name` and records/compares its kind (callers hold mu_).
  void RegisterName(const std::string& name, InstrumentKind kind);

  /// Records `help` for `name` if non-empty and not already set (callers
  /// hold mu_).
  void SetHelpLocked(const std::string& name, const std::string& help);

  const uint64_t id_;
  mutable std::mutex mu_;
  std::map<std::string, InstrumentKind> kinds_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::string> help_;
};

}  // namespace lacb::obs

#endif  // LACB_OBS_METRICS_H_
