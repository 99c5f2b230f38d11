#include "lacb/obs/metrics.h"

#include <algorithm>
#include <cmath>

#include "lacb/common/logging.h"

namespace lacb::obs {

// ---------------------------------------------------------------------------
// P² streaming quantile (Jain & Chlamtac, CACM 1985).

void P2Quantile::Record(double x) {
  if (n_ < 5) {
    heights_[n_] = x;
    ++n_;
    if (n_ == 5) {
      std::sort(heights_, heights_ + 5);
      for (int i = 0; i < 5; ++i) pos_[i] = i + 1;
      desired_[0] = 1.0;
      desired_[1] = 1.0 + 2.0 * q_;
      desired_[2] = 1.0 + 4.0 * q_;
      desired_[3] = 3.0 + 2.0 * q_;
      desired_[4] = 5.0;
      incr_[0] = 0.0;
      incr_[1] = q_ / 2.0;
      incr_[2] = q_;
      incr_[3] = (1.0 + q_) / 2.0;
      incr_[4] = 1.0;
    }
    return;
  }

  // Locate the cell k containing x and clamp the extreme markers.
  int k;
  if (x < heights_[0]) {
    heights_[0] = x;
    k = 0;
  } else if (x >= heights_[4]) {
    heights_[4] = x;
    k = 3;
  } else {
    k = 0;
    while (k < 3 && x >= heights_[k + 1]) ++k;
  }
  for (int i = k + 1; i < 5; ++i) pos_[i] += 1.0;
  for (int i = 0; i < 5; ++i) desired_[i] += incr_[i];
  ++n_;

  // Adjust the three interior markers toward their desired positions.
  for (int i = 1; i <= 3; ++i) {
    double d = desired_[i] - pos_[i];
    if ((d >= 1.0 && pos_[i + 1] - pos_[i] > 1.0) ||
        (d <= -1.0 && pos_[i - 1] - pos_[i] < -1.0)) {
      double step = d >= 0 ? 1.0 : -1.0;
      double candidate = Parabolic(i, step);
      if (heights_[i - 1] < candidate && candidate < heights_[i + 1]) {
        heights_[i] = candidate;
      } else {
        heights_[i] = Linear(i, step);
      }
      pos_[i] += step;
    }
  }
}

double P2Quantile::Parabolic(int i, double d) const {
  return heights_[i] +
         d / (pos_[i + 1] - pos_[i - 1]) *
             ((pos_[i] - pos_[i - 1] + d) * (heights_[i + 1] - heights_[i]) /
                  (pos_[i + 1] - pos_[i]) +
              (pos_[i + 1] - pos_[i] - d) * (heights_[i] - heights_[i - 1]) /
                  (pos_[i] - pos_[i - 1]));
}

double P2Quantile::Linear(int i, double d) const {
  int j = i + static_cast<int>(d);
  return heights_[i] +
         d * (heights_[j] - heights_[i]) / (pos_[j] - pos_[i]);
}

double P2Quantile::Estimate() const {
  if (n_ == 0) return 0.0;
  if (n_ < 5) {
    // Exact quantile of the few values seen so far.
    double sorted[5];
    std::copy(heights_, heights_ + n_, sorted);
    std::sort(sorted, sorted + n_);
    double rank = q_ * static_cast<double>(n_ - 1);
    size_t lo = static_cast<size_t>(rank);
    size_t hi = std::min(lo + 1, n_ - 1);
    double frac = rank - static_cast<double>(lo);
    return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
  }
  return heights_[2];
}

// ---------------------------------------------------------------------------
// Histogram.

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), bucket_counts_(bounds_.size() + 1) {}

std::vector<double> Histogram::DefaultLatencyBounds() {
  std::vector<double> bounds;
  for (double b = 1e-6; b < 200.0; b *= 2.0) bounds.push_back(b);
  return bounds;
}

void Histogram::Record(double value) {
  size_t idx = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin());
  bucket_counts_[idx].fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
  p50_.Record(value);
  p95_.Record(value);
  p99_.Record(value);
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  snap.bounds = bounds_;
  snap.counts.reserve(bucket_counts_.size());
  for (const auto& c : bucket_counts_) {
    snap.counts.push_back(c.load(std::memory_order_relaxed));
  }
  std::lock_guard<std::mutex> lock(mu_);
  snap.count = count_;
  snap.sum = sum_;
  snap.min = min_;
  snap.max = max_;
  snap.p50 = p50_.Estimate();
  snap.p95 = p95_.Estimate();
  snap.p99 = p99_.Estimate();
  return snap;
}

// ---------------------------------------------------------------------------
// MetricRegistry.

bool IsValidInstrumentName(const std::string& name) {
  if (name.empty() || name.front() == '.' || name.back() == '.') return false;
  bool segment_start = true;
  for (char c : name) {
    if (c == '.') {
      if (segment_start) return false;  // empty segment ("a..b")
      segment_start = true;
      continue;
    }
    if (segment_start) {
      if (!(c == '_' || (c >= 'a' && c <= 'z'))) return false;
      segment_start = false;
    } else if (!(c == '_' || (c >= 'a' && c <= 'z') ||
                 (c >= '0' && c <= '9'))) {
      return false;
    }
  }
  return true;
}

namespace {

std::atomic<uint64_t> g_next_registry_id{1};

const char* KindName(int kind) {
  switch (kind) {
    case 0:
      return "counter";
    case 1:
      return "gauge";
    default:
      return "histogram";
  }
}
}  // namespace

void MetricRegistry::RegisterName(const std::string& name,
                                  InstrumentKind kind) {
  if (!IsValidInstrumentName(name)) {
    LACB_LOG(Error) << "invalid instrument name '" << name
                    << "' (want dotted snake_case, e.g. "
                       "\"serve.queue_depth\")";
    LACB_CHECK(IsValidInstrumentName(name));
  }
  auto [it, inserted] = kinds_.emplace(name, kind);
  if (!inserted && it->second != kind) {
    LACB_LOG(Error) << "instrument '" << name << "' already registered as a "
                    << KindName(static_cast<int>(it->second))
                    << "; cannot re-register as a "
                    << KindName(static_cast<int>(kind));
    LACB_CHECK(it->second == kind);
  }
}

MetricRegistry::MetricRegistry()
    : id_(g_next_registry_id.fetch_add(1, std::memory_order_relaxed)) {}

Counter& MetricRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  RegisterName(name, InstrumentKind::kCounter);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  RegisterName(name, InstrumentKind::kGauge);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricRegistry::GetHistogram(const std::string& name) {
  return GetHistogram(name, Histogram::DefaultLatencyBounds());
}

Histogram& MetricRegistry::GetHistogram(const std::string& name,
                                        std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  RegisterName(name, InstrumentKind::kHistogram);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>(std::move(bounds));
  return *slot;
}

void MetricRegistry::SetHelpLocked(const std::string& name,
                                   const std::string& help) {
  if (help.empty()) return;
  help_.emplace(name, help);  // first description wins
}

Counter& MetricRegistry::GetCounter(const std::string& name,
                                    const std::string& help) {
  Counter& c = GetCounter(name);
  std::lock_guard<std::mutex> lock(mu_);
  SetHelpLocked(name, help);
  return c;
}

Gauge& MetricRegistry::GetGauge(const std::string& name,
                                const std::string& help) {
  Gauge& g = GetGauge(name);
  std::lock_guard<std::mutex> lock(mu_);
  SetHelpLocked(name, help);
  return g;
}

Histogram& MetricRegistry::GetHistogram(const std::string& name,
                                        std::vector<double> bounds,
                                        const std::string& help) {
  Histogram& h = GetHistogram(name, std::move(bounds));
  std::lock_guard<std::mutex> lock(mu_);
  SetHelpLocked(name, help);
  return h;
}

MetricsSnapshot MetricRegistry::Snapshot() const {
  MetricsSnapshot snap;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, c] : counters_) snap.counters[name] = c->value();
  for (const auto& [name, g] : gauges_) snap.gauges[name] = g->value();
  for (const auto& [name, h] : histograms_) {
    snap.histograms[name] = h->Snapshot();
  }
  snap.help = help_;
  return snap;
}

}  // namespace lacb::obs
