#include "lacb/obs/timeseries.h"

#include <sstream>
#include <utility>

#include "lacb/obs/context.h"
#include "lacb/persist/bytes.h"

namespace lacb::obs {

JsonValue TimeSeries::ToJson() const {
  JsonValue out = JsonValue::Object();
  out.Set("time_unit", time_unit);
  JsonValue arr = JsonValue::Array();
  for (const SamplePoint& p : points) {
    JsonValue point = JsonValue::Object();
    point.Set("t", p.t);
    JsonValue values = JsonValue::Object();
    for (const auto& [name, v] : p.values) values.Set(name, v);
    point.Set("values", std::move(values));
    arr.Append(std::move(point));
  }
  out.Set("points", std::move(arr));
  return out;
}

Result<TimeSeries> TimeSeries::FromJson(const JsonValue& json) {
  if (!json.is_object()) {
    return Status::InvalidArgument("time series JSON: not an object");
  }
  TimeSeries out;
  if (const JsonValue* unit = json.Find("time_unit");
      unit != nullptr && unit->is_string()) {
    out.time_unit = unit->as_string();
  }
  const JsonValue* points = json.Find("points");
  if (points == nullptr || !points->is_array()) {
    return Status::InvalidArgument("time series JSON: missing points array");
  }
  for (const JsonValue& p : points->items()) {
    const JsonValue* t = p.Find("t");
    const JsonValue* values = p.Find("values");
    if (t == nullptr || !t->is_number() || values == nullptr ||
        !values->is_object()) {
      return Status::InvalidArgument("time series JSON: malformed point");
    }
    SamplePoint point;
    point.t = t->as_number();
    for (const auto& [name, v] : values->members()) {
      if (!v.is_number()) {
        return Status::InvalidArgument("time series JSON: non-numeric value");
      }
      point.values[name] = v.as_number();
    }
    out.points.push_back(std::move(point));
  }
  return out;
}

Status TimeSeries::WriteJsonl(const std::string& path) const {
  // Rendered in memory and written atomically so a concurrent reader (or
  // an interrupted run) never sees a half-written series.
  std::ostringstream out;
  for (const SamplePoint& p : points) {
    JsonValue line = JsonValue::Object();
    line.Set("t", p.t);
    JsonValue values = JsonValue::Object();
    for (const auto& [name, v] : p.values) values.Set(name, v);
    line.Set("values", std::move(values));
    out << line.ToString(0) << "\n";
  }
  return persist::WriteFileAtomic(path, out.str(), /*do_fsync=*/false);
}

TimeSeriesSampler::TimeSeriesSampler(Options options)
    : options_(std::move(options)) {}

TimeSeriesSampler::~TimeSeriesSampler() { StopPeriodic(); }

void TimeSeriesSampler::AddProbe(const std::string& name,
                                 std::function<double()> probe) {
  std::lock_guard<std::mutex> lock(mu_);
  probes_.emplace_back(name, std::move(probe));
}

void TimeSeriesSampler::Sample(double t, const MetricRegistry& registry) {
  MetricsSnapshot snap = registry.Snapshot();
  SamplePoint point;
  point.t = t;
  if (options_.instruments.empty()) {
    for (const auto& [name, v] : snap.counters) {
      point.values[name] = static_cast<double>(v);
    }
    for (const auto& [name, v] : snap.gauges) point.values[name] = v;
  } else {
    for (const std::string& name : options_.instruments) {
      if (auto it = snap.counters.find(name); it != snap.counters.end()) {
        point.values[name] = static_cast<double>(it->second);
      } else if (auto git = snap.gauges.find(name); git != snap.gauges.end()) {
        point.values[name] = git->second;
      }
      // Absent instruments are skipped, not zero-filled: a series that
      // starts before the first Get* call simply has shorter rows.
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, probe] : probes_) point.values[name] = probe();
  points_.push_back(std::move(point));
}

void TimeSeriesSampler::Sample(double t) { Sample(t, ActiveRegistry()); }

Status TimeSeriesSampler::StartPeriodic(std::chrono::milliseconds interval) {
  if (interval.count() <= 0) {
    return Status::InvalidArgument("sampler interval must be positive");
  }
  if (periodic_thread_.joinable()) {
    return Status::FailedPrecondition("periodic sampling already running");
  }
  {
    std::lock_guard<std::mutex> lock(periodic_mu_);
    periodic_stop_ = false;
  }
  // Capture the caller's registry: the sampling thread must observe the
  // run-scoped context of the thread that started it, not its own default.
  const MetricRegistry* registry = &ActiveRegistry();
  auto epoch = std::chrono::steady_clock::now();
  periodic_thread_ =
      std::thread([this, registry, interval, epoch] {
        PeriodicLoop(registry, interval, epoch);
      });
  return Status::OK();
}

void TimeSeriesSampler::StopPeriodic() {
  {
    std::lock_guard<std::mutex> lock(periodic_mu_);
    periodic_stop_ = true;
  }
  periodic_cv_.notify_all();
  if (periodic_thread_.joinable()) periodic_thread_.join();
}

void TimeSeriesSampler::PeriodicLoop(
    const MetricRegistry* registry, std::chrono::milliseconds interval,
    std::chrono::steady_clock::time_point epoch) {
  std::unique_lock<std::mutex> lock(periodic_mu_);
  for (;;) {
    if (periodic_cv_.wait_for(lock, interval,
                              [this] { return periodic_stop_; })) {
      break;
    }
    lock.unlock();
    double t = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             epoch)
                   .count();
    Sample(t, *registry);
    lock.lock();
  }
  // Final sample so short runs always record their end state.
  lock.unlock();
  double t = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           epoch)
                 .count();
  Sample(t, *registry);
}

TimeSeries TimeSeriesSampler::Series() const {
  TimeSeries out;
  out.time_unit = options_.time_unit;
  std::lock_guard<std::mutex> lock(mu_);
  out.points = points_;
  return out;
}

}  // namespace lacb::obs
