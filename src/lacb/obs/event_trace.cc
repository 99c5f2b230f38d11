#include "lacb/obs/event_trace.h"

#include <algorithm>
#include <atomic>

#include "lacb/common/logging.h"
#include "lacb/obs/snapshot.h"

namespace lacb::obs {

namespace {

std::atomic<uint64_t> g_next_recorder_id{1};

// One-entry thread-local cache mapping the most recent recorder this
// thread wrote to onto its ring. Keyed by a process-unique recorder id so
// a recorder reallocated at a previous recorder's address can never alias
// a stale cache entry.
struct TlsLogCache {
  uint64_t recorder_id = 0;
  void* log = nullptr;
};
thread_local TlsLogCache tls_log_cache;

}  // namespace

// Ring buffer owned by (and written from) exactly one thread; the mutex
// is uncontended on the write path and taken by Snapshot readers only.
struct EventRecorder::ThreadLog {
  explicit ThreadLog(size_t capacity) : ring(capacity) {}

  mutable std::mutex mu;
  std::vector<TraceEvent> ring;
  size_t head = 0;   // oldest retained event
  size_t count = 0;  // retained events (<= ring.size())
  uint64_t dropped = 0;
  uint32_t tid = 0;
};

EventRecorder::EventRecorder(size_t capacity_per_thread)
    : capacity_(capacity_per_thread == 0 ? 1 : capacity_per_thread),
      recorder_id_(g_next_recorder_id.fetch_add(1, std::memory_order_relaxed)),
      epoch_(std::chrono::steady_clock::now()) {}

EventRecorder::~EventRecorder() = default;

EventRecorder::ThreadLog* EventRecorder::Log() {
  if (tls_log_cache.recorder_id == recorder_id_) {
    return static_cast<ThreadLog*>(tls_log_cache.log);
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto log = std::make_unique<ThreadLog>(capacity_);
  log->tid = static_cast<uint32_t>(logs_.size());
  ThreadLog* raw = log.get();
  logs_.push_back(std::move(log));
  tls_log_cache = {recorder_id_, raw};
  return raw;
}

void EventRecorder::Record(const char* name, EventPhase phase,
                           uint64_t flow_id) {
  ThreadLog* log = Log();
  TraceEvent event;
  event.name = name;
  event.phase = phase;
  event.ts_micros =
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - epoch_)
          .count();
  event.tid = log->tid;
  event.flow_id = flow_id;

  std::lock_guard<std::mutex> lock(log->mu);
  if (log->count == log->ring.size()) {
    log->ring[log->head] = event;
    log->head = (log->head + 1) % log->ring.size();
    ++log->dropped;
  } else {
    log->ring[(log->head + log->count) % log->ring.size()] = event;
    ++log->count;
  }
}

uint64_t EventRecorder::dropped() const {
  uint64_t total = 0;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& log : logs_) {
    std::lock_guard<std::mutex> log_lock(log->mu);
    total += log->dropped;
  }
  return total;
}

TraceSnapshot EventRecorder::Snapshot() const {
  TraceSnapshot snap;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& log : logs_) {
    std::lock_guard<std::mutex> log_lock(log->mu);
    if (log->count > 0) ++snap.threads;
    snap.dropped += log->dropped;
    for (size_t i = 0; i < log->count; ++i) {
      snap.events.push_back(log->ring[(log->head + i) % log->ring.size()]);
    }
  }
  // stable_sort keeps each thread's in-ring order between equal
  // timestamps, so begin/end pairs never invert on a coarse clock.
  std::stable_sort(snap.events.begin(), snap.events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts_micros < b.ts_micros;
                   });
  return snap;
}

namespace {

JsonValue EventToJson(const TraceEvent& event) {
  JsonValue out = JsonValue::Object();
  out.Set("name", event.name);
  const char* ph = "i";
  switch (event.phase) {
    case EventPhase::kBegin:
      ph = "B";
      break;
    case EventPhase::kEnd:
      ph = "E";
      break;
    case EventPhase::kInstant:
      ph = "i";
      break;
    case EventPhase::kFlowBegin:
      ph = "s";
      break;
    case EventPhase::kFlowStep:
      ph = "t";
      break;
    case EventPhase::kFlowEnd:
      ph = "f";
      break;
  }
  out.Set("ph", ph);
  out.Set("ts", event.ts_micros);
  out.Set("pid", static_cast<int64_t>(1));
  out.Set("tid", static_cast<int64_t>(event.tid));
  if (event.phase == EventPhase::kInstant) {
    out.Set("s", "t");  // thread-scoped instant marker
  }
  if (event.flow_id != 0) {
    out.Set("cat", "flow");
    out.Set("id", static_cast<uint64_t>(event.flow_id));
    if (event.phase == EventPhase::kFlowEnd) {
      out.Set("bp", "e");  // bind the arrow head to the enclosing slice
    }
  }
  return out;
}

}  // namespace

JsonValue ChromeTraceJson(const TraceSnapshot& snapshot,
                          const std::string& process_name) {
  JsonValue events = JsonValue::Array();

  // Process/thread name metadata rows (phase "M") label the tracks.
  JsonValue pname = JsonValue::Object();
  pname.Set("name", "process_name");
  pname.Set("ph", "M");
  pname.Set("pid", static_cast<int64_t>(1));
  JsonValue pargs = JsonValue::Object();
  pargs.Set("name", process_name);
  pname.Set("args", std::move(pargs));
  events.Append(std::move(pname));

  for (const TraceEvent& event : snapshot.events) {
    events.Append(EventToJson(event));
  }

  JsonValue out = JsonValue::Object();
  out.Set("traceEvents", std::move(events));
  out.Set("displayTimeUnit", "ms");
  JsonValue other = JsonValue::Object();
  other.Set("dropped_events", snapshot.dropped);
  other.Set("recording_threads", static_cast<uint64_t>(snapshot.threads));
  out.Set("otherData", std::move(other));
  return out;
}

Status WriteChromeTrace(const EventRecorder& recorder, const std::string& path,
                        const std::string& process_name) {
  TraceSnapshot snapshot = recorder.Snapshot();
  if (snapshot.dropped > 0) {
    LACB_LOG(Warning) << "chrome trace " << path << " is truncated: "
                      << snapshot.dropped
                      << " events were dropped (raise the recorder's "
                         "per-thread capacity for a complete timeline)";
  }
  return WriteJsonFile(ChromeTraceJson(snapshot, process_name), path);
}

}  // namespace lacb::obs
