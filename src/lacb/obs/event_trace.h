// Event-timeline tracing: a lock-light per-thread ring-buffer recorder for
// *individual* begin/end/instant events, exported as Chrome-tracing JSON.
//
// This is the timeline view of trace.h: ScopedSpan aggregates repeated
// scopes into one tree node (O(distinct call paths), always on) and, when
// the thread has a recorder, also records each execution here as a B/E
// slice. EventRecorder keeps the most recent N events *per thread* with
// timestamps, thread ids, and flow ids, so a single request can be
// followed across the serve pipeline (enqueue on a producer thread →
// micro-batch close on the batcher thread → solve/commit on a worker
// thread) in chrome://tracing or ui.perfetto.dev.
//
// Memory is bounded by construction: each thread writes into its own
// fixed-capacity ring (drop-oldest; drops are counted, never silent).
// Recording takes one uncontended per-thread mutex acquisition — no shared
// write path — so producers, the batcher, and workers never serialize on
// the recorder. Recording is opt-in: spans and the serve layer's flow
// events consult obs::ActiveEventRecorder() (see context.h), which is null
// unless a ScopedContextAdoption installed a recorder on that thread (the
// serving layer forwards it to its internal threads).

#ifndef LACB_OBS_EVENT_TRACE_H_
#define LACB_OBS_EVENT_TRACE_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "lacb/common/result.h"
#include "lacb/obs/json.h"

namespace lacb::obs {

/// \brief Kind of a timeline event (maps onto Chrome trace phases).
enum class EventPhase : uint8_t {
  kBegin,      ///< Opens a duration slice ("B").
  kEnd,        ///< Closes the innermost slice of the same name ("E").
  kInstant,    ///< A point-in-time marker ("i").
  kFlowBegin,  ///< Starts a flow arrow at the current slice ("s").
  kFlowStep,   ///< Continues a flow on another thread ("t").
  kFlowEnd,    ///< Terminates a flow ("f").
};

/// \brief One recorded timeline event.
struct TraceEvent {
  /// Label; must outlive the recorder (string literals qualify).
  const char* name = nullptr;
  EventPhase phase = EventPhase::kInstant;
  /// Microseconds since the recorder's construction (fractional).
  double ts_micros = 0.0;
  /// Recorder-assigned dense thread index (stable per recording thread).
  uint32_t tid = 0;
  /// Flow identity connecting events across threads; 0 = no flow.
  uint64_t flow_id = 0;
};

/// \brief Point-in-time view of every thread's ring, merged and ordered.
struct TraceSnapshot {
  /// All retained events, ordered by timestamp (per-thread order is
  /// preserved between equal timestamps).
  std::vector<TraceEvent> events;
  /// Events overwritten by drop-oldest across all threads.
  uint64_t dropped = 0;
  /// Number of threads that recorded at least one event.
  size_t threads = 0;
};

/// \brief Fixed-capacity per-thread event collector.
class EventRecorder {
 public:
  /// \brief Each recording thread gets its own ring of `capacity_per_thread`
  /// events; the oldest event is overwritten (and counted) when full.
  explicit EventRecorder(size_t capacity_per_thread = 1 << 16);
  ~EventRecorder();
  EventRecorder(const EventRecorder&) = delete;
  EventRecorder& operator=(const EventRecorder&) = delete;

  void Begin(const char* name) { Record(name, EventPhase::kBegin, 0); }
  void End(const char* name) { Record(name, EventPhase::kEnd, 0); }
  void Instant(const char* name, uint64_t flow_id = 0) {
    Record(name, EventPhase::kInstant, flow_id);
  }
  /// \brief Flow events share `flow_id` (non-zero) across threads; the
  /// exporter renders them as arrows connecting the enclosing slices.
  void FlowBegin(const char* name, uint64_t flow_id) {
    Record(name, EventPhase::kFlowBegin, flow_id);
  }
  void FlowStep(const char* name, uint64_t flow_id) {
    Record(name, EventPhase::kFlowStep, flow_id);
  }
  void FlowEnd(const char* name, uint64_t flow_id) {
    Record(name, EventPhase::kFlowEnd, flow_id);
  }

  void Record(const char* name, EventPhase phase, uint64_t flow_id);

  size_t capacity_per_thread() const { return capacity_; }
  /// \brief Total events lost to drop-oldest so far.
  uint64_t dropped() const;
  /// \brief Merges every thread's ring into one time-ordered snapshot.
  TraceSnapshot Snapshot() const;

 private:
  struct ThreadLog;

  /// Resolves (registering on first use) this thread's ring.
  ThreadLog* Log();

  const size_t capacity_;
  const uint64_t recorder_id_;  // process-unique, for thread-local caching
  const std::chrono::steady_clock::time_point epoch_;

  mutable std::mutex mu_;  // guards logs_ registration
  std::vector<std::unique_ptr<ThreadLog>> logs_;
};

/// \brief Renders a snapshot as a Chrome-tracing JSON document (the
/// "JSON Array Format" wrapped in an object), loadable in chrome://tracing
/// and ui.perfetto.dev. `process_name` labels the single pid row.
JsonValue ChromeTraceJson(const TraceSnapshot& snapshot,
                          const std::string& process_name = "lacb");

/// \brief Snapshots `recorder` and writes the Chrome trace JSON to `path`.
Status WriteChromeTrace(const EventRecorder& recorder, const std::string& path,
                        const std::string& process_name = "lacb");

}  // namespace lacb::obs

#endif  // LACB_OBS_EVENT_TRACE_H_
