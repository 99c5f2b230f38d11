// Scoped-span tracing: the one trace primitive. RAII spans aggregate into
// a parent/child tree and, when a recorder is attached, onto the timeline.
//
// A span is opened with LACB_TRACE_SPAN("km_solve") and closes when the
// scope exits; its wall time (via Stopwatch) is accumulated into the node
// for its label under the innermost open span of the same thread. Repeated
// executions of the same scope aggregate in place (count / total / min /
// max) instead of appending events, so a full run's trace stays O(distinct
// call paths) — cheap enough to leave on in production.
//
// Everything else is derived from the span: when the thread has an
// EventRecorder (obs::ActiveEventRecorder(), see context.h) the span also
// records a Begin/End slice on the Chrome-trace timeline, and
// WriteFoldedStacks turns the aggregated tree into flamegraph input with
// exact self times.
//
// Each thread tracks its own open-span chain; node creation and stat
// accumulation are mutex-protected, so concurrent threads may share one
// Tracer.

#ifndef LACB_OBS_TRACE_H_
#define LACB_OBS_TRACE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "lacb/common/result.h"
#include "lacb/common/stopwatch.h"

namespace lacb::obs {

class EventRecorder;

/// \brief Aggregated timings of one span path, with nested children.
struct SpanSnapshot {
  std::string label;
  uint64_t count = 0;
  double total_seconds = 0.0;
  double min_seconds = 0.0;
  double max_seconds = 0.0;
  /// Total minus the children's totals: time spent in this span itself.
  double self_seconds = 0.0;
  std::vector<SpanSnapshot> children;
};

/// \brief Flat per-label totals summed over every tree position.
struct SpanAggregate {
  uint64_t count = 0;
  double total_seconds = 0.0;
};

/// \brief Collects span statistics for one run (or the whole process).
class Tracer {
 public:
  /// Opaque aggregation node (defined in trace.cc).
  struct Node;

  Tracer();
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// \brief The aggregated span forest (children of the implicit root).
  std::vector<SpanSnapshot> Snapshot() const;

  /// \brief Per-label totals regardless of nesting position.
  std::map<std::string, SpanAggregate> AggregateByLabel() const;

 private:
  friend class ScopedSpan;

  /// Opens a child of this thread's innermost open span when that span
  /// belongs to this tracer, else of the root; makes it the open span.
  Node* Enter(const char* label);
  /// Folds `elapsed_seconds` into `node`'s stats.
  void Exit(Node* node, double elapsed_seconds);

  std::unique_ptr<Node> root_;
  mutable std::mutex mu_;
};

/// \brief RAII span handle; use via LACB_TRACE_SPAN.
class ScopedSpan {
 public:
  /// \brief Opens a span on the active tracer and, when the thread has
  /// one, a Begin slice on the active event recorder (see obs/context.h).
  /// `label` must outlive both (string literals qualify).
  explicit ScopedSpan(const char* label);
  /// \brief Closes the span (and its slice) and makes the span that was
  /// open before this one the thread's open span again.
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* label_;
  Tracer::Node* prev_open_;
  Tracer::Node* node_;  // its owner is the tracer the span closes on
  Stopwatch watch_;
};

/// \brief Writes `spans` as collapsed-stack flamegraph input: one
/// "outer;inner;leaf <n>" line per tree path, `n` being that path's
/// self_seconds in whole microseconds (paths with n == 0 are skipped).
/// Written atomically; flamegraph.pl and speedscope read it as-is.
Status WriteFoldedStacks(const std::vector<SpanSnapshot>& spans,
                         const std::string& path);

}  // namespace lacb::obs

/// \brief Times the enclosing scope as a span named `label`.
#define LACB_TRACE_SPAN(label) \
  ::lacb::obs::ScopedSpan LACB_CONCAT_(lacb_obs_span_, __LINE__)(label)

#ifndef LACB_CONCAT_
#define LACB_CONCAT_INNER_(a, b) a##b
#define LACB_CONCAT_(a, b) LACB_CONCAT_INNER_(a, b)
#endif

#endif  // LACB_OBS_TRACE_H_
