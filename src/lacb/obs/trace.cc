#include "lacb/obs/trace.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "lacb/obs/context.h"
#include "lacb/obs/event_trace.h"
#include "lacb/persist/bytes.h"

namespace lacb::obs {

struct Tracer::Node {
  std::string label;
  Tracer* owner = nullptr;
  uint64_t count = 0;
  double total_seconds = 0.0;
  double min_seconds = 0.0;
  double max_seconds = 0.0;
  std::map<std::string, std::unique_ptr<Node>> children;
};

namespace {

// Innermost open span of this thread, in whichever tracer it was opened.
// ScopedSpan saves it on entry and restores it on exit, so it always names
// a live span (or null). Enter() checks Node::owner: a span opened under
// another context (an enclosing run, say) is never a parent here.
thread_local Tracer::Node* tl_open_span = nullptr;

SpanSnapshot SnapshotNode(const Tracer::Node& node) {
  SpanSnapshot snap;
  snap.label = node.label;
  snap.count = node.count;
  snap.total_seconds = node.total_seconds;
  snap.min_seconds = node.min_seconds;
  snap.max_seconds = node.max_seconds;
  double child_total = 0.0;
  for (const auto& [label, child] : node.children) {
    snap.children.push_back(SnapshotNode(*child));
    child_total += child->total_seconds;
  }
  snap.self_seconds = std::max(0.0, node.total_seconds - child_total);
  return snap;
}

void AggregateNode(const Tracer::Node& node,
                   std::map<std::string, SpanAggregate>* out) {
  for (const auto& [label, child] : node.children) {
    SpanAggregate& agg = (*out)[label];
    agg.count += child->count;
    agg.total_seconds += child->total_seconds;
    AggregateNode(*child, out);
  }
}

}  // namespace

Tracer::Tracer() : root_(std::make_unique<Node>()) { root_->owner = this; }

Tracer::~Tracer() = default;

Tracer::Node* Tracer::Enter(const char* label) {
  Node* parent =
      (tl_open_span != nullptr && tl_open_span->owner == this) ? tl_open_span
                                                               : root_.get();
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = parent->children[label];
  if (slot == nullptr) {
    slot = std::make_unique<Node>();
    slot->label = label;
    slot->owner = this;
  }
  tl_open_span = slot.get();
  return slot.get();
}

void Tracer::Exit(Node* node, double elapsed_seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  if (node->count == 0) {
    node->min_seconds = elapsed_seconds;
    node->max_seconds = elapsed_seconds;
  } else {
    node->min_seconds = std::min(node->min_seconds, elapsed_seconds);
    node->max_seconds = std::max(node->max_seconds, elapsed_seconds);
  }
  ++node->count;
  node->total_seconds += elapsed_seconds;
}

std::vector<SpanSnapshot> Tracer::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SpanSnapshot> out;
  for (const auto& [label, child] : root_->children) {
    out.push_back(SnapshotNode(*child));
  }
  return out;
}

std::map<std::string, SpanAggregate> Tracer::AggregateByLabel() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, SpanAggregate> out;
  AggregateNode(*root_, &out);
  return out;
}

// The span object stays four words (the tracer is node_->owner, the
// recorder is re-read on exit): it lives in the frames of the hot solver
// functions. With six words the exact KM kernel, inlined into
// MaxWeightAssignment next to its km_solve span, compiled differently and
// offline_exact ran about 5% slower.
ScopedSpan::ScopedSpan(const char* label)
    : label_(label),
      prev_open_(tl_open_span),
      node_(ActiveTracer().Enter(label)) {
  if (EventRecorder* recorder = ActiveEventRecorder()) recorder->Begin(label_);
}

ScopedSpan::~ScopedSpan() {
  double elapsed = watch_.ElapsedSeconds();
  // Recorder guards are scoped like spans, so the recorder active now is
  // the one the span began on: every Begin gets its End.
  if (EventRecorder* recorder = ActiveEventRecorder()) recorder->End(label_);
  node_->owner->Exit(node_, elapsed);
  tl_open_span = prev_open_;
}

namespace {

void FoldNode(const SpanSnapshot& node, const std::string& prefix,
              std::ostringstream* out) {
  const std::string stack =
      prefix.empty() ? node.label : prefix + ';' + node.label;
  const long long micros = std::llround(node.self_seconds * 1e6);
  if (micros > 0) *out << stack << ' ' << micros << '\n';
  for (const SpanSnapshot& child : node.children) {
    FoldNode(child, stack, out);
  }
}

}  // namespace

Status WriteFoldedStacks(const std::vector<SpanSnapshot>& spans,
                         const std::string& path) {
  std::ostringstream out;
  for (const SpanSnapshot& root : spans) FoldNode(root, "", &out);
  return persist::WriteFileAtomic(path, out.str(), /*do_fsync=*/false);
}

}  // namespace lacb::obs
