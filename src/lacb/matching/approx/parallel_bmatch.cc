#include "lacb/matching/approx/parallel_bmatch.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstring>
#include <limits>
#include <mutex>
#include <thread>

#include "lacb/common/stopwatch.h"
#include "lacb/matching/assignment.h"
#include "lacb/obs/obs.h"

namespace lacb::matching::approx {

namespace {

// --- Packed suitor keys ---------------------------------------------------
//
// A slot holds (monotone float32 score bits << 32) | ~row. Bigger packed
// value = better suitor: higher score wins, equal scores break toward the
// lower request row (~row inverts the order). Zero is the empty slot; any
// real proposal (finite or infinite score) packs to a non-zero key because
// the monotone mapping keeps the top bit region above zero for every
// non-NaN float.

inline uint32_t MonotoneFloatBits(float f) {
  uint32_t b;
  std::memcpy(&b, &f, sizeof(b));
  return (b & 0x80000000u) != 0 ? ~b : (b | 0x80000000u);
}

inline uint64_t PackKey(float score, uint32_t row) {
  return (static_cast<uint64_t>(MonotoneFloatBits(score)) << 32) |
         static_cast<uint64_t>(~row);
}

inline uint32_t KeyRow(uint64_t key) {
  return ~static_cast<uint32_t>(key & 0xffffffffu);
}

inline void AtomicMax(std::atomic<uint64_t>* a, uint64_t v) {
  uint64_t cur = a->load(std::memory_order_relaxed);
  while (cur < v && !a->compare_exchange_weak(cur, v,
                                              std::memory_order_relaxed)) {
  }
}

// --- Round barrier --------------------------------------------------------

class RoundBarrier {
 public:
  explicit RoundBarrier(size_t parties) : parties_(parties) {}

  void Arrive() {
    std::unique_lock<std::mutex> lock(mu_);
    const uint64_t gen = generation_;
    if (++waiting_ == parties_) {
      waiting_ = 0;
      ++generation_;
      cv_.notify_all();
    } else {
      cv_.wait(lock, [&] { return generation_ != gen; });
    }
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  const size_t parties_;
  size_t waiting_ = 0;
  uint64_t generation_ = 0;
};

// --- Solver state ---------------------------------------------------------

struct SolveState {
  const ScoreMatrix& scores;
  const std::vector<int64_t>& caps;
  size_t num_threads;

  std::vector<size_t> slot_offset;            // per column, into slots
  std::vector<std::atomic<uint64_t>> slots;   // packed suitor keys, 0=empty
  // Cached lower bound on each column's weakest accepted key; monotone
  // non-decreasing, so a stale read can only cause a redundant proposal
  // attempt, never a wrongly skipped one.
  std::vector<std::atomic<uint64_t>> thresholds;

  std::vector<uint32_t> pending;              // this round's proposers
  std::vector<size_t> chunk_begin;            // T+1 chunk boundaries
  std::vector<std::atomic<size_t>> cursors;   // per-chunk claim cursor
  std::vector<std::vector<uint32_t>> evicted; // per-thread next-round queue
  std::vector<uint64_t> proposals;            // per-thread counters
  std::vector<uint64_t> steals;

  RoundBarrier barrier;
  std::atomic<bool> done{false};
  uint64_t rounds = 0;                        // thread 0, between barriers

  SolveState(const ScoreMatrix& s, const std::vector<int64_t>& c, size_t t)
      : scores(s),
        caps(c),
        num_threads(t),
        cursors(t),
        evicted(t),
        proposals(t, 0),
        steals(t, 0),
        barrier(t) {}
};

// One proposal walk for request `row`: find the best column whose
// admission threshold the request beats, CAS into that column's weakest
// slot, and re-queue whoever it displaced. Loops until the request is
// accepted somewhere or no column will have it.
void Propose(SolveState* st, uint32_t row, size_t thread_index) {
  const float* score_row = st->scores.RowPtr(row);
  const size_t cols = st->scores.cols;
  for (;;) {
    int64_t best_col = -1;
    float best_score = 0.0f;
    for (size_t c = 0; c < cols; ++c) {
      const float w = score_row[c];
      if (!(w == w)) continue;  // NaN: missing edge
      if (st->caps[c] == 0) continue;
      if (best_col >= 0 && !(w > best_score)) continue;  // strict: ties
                                                         // keep lower col
      const uint64_t key = PackKey(w, row);
      if (key <= st->thresholds[c].load(std::memory_order_relaxed)) continue;
      best_col = static_cast<int64_t>(c);
      best_score = w;
    }
    if (best_col < 0) return;  // no column admits this request

    ++st->proposals[thread_index];
    const size_t c = static_cast<size_t>(best_col);
    const uint64_t key = PackKey(best_score, row);
    std::atomic<uint64_t>* slot = st->slots.data() + st->slot_offset[c];
    const size_t cap = static_cast<size_t>(st->caps[c]);
    for (;;) {
      size_t min_i = 0;
      uint64_t min_v = slot[0].load(std::memory_order_relaxed);
      for (size_t i = 1; i < cap; ++i) {
        const uint64_t v = slot[i].load(std::memory_order_relaxed);
        if (v < min_v) {
          min_v = v;
          min_i = i;
        }
      }
      if (key <= min_v) {
        // Lost to the incumbents. Publish the floor we observed so later
        // scans skip this column cheaply, then look for the next column.
        AtomicMax(&st->thresholds[c], min_v);
        break;
      }
      if (slot[min_i].compare_exchange_weak(min_v, key,
                                            std::memory_order_acq_rel,
                                            std::memory_order_relaxed)) {
        // Refresh the cached floor: every observed value is a historical
        // slot value and slots only grow, so the min stays a lower bound.
        uint64_t floor = slot[0].load(std::memory_order_relaxed);
        for (size_t i = 1; i < cap; ++i) {
          floor = std::min(floor, slot[i].load(std::memory_order_relaxed));
        }
        AtomicMax(&st->thresholds[c], floor);
        if (min_v != 0) {
          st->evicted[thread_index].push_back(KeyRow(min_v));
        }
        return;
      }
      // CAS raced with another proposal; re-scan the slots.
    }
  }
}

// Claims items from chunk `chunk` until its cursor runs past the end.
// Returns the number of items processed.
size_t DrainChunk(SolveState* st, size_t chunk, size_t thread_index) {
  const size_t begin = st->chunk_begin[chunk];
  const size_t len = st->chunk_begin[chunk + 1] - begin;
  size_t processed = 0;
  for (;;) {
    const size_t i =
        st->cursors[chunk].fetch_add(1, std::memory_order_relaxed);
    if (i >= len) break;
    Propose(st, st->pending[begin + i], thread_index);
    ++processed;
  }
  return processed;
}

void PartitionPending(SolveState* st) {
  const size_t t = st->num_threads;
  const size_t n = st->pending.size();
  st->chunk_begin.assign(t + 1, 0);
  for (size_t i = 0; i <= t; ++i) st->chunk_begin[i] = i * n / t;
  for (auto& cursor : st->cursors) {
    cursor.store(0, std::memory_order_relaxed);
  }
}

void WorkerLoop(SolveState* st, size_t thread_index) {
  const size_t t = st->num_threads;
  for (;;) {
    // Phase A: drain the own chunk, then steal from the others.
    DrainChunk(st, thread_index, thread_index);
    for (size_t k = 1; k < t; ++k) {
      const size_t victim = (thread_index + k) % t;
      st->steals[thread_index] += DrainChunk(st, victim, thread_index);
    }
    st->barrier.Arrive();
    // Phase B: thread 0 folds the evictions into the next round.
    if (thread_index == 0) {
      ++st->rounds;
      st->pending.clear();
      for (auto& q : st->evicted) {
        st->pending.insert(st->pending.end(), q.begin(), q.end());
        q.clear();
      }
      st->done.store(st->pending.empty(), std::memory_order_relaxed);
      PartitionPending(st);
    }
    st->barrier.Arrive();
    if (st->done.load(std::memory_order_relaxed)) return;
  }
}

}  // namespace

Result<BMatchResult> ParallelBMatch(const ScoreMatrix& scores,
                                    const std::vector<int64_t>& capacities,
                                    const BMatchOptions& options,
                                    SolveStats* stats) {
  const size_t rows = scores.rows;
  const size_t cols = scores.cols;
  if (capacities.size() != cols) {
    return Status::InvalidArgument(
        "capacities must have one entry per column");
  }
  for (int64_t cap : capacities) {
    if (cap < 0) return Status::InvalidArgument("negative column capacity");
  }
  if (rows >= std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument("too many rows to pack into suitor keys");
  }
  LACB_TRACE_SPAN("bmatch_solve");
  Stopwatch total_sw;
  Stopwatch phase_sw;

  BMatchResult result;
  result.col_of_row.assign(rows, kUnmatched);
  const size_t num_threads = std::max<size_t>(1, options.num_threads);

  size_t total_slots = 0;
  std::vector<size_t> slot_offset(cols, 0);
  for (size_t c = 0; c < cols; ++c) {
    slot_offset[c] = total_slots;
    total_slots += static_cast<size_t>(capacities[c]);
  }
  if (rows == 0 || cols == 0 || total_slots == 0) {
    if (stats != nullptr) {
      SolveStats one;
      one.solver = "bmatch";
      one.rows = rows;
      one.cols = cols;
      one.solves = 1;
      one.total_seconds = total_sw.ElapsedSeconds();
      stats->MergeFrom(one);
    }
    return result;
  }

  SolveState st(scores, capacities, num_threads);
  st.slot_offset = std::move(slot_offset);
  st.slots = std::vector<std::atomic<uint64_t>>(total_slots);
  st.thresholds = std::vector<std::atomic<uint64_t>>(cols);
  st.pending.resize(rows);
  for (size_t r = 0; r < rows; ++r) st.pending[r] = static_cast<uint32_t>(r);
  PartitionPending(&st);
  const double build_seconds = phase_sw.ElapsedSeconds();

  phase_sw.Restart();
  if (num_threads == 1) {
    WorkerLoop(&st, 0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(num_threads);
    for (size_t t = 0; t < num_threads; ++t) {
      pool.emplace_back(WorkerLoop, &st, t);
    }
    for (auto& th : pool) th.join();
  }
  const double search_seconds = phase_sw.ElapsedSeconds();

  // Extraction in fixed (column, then ascending row) order keeps both the
  // assignment and the floating-point objective bit-deterministic.
  phase_sw.Restart();
  std::vector<uint32_t> matched_rows;
  for (size_t c = 0; c < cols; ++c) {
    matched_rows.clear();
    const size_t cap = static_cast<size_t>(capacities[c]);
    for (size_t i = 0; i < cap; ++i) {
      const uint64_t v =
          st.slots[st.slot_offset[c] + i].load(std::memory_order_relaxed);
      if (v != 0) matched_rows.push_back(KeyRow(v));
    }
    std::sort(matched_rows.begin(), matched_rows.end());
    for (uint32_t r : matched_rows) {
      result.col_of_row[r] = static_cast<int64_t>(c);
      result.total_weight += static_cast<double>(scores.At(r, c));
    }
  }
  const double update_seconds = phase_sw.ElapsedSeconds();

  result.rounds = st.rounds;
  for (size_t t = 0; t < num_threads; ++t) {
    result.proposals += st.proposals[t];
    result.steals += st.steals[t];
  }

  obs::MetricRegistry& registry = obs::ActiveRegistry();
  registry.GetCounter("matching.bmatch.solves").Increment();
  registry.GetCounter("matching.bmatch.rounds").Increment(result.rounds);
  registry.GetCounter("matching.bmatch.proposals")
      .Increment(result.proposals);

  if (stats != nullptr) {
    SolveStats one;
    one.solver = "bmatch";
    one.rows = rows;
    one.cols = cols;
    one.solves = 1;
    one.iterations = result.proposals;
    one.objective = result.total_weight;
    one.rounds = result.rounds;
    one.proposals = result.proposals;
    one.steals = result.steals;
    for (int64_t col : result.col_of_row) {
      if (col != kUnmatched) ++one.augmenting_paths;
    }
    one.phase_build_seconds = build_seconds;
    one.phase_search_seconds = search_seconds;
    one.phase_update_seconds = update_seconds;
    one.total_seconds = total_sw.ElapsedSeconds();
    stats->MergeFrom(one);
  }
  return result;
}

Result<BMatchResult> ParallelBMatch(const la::Matrix& weights,
                                    const std::vector<int64_t>& capacities,
                                    const BMatchOptions& options,
                                    SolveStats* stats) {
  Stopwatch convert_sw;
  ScoreMatrix scores;
  ToScoreMatrix(weights, &scores);
  const double convert_seconds = convert_sw.ElapsedSeconds();
  LACB_ASSIGN_OR_RETURN(BMatchResult result,
                        ParallelBMatch(scores, capacities, options, stats));
  if (stats != nullptr) {
    stats->phase_build_seconds += convert_seconds;
    stats->total_seconds += convert_seconds;
  }
  return result;
}

}  // namespace lacb::matching::approx
