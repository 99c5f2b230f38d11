// Per-solve introspection record shared by all matching backends.
//
// Every solver (Kuhn–Munkres, min-cost flow, the parallel b-Suitor
// approximation, the greedy fallback) can optionally fill one of these
// describing the problem it solved and the work it did — the payload
// behind the serve.solver.* instruments and the offline per-batch solver
// report. Collection is opt-in via a nullable out-parameter so the default
// solve path does no extra clock reads or bookkeeping.

#ifndef LACB_MATCHING_SOLVE_STATS_H_
#define LACB_MATCHING_SOLVE_STATS_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace lacb::matching {

/// \brief Diagnostics for one solver invocation (or a merged aggregate).
struct SolveStats {
  /// Which backend produced this record ("km", "mcf", "bmatch", "greedy",
  /// or "mixed" after merging across backends).
  std::string solver;
  /// Problem size. For bipartite solvers: rows × cols of the weight matrix
  /// actually solved (after any padding). For min-cost flow: nodes × edges.
  size_t rows = 0;
  size_t cols = 0;
  /// Number of merged invocations (1 for a single solve).
  uint64_t solves = 0;
  /// Backend-specific unit of inner work: KM column scans, Dijkstra queue
  /// pops (flow).
  uint64_t iterations = 0;
  /// Augmenting paths / assignments completed.
  uint64_t augmenting_paths = 0;
  /// Dual-variable (potential / price) adjustments applied.
  uint64_t dual_updates = 0;
  /// Objective of the returned solution (total weight or flow cost
  /// depending on the backend).
  double objective = 0.0;
  /// Parallel approximate backend ("bmatch"): barrier-synchronized
  /// proposal rounds, proposal attempts across all threads, and work items
  /// claimed from another thread's queue chunk.
  uint64_t rounds = 0;
  uint64_t proposals = 0;
  uint64_t steals = 0;
  /// Wall-clock attribution. Phases are disjoint slices of the solve, so
  /// build + search + update <= total (the remainder is glue).
  double total_seconds = 0.0;
  double phase_build_seconds = 0.0;
  double phase_search_seconds = 0.0;
  double phase_update_seconds = 0.0;

  /// \brief Folds `other` into this record (for per-batch aggregation over
  /// several solver calls). Sizes keep the componentwise max so the merged
  /// record still describes the largest subproblem.
  void MergeFrom(const SolveStats& other) {
    if (other.solves == 0 && other.solver.empty()) return;
    if (solver.empty()) {
      solver = other.solver;
    } else if (!other.solver.empty() && solver != other.solver) {
      solver = "mixed";
    }
    rows = rows > other.rows ? rows : other.rows;
    cols = cols > other.cols ? cols : other.cols;
    solves += other.solves;
    iterations += other.iterations;
    augmenting_paths += other.augmenting_paths;
    dual_updates += other.dual_updates;
    objective += other.objective;
    rounds += other.rounds;
    proposals += other.proposals;
    steals += other.steals;
    total_seconds += other.total_seconds;
    phase_build_seconds += other.phase_build_seconds;
    phase_search_seconds += other.phase_search_seconds;
    phase_update_seconds += other.phase_update_seconds;
  }
};

}  // namespace lacb::matching

#endif  // LACB_MATCHING_SOLVE_STATS_H_
