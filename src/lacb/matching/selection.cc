#include "lacb/matching/selection.h"

#include <algorithm>
#include <cstdint>
#include <utility>

namespace lacb::matching {

namespace {

// Alg. 3 over one row of utilities, with index buffers reused across rows.
//
// Iterative form of the paper's recursion with a three-way partition around
// a random pivot value: elements strictly heavier than the pivot must all
// be kept or recursed into; pivot-equal elements are interchangeable and
// fill any remainder; strictly lighter elements are only consulted when
// the heavy+equal sides fall short.
//
// The partition is stable (each side keeps the pool's order). The pivot is
// drawn as a pool position and ties keep the first pivot-equal elements, so
// any stable partition keeps the same set and takes the same Rng draws
// (docs/matching.md). Each index is written to all three sides and only its
// own side's cursor advances, so the loop has no data-dependent branch.
class TopKSelector {
 public:
  explicit TopKSelector(size_t n) : buffers_(4 * n), n_(n) {}

  // Calls keep(i) for each index i of the k largest of u[0..n).
  template <typename Keep>
  void Select(const double* u, size_t k, Rng* rng, Keep keep) {
    size_t* pool = buffers_.data();
    size_t* heavy = pool + n_;
    size_t* equal = heavy + n_;
    size_t* light = equal + n_;
    size_t size = n_;
    for (size_t i = 0; i < size; ++i) pool[i] = i;
    while (k > 0) {
      if (size <= k) {
        for (size_t i = 0; i < size; ++i) keep(pool[i]);
        return;
      }
      size_t pivot_pos = static_cast<size_t>(
          rng->UniformInt(0, static_cast<int64_t>(size) - 1));
      const double p = u[pool[pivot_pos]];
      size_t num_heavy = 0;
      size_t num_equal = 0;
      size_t num_light = 0;
      for (size_t i = 0; i < size; ++i) {
        const size_t idx = pool[i];
        const double v = u[idx];
        const bool is_heavy = v > p;
        const bool is_light = v < p;
        heavy[num_heavy] = idx;
        equal[num_equal] = idx;
        light[num_light] = idx;
        num_heavy += is_heavy;
        num_light += is_light;
        num_equal += !(is_heavy || is_light);
      }
      if (num_heavy >= k) {
        std::swap(pool, heavy);
        size = num_heavy;
        continue;
      }
      for (size_t i = 0; i < num_heavy; ++i) keep(heavy[i]);
      k -= num_heavy;
      if (num_equal >= k) {
        // Pivot-equal elements are interchangeable: any k complete a top-k.
        for (size_t i = 0; i < k; ++i) keep(equal[i]);
        return;
      }
      for (size_t i = 0; i < num_equal; ++i) keep(equal[i]);
      k -= num_equal;
      std::swap(pool, light);
      size = num_light;
    }
  }

 private:
  std::vector<size_t> buffers_;  // pool, heavy, equal, light; n each
  size_t n_;
};

}  // namespace

Result<std::vector<size_t>> SelectTopK(const std::vector<double>& utilities,
                                       size_t k, Rng* rng) {
  if (rng == nullptr) {
    return Status::InvalidArgument("SelectTopK requires an Rng");
  }
  std::vector<size_t> out;
  if (k == 0) return out;
  out.reserve(std::min(k, utilities.size()));
  TopKSelector(utilities.size())
      .Select(utilities.data(), k, rng, [&](size_t i) { out.push_back(i); });
  return out;
}

Result<std::vector<size_t>> CandidateColumns(const la::Matrix& utility,
                                             Rng* rng) {
  const size_t num_rows = utility.rows();
  const size_t num_cols = utility.cols();
  if (rng == nullptr && num_rows > 0) {
    return Status::InvalidArgument("SelectTopK requires an Rng");
  }
  std::vector<uint8_t> keep(num_cols, 0);
  TopKSelector selector(num_cols);
  for (size_t r = 0; r < num_rows; ++r) {
    selector.Select(utility.RowPtr(r), num_rows, rng,
                    [&](size_t c) { keep[c] = 1; });
  }
  std::vector<size_t> out;
  for (size_t c = 0; c < num_cols; ++c) {
    if (keep[c] != 0) out.push_back(c);
  }
  return out;
}

Result<la::Matrix> RestrictColumns(const la::Matrix& utility,
                                   const std::vector<size_t>& columns) {
  la::Matrix out(utility.rows(), columns.size());
  for (size_t c = 0; c < columns.size(); ++c) {
    if (columns[c] >= utility.cols()) {
      return Status::OutOfRange("RestrictColumns column out of range");
    }
  }
  for (size_t r = 0; r < utility.rows(); ++r) {
    for (size_t c = 0; c < columns.size(); ++c) {
      out(r, c) = utility(r, columns[c]);
    }
  }
  return out;
}

}  // namespace lacb::matching
