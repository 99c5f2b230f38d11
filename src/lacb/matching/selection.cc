#include "lacb/matching/selection.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "lacb/common/cpu.h"

namespace lacb::matching {

namespace {

// Alg. 3 over one row of utilities.
//
// Iterative form of the paper's recursion with a three-way partition around
// a random pivot value: elements strictly heavier than the pivot must all
// be kept or recursed into; pivot-equal elements are interchangeable and
// fill any remainder; strictly lighter elements are only consulted when
// the heavy+equal sides fall short.
//
// The partition is stable (each side keeps the pool's order). The pivot is
// drawn as a pool position and ties keep the first pivot-equal elements, so
// any stable partition keeps the same set in the same order and takes the
// same Rng draws (docs/matching.md). Two partitions run under that
// contract: the scalar one below on every CPU, and an AVX-512 one that
// moves (value, index) pairs (PartitionPairs8). The scalar one is the
// oracle the wide one is tested against.

// Slack past each side buffer: the wide partition stores whole 8-lane
// vectors of which only the leading compressed lanes are live.
constexpr size_t kPad = 8;

// One thread's selection buffers, grown to the widest row seen and reused
// by every later selection, so a served worker allocates nothing per batch.
struct Scratch {
  std::vector<size_t> index;  // pool, heavy, equal, light; n + kPad each
  std::vector<double> value;  // the same four, wide partition only
  std::vector<uint8_t> keep;  // CandidateColumns' column mask
};

Scratch& ThreadScratch() {
  thread_local Scratch scratch;
  return scratch;
}

// Partition side: values (wide partition only) and indices.
struct Side {
  double* value;
  size_t* index;
};

// The scalar partition. Each index is written to all three sides and only
// its own side's cursor advances, so the loop has no data-dependent branch.
template <typename Keep>
void SelectScalar(const double* u, size_t n, size_t k, Rng* rng,
                  Scratch* s, Keep keep) {
  const size_t cap = n + kPad;
  if (s->index.size() < 4 * cap) s->index.resize(4 * cap);
  size_t* pool = s->index.data();
  size_t* heavy = pool + cap;
  size_t* equal = heavy + cap;
  size_t* light = equal + cap;
  size_t size = n;
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

#if defined(__x86_64__)

struct PartitionCounts {
  size_t heavy = 0, equal = 0, light = 0;
};

[[gnu::always_inline, LACB_TARGET_LANES8]] inline void CompressTo(
    const Side& side, size_t* count, __mmask8 m, const __m512d& v,
    const __m512i& x) {
  _mm512_storeu_pd(side.value + *count, _mm512_maskz_compress_pd(m, v));
  _mm512_storeu_si512(side.index + *count, _mm512_maskz_compress_epi64(m, x));
  *count += static_cast<size_t>(__builtin_popcount(m));
}

// Stable three-way partition of the pairs (value[i], index[i]), i < size,
// around `pivot`, 8 at a time: each side's pairs are compressed to the
// front of a vector (kept in order) and stored whole at that side's
// cursor. `index` == nullptr stands for 0, 1, 2, … (a row's first round).
// The comparisons are the scalar ones (ordered: a NaN lane is neither
// heavy nor light, so it is pivot-equal as there).
[[LACB_TARGET_LANES8]] PartitionCounts PartitionPairs8(
    const double* value, const size_t* index, size_t size, double pivot,
    const Side& heavy, const Side& equal, const Side& light) {
  const __m512d p = _mm512_set1_pd(pivot);
  const __m512i step = _mm512_set1_epi64(8);
  __m512i iota = _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7);
  PartitionCounts n;
  for (size_t i = 0; i < size; i += 8) {
    const __mmask8 live =
        size - i >= 8 ? __mmask8{0xff}
                      : static_cast<__mmask8>((1u << (size - i)) - 1);
    const __m512d v = _mm512_maskz_loadu_pd(live, value + i);
    const __m512i x =
        index == nullptr ? iota : _mm512_maskz_loadu_epi64(live, index + i);
    iota = _mm512_add_epi64(iota, step);
    const __mmask8 h = _mm512_mask_cmp_pd_mask(live, v, p, _CMP_GT_OQ);
    const __mmask8 l = _mm512_mask_cmp_pd_mask(live, v, p, _CMP_LT_OQ);
    const __mmask8 e = static_cast<__mmask8>(live & ~(h | l));
    CompressTo(heavy, &n.heavy, h, v, x);
    CompressTo(equal, &n.equal, e, v, x);
    CompressTo(light, &n.light, l, v, x);
  }
  return n;
}

// Alg. 3 on the wide partition. Round one reads the row in place; every
// later round reads the previous side's contiguous values, so no pass
// gathers.
template <typename Keep>
void SelectWide(const double* u, size_t n, size_t k, Rng* rng, Scratch* s,
                Keep keep) {
  const size_t cap = n + kPad;
  if (s->index.size() < 4 * cap) s->index.resize(4 * cap);
  if (s->value.size() < 4 * cap) s->value.resize(4 * cap);
  // The buffer the pool lives in (unused in round one, which reads u).
  Side pool{s->value.data(), s->index.data()};
  Side heavy{pool.value + cap, pool.index + cap};
  Side equal{heavy.value + cap, heavy.index + cap};
  Side light{equal.value + cap, equal.index + cap};
  const double* pool_value = u;
  const size_t* pool_index = nullptr;  // 0, 1, 2, … in round one
  size_t size = n;
  auto index_at = [&](size_t i) {
    return pool_index == nullptr ? i : pool_index[i];
  };
  while (k > 0) {
    if (size <= k) {
      for (size_t i = 0; i < size; ++i) keep(index_at(i));
      return;
    }
    size_t pivot_pos = static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(size) - 1));
    PartitionCounts c = PartitionPairs8(pool_value, pool_index, size,
                                        pool_value[pivot_pos], heavy, equal,
                                        light);
    // The side read next becomes the pool, and the pool's old buffer
    // becomes that side's.
    Side* next = &heavy;
    if (c.heavy >= k) {
      size = c.heavy;
    } else {
      for (size_t i = 0; i < c.heavy; ++i) keep(heavy.index[i]);
      k -= c.heavy;
      if (c.equal >= k) {
        for (size_t i = 0; i < k; ++i) keep(equal.index[i]);
        return;
      }
      for (size_t i = 0; i < c.equal; ++i) keep(equal.index[i]);
      k -= c.equal;
      next = &light;
      size = c.light;
    }
    pool_value = next->value;
    pool_index = next->index;
    std::swap(*next, pool);
  }
}

#endif  // __x86_64__

// Calls keep(i) for each index i of the k largest of u[0..n), in the
// contract's order.
template <typename Keep>
void Select(const double* u, size_t n, size_t k, Rng* rng, Scratch* s,
            Keep keep) {
#if defined(__x86_64__)
  if (KernelLanes() == 8) return SelectWide(u, n, k, rng, s, keep);
#endif
  SelectScalar(u, n, k, rng, s, keep);
}

}  // namespace

Result<std::vector<size_t>> SelectTopK(const std::vector<double>& utilities,
                                       size_t k, Rng* rng) {
  if (rng == nullptr) {
    return Status::InvalidArgument("SelectTopK requires an Rng");
  }
  std::vector<size_t> out;
  if (k == 0) return out;
  out.reserve(std::min(k, utilities.size()));
  Select(utilities.data(), utilities.size(), k, rng, &ThreadScratch(),
         [&](size_t i) { out.push_back(i); });
  return out;
}

Status CandidateColumns(const la::Matrix& utility, Rng* rng,
                        std::vector<size_t>* columns) {
  const size_t num_rows = utility.rows();
  const size_t num_cols = utility.cols();
  if (rng == nullptr && num_rows > 0) {
    return Status::InvalidArgument("SelectTopK requires an Rng");
  }
  Scratch& s = ThreadScratch();
  s.keep.assign(num_cols, 0);
  uint8_t* keep = s.keep.data();
  for (size_t r = 0; r < num_rows; ++r) {
    Select(utility.RowPtr(r), num_cols, num_rows, rng, &s,
           [keep](size_t c) { keep[c] = 1; });
  }
  columns->clear();
  for (size_t c = 0; c < num_cols; ++c) {
    if (keep[c] != 0) columns->push_back(c);
  }
  return Status::OK();
}

Result<std::vector<size_t>> CandidateColumns(const la::Matrix& utility,
                                             Rng* rng) {
  std::vector<size_t> out;
  LACB_RETURN_NOT_OK(CandidateColumns(utility, rng, &out));
  return out;
}

Status RestrictColumns(const la::Matrix& utility,
                       const std::vector<size_t>& columns, la::Matrix* out) {
  for (size_t c : columns) {
    if (c >= utility.cols()) {
      return Status::OutOfRange("RestrictColumns column out of range");
    }
  }
  out->Resize(utility.rows(), columns.size());
  for (size_t r = 0; r < utility.rows(); ++r) {
    const double* src = utility.RowPtr(r);
    double* dst = out->RowPtr(r);
    for (size_t c = 0; c < columns.size(); ++c) dst[c] = src[columns[c]];
  }
  return Status::OK();
}

Result<la::Matrix> RestrictColumns(const la::Matrix& utility,
                                   const std::vector<size_t>& columns) {
  la::Matrix out;
  LACB_RETURN_NOT_OK(RestrictColumns(utility, columns, &out));
  return out;
}

}  // namespace lacb::matching
