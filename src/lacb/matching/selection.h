// Candidate Broker Selection (paper Alg. 3) and its batch-level wrapper.
//
// Theorem 2 of the paper shows a maximum-weight assignment never needs more
// than the |R| heaviest neighbours of each request; CBS extracts that
// candidate set with a randomized quickselect in expected O(|B|) per
// request, so each batch's KM can run on an |R| × O(|R|²) graph instead of
// the full |B|-vertex one.

#ifndef LACB_MATCHING_SELECTION_H_
#define LACB_MATCHING_SELECTION_H_

#include <vector>

#include "lacb/common/result.h"
#include "lacb/common/rng.h"
#include "lacb/la/matrix.h"

namespace lacb::matching {

/// \brief Indices of the k largest entries of `utilities` (unordered).
///
/// Randomized quickselect per Alg. 3: partition around a random pivot value
/// drawn from the data, recurse into the heavy side. If k >= size, all
/// indices are returned. Expected O(n). The partition is stable, so for a
/// given `rng` state the result and the draws taken depend only on the
/// values and k (docs/matching.md). On a CPU with the 8-lane tier
/// (common/cpu.h) the partition runs 8 elements at a time on AVX-512 under
/// the same contract; elsewhere it runs scalar.
Result<std::vector<size_t>> SelectTopK(const std::vector<double>& utilities,
                                       size_t k, Rng* rng);

/// \brief Union over requests of each request's top-|R| candidate columns.
///
/// `utility` is |R| × |B|. Returns a sorted list of distinct column indices
/// sufficient for an optimal assignment (Corollary 1); its size is at most
/// |R|². Expected O(|R||B|).
Result<std::vector<size_t>> CandidateColumns(const la::Matrix& utility,
                                             Rng* rng);

/// \brief The same into *columns, reusing its storage. The partition
/// buffers are per thread and kept, so a caller that keeps `columns` across
/// batches allocates nothing once its widest batch has been seen.
Status CandidateColumns(const la::Matrix& utility, Rng* rng,
                        std::vector<size_t>* columns);

/// \brief Restriction of `utility` to the given columns (in order).
Result<la::Matrix> RestrictColumns(const la::Matrix& utility,
                                   const std::vector<size_t>& columns);

/// \brief The same into *out, reusing its storage.
Status RestrictColumns(const la::Matrix& utility,
                       const std::vector<size_t>& columns, la::Matrix* out);

}  // namespace lacb::matching

#endif  // LACB_MATCHING_SELECTION_H_
