// Run-time choice of the SIMD tier for the library's wide kernels: the
// batched MLP (nn/mlp.cc), the utility rows (sim/utility_model.cc), the
// CBS partition (matching/selection.cc) and the exact KM scan
// (matching/assignment.cc).
//
// The library is compiled for the baseline ISA only (no -m flags); each
// kernel carries wide entry points behind target attributes and runs the
// widest one this CPU and its OS support. The answer is computed once per
// process, and one test seam forces every kernel's width at once.

#ifndef LACB_COMMON_CPU_H_
#define LACB_COMMON_CPU_H_

#include <cstddef>

#include "lacb/common/status.h"

namespace lacb {

// Target attributes of the wide kernel entries, one per tier. An entry is
// built with exactly its tier's attribute, and SimdDoubleLanes() reports a
// tier only when the CPU has every extension the attribute names: 8 lanes
// need AVX-512DQ too, for 64-bit lane multiplies (vpmullq) and exact
// u64 → double conversion (vcvtuqq2pd). Use as [[LACB_TARGET_LANES8]].
#define LACB_TARGET_LANES8 gnu::target("avx512f,avx512dq")
#define LACB_TARGET_LANES4 gnu::target("avx2")

/// \brief Doubles per vector of the widest tier: 8 (AVX-512F with
/// AVX-512DQ), 4 (AVX2) or 2 (SSE2, and every target other than x86-64).
/// A tier counts only when the OS also saves its registers (libgcc's check
/// reads XCR0).
size_t SimdDoubleLanes();

/// \brief That tier's name: "avx512f" (F with DQ), "avx2", "sse2", or
/// "generic" off x86-64.
const char* SimdTierName();

/// \brief The width the kernels run at: the one a test forced, else
/// SimdDoubleLanes(). A kernel may run a pass narrower than this (the MLP
/// does for small passes) unless KernelLanesForced().
size_t KernelLanes();

/// \brief Whether ForceKernelLanesForTesting pinned the width.
bool KernelLanesForced();

/// \brief Test seam: runs every later kernel pass, on every thread, at
/// exactly `lanes` (2, 4 or 8); 0 restores the per-CPU choice. A width
/// above SimdDoubleLanes() is refused.
Status ForceKernelLanesForTesting(size_t lanes);

}  // namespace lacb

#endif  // LACB_COMMON_CPU_H_
