// Run-time choice of the SIMD tier for the batched MLP kernel.
//
// The library is compiled for the baseline ISA only (no -m flags); the
// kernel carries AVX2 and AVX-512F entry points behind target attributes
// and runs the widest one this CPU and its OS support. The answer is
// computed once per process.

#ifndef LACB_COMMON_CPU_H_
#define LACB_COMMON_CPU_H_

#include <cstddef>

namespace lacb {

/// \brief Doubles per vector of the widest tier: 8 (AVX-512F), 4 (AVX2) or
/// 2 (SSE2, and every target other than x86-64). A tier counts only when
/// the OS also saves its registers (libgcc's check reads XCR0).
size_t SimdDoubleLanes();

/// \brief That tier's name: "avx512f", "avx2", "sse2", or "generic" off
/// x86-64.
const char* SimdTierName();

}  // namespace lacb

#endif  // LACB_COMMON_CPU_H_
