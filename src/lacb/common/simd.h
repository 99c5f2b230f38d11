// Fixed-width vectors for the run-time-dispatched kernels (common/cpu.h).
//
// A kernel is a template over its lane count L whose helpers are all
// always-inlined into one out-of-line entry per tier; only the entries
// carry target attributes. Vectors travel by reference only: a vector
// wider than 16 bytes passed or returned by value has an ISA-dependent ABI
// (GCC's -Wpsabi), and these helpers are compiled for the baseline ISA
// before being inlined.

#ifndef LACB_COMMON_SIMD_H_
#define LACB_COMMON_SIMD_H_

#include <cstdint>
#include <cstring>

// A kernel helper: always inlined, so it is compiled for the ISA of the
// entry it lands in.
#define LACB_TILE [[gnu::always_inline]] inline

namespace lacb::simd {

// L lanes per vector: SSE2 (L = 2), AVX2 (4) or AVX-512 (8) on x86-64;
// NEON or scalar pairs for L = 2 elsewhere. Comparisons of V yield
// all-ones/all-zeros 64-bit lane masks M.
template <int L>
struct Lanes {
  typedef double V __attribute__((vector_size(8 * L)));
  typedef int64_t M __attribute__((vector_size(8 * L)));
  typedef uint64_t U __attribute__((vector_size(8 * L)));
};

template <class T>
LACB_TILE void Load(T& v, const void* p) {
  std::memcpy(&v, p, sizeof(v));
}
template <class T>
LACB_TILE void Store(void* p, const T& v) {
  std::memcpy(p, &v, sizeof(v));
}

}  // namespace lacb::simd

#endif  // LACB_COMMON_SIMD_H_
