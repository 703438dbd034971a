// AVX2+FMA instantiation of the lane-vectorized pencil batch kernel.
//
// Built with -mavx2 -mfma under the same CMake condition as
// tridiag_avx2.cpp, and reached only through solve_pencil_batch()'s
// simd::runtime_has_avx2() dispatch, so the rest of the library keeps the
// base ISA. Like tridiag_avx2.cpp it includes nothing but templates and
// simd/pack.hpp (see sweep_batch.hpp).
#include "f3d/sweep_batch.hpp"

#if !defined(LLP_SIMD_PACK_AVX2)
#error "sweep_batch_avx2.cpp must be compiled with -mavx2 -mfma"
#endif

namespace f3d::detail {

void solve_pencil_batch_avx2(const BatchLines<4>& ln, const BatchScratch& s) {
  solve_pencil_batch_t<simd::pack<double, 4, simd::arch::Avx2>>(ln, s);
}

}  // namespace f3d::detail
