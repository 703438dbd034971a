// simd::pack — a small portable vector abstraction.
//
// A pack<T, W, Arch> is W lanes of T operated on in lockstep. The primary
// template is plain scalar lane arrays, so every pack program compiles (and
// is correct) on any target; the x86 specializations map the same surface
// onto real vector instructions. Which implementation a translation unit
// sees is selected per-TU by the architecture tag:
//
//   pack<double, 4>                    // arch::Auto: AVX2 when this TU is
//                                      // compiled with -mavx2 -mfma,
//                                      // scalar lanes otherwise
//   pack<double, 4, arch::Scalar>      // always the scalar reference
//
// The tag is a template parameter, not an #ifdef inside one class, so a
// binary mixing AVX2-compiled and generic translation units never violates
// the one-definition rule: pack<double,4,arch::Avx2> and
// pack<double,4,arch::Scalar> are distinct types with distinct symbols.
//
// Rounding contract: lane-wise +, -, *, /, sqrt, min, max, abs, negation
// and blends are IEEE-754 operations identical to their scalar
// counterparts on every implementation. fma()/fnma() are the documented exception — the AVX2
// implementation uses true fused multiply-adds (one rounding), while the
// scalar reference rounds the product and the sum separately. Kernels that
// use fma() therefore match their scalar references to a relative error of
// O(eps) per operation, not bitwise; callers that need bitwise parity with
// scalar code must stick to the plain operators.
//
// Building with -DLLP_SIMD_FORCE_SCALAR (CMake option of the same name)
// pins arch::Auto to Scalar everywhere regardless of compiler flags — the
// forced-fallback configuration CI builds to prove the scalar path stays
// correct and warning-clean.
#pragma once

#include <cmath>
#include <cstddef>

#if defined(__AVX2__) && defined(__FMA__) && !defined(LLP_SIMD_FORCE_SCALAR)
#define LLP_SIMD_PACK_AVX2 1
#include <immintrin.h>
#endif

namespace simd {

namespace arch {

/// Scalar lane arrays; the portable reference implementation.
struct Scalar {};
/// 256-bit AVX2 + FMA (4 doubles per pack).
struct Avx2 {};

/// What this translation unit's pack<..., Auto> resolves to.
#if defined(LLP_SIMD_PACK_AVX2)
using Auto = Avx2;
#else
using Auto = Scalar;
#endif

}  // namespace arch

/// Primary template: W scalar lanes. Works for any arithmetic T and any
/// W >= 1; the compiler is free to (and with vector ISAs enabled, does)
/// auto-vectorize the lane loops, but correctness never depends on it.
template <class T, int W, class A = arch::Auto>
struct pack {
  static_assert(W >= 1, "pack width must be positive");
  static constexpr int width = W;
  using value_type = T;

  T lane[W];

  /// Lane-wise comparison result; consumed by blend().
  struct mask {
    bool lane[W];
  };

  static pack load(const T* p) {
    pack r;
    for (int i = 0; i < W; ++i) r.lane[i] = p[i];
    return r;
  }
  static pack broadcast(T x) {
    pack r;
    for (int i = 0; i < W; ++i) r.lane[i] = x;
    return r;
  }
  static pack zero() { return broadcast(T(0)); }
  void store(T* p) const {
    for (int i = 0; i < W; ++i) p[i] = lane[i];
  }
  T operator[](int i) const { return lane[i]; }

  friend pack operator+(pack a, pack b) {
    pack r;
    for (int i = 0; i < W; ++i) r.lane[i] = a.lane[i] + b.lane[i];
    return r;
  }
  friend pack operator-(pack a, pack b) {
    pack r;
    for (int i = 0; i < W; ++i) r.lane[i] = a.lane[i] - b.lane[i];
    return r;
  }
  friend pack operator*(pack a, pack b) {
    pack r;
    for (int i = 0; i < W; ++i) r.lane[i] = a.lane[i] * b.lane[i];
    return r;
  }
  friend pack operator/(pack a, pack b) {
    pack r;
    for (int i = 0; i < W; ++i) r.lane[i] = a.lane[i] / b.lane[i];
    return r;
  }
  /// Exact negation (sign flip), so -0.0 and +0.0 trade places as -x does.
  friend pack operator-(pack a) {
    pack r;
    for (int i = 0; i < W; ++i) r.lane[i] = -a.lane[i];
    return r;
  }
  static pack sqrt(pack a) {
    pack r;
    for (int i = 0; i < W; ++i) r.lane[i] = std::sqrt(a.lane[i]);
    return r;
  }

  /// a*b + c. Scalar reference rounds twice (see header comment); vector
  /// implementations fuse.
  static pack fma(pack a, pack b, pack c) {
    pack r;
    for (int i = 0; i < W; ++i) r.lane[i] = a.lane[i] * b.lane[i] + c.lane[i];
    return r;
  }
  /// c - a*b (the Thomas-elimination shape).
  static pack fnma(pack a, pack b, pack c) {
    pack r;
    for (int i = 0; i < W; ++i) r.lane[i] = c.lane[i] - a.lane[i] * b.lane[i];
    return r;
  }

  static pack min(pack a, pack b) {
    pack r;
    for (int i = 0; i < W; ++i) {
      r.lane[i] = a.lane[i] < b.lane[i] ? a.lane[i] : b.lane[i];
    }
    return r;
  }
  static pack max(pack a, pack b) {
    pack r;
    for (int i = 0; i < W; ++i) {
      r.lane[i] = a.lane[i] > b.lane[i] ? a.lane[i] : b.lane[i];
    }
    return r;
  }
  static pack abs(pack a) {
    pack r;
    for (int i = 0; i < W; ++i) r.lane[i] = std::abs(a.lane[i]);
    return r;
  }

  friend mask operator<(pack a, pack b) {
    mask m;
    for (int i = 0; i < W; ++i) m.lane[i] = a.lane[i] < b.lane[i];
    return m;
  }
  friend mask operator<=(pack a, pack b) {
    mask m;
    for (int i = 0; i < W; ++i) m.lane[i] = a.lane[i] <= b.lane[i];
    return m;
  }

  /// Lane-wise select: m ? a : b.
  static pack blend(mask m, pack a, pack b) {
    pack r;
    for (int i = 0; i < W; ++i) r.lane[i] = m.lane[i] ? a.lane[i] : b.lane[i];
    return r;
  }

  /// Horizontal sum in a fixed tree order — (l0+l2) + (l1+l3) at W=4 — so
  /// every implementation (scalar, AVX2) reduces identically and a result
  /// computed through pack is bit-stable across build configurations.
  T sum() const {
    if constexpr (W == 1) {
      return lane[0];
    } else {
      T acc[W];
      for (int i = 0; i < W; ++i) acc[i] = lane[i];
      int half = W;
      while (half > 1) {
        const int next = (half + 1) / 2;
        for (int i = 0; i + next < half; ++i) acc[i] = acc[i] + acc[i + next];
        half = next;
      }
      return acc[0];
    }
  }
};

#if defined(LLP_SIMD_PACK_AVX2)

/// AVX2 + FMA: 4 doubles per pack. Unaligned loads/stores throughout —
/// the penalty on any AVX2-era core is negligible and callers never have
/// to reason about 32-byte alignment of interior slices.
template <>
struct pack<double, 4, arch::Avx2> {
  static constexpr int width = 4;
  using value_type = double;

  __m256d v;

  struct mask {
    __m256d m;  // all-ones lanes where true
  };

  static pack load(const double* p) { return {_mm256_loadu_pd(p)}; }
  static pack broadcast(double x) { return {_mm256_set1_pd(x)}; }
  static pack zero() { return {_mm256_setzero_pd()}; }
  void store(double* p) const { _mm256_storeu_pd(p, v); }
  double operator[](int i) const {
    double tmp[4];
    _mm256_storeu_pd(tmp, v);
    return tmp[i];
  }

  friend pack operator+(pack a, pack b) { return {_mm256_add_pd(a.v, b.v)}; }
  friend pack operator-(pack a, pack b) { return {_mm256_sub_pd(a.v, b.v)}; }
  friend pack operator*(pack a, pack b) { return {_mm256_mul_pd(a.v, b.v)}; }
  friend pack operator/(pack a, pack b) { return {_mm256_div_pd(a.v, b.v)}; }
  friend pack operator-(pack a) {
    return {_mm256_xor_pd(a.v, _mm256_set1_pd(-0.0))};
  }
  static pack sqrt(pack a) { return {_mm256_sqrt_pd(a.v)}; }

  static pack fma(pack a, pack b, pack c) {
    return {_mm256_fmadd_pd(a.v, b.v, c.v)};
  }
  static pack fnma(pack a, pack b, pack c) {
    return {_mm256_fnmadd_pd(a.v, b.v, c.v)};
  }

  static pack min(pack a, pack b) { return {_mm256_min_pd(a.v, b.v)}; }
  static pack max(pack a, pack b) { return {_mm256_max_pd(a.v, b.v)}; }
  static pack abs(pack a) {
    const __m256d sign = _mm256_set1_pd(-0.0);
    return {_mm256_andnot_pd(sign, a.v)};
  }

  friend mask operator<(pack a, pack b) {
    return {_mm256_cmp_pd(a.v, b.v, _CMP_LT_OQ)};
  }
  friend mask operator<=(pack a, pack b) {
    return {_mm256_cmp_pd(a.v, b.v, _CMP_LE_OQ)};
  }

  static pack blend(mask m, pack a, pack b) {
    return {_mm256_blendv_pd(b.v, a.v, m.m)};
  }

  double sum() const {
    // Same fixed tree order as the scalar reference: (l0+l2) + (l1+l3).
    double tmp[4];
    _mm256_storeu_pd(tmp, v);
    return (tmp[0] + tmp[2]) + (tmp[1] + tmp[3]);
  }
};

#endif  // LLP_SIMD_PACK_AVX2

}  // namespace simd
