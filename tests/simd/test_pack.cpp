// simd::pack — every operation checked against a scalar reference, on both
// the arch-selected pack (whatever this TU resolves arch::Auto to) and the
// always-scalar pack, so the same assertions cover the vector
// specializations on vector builds and the fallback everywhere.
#include "simd/pack.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "simd/detect.hpp"

namespace {

template <class P>
class PackOps : public ::testing::Test {};

using PackImpls =
    ::testing::Types<simd::pack<double, 4>,
                     simd::pack<double, 4, simd::arch::Scalar>,
                     simd::pack<double, 2, simd::arch::Scalar>,
                     simd::pack<double, 8, simd::arch::Scalar>>;
TYPED_TEST_SUITE(PackOps, PackImpls);

// Deterministic but non-trivial lane values, including negatives and
// magnitudes spanning a few orders. The volatile store blocks FP
// contraction: under -ffp-contract=fast (the gcc default at
// -march=x86-64-v3) `base + step * i` can fuse into an fma at one call
// site and not another, making the pack fill and the scalar reference
// disagree in the last ulp. Rounding the product to memory first makes
// every caller compute the identical two-rounding value.
inline double lane_value(double base, double step, int i) {
  volatile double prod = step * i;
  return base + prod;
}

template <class P>
P iota_pack(double base, double step) {
  constexpr int w = P::width;
  double buf[w];
  for (int i = 0; i < w; ++i) buf[i] = lane_value(base, step, i);
  return P::load(buf);
}

TYPED_TEST(PackOps, LoadStoreRoundTrip) {
  constexpr int w = TypeParam::width;
  std::vector<double> in(w), out(w, 0.0);
  for (int i = 0; i < w; ++i) in[i] = 0.5 * i - 1.25;
  TypeParam::load(in.data()).store(out.data());
  for (int i = 0; i < w; ++i) EXPECT_EQ(out[i], in[i]) << i;
}

TYPED_TEST(PackOps, ArithmeticMatchesScalarBitwise) {
  constexpr int w = TypeParam::width;
  const TypeParam a = iota_pack<TypeParam>(-1.75, 0.9);
  const TypeParam b = iota_pack<TypeParam>(2.0, -0.7);
  const TypeParam sum = a + b, dif = a - b, prd = a * b, quo = a / b;
  for (int i = 0; i < w; ++i) {
    const double x = lane_value(-1.75, 0.9, i), y = lane_value(2.0, -0.7, i);
    EXPECT_EQ(sum[i], x + y) << i;
    EXPECT_EQ(dif[i], x - y) << i;
    EXPECT_EQ(prd[i], x * y) << i;
    EXPECT_EQ(quo[i], x / y) << i;
  }
}

TYPED_TEST(PackOps, MinMaxAbsMatchScalar) {
  constexpr int w = TypeParam::width;
  const TypeParam a = iota_pack<TypeParam>(-2.0, 1.1);
  const TypeParam b = iota_pack<TypeParam>(1.5, -1.0);
  const TypeParam mn = TypeParam::min(a, b), mx = TypeParam::max(a, b);
  const TypeParam ab = TypeParam::abs(a);
  for (int i = 0; i < w; ++i) {
    const double x = lane_value(-2.0, 1.1, i), y = lane_value(1.5, -1.0, i);
    EXPECT_EQ(mn[i], std::min(x, y)) << i;
    EXPECT_EQ(mx[i], std::max(x, y)) << i;
    EXPECT_EQ(ab[i], std::abs(x)) << i;
  }
}

// EXPECT_EQ on doubles calls -0.0 and +0.0 equal; compare bit patterns.
std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

TYPED_TEST(PackOps, SqrtAndNegationMatchScalarBitwise) {
  constexpr int w = TypeParam::width;
  using lim = std::numeric_limits<double>;
  const double xs[] = {0.0,           -0.0,          lim::denorm_min(),
                       -lim::denorm_min(), 3.5e-310, -3.5e-310,
                       lim::min(),    lim::infinity(), -lim::infinity(),
                       2.0,           0.1,           1.7e308,
                       -7.25};
  constexpr int k = sizeof(xs) / sizeof(xs[0]);
  for (int start = 0; start < k; start += w) {
    double buf[w];
    for (int i = 0; i < w; ++i) buf[i] = xs[(start + i) % k];
    const TypeParam x = TypeParam::load(buf);
    const TypeParam neg = -x;
    const TypeParam root = TypeParam::sqrt(x);
    for (int i = 0; i < w; ++i) {
      EXPECT_EQ(bits(neg[i]), bits(-buf[i])) << buf[i];
      const double want = std::sqrt(buf[i]);
      if (std::isnan(want)) {
        EXPECT_TRUE(std::isnan(root[i])) << buf[i];
      } else {
        EXPECT_EQ(bits(root[i]), bits(want)) << buf[i];
      }
    }
  }
}

TYPED_TEST(PackOps, FmaWithinOneRoundingOfScalar) {
  // fma is the documented rounding exception: fused on vector paths,
  // two roundings on the scalar reference. Bound the gap, don't EQ it.
  constexpr int w = TypeParam::width;
  const TypeParam a = iota_pack<TypeParam>(1.0 / 3.0, 0.25);
  const TypeParam b = iota_pack<TypeParam>(-0.7, 0.5);
  const TypeParam c = iota_pack<TypeParam>(10.0, -2.5);
  const TypeParam r = TypeParam::fma(a, b, c);
  const TypeParam s = TypeParam::fnma(a, b, c);
  for (int i = 0; i < w; ++i) {
    const double x = lane_value(1.0 / 3.0, 0.25, i),
                 y = lane_value(-0.7, 0.5, i), z = lane_value(10.0, -2.5, i);
    EXPECT_NEAR(r[i], x * y + z, 1e-14 * (1.0 + std::abs(z))) << i;
    EXPECT_NEAR(s[i], z - x * y, 1e-14 * (1.0 + std::abs(z))) << i;
  }
}

TYPED_TEST(PackOps, BlendSelectsPerLane) {
  constexpr int w = TypeParam::width;
  const TypeParam a = iota_pack<TypeParam>(0.0, 1.0);   // 0, 1, 2, ...
  const TypeParam b = iota_pack<TypeParam>(double(w), -1.0);
  const TypeParam lo = TypeParam::blend(a < b, a, b);
  const TypeParam hi = TypeParam::blend(a <= b, b, a);
  for (int i = 0; i < w; ++i) {
    const double x = i, y = double(w) - i;
    EXPECT_EQ(lo[i], x < y ? x : y) << i;
    EXPECT_EQ(hi[i], x <= y ? y : x) << i;
  }
}

TYPED_TEST(PackOps, SumUsesFixedTreeOrder) {
  constexpr int w = TypeParam::width;
  // Values chosen so the reduction order is observable: a naive
  // left-to-right sum of these differs in the last ulp from the tree.
  double buf[w];
  for (int i = 0; i < w; ++i) buf[i] = (i % 2 ? 1.0 : 1e-16) * (i + 1);
  // Reference: the documented tree — pairwise with stride ceil(half).
  double acc[w];
  for (int i = 0; i < w; ++i) acc[i] = buf[i];
  int half = w;
  while (half > 1) {
    const int next = (half + 1) / 2;
    for (int i = 0; i + next < half; ++i) acc[i] += acc[i + next];
    half = next;
  }
  EXPECT_EQ(TypeParam::load(buf).sum(), acc[0]);
}

TYPED_TEST(PackOps, BroadcastAndZero) {
  constexpr int w = TypeParam::width;
  const TypeParam b = TypeParam::broadcast(-3.25);
  const TypeParam z = TypeParam::zero();
  for (int i = 0; i < w; ++i) {
    EXPECT_EQ(b[i], -3.25) << i;
    EXPECT_EQ(z[i], 0.0) << i;
  }
}

TEST(PackArch, AutoAgreesWithScalarOnPlainOps) {
  // Whatever arch::Auto resolved to in this TU, the plain operators must be
  // bitwise identical to the scalar reference (the rounding contract).
  using Auto = simd::pack<double, 4>;
  using Ref = simd::pack<double, 4, simd::arch::Scalar>;
  const double xs[4] = {1.0 / 3.0, -2.5e-8, 7.75, -123.0625};
  const double ys[4] = {0.1, 3.0, -1.0 / 7.0, 2.5e8};
  const Auto a1 = Auto::load(xs), a2 = Auto::load(ys);
  const Ref r1 = Ref::load(xs), r2 = Ref::load(ys);
  double got[4], want[4];
  (a1 + a2).store(got), (r1 + r2).store(want);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(got[i], want[i]) << "+ lane " << i;
  (a1 * a2).store(got), (r1 * r2).store(want);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(got[i], want[i]) << "* lane " << i;
  (a1 / a2).store(got), (r1 / r2).store(want);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(got[i], want[i]) << "/ lane " << i;
  Auto::sqrt(a2 * a2).store(got), Ref::sqrt(r2 * r2).store(want);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(got[i], want[i]) << "sqrt lane " << i;
  (-a1).store(got), (-r1).store(want);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(got[i], want[i]) << "neg lane " << i;
  EXPECT_EQ((a1 + a2).sum(), (r1 + r2).sum());
}

TEST(Detect, RuntimeAndCompiledFlagsAreConsistent) {
  // active width is 4 exactly when both the TU compiled the AVX2 pack and
  // the host executes it; otherwise 1. Under LLP_SIMD_FORCE_SCALAR both
  // compiled_with_avx2() and runtime_has_avx2() must report false.
  const int w = simd::active_double_width();
  if (simd::compiled_with_avx2() && simd::runtime_has_avx2()) {
    EXPECT_EQ(w, 4);
  } else {
    EXPECT_EQ(w, 1);
  }
#if defined(LLP_SIMD_FORCE_SCALAR)
  EXPECT_FALSE(simd::compiled_with_avx2());
  EXPECT_FALSE(simd::runtime_has_avx2());
  EXPECT_EQ(w, 1);
#endif
}

}  // namespace
