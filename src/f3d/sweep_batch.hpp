// Lane-vectorized pencil batch kernel (internal).
//
// One batch of the SIMD engine — gather, L-projection, flux-split
// coefficient build, Thomas solve, R-projection and scatter — as one
// template over simd::pack, with the W pencils of the batch in
// structure-of-arrays lanes from the first load to the last store.
// solve_pencil_batch() in sweep_common.cpp resolves the batch's geometry
// into BatchLines and dispatches: the arch::Scalar instantiation lives in
// that base-ISA translation unit, the arch::Avx2 one in
// sweep_batch_avx2.cpp.
//
// This header includes only templates and simd/pack.hpp. It is compiled
// with -mavx2 -mfma in sweep_batch_avx2.cpp, and a non-template inline
// function pulled in from elsewhere (gas.hpp's pressure(), the error
// helpers) would get an AVX2 copy there that the linker may keep for the
// base-ISA callers. Hence the gas constant arrives as data and the debug
// check as an out-of-line call.
//
// Rounding: every expression keeps the operation order and
// parenthesization of gas.hpp's pressure()/sound_speed(), eigen.cpp's
// projections and solve_pencil's coefficient build, using only plain pack
// operators (lane-wise IEEE, identical to scalar). min/max operands are
// ordered so that NaN and signed-zero cases pick the same operand as
// std::min/std::max; negation is exact. The one fused operation is inside
// solve_tridiagonal_lanes_t, so a batch is bitwise the per-pencil
// projections around the lane Thomas kernel.
#pragma once

#include <cstddef>

#include "f3d/tridiag_lanes.hpp"
#include "simd/pack.hpp"

namespace f3d::detail {

/// One batch's lines and constants, resolved by the base-ISA caller so the
/// kernel never touches Zone or Array4D.
template <int W>
struct BatchLines {
  const double* q[W] = {};  ///< first cell of lane p's line in Q
  double* r[W] = {};        ///< the same cell in the rhs array
  std::size_t step = 0;     ///< elements between cells along the line
  int n = 0;                ///< line length
  int count = 0;            ///< real pencils; lanes >= count repeat count-1
  int mom[3] = {};          ///< normal, tangent 1, tangent 2 momentum index
  double gamma = 0.0;       ///< ratio of specific heats
  double hu = 0.0;          ///< dt / h, the first-order upwind weight
  double eps_scale = 0.0;   ///< kappa_i * dt / h
};

/// Debug-build check on one gathered lane, LLP_ASSERT(p > 0 && rho > 0) as
/// in sound_speed(). Defined in sweep_common.cpp.
void check_gathered_state(double p, double rho);

/// Workspace slices of one batch (SimdBatchWorkspace): `state` 5*n*W,
/// `w` 5*n*W, `a`, `b`, `c` n*W each.
struct BatchScratch {
  double* state;
  double* w;
  double* a;
  double* b;
  double* c;
};

/// Solve the batch's W lines in place in the rhs array. Layout: cell i's
/// cached state k (un, ut1, ut2, c, H) at state[(5*i + k)*W + p], its
/// variable m at w[(m*n + i)*W + p] — variable-major, so each Thomas solve
/// runs in place on one contiguous w slice.
template <class P>
void solve_pencil_batch_t(const BatchLines<P::width>& ln,
                          const BatchScratch& s) {
  constexpr int W = P::width;
  constexpr int kVars = 5;
  const int n = ln.n;
  const std::size_t nw = static_cast<std::size_t>(n) * W;
  double* const state = s.state;
  double* const w = s.w;

  // Gather: raw Q into each cell's state slots, raw rhs into w. Plain
  // copies, in their own loop so the packs below load settled memory.
  for (int i = 0; i < n; ++i) {
    const std::size_t at = static_cast<std::size_t>(i) * ln.step;
    double* sq = state + static_cast<std::size_t>(kVars * i) * W;
    double* wr = w + static_cast<std::size_t>(i) * W;
    for (int p = 0; p < W; ++p) {
      const double* qp = ln.q[p] + at;
      const double* rp = ln.r[p] + at;
      for (int m = 0; m < kVars; ++m) {
        sq[m * W + p] = qp[m];
        wr[m * nw + p] = rp[m];
      }
    }
  }

  const P half = P::broadcast(0.5);
  const P one = P::broadcast(1.0);
  const P two = P::broadcast(2.0);
  const P zero = P::zero();
  const P gam = P::broadcast(ln.gamma);
  const P g = P::broadcast(ln.gamma - 1.0);
  const std::size_t x1_at = static_cast<std::size_t>(ln.mom[0]) * nw;
  const std::size_t x2_at = static_cast<std::size_t>(ln.mom[1]) * nw;
  const std::size_t x3_at = static_cast<std::size_t>(ln.mom[2]) * nw;

  // Cache the local state, then project the rhs with L (apply_left).
  for (int i = 0; i < n; ++i) {
    double* sq = state + static_cast<std::size_t>(kVars * i) * W;
    double* wi = w + static_cast<std::size_t>(i) * W;
    const P rho = P::load(sq);
    const P q1 = P::load(sq + W);
    const P q2 = P::load(sq + 2 * W);
    const P q3 = P::load(sq + 3 * W);
    const P q4 = P::load(sq + 4 * W);
    const P ke = half * (q1 * q1 + q2 * q2 + q3 * q3) / rho;
    const P p = g * (q4 - ke);
#if !defined(NDEBUG)
    for (int l = 0; l < W; ++l) check_gathered_state(p[l], rho[l]);
#endif
    const P un = P::load(sq + ln.mom[0] * W) / rho;
    const P ut1 = P::load(sq + ln.mom[1] * W) / rho;
    const P ut2 = P::load(sq + ln.mom[2] * W) / rho;
    const P c = P::sqrt(gam * p / rho);
    const P H = (q4 + p) / rho;

    const P x0 = P::load(wi);
    const P x1 = P::load(wi + x1_at);
    const P x2 = P::load(wi + x2_at);
    const P x3 = P::load(wi + x3_at);
    const P x4 = P::load(wi + 4 * nw);
    const P qq = un * un + ut1 * ut1 + ut2 * ut2;
    const P b2 = g / (c * c);
    const P b1 = half * b2 * qq;
    const P uoc = un / c;
    const P vx = un * x1 + ut1 * x2 + ut2 * x3;
    const P common = -b2 * vx + b2 * x4;
    (half * (((b1 + uoc) * x0) - x1 / c + common)).store(wi);
    ((one - b1) * x0 + b2 * vx - b2 * x4).store(wi + nw);
    (-ut1 * x0 + x2).store(wi + 2 * nw);
    (-ut2 * x0 + x3).store(wi + 3 * nw);
    (half * (((b1 - uoc) * x0) + x1 / c + common)).store(wi + 4 * nw);

    un.store(sq);
    ut1.store(sq + W);
    ut2.store(sq + 2 * W);
    c.store(sq + 3 * W);
    H.store(sq + 4 * W);
  }

  // Five flux-split solves, lambda+ differenced backward and lambda-
  // forward (solve_pencil's operator), the eigenvalues rebuilt from the
  // cached un and c. Characteristics 1..3 share lambda = un, so their a
  // and c rows are built once; b is rebuilt because the solve consumes it.
  const P hu = P::broadcast(ln.hu);
  const P neg_hu = P::broadcast(-ln.hu);
  const P eps_scale = P::broadcast(ln.eps_scale);
  auto eigenvalue = [&](int i, int m) {
    const double* sq = state + static_cast<std::size_t>(kVars * i) * W;
    const P un = P::load(sq);
    if (m == 0) return un - P::load(sq + 3 * W);
    if (m == kVars - 1) return un + P::load(sq + 3 * W);
    return un;
  };
  for (int m = 0; m < kVars; ++m) {
    const bool rows_built = m == 2 || m == 3;
    P lam = eigenvalue(0, m);
    P lam_prev = zero;
    for (int i = 0; i < n; ++i) {
      const std::size_t at = static_cast<std::size_t>(i) * W;
      const P lam_next = i + 1 < n ? eigenvalue(i + 1, m) : zero;
      const double* sq = state + static_cast<std::size_t>(kVars * i) * W;
      const P un = P::load(sq);
      const P c = P::load(sq + 3 * W);
      const P sr = P::max(P::abs(un + c), P::abs(un - c));
      const P eps = eps_scale * sr;
      (one + hu * P::abs(lam) + two * eps).store(s.b + at);
      if (!rows_built) {
        (i > 0 ? neg_hu * P::max(zero, lam_prev) - eps : zero)
            .store(s.a + at);
        (i + 1 < n ? hu * P::min(zero, lam_next) - eps : zero)
            .store(s.c + at);
      }
      lam_prev = lam;
      lam = lam_next;
    }
    solve_tridiagonal_lanes_t<P>(s.a, s.b, s.c,
                                 w + static_cast<std::size_t>(m) * nw, n);
  }

  // Project back with R (apply_right) into conservative order, in place.
  for (int i = 0; i < n; ++i) {
    const double* sq = state + static_cast<std::size_t>(kVars * i) * W;
    double* wi = w + static_cast<std::size_t>(i) * W;
    const P un = P::load(sq);
    const P ut1 = P::load(sq + W);
    const P ut2 = P::load(sq + 2 * W);
    const P c = P::load(sq + 3 * W);
    const P H = P::load(sq + 4 * W);
    const P w0 = P::load(wi);
    const P w1 = P::load(wi + nw);
    const P w2 = P::load(wi + 2 * nw);
    const P w3 = P::load(wi + 3 * nw);
    const P w4 = P::load(wi + 4 * nw);
    const P qq = un * un + ut1 * ut1 + ut2 * ut2;
    const P y1 = (un - c) * w0 + un * w1 + (un + c) * w4;
    const P y2 = ut1 * (w0 + w1 + w4) + w2;
    const P y3 = ut2 * (w0 + w1 + w4) + w3;
    const P y4 = (H - un * c) * w0 + half * qq * w1 + ut1 * w2 + ut2 * w3 +
                 (H + un * c) * w4;
    (w0 + w1 + w4).store(wi);
    y1.store(wi + x1_at);
    y2.store(wi + x2_at);
    y3.store(wi + x3_at);
    y4.store(wi + 4 * nw);
  }

  // Scatter the real pencils; the replicated tail lanes are dropped.
  for (int i = 0; i < n; ++i) {
    const std::size_t at = static_cast<std::size_t>(i) * ln.step;
    const double* wi = w + static_cast<std::size_t>(i) * W;
    for (int p = 0; p < ln.count; ++p) {
      double* rp = ln.r[p] + at;
      for (int m = 0; m < kVars; ++m) rp[m] = wi[m * nw + p];
    }
  }
}

#if defined(LLP_F3D_HAVE_AVX2_TU)
/// The AVX2+FMA instantiation, defined in sweep_batch_avx2.cpp.
void solve_pencil_batch_avx2(const BatchLines<4>& ln, const BatchScratch& s);
#endif

}  // namespace f3d::detail
