#include "f3d/sweep_common.hpp"

#include <algorithm>
#include <cmath>

#include "f3d/eigen.hpp"
#include "f3d/sweep_batch.hpp"
#include "f3d/tridiag.hpp"
#include "simd/detect.hpp"
#include "util/error.hpp"

namespace f3d {

namespace {

/// Where one line of a dir sweep starts in the zone's padded layout, and
/// the element stride between consecutive cells along it. Q and the rhs
/// work array share that layout, so one offset and stride serve both.
struct LineWalk {
  std::size_t base = 0;
  std::size_t step = 0;
};

LineWalk line_walk(const Zone& zone, int dir, int t0, int t1) {
  const int ng = Zone::kGhost;
  int j0, k0, l0;
  switch (dir) {
    case 0: j0 = 0; k0 = t0; l0 = t1; break;
    case 1: j0 = t0; k0 = 0; l0 = t1; break;
    default: j0 = t0; k0 = t1; l0 = 0; break;
  }
  const llp::Array4D<double>& qarr = zone.storage();
  LineWalk lw;
  lw.base = qarr.index(0, j0 + ng, k0 + ng, l0 + ng);
  lw.step = qarr.index(0, j0 + ng + (dir == 0), k0 + ng + (dir == 1),
                       l0 + ng + (dir == 2)) -
            lw.base;
  return lw;
}

// The rhs work array must share the zone's padded layout: line_walk's
// offset and stride serve both.
void check_work_layout([[maybe_unused]] const Zone& zone,
                       [[maybe_unused]] const llp::Array4D<double>& rhs) {
  [[maybe_unused]] constexpr int ng = Zone::kGhost;
  LLP_ASSERT(rhs.nvar() == kNumVars && rhs.jmax() == zone.jmax() + 2 * ng &&
             rhs.kmax() == zone.kmax() + 2 * ng &&
             rhs.lmax() == zone.lmax() + 2 * ng);
}

}  // namespace

namespace detail {

void check_gathered_state([[maybe_unused]] double p,
                          [[maybe_unused]] double rho) {
  LLP_ASSERT(p > 0.0 && rho > 0.0);
}

}  // namespace detail

void SimdBatchWorkspace::ensure(int n) {
  if (n <= capacity) return;
  constexpr std::size_t W = kTridiagLaneWidth;
  const std::size_t nn = static_cast<std::size_t>(n);
  state.resize(5 * nn * W);
  w.resize(5 * nn * W);
  a.resize(nn * W);
  b.resize(nn * W);
  c.resize(nn * W);
  capacity = n;
}

void PencilWorkspace::ensure(int n) {
  if (n <= capacity) return;
  const std::size_t nn = static_cast<std::size_t>(n);
  q.resize(5 * nn);
  r.resize(5 * nn);
  w.resize(5 * nn);
  lam.resize(5 * nn);
  a.resize(nn);
  b.resize(nn);
  c.resize(nn);
  d.resize(nn);
  capacity = n;
}

SweepShape sweep_shape(const Zone& zone, int dir) {
  SweepShape s;
  switch (dir) {
    case 0:  // J sweep: lines along j, parallel over l, inner k
      s.line_n = zone.jmax();
      s.outer_n = zone.lmax();
      s.inner_n = zone.kmax();
      break;
    case 1:  // K sweep: lines along k, parallel over l, inner j
      s.line_n = zone.kmax();
      s.outer_n = zone.lmax();
      s.inner_n = zone.jmax();
      break;
    case 2:  // L sweep: lines along l, parallel over k, inner j
      s.line_n = zone.lmax();
      s.outer_n = zone.kmax();
      s.inner_n = zone.jmax();
      break;
    default:
      throw llp::Error("bad sweep direction");
  }
  return s;
}

void solve_pencil(const Zone& zone, int dir, int t0, int t1, double dt,
                  double kappa_i, llp::Array4D<double>& rhs,
                  PencilWorkspace& ws, bool periodic) {
  const SweepShape shape = sweep_shape(zone, dir);
  const int n = shape.line_n;
  ws.ensure(n);
  check_work_layout(zone, rhs);

  const double h[3] = {zone.dx(), zone.dy(), zone.dz()};
  const double inv_h = 1.0 / h[dir];
  const double hd = 0.5 * dt * inv_h;  // central-difference weight

  const LineWalk lw = line_walk(zone, dir, t0, t1);
  const std::size_t step = lw.step;
  const double* qline = zone.storage().data() + lw.base;
  double* rline = rhs.data() + lw.base;

  // Gather state + rhs, project to characteristic variables.
  for (int i = 0; i < n; ++i) {
    const double* qp = qline + static_cast<std::size_t>(i) * step;
    const double* rp = rline + static_cast<std::size_t>(i) * step;
    double* qi = &ws.q[5 * static_cast<std::size_t>(i)];
    double* ri = &ws.r[5 * static_cast<std::size_t>(i)];
    for (int m = 0; m < kNumVars; ++m) {
      qi[m] = qp[m];
      ri[m] = rp[m];
    }
    eigenvalues(dir, qi, &ws.lam[5 * static_cast<std::size_t>(i)]);
    apply_left(dir, qi, ri, &ws.w[5 * static_cast<std::size_t>(i)]);
  }

  // Five scalar tridiagonal solves with the flux-split (upwind) implicit
  // operator: lambda+ differenced backward, lambda- forward. This is the
  // "partially flux-split" implicit treatment of Steger's F3D — a central
  // implicit operator makes 3-factor approximate factorization weakly
  // unstable in 3-D, while the split operator is an M-matrix and damps.
  // The steady state (RHS == 0) is unaffected by the LHS choice.
  //
  // Boundary rows must stay implicit too: an identity (fully explicit)
  // boundary row reintroduces the explicit stability limit at every line
  // end. Non-periodic lines couple one-sidedly inward, taking the ghost
  // increment as zero; periodic lines wrap and use the cyclic solver.
  const double hu = 2.0 * hd;  // dt / h: first-order upwind weight
  for (int m = 0; m < kNumVars; ++m) {
    for (int i = 0; i < n; ++i) {
      const std::size_t ii = static_cast<std::size_t>(i);
      const int im = (i > 0) ? i - 1 : (periodic ? n - 1 : -1);
      const int ip = (i < n - 1) ? i + 1 : (periodic ? 0 : -1);
      const double lam_0 = ws.lam[5 * ii + m];
      const double sr = std::max(std::abs(ws.lam[5 * ii + 0]),
                                 std::abs(ws.lam[5 * ii + 4]));
      const double eps = kappa_i * dt * inv_h * sr;
      double a = 0.0, c = 0.0;
      double b = 1.0 + hu * std::abs(lam_0) + 2.0 * eps;
      if (im >= 0) {
        const double lam_m1_p =
            std::max(ws.lam[5 * static_cast<std::size_t>(im) + m], 0.0);
        a = -hu * lam_m1_p - eps;
      }
      if (ip >= 0) {
        const double lam_p1_m =
            std::min(ws.lam[5 * static_cast<std::size_t>(ip) + m], 0.0);
        c = hu * lam_p1_m - eps;
      }
      ws.a[ii] = a;
      ws.b[ii] = b;
      ws.c[ii] = c;
      ws.d[ii] = ws.w[5 * ii + m];
    }
    if (periodic) {
      solve_periodic_tridiagonal(std::span<const double>(ws.a.data(), n),
                                 std::span<double>(ws.b.data(), n),
                                 std::span<const double>(ws.c.data(), n),
                                 std::span<double>(ws.d.data(), n));
    } else {
      solve_tridiagonal(std::span<const double>(ws.a.data(), n),
                        std::span<double>(ws.b.data(), n),
                        std::span<const double>(ws.c.data(), n),
                        std::span<double>(ws.d.data(), n));
    }
    for (int i = 0; i < n; ++i) {
      ws.w[5 * static_cast<std::size_t>(i) + m] =
          ws.d[static_cast<std::size_t>(i)];
    }
  }

  // Project back and scatter.
  for (int i = 0; i < n; ++i) {
    const std::size_t ii = static_cast<std::size_t>(i);
    double out[kNumVars];
    apply_right(dir, &ws.q[5 * ii], &ws.w[5 * ii], out);
    double* rp = rline + ii * step;
    for (int m = 0; m < kNumVars; ++m) rp[m] = out[m];
  }
}

void solve_pencil_batch(const Zone& zone, int dir, int outer, int inner0,
                        int count, double dt, double kappa_i,
                        llp::Array4D<double>& rhs, SimdBatchWorkspace& ws) {
  constexpr int W = kTridiagLaneWidth;
  LLP_ASSERT(count >= 1 && count <= W);
  const SweepShape shape = sweep_shape(zone, dir);
  const int n = shape.line_n;
  ws.ensure(n);
  check_work_layout(zone, rhs);

  const double h[3] = {zone.dx(), zone.dy(), zone.dz()};
  const double inv_h = 1.0 / h[dir];

  // Task coordinates follow the engines' convention: t0 = inner index,
  // t1 = outer index (see sweeps.cpp). Padding lanes replicate the last
  // real pencil, so the kernel always runs well-conditioned full batches.
  detail::BatchLines<W> lines;
  for (int p = 0; p < W; ++p) {
    const LineWalk lw =
        line_walk(zone, dir, inner0 + std::min(p, count - 1), outer);
    lines.q[p] = zone.storage().data() + lw.base;
    lines.r[p] = rhs.data() + lw.base;
    lines.step = lw.step;
  }
  lines.n = n;
  lines.count = count;
  for (int k = 0; k < 3; ++k) lines.mom[k] = 1 + (dir + k) % 3;
  lines.gamma = kGamma;
  lines.hu = dt * inv_h;
  lines.eps_scale = kappa_i * dt * inv_h;
  const detail::BatchScratch scratch{ws.state.data(), ws.w.data(),
                                     ws.a.data(), ws.b.data(), ws.c.data()};
#if defined(LLP_F3D_HAVE_AVX2_TU)
  if (simd::runtime_has_avx2()) {
    detail::solve_pencil_batch_avx2(lines, scratch);
    return;
  }
#endif
  detail::solve_pencil_batch_t<simd::pack<double, W, simd::arch::Scalar>>(
      lines, scratch);
}

}  // namespace f3d
