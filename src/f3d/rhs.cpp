#include "f3d/rhs.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "simd/pack.hpp"
#include "util/error.hpp"

namespace f3d {

namespace {

// rhs_plane_sumsq reduces a contiguous row in 4-wide packs. This TU is
// compiled at the base ISA, so dpack is the scalar reference unless the
// whole build targets a vector ISA (-march=x86-64-v3 CI job).
using dpack = simd::pack<double, 4>;

constexpr int ng = Zone::kGhost;

// JST pressure switch of a cell from its own and its two neighbours'
// pressure along one direction.
inline double pressure_switch(double pm, double p0, double pp) {
  return std::abs(pp - 2.0 * p0 + pm) / (pp + 2.0 * p0 + pm);
}

// JST dissipation flux d at the interface between cells q0 and qp1, from
// the four cells qm1..qp2 along the direction, the pressure switches nu and
// spectral radii sr of the two cells adjoining the interface, and 1/h
// (giving d flux-divergence units). The caller accumulates
// d_{i+1/2} - d_{i-1/2}.
inline void jst_interface(const double* qm1, const double* q0,
                          const double* qp1, const double* qp2, double nu0,
                          double nu1, double sr0, double sr1, double inv_h,
                          double kappa2, double kappa4, double* d) {
  const double eps2 = kappa2 * std::max(nu0, nu1);
  const double eps4 = std::max(0.0, kappa4 - eps2);
  const double sig = 0.5 * (sr0 + sr1) * inv_h;
  for (int n = 0; n < kNumVars; ++n) {
    const double d1 = qp1[n] - q0[n];
    const double d3 = qp2[n] - 3.0 * qp1[n] + 3.0 * q0[n] - qm1[n];
    d[n] = sig * (eps2 * d1 - eps4 * d3);
  }
}

// One direction's contribution to a cell's residual, in the operation
// order the solver's answers are pinned to:
//   r += (F_{i+1} - F_{i-1}) * h/2 - (D_{i+1/2} - D_{i-1/2}).
inline void add_direction(double r[kNumVars], const double* fp,
                          const double* fm, const double* dp,
                          const double* dm, double half_inv) {
  for (int n = 0; n < kNumVars; ++n) {
    r[n] += (fp[n] - fm[n]) * half_inv - (dp[n] - dm[n]);
  }
}

// Ring slot of row k in a ring of `size` rows (k >= -kGhost).
inline int ring(int k, int size) { return (k + ng) % size; }

// RhsWorkspace::rows carved into rows. A scalar row holds one double per
// cell j in [-kGhost, capacity + kGhost), a vector row kNumVars (n fastest,
// as in Q); every pointer is pre-offset so it is indexed by interior j
// (times kNumVars for vector rows). K-neighbour rows are rings indexed by
// ring(k, size).
constexpr int kScalarRows = 11;  // p[3], c[2], nu_k[2], sr_k[2], nu_j, sr_j
constexpr int kVectorRows = 9;   // g[3], dk[2], fv[2], f, dj
constexpr int kRowUnits = kScalarRows + kNumVars * kVectorRows;

struct Lines {
  double* p[3];     // pressure of rows k..k+2
  double* c[2];     // sound speed of rows k, k+1
  double* nu_k[2];  // K pressure switch of rows k, k+1
  double* sr_k[2];  // K spectral radius of rows k, k+1
  double* nu_j;     // J pressure switch of row k
  double* sr_j;     // J spectral radius of row k
  double* g[3];     // K flux of rows k-1..k+1
  double* dk[2];    // K dissipation at k-1/2 and k+1/2
  double* fv[2];    // thin-layer viscous flux at k-1/2 and k+1/2
  double* f;        // J flux of row k
  double* dj;       // J dissipation of row k; dj[j] is at j+1/2

  explicit Lines(RhsWorkspace& ws) {
    const std::size_t width = static_cast<std::size_t>(ws.capacity + 2 * ng);
    double* next = ws.rows.data();
    auto scalar = [&] {
      double* row = next + ng;
      next += width;
      return row;
    };
    auto vector = [&] {
      double* row = next + kNumVars * ng;
      next += kNumVars * width;
      return row;
    };
    for (double*& row : p) row = scalar();
    for (double*& row : c) row = scalar();
    for (double*& row : nu_k) row = scalar();
    for (double*& row : sr_k) row = scalar();
    nu_j = scalar();
    sr_j = scalar();
    for (double*& row : g) row = vector();
    for (double*& row : dk) row = vector();
    for (double*& row : fv) row = vector();
    f = vector();
    dj = vector();
  }
};

}  // namespace

void RhsWorkspace::ensure(int jmax) {
  if (jmax <= capacity) return;
  capacity = jmax;
  rows.resize(static_cast<std::size_t>(kRowUnits) *
              static_cast<std::size_t>(jmax + 2 * ng));
}

void compute_rhs_plane(const Zone& zone, int l, double dt,
                       const RhsConfig& config, llp::Array4D<double>& rhs,
                       RhsWorkspace& ws) {
  LLP_REQUIRE(l >= 0 && l < zone.lmax(), "plane out of range");
  const int jm = zone.jmax(), km = zone.kmax();
  const double inv_h[3] = {1.0 / zone.dx(), 1.0 / zone.dy(), 1.0 / zone.dz()};
  const double half_inv[3] = {0.5 * inv_h[0], 0.5 * inv_h[1],
                              0.5 * inv_h[2]};
  const double kappa2 = config.kappa2, kappa4 = config.kappa4;
  const bool viscous = config.viscous.enabled;
  ws.ensure(jm);
  const Lines ln(ws);

  // q of cell (j, k, l) is row(k) + kNumVars * j; one L step is `lstride`.
  auto row = [&](int k) { return zone.q_point(0, k, l); };
  const std::ptrdiff_t lstride = zone.q_point(0, 0, l + 1) - row(0);
  auto interior_row = [&](int k) { return k >= 0 && k < km; };

  // Pressure of row k. An interior row covers its J ghosts too, for its own
  // J stencil; a K-ghost row only feeds the K stencil of interior cells.
  auto load_pressure = [&](int k) {
    const int j0 = interior_row(k) ? -ng : 0;
    const int j1 = interior_row(k) ? jm + ng : jm;
    const double* q = row(k);
    double* p = ln.p[ring(k, 3)];
    for (int j = j0; j < j1; ++j) p[j] = pressure(q + kNumVars * j);
  };

  // Sound speed and the K-direction switch, spectral radius and flux of
  // row k; needs the pressure of rows k-1..k+1.
  auto load_row = [&](int k) {
    const int j0 = interior_row(k) ? -1 : 0;
    const int j1 = interior_row(k) ? jm + 1 : jm;
    const double* q = row(k);
    const double* pm = ln.p[ring(k - 1, 3)];
    const double* p0 = ln.p[ring(k, 3)];
    const double* pp = ln.p[ring(k + 1, 3)];
    double* c = ln.c[ring(k, 2)];
    double* nu = ln.nu_k[ring(k, 2)];
    double* sr = ln.sr_k[ring(k, 2)];
    double* g = ln.g[ring(k, 3)];
    for (int j = j0; j < j1; ++j) c[j] = sound_speed(q + kNumVars * j, p0[j]);
    for (int j = 0; j < jm; ++j) {
      const double* qj = q + kNumVars * j;
      const double v = qj[2] / qj[0];
      nu[j] = pressure_switch(pm[j], p0[j], pp[j]);
      sr[j] = std::abs(v) + c[j];
      flux(1, qj, p0[j], v, g + kNumVars * j);
    }
  };

  // The K dissipation interface and (when on) viscous face at k+1/2.
  auto load_k_faces = [&](int k) {
    const double* qm1 = row(k - 1);
    const double* q0 = row(k);
    const double* qp1 = row(k + 1);
    const double* qp2 = row(k + 2);
    const double* nu0 = ln.nu_k[ring(k, 2)];
    const double* nu1 = ln.nu_k[ring(k + 1, 2)];
    const double* sr0 = ln.sr_k[ring(k, 2)];
    const double* sr1 = ln.sr_k[ring(k + 1, 2)];
    double* d = ln.dk[ring(k + 1, 2)];
    for (int j = 0; j < jm; ++j) {
      const int o = kNumVars * j;
      jst_interface(qm1 + o, q0 + o, qp1 + o, qp2 + o, nu0[j], nu1[j],
                    sr0[j], sr1[j], inv_h[1], kappa2, kappa4, d + o);
    }
    if (viscous) {
      double* fv = ln.fv[ring(k + 1, 2)];
      for (int j = 0; j < jm; ++j) {
        const int o = kNumVars * j;
        viscous_flux_k_face(q0 + o, qp1 + o, zone.dy(), config.viscous,
                            fv + o);
      }
    }
  };

  // Prime the K rings with rows -2..1 and the interface at -1/2.
  load_pressure(-2);
  load_pressure(-1);
  load_pressure(0);
  load_row(-1);
  load_pressure(1);
  load_row(0);
  load_k_faces(-1);

  for (int k = 0; k < km; ++k) {
    load_pressure(k + 2);
    load_row(k + 1);
    load_k_faces(k);

    // The row's J terms: every cell's switch, spectral radius and flux
    // once, then every interface j+1/2 for j in [-1, jm) once.
    const double* q = row(k);
    const double* p = ln.p[ring(k, 3)];
    const double* c = ln.c[ring(k, 2)];
    for (int j = -1; j <= jm; ++j) {
      const double* qj = q + kNumVars * j;
      const double u = qj[1] / qj[0];
      ln.nu_j[j] = pressure_switch(p[j - 1], p[j], p[j + 1]);
      ln.sr_j[j] = std::abs(u) + c[j];
      flux(0, qj, p[j], u, ln.f + kNumVars * j);
    }
    for (int j = -1; j < jm; ++j) {
      const int o = kNumVars * j;
      jst_interface(q + o - kNumVars, q + o, q + o + kNumVars,
                    q + o + 2 * kNumVars, ln.nu_j[j], ln.nu_j[j + 1],
                    ln.sr_j[j], ln.sr_j[j + 1], inv_h[0], kappa2, kappa4,
                    ln.dj + o);
    }

    const double* gm = ln.g[ring(k - 1, 3)];
    const double* gp = ln.g[ring(k + 1, 3)];
    const double* dkm = ln.dk[ring(k, 2)];
    const double* dkp = ln.dk[ring(k + 1, 2)];
    const double* fvm = ln.fv[ring(k, 2)];
    const double* fvp = ln.fv[ring(k + 1, 2)];
    for (int j = 0; j < jm; ++j) {
      const int o = kNumVars * j;
      double r[kNumVars] = {0.0, 0.0, 0.0, 0.0, 0.0};
      add_direction(r, ln.f + o + kNumVars, ln.f + o - kNumVars, ln.dj + o,
                    ln.dj + o - kNumVars, half_inv[0]);
      add_direction(r, gp + o, gm + o, dkp + o, dkm + o, half_inv[1]);

      // L neighbours live in other planes' tasks, so their values are
      // evaluated here, once per cell.
      const double* q0 = q + o;
      const double* qm1 = q0 - lstride;
      const double* qm2 = qm1 - lstride;
      const double* qp1 = q0 + lstride;
      const double* qp2 = qp1 + lstride;
      const double pm2 = pressure(qm2), pm1 = pressure(qm1), p0 = p[j];
      const double pp1 = pressure(qp1), pp2 = pressure(qp2);
      const double wm1 = qm1[3] / qm1[0], wp1 = qp1[3] / qp1[0];
      const double srm1 = std::abs(wm1) + sound_speed(qm1, pm1);
      const double sr0 = std::abs(q0[3] / q0[0]) + c[j];
      const double srp1 = std::abs(wp1) + sound_speed(qp1, pp1);
      const double num1 = pressure_switch(pm2, pm1, p0);
      const double nu0 = pressure_switch(pm1, p0, pp1);
      const double nup1 = pressure_switch(p0, pp1, pp2);
      double hp[kNumVars], hm[kNumVars], dp[kNumVars], dm[kNumVars];
      flux(2, qp1, pp1, wp1, hp);
      flux(2, qm1, pm1, wm1, hm);
      jst_interface(qm1, q0, qp1, qp2, nu0, nup1, sr0, srp1, inv_h[2],
                    kappa2, kappa4, dp);
      jst_interface(qm2, qm1, q0, qp1, num1, nu0, srm1, sr0, inv_h[2],
                    kappa2, kappa4, dm);
      add_direction(r, hp, hm, dp, dm, half_inv[2]);

      if (viscous) {
        // Thin-layer viscous divergence in K: (Fv[k+1/2]-Fv[k-1/2])/dy.
        for (int n = 0; n < kNumVars; ++n) {
          r[n] -= (fvp[o + n] - fvm[o + n]) * inv_h[1];
        }
      }
      // The 5 variables of one cell are contiguous (n is the fastest axis).
      double* out = &rhs(0, j + ng, k + ng, l + ng);
      for (int n = 0; n < kNumVars; ++n) out[n] = -dt * r[n];
    }
  }
}

void compute_rhs_plane(const Zone& zone, int l, double dt,
                       const RhsConfig& config, llp::Array4D<double>& rhs) {
  RhsWorkspace ws;
  compute_rhs_plane(zone, l, dt, config, rhs, ws);
}

double rhs_plane_sumsq(const Zone& zone, int l,
                       const llp::Array4D<double>& rhs) {
  const int jm = zone.jmax(), km = zone.kmax();
  // For a fixed (k, l) the interior of the plane row is one contiguous run
  // of kNumVars*jm doubles (n fastest, then j), so the reduction runs
  // straight-line pack loads with a scalar tail. The pack accumulator plus
  // fixed-tree sum() gives a deterministic reduction order that is
  // identical across scalar and vector pack implementations (see pack.hpp).
  const int count = kNumVars * jm;
  double s = 0.0;
  for (int k = 0; k < km; ++k) {
    const double* row = &rhs(0, ng, k + ng, l + ng);
    dpack acc = dpack::zero();
    int i = 0;
    for (; i + dpack::width <= count; i += dpack::width) {
      const dpack v = dpack::load(row + i);
      acc = acc + v * v;
    }
    double partial = acc.sum();
    for (; i < count; ++i) partial += row[i] * row[i];
    s += partial;
  }
  return s;
}

}  // namespace f3d
