#include "f3d/rhs.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "f3d/bc.hpp"
#include "f3d/solver.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace {

using f3d::FreeStream;
using f3d::kNumVars;
using f3d::RhsConfig;
using f3d::Zone;

llp::Array4D<double> make_rhs_array(const Zone& z) {
  return llp::Array4D<double>(f3d::kNumVars, z.jmax() + 2 * Zone::kGhost,
                              z.kmax() + 2 * Zone::kGhost,
                              z.lmax() + 2 * Zone::kGhost);
}

// The per-cell formulation the line-cached kernel replaced, kept as its
// oracle: every cell evaluates the fluxes of its two neighbours and both
// JST interfaces of each direction from scratch, recomputing pressure and
// sound speed wherever a formula needs them.
void reference_interface(const double* qm1, const double* q0,
                         const double* qp1, const double* qp2, int dir,
                         double inv_h, double kappa2, double kappa4,
                         double d[kNumVars]) {
  const double pm1 = f3d::pressure(qm1);
  const double p0 = f3d::pressure(q0);
  const double pp1 = f3d::pressure(qp1);
  const double pp2 = f3d::pressure(qp2);
  const double nu0 =
      std::abs(pp1 - 2.0 * p0 + pm1) / (pp1 + 2.0 * p0 + pm1);
  const double nu1 =
      std::abs(pp2 - 2.0 * pp1 + p0) / (pp2 + 2.0 * pp1 + p0);
  const double eps2 = kappa2 * std::max(nu0, nu1);
  const double eps4 = std::max(0.0, kappa4 - eps2);
  const double sig = 0.5 *
                     (f3d::spectral_radius(dir, q0) +
                      f3d::spectral_radius(dir, qp1)) *
                     inv_h;
  for (int n = 0; n < kNumVars; ++n) {
    const double s1 = qp1[n] - q0[n];
    const double s3 = qp2[n] - 3.0 * qp1[n] + 3.0 * q0[n] - qm1[n];
    d[n] = sig * (eps2 * s1 - eps4 * s3);
  }
}

void reference_rhs_plane(const Zone& zone, int l, double dt,
                         const RhsConfig& config,
                         llp::Array4D<double>& rhs) {
  const int ng = Zone::kGhost;
  const double inv_h[3] = {1.0 / zone.dx(), 1.0 / zone.dy(), 1.0 / zone.dz()};
  const int off[3][3] = {{1, 0, 0}, {0, 1, 0}, {0, 0, 1}};
  for (int k = 0; k < zone.kmax(); ++k) {
    for (int j = 0; j < zone.jmax(); ++j) {
      double r[kNumVars] = {0.0, 0.0, 0.0, 0.0, 0.0};
      for (int dir = 0; dir < 3; ++dir) {
        const int dj = off[dir][0], dk = off[dir][1], dl = off[dir][2];
        auto at = [&](int s) {
          return zone.q_point(j + s * dj, k + s * dk, l + s * dl);
        };
        double fp[kNumVars], fm[kNumVars], dp[kNumVars], dm[kNumVars];
        f3d::flux(dir, at(1), fp);
        f3d::flux(dir, at(-1), fm);
        reference_interface(at(-1), at(0), at(1), at(2), dir, inv_h[dir],
                            config.kappa2, config.kappa4, dp);
        reference_interface(at(-2), at(-1), at(0), at(1), dir, inv_h[dir],
                            config.kappa2, config.kappa4, dm);
        const double half_inv = 0.5 * inv_h[dir];
        for (int n = 0; n < kNumVars; ++n) {
          r[n] += (fp[n] - fm[n]) * half_inv - (dp[n] - dm[n]);
        }
      }
      if (config.viscous.enabled) {
        double fvp[kNumVars], fvm[kNumVars];
        f3d::viscous_flux_k_face(zone.q_point(j, k, l),
                                 zone.q_point(j, k + 1, l), zone.dy(),
                                 config.viscous, fvp);
        f3d::viscous_flux_k_face(zone.q_point(j, k - 1, l),
                                 zone.q_point(j, k, l), zone.dy(),
                                 config.viscous, fvm);
        for (int n = 0; n < kNumVars; ++n) {
          r[n] -= (fvp[n] - fvm[n]) * inv_h[1];
        }
      }
      for (int n = 0; n < kNumVars; ++n) {
        rhs(n, j + ng, k + ng, l + ng) = -dt * r[n];
      }
    }
  }
}

// Free stream at Mach 1.8 with every cell, ghosts included, perturbed in
// density, velocity and pressure. Most cells get a smooth-field wobble;
// about one in eight gets a shock-sized jump, so the pressure switch takes
// both sides of the eps4 = max(0, kappa4 - eps2) clamp.
void perturb(Zone& z, std::uint64_t seed) {
  FreeStream fs;
  fs.mach = 1.8;
  fs.alpha_deg = 3.0;
  z.set_freestream(fs);
  llp::SplitMix64 rng(seed);
  const int ng = Zone::kGhost;
  for (int l = -ng; l < z.lmax() + ng; ++l)
    for (int k = -ng; k < z.kmax() + ng; ++k)
      for (int j = -ng; j < z.jmax() + ng; ++j) {
        const double amp = rng.below(8) == 0 ? 0.3 : 0.01;
        f3d::Prim s = f3d::to_prim(z.q_point(j, k, l));
        s.rho *= 1.0 + amp * rng.uniform(-1.0, 1.0);
        s.u += amp * rng.uniform(-1.0, 1.0);
        s.v += amp * rng.uniform(-1.0, 1.0);
        s.w += amp * rng.uniform(-1.0, 1.0);
        s.p *= 1.0 + amp * rng.uniform(-1.0, 1.0);
        f3d::to_conservative(s, z.q_point(j, k, l));
      }
}

struct OracleCase {
  f3d::ZoneDims dims;
  double dx, dy, dz;
};

// Largest first, so the shared workspace is also exercised grown past the
// row length of the zone it serves.
const OracleCase kOracleCases[] = {
    {{11, 7, 6}, 0.1, 0.1, 0.1},
    {{f3d::kMinZoneDim, f3d::kMinZoneDim, f3d::kMinZoneDim}, 0.1, 0.1, 0.1},
    {{f3d::kMinZoneDim, 9, 7}, 0.1, 0.1, 0.1},
    {{9, f3d::kMinZoneDim, 7}, 0.1, 0.1, 0.1},
    {{9, 7, f3d::kMinZoneDim}, 0.1, 0.1, 0.1},
    {{1, 6, 5}, 0.1, 0.1, 0.1},
    {{6, 1, 5}, 0.1, 0.1, 0.1},
    {{6, 5, 1}, 0.1, 0.1, 0.1},
    {{8, 6, 5}, 0.1, 0.037, 0.23},
    {{5, 8, 6}, 0.29, 0.05, 0.011},
};

TEST(Rhs, LineCachedKernelIsBitwiseThePerCellFormula) {
  f3d::RhsWorkspace ws;
  std::uint64_t seed = 1;
  for (const OracleCase& c : kOracleCases) {
    for (const bool viscous : {false, true}) {
      Zone z(c.dims, c.dx, c.dy, c.dz);
      perturb(z, seed++);
      RhsConfig config;
      config.viscous.enabled = viscous;
      config.viscous.reynolds = 500.0;
      auto want = make_rhs_array(z);
      auto got = make_rhs_array(z);
      want.fill(-7.0);
      got.fill(-7.0);
      for (int l = 0; l < z.lmax(); ++l) {
        reference_rhs_plane(z, l, 0.03, config, want);
        f3d::compute_rhs_plane(z, l, 0.03, config, got, ws);
      }
      EXPECT_EQ(std::memcmp(want.data(), got.data(),
                            want.size() * sizeof(double)),
                0)
          << c.dims.jmax << "x" << c.dims.kmax << "x" << c.dims.lmax
          << " viscous=" << viscous;
    }
  }
}

TEST(Rhs, OwnWorkspaceOverloadMatchesSharedWorkspace) {
  Zone z({7, 6, 5}, 0.1, 0.06, 0.14);
  perturb(z, 99);
  f3d::RhsWorkspace ws;
  auto shared = make_rhs_array(z);
  auto own = make_rhs_array(z);
  shared.fill(0.0);
  own.fill(0.0);
  for (int l = 0; l < z.lmax(); ++l) {
    f3d::compute_rhs_plane(z, l, 0.05, RhsConfig{}, shared, ws);
    f3d::compute_rhs_plane(z, l, 0.05, RhsConfig{}, own);
  }
  EXPECT_EQ(std::memcmp(shared.data(), own.data(),
                        shared.size() * sizeof(double)),
            0);
  // Line buffers: O(jmax) doubles, nowhere near a plane of the zone.
  EXPECT_EQ(ws.capacity, 7);
  EXPECT_LT(ws.bytes(), 64 * (7 + 2 * Zone::kGhost) * sizeof(double));
}

TEST(Rhs, FreeStreamGivesExactZero) {
  Zone z({6, 6, 6}, 0.1, 0.1, 0.1);
  FreeStream fs;
  fs.mach = 2.0;
  fs.alpha_deg = 2.0;
  z.set_freestream(fs);
  auto rhs = make_rhs_array(z);
  rhs.fill(99.0);
  for (int l = 0; l < z.lmax(); ++l) {
    f3d::compute_rhs_plane(z, l, 0.05, RhsConfig{}, rhs);
  }
  const int ng = Zone::kGhost;
  for (int l = 0; l < 6; ++l)
    for (int k = 0; k < 6; ++k)
      for (int j = 0; j < 6; ++j)
        for (int n = 0; n < f3d::kNumVars; ++n) {
          EXPECT_DOUBLE_EQ(rhs(n, j + ng, k + ng, l + ng), 0.0);
        }
}

TEST(Rhs, PerturbationProducesNonzeroRhs) {
  Zone z({6, 6, 6}, 0.1, 0.1, 0.1);
  FreeStream fs;
  z.set_freestream(fs);
  z.q(0, 3, 3, 3) *= 1.1;  // density bump
  auto rhs = make_rhs_array(z);
  double sum = 0.0;
  for (int l = 0; l < z.lmax(); ++l) {
    f3d::compute_rhs_plane(z, l, 0.05, RhsConfig{}, rhs);
    sum += f3d::rhs_plane_sumsq(z, l, rhs);
  }
  EXPECT_GT(sum, 0.0);
}

TEST(Rhs, RhsScalesLinearlyWithDt) {
  Zone z({6, 6, 6}, 0.1, 0.1, 0.1);
  FreeStream fs;
  z.set_freestream(fs);
  z.q(0, 2, 2, 2) *= 1.05;
  auto r1 = make_rhs_array(z);
  auto r2 = make_rhs_array(z);
  f3d::compute_rhs_plane(z, 2, 0.01, RhsConfig{}, r1);
  f3d::compute_rhs_plane(z, 2, 0.02, RhsConfig{}, r2);
  const int ng = Zone::kGhost;
  for (int k = 0; k < 6; ++k)
    for (int j = 0; j < 6; ++j)
      for (int n = 0; n < f3d::kNumVars; ++n) {
        EXPECT_NEAR(r2(n, j + ng, k + ng, 2 + ng),
                    2.0 * r1(n, j + ng, k + ng, 2 + ng), 1e-14);
      }
}

TEST(Rhs, MirrorSymmetricFieldGivesMirrorSymmetricRhs) {
  // Field symmetric about the z midplane: the z-momentum RHS must be
  // antisymmetric, the others symmetric.
  Zone z({6, 6, 6}, 0.1, 0.1, 0.1);
  FreeStream fs;
  fs.mach = 1.5;
  z.set_freestream(fs);
  const int ng = Zone::kGhost;
  // Symmetric density/pressure bump spanning all cells (ghosts included).
  for (int l = -ng; l < 6 + ng; ++l) {
    const double zc = (l + 0.5) - 3.0;  // symmetric coordinate about mid
    for (int k = -ng; k < 6 + ng; ++k)
      for (int j = -ng; j < 6 + ng; ++j) {
        f3d::Prim s = f3d::to_prim(z.q_point(j, k, l));
        const double bump =
            1.0 + 0.05 * std::exp(-0.3 * (zc * zc + (j - 2.5) * (j - 2.5)));
        s.rho *= bump;
        s.p *= std::pow(bump, f3d::kGamma);
        f3d::to_conservative(s, z.q_point(j, k, l));
      }
  }
  auto rhs = make_rhs_array(z);
  for (int l = 0; l < 6; ++l) {
    f3d::compute_rhs_plane(z, l, 0.05, RhsConfig{}, rhs);
  }
  for (int l = 0; l < 3; ++l) {
    const int lm = 5 - l;  // mirror plane index
    for (int k = 0; k < 6; ++k)
      for (int j = 0; j < 6; ++j) {
        EXPECT_NEAR(rhs(0, j + ng, k + ng, l + ng),
                    rhs(0, j + ng, k + ng, lm + ng), 1e-12);
        EXPECT_NEAR(rhs(3, j + ng, k + ng, l + ng),
                    -rhs(3, j + ng, k + ng, lm + ng), 1e-12);
        EXPECT_NEAR(rhs(4, j + ng, k + ng, l + ng),
                    rhs(4, j + ng, k + ng, lm + ng), 1e-12);
      }
  }
}

TEST(Rhs, PlaneOutOfRangeRejected) {
  Zone z({6, 6, 6}, 0.1, 0.1, 0.1);
  auto rhs = make_rhs_array(z);
  EXPECT_THROW(f3d::compute_rhs_plane(z, 6, 0.05, RhsConfig{}, rhs),
               llp::Error);
  EXPECT_THROW(f3d::compute_rhs_plane(z, -1, 0.05, RhsConfig{}, rhs),
               llp::Error);
}

TEST(Rhs, SumsqMatchesManualSum) {
  Zone z({6, 6, 6}, 0.1, 0.1, 0.1);
  FreeStream fs;
  z.set_freestream(fs);
  z.q(4, 2, 3, 1) *= 1.02;
  auto rhs = make_rhs_array(z);
  f3d::compute_rhs_plane(z, 1, 0.05, RhsConfig{}, rhs);
  double manual = 0.0;
  const int ng = Zone::kGhost;
  for (int k = 0; k < 6; ++k)
    for (int j = 0; j < 6; ++j)
      for (int n = 0; n < f3d::kNumVars; ++n) {
        const double v = rhs(n, j + ng, k + ng, 1 + ng);
        manual += v * v;
      }
  EXPECT_DOUBLE_EQ(f3d::rhs_plane_sumsq(z, 1, rhs), manual);
}

}  // namespace
