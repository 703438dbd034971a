#include "f3d/sweeps.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "core/llp.hpp"
#include "f3d/eigen.hpp"
#include "f3d/rhs.hpp"
#include "f3d/solver.hpp"
#include "f3d/tridiag.hpp"
#include "util/rng.hpp"

namespace {

using f3d::RiscSweeps;
using f3d::VectorSweeps;
using f3d::Zone;

void randomize(Zone& z, llp::Array4D<double>& rhs, std::uint64_t seed) {
  llp::SplitMix64 rng(seed);
  const int ng = Zone::kGhost;
  for (int l = -ng; l < z.lmax() + ng; ++l)
    for (int k = -ng; k < z.kmax() + ng; ++k)
      for (int j = -ng; j < z.jmax() + ng; ++j) {
        f3d::Prim s;
        s.rho = rng.uniform(0.5, 1.5);
        s.u = rng.uniform(-1.0, 1.0);
        s.v = rng.uniform(-1.0, 1.0);
        s.w = rng.uniform(-1.0, 1.0);
        s.p = rng.uniform(0.5, 1.5);
        f3d::to_conservative(s, z.q_point(j, k, l));
        if (l >= 0 && l < z.lmax() && k >= 0 && k < z.kmax() && j >= 0 &&
            j < z.jmax()) {
          for (int n = 0; n < f3d::kNumVars; ++n) {
            rhs(n, j + ng, k + ng, l + ng) = rng.uniform(-0.1, 0.1);
          }
        }
      }
}

llp::Array4D<double> make_work(const Zone& z) {
  return llp::Array4D<double>(f3d::kNumVars, z.jmax() + 2 * Zone::kGhost,
                              z.kmax() + 2 * Zone::kGhost,
                              z.lmax() + 2 * Zone::kGhost);
}

class SweepDirections : public ::testing::TestWithParam<int> {};

TEST_P(SweepDirections, ZeroDtIsIdentity) {
  const int dir = GetParam();
  Zone z({7, 6, 5}, 0.1, 0.1, 0.1);
  auto rhs = make_work(z);
  randomize(z, rhs, 41);
  auto before = rhs;
  RiscSweeps engine;
  const auto region = llp::regions().define("sw.zero_dt");
  engine.sweep(z, dir, 0.0, 0.25, rhs, region);
  const int ng = Zone::kGhost;
  for (int l = 0; l < z.lmax(); ++l)
    for (int k = 0; k < z.kmax(); ++k)
      for (int j = 0; j < z.jmax(); ++j)
        for (int n = 0; n < f3d::kNumVars; ++n) {
          EXPECT_NEAR(rhs(n, j + ng, k + ng, l + ng),
                      before(n, j + ng, k + ng, l + ng), 1e-12)
              << "dir=" << dir;
        }
}

TEST_P(SweepDirections, VectorAndRiscAgree) {
  const int dir = GetParam();
  Zone z({8, 7, 6}, 0.1, 0.12, 0.09);
  auto rhs_a = make_work(z);
  randomize(z, rhs_a, 77);
  auto rhs_b = rhs_a;

  RiscSweeps risc;
  VectorSweeps vec;
  const auto ra = llp::regions().define("sw.agree_risc");
  const auto rb = llp::regions().define("sw.agree_vec", llp::RegionKind::kSerial);
  risc.sweep(z, dir, 0.04, 0.25, rhs_a, ra);
  vec.sweep(z, dir, 0.04, 0.25, rhs_b, rb);

  const int ng = Zone::kGhost;
  for (int l = 0; l < z.lmax(); ++l)
    for (int k = 0; k < z.kmax(); ++k)
      for (int j = 0; j < z.jmax(); ++j)
        for (int n = 0; n < f3d::kNumVars; ++n) {
          EXPECT_NEAR(rhs_a(n, j + ng, k + ng, l + ng),
                      rhs_b(n, j + ng, k + ng, l + ng), 1e-12)
              << "dir=" << dir;
        }
}

TEST_P(SweepDirections, ThreadCountDoesNotChangeResult) {
  const int dir = GetParam();
  Zone z({7, 7, 7}, 0.1, 0.1, 0.1);
  auto rhs_1 = make_work(z);
  randomize(z, rhs_1, 55);
  auto rhs_4 = rhs_1;

  const int orig = llp::num_threads();
  RiscSweeps engine;
  const auto region = llp::regions().define("sw.threads");

  llp::set_num_threads(1);
  engine.sweep(z, dir, 0.03, 0.25, rhs_1, region);
  llp::set_num_threads(4);
  RiscSweeps engine4;
  engine4.sweep(z, dir, 0.03, 0.25, rhs_4, region);
  llp::set_num_threads(orig);

  const int ng = Zone::kGhost;
  for (int l = 0; l < z.lmax(); ++l)
    for (int k = 0; k < z.kmax(); ++k)
      for (int j = 0; j < z.jmax(); ++j)
        for (int n = 0; n < f3d::kNumVars; ++n) {
          // Identical per-line arithmetic regardless of which lane ran it.
          EXPECT_DOUBLE_EQ(rhs_1(n, j + ng, k + ng, l + ng),
                           rhs_4(n, j + ng, k + ng, l + ng))
              << "dir=" << dir;
        }
}

INSTANTIATE_TEST_SUITE_P(AllDirections, SweepDirections,
                         ::testing::Values(0, 1, 2));

TEST(Sweeps, RegionRecordsOuterLoopTrips) {
  Zone z({6, 9, 8}, 0.1, 0.1, 0.1);
  auto rhs = make_work(z);
  randomize(z, rhs, 3);
  RiscSweeps engine;
  auto& reg = llp::regions();
  const auto region = reg.define("sw.trips");
  reg.reset_stats();
  engine.sweep(z, 0, 0.02, 0.25, rhs, region);  // J sweep: outer loop is L
  EXPECT_EQ(reg.stats(region).total_trips, 8u);
  engine.sweep(z, 2, 0.02, 0.25, rhs, region);  // L sweep: outer loop is K
  EXPECT_EQ(reg.stats(region).total_trips, 8u + 9u);
}

TEST(Sweeps, VectorScratchIsPlaneProportional) {
  Zone small({6, 6, 6}, 0.1, 0.1, 0.1);
  Zone big({40, 40, 40}, 0.1, 0.1, 0.1);
  auto rhs_s = make_work(small);
  auto rhs_b = make_work(big);
  randomize(small, rhs_s, 1);
  randomize(big, rhs_b, 2);

  VectorSweeps vs, vb;
  const auto r = llp::regions().define("sw.scratch", llp::RegionKind::kSerial);
  vs.sweep(small, 1, 0.02, 0.25, rhs_s, r);
  vb.sweep(big, 1, 0.02, 0.25, rhs_b, r);
  // The big zone's K-plane (40x6... K sweep plane is kmax x jmax) dwarfs
  // the small zone's; scratch grows accordingly. This is the §4 cache
  // problem in one assertion.
  EXPECT_GT(vb.scratch_bytes(), 10 * vs.scratch_bytes());
}

TEST(SweepShape, MatchesPaperParallelization) {
  // J and K sweeps parallelize over L; the L sweep parallelizes over K —
  // so for the paper's zones the available parallelism is the 70/75 (or
  // 350/450) transverse dimensions, never the small J.
  Zone z({15, 75, 70}, 0.1, 0.1, 0.1);
  EXPECT_EQ(f3d::sweep_shape(z, 0).outer_n, 70);
  EXPECT_EQ(f3d::sweep_shape(z, 1).outer_n, 70);
  EXPECT_EQ(f3d::sweep_shape(z, 2).outer_n, 75);
  EXPECT_EQ(f3d::sweep_shape(z, 0).line_n, 15);
}

TEST(PencilWorkspace, EnsureGrowsMonotonically) {
  f3d::PencilWorkspace ws;
  ws.ensure(10);
  EXPECT_GE(ws.capacity, 10);
  EXPECT_EQ(ws.q.size(), 50u);
  ws.ensure(5);  // no shrink
  EXPECT_GE(ws.capacity, 10);
  ws.ensure(100);
  EXPECT_EQ(ws.d.size(), 100u);
}

}  // namespace
namespace {

TEST(Sweeps, VectorAndRiscAgreeOnPeriodicLines) {
  Zone z({8, 8, 8}, 0.1, 0.1, 0.1);
  auto rhs_a = make_work(z);
  randomize(z, rhs_a, 91);
  auto rhs_b = rhs_a;
  RiscSweeps risc;
  VectorSweeps vec;
  const auto ra = llp::regions().define("sw.per_risc");
  const auto rb = llp::regions().define("sw.per_vec", llp::RegionKind::kSerial);
  for (int dir = 0; dir < 3; ++dir) {
    risc.sweep(z, dir, 0.04, 0.25, rhs_a, ra, /*periodic=*/true);
    vec.sweep(z, dir, 0.04, 0.25, rhs_b, rb, /*periodic=*/true);
  }
  const int ng = Zone::kGhost;
  for (int l = 0; l < z.lmax(); ++l)
    for (int k = 0; k < z.kmax(); ++k)
      for (int j = 0; j < z.jmax(); ++j)
        for (int n = 0; n < f3d::kNumVars; ++n) {
          ASSERT_NEAR(rhs_a(n, j + ng, k + ng, l + ng),
                      rhs_b(n, j + ng, k + ng, l + ng), 1e-12);
        }
}

TEST(Sweeps, PeriodicSweepCouplesAcrossTheSeam) {
  // With periodic lines, perturbing the rhs at one end must influence the
  // solution at the other end (the cyclic solver couples them); with
  // non-periodic boundary rows it must not.
  Zone z({10, 6, 6}, 0.1, 0.1, 0.1);
  f3d::FreeStream fs;
  fs.mach = 0.8;
  z.set_freestream(fs);

  auto run_dir0 = [&](bool periodic) {
    auto rhs = make_work(z);
    rhs.fill(0.0);
    const int ng = Zone::kGhost;
    rhs(0, 9 + ng, 3 + ng, 3 + ng) = 1.0;  // pulse at the last j cell
    RiscSweeps engine;
    const auto region = llp::regions().define("sw.seam");
    engine.sweep(z, 0, 0.5, 0.25, rhs, region, periodic);
    return rhs(0, 0 + ng, 3 + ng, 3 + ng);  // response at the first j cell
  };

  const double coupled = run_dir0(true);
  const double uncoupled = run_dir0(false);
  EXPECT_GT(std::abs(coupled), 1e-8);
  EXPECT_LT(std::abs(uncoupled), std::abs(coupled) * 0.5);
}

// ---- the lane-vectorized batch against the per-pencil batch -------------

// The SIMD batch as it was before it ran in lanes end to end, kept as the
// oracle: gather each pencil, eigenvalues/apply_left per point, build the
// flux-split coefficients per lane, transpose variable m into lanes, solve
// with solve_tridiagonal_lanes, transpose back, apply_right and scatter.
// Tail lanes replicate pencil count-1 and are never scattered.
template <int W>
void interleave(const double* const* srcs, int count, int n, double* out,
                int src_stride) {
  for (int i = 0; i < n; ++i) {
    double* row = out + static_cast<std::size_t>(i) * W;
    for (int p = 0; p < count; ++p) {
      row[p] = srcs[p][static_cast<std::size_t>(i) * src_stride];
    }
    for (int p = count; p < W; ++p) row[p] = row[count - 1];
  }
}

template <int W>
void deinterleave(const double* in, int count, int n, double* const* dsts,
                  int dst_stride) {
  for (int i = 0; i < n; ++i) {
    const double* row = in + static_cast<std::size_t>(i) * W;
    for (int p = 0; p < count; ++p) {
      dsts[p][static_cast<std::size_t>(i) * dst_stride] = row[p];
    }
  }
}

void reference_batch(const Zone& zone, int dir, int outer, int inner0,
                     int count, double dt, double kappa_i,
                     llp::Array4D<double>& rhs) {
  constexpr int W = f3d::kTridiagLaneWidth;
  const int n = f3d::sweep_shape(zone, dir).line_n;
  const std::size_t n5 = 5 * static_cast<std::size_t>(n);
  const double h[3] = {zone.dx(), zone.dy(), zone.dz()};
  const double inv_h = 1.0 / h[dir];
  const double hu = dt * inv_h;
  const int ng = Zone::kGhost;
  const llp::Array4D<double>& qarr = zone.storage();
  std::vector<double> q(W * n5), w(W * n5), lam(W * n5);
  std::vector<double> a(n * W), b(n * W), c(n * W), d(n * W);

  double* rline[W] = {};
  std::size_t step = 0;
  for (int p = 0; p < count; ++p) {
    const int t0 = inner0 + p, t1 = outer;
    int j0, k0, l0;
    switch (dir) {
      case 0: j0 = 0; k0 = t0; l0 = t1; break;
      case 1: j0 = t0; k0 = 0; l0 = t1; break;
      default: j0 = t0; k0 = t1; l0 = 0; break;
    }
    const std::size_t base = qarr.index(0, j0 + ng, k0 + ng, l0 + ng);
    step = qarr.index(0, j0 + ng + (dir == 0), k0 + ng + (dir == 1),
                      l0 + ng + (dir == 2)) -
           base;
    rline[p] = rhs.data() + base;
    const std::size_t off = static_cast<std::size_t>(p) * n5;
    for (int i = 0; i < n; ++i) {
      const std::size_t ii = static_cast<std::size_t>(i);
      double r[f3d::kNumVars];
      for (int m = 0; m < f3d::kNumVars; ++m) {
        q[off + 5 * ii + m] = qarr.data()[base + ii * step + m];
        r[m] = rline[p][ii * step + m];
      }
      f3d::eigenvalues(dir, &q[off + 5 * ii], &lam[off + 5 * ii]);
      f3d::apply_left(dir, &q[off + 5 * ii], r, &w[off + 5 * ii]);
    }
  }

  for (int m = 0; m < f3d::kNumVars; ++m) {
    for (int i = 0; i < n; ++i) {
      const std::size_t row = static_cast<std::size_t>(i) * W;
      for (int p = 0; p < count; ++p) {
        const double* lp = &lam[static_cast<std::size_t>(p) * n5];
        const double sr =
            std::max(std::abs(lp[5 * i + 0]), std::abs(lp[5 * i + 4]));
        const double eps = kappa_i * dt * inv_h * sr;
        double av = 0.0, cv = 0.0;
        const double bv = 1.0 + hu * std::abs(lp[5 * i + m]) + 2.0 * eps;
        if (i > 0) av = -hu * std::max(lp[5 * (i - 1) + m], 0.0) - eps;
        if (i < n - 1) cv = hu * std::min(lp[5 * (i + 1) + m], 0.0) - eps;
        a[row + p] = av;
        b[row + p] = bv;
        c[row + p] = cv;
      }
      for (int p = count; p < W; ++p) {
        a[row + p] = a[row + count - 1];
        b[row + p] = b[row + count - 1];
        c[row + p] = c[row + count - 1];
      }
    }
    double* wm[W];
    for (int p = 0; p < count; ++p) {
      wm[p] = &w[static_cast<std::size_t>(p) * n5 + m];
    }
    interleave<W>(wm, count, n, d.data(), 5);
    f3d::solve_tridiagonal_lanes(a.data(), b.data(), c.data(), d.data(), n);
    deinterleave<W>(d.data(), count, n, wm, 5);
  }

  for (int p = 0; p < count; ++p) {
    const std::size_t off = static_cast<std::size_t>(p) * n5;
    for (int i = 0; i < n; ++i) {
      const std::size_t ii = static_cast<std::size_t>(i);
      f3d::apply_right(dir, &q[off + 5 * ii], &w[off + 5 * ii],
                       rline[p] + ii * step);
    }
  }
}

// Free stream at Mach 1.6 with every cell, ghosts included, perturbed;
// about one in eight cells gets a shock-sized jump, so eigenvalues change
// sign along lines and both sides of every min/max clamp are taken.
void perturb(Zone& z, std::uint64_t seed) {
  f3d::FreeStream fs;
  fs.mach = 1.6;
  fs.alpha_deg = 4.0;
  fs.beta_deg = -3.0;
  z.set_freestream(fs);
  llp::SplitMix64 rng(seed);
  const int ng = Zone::kGhost;
  for (int l = -ng; l < z.lmax() + ng; ++l)
    for (int k = -ng; k < z.kmax() + ng; ++k)
      for (int j = -ng; j < z.jmax() + ng; ++j) {
        const double amp = rng.below(8) == 0 ? 0.6 : 0.05;
        f3d::Prim s = f3d::to_prim(z.q_point(j, k, l));
        s.rho *= 1.0 + amp * rng.uniform(-1.0, 1.0);
        s.u += 2.0 * amp * rng.uniform(-1.0, 1.0);
        s.v += 2.0 * amp * rng.uniform(-1.0, 1.0);
        s.w += 2.0 * amp * rng.uniform(-1.0, 1.0);
        s.p *= 1.0 + amp * rng.uniform(-1.0, 1.0);
        f3d::to_conservative(s, z.q_point(j, k, l));
      }
}

llp::Array4D<double> random_work(const Zone& z, std::uint64_t seed) {
  auto rhs = make_work(z);
  llp::SplitMix64 rng(seed);
  for (std::size_t i = 0; i < rhs.size(); ++i) {
    rhs.data()[i] = rng.uniform(-0.1, 0.1);
  }
  return rhs;
}

struct BatchCase {
  f3d::ZoneDims dims;
  double dx, dy, dz;
};

// Largest first, so one workspace is also exercised grown past the line
// length it serves. Transverse extents of 5, 6, 7 and 9 leave tail batches
// of every count.
const BatchCase kBatchCases[] = {
    {{13, 9, 7}, 0.1, 0.1, 0.1},
    {{f3d::kMinZoneDim, f3d::kMinZoneDim, f3d::kMinZoneDim}, 0.1, 0.1, 0.1},
    {{9, 6, 5}, 0.1, 0.037, 0.23},
    {{5, 7, f3d::kMinZoneDim}, 0.29, 0.05, 0.011},
    {{1, 6, 5}, 0.1, 0.1, 0.1},
};

int rhs_mismatch(const llp::Array4D<double>& a,
                 const llp::Array4D<double>& b) {
  return std::memcmp(a.data(), b.data(), a.size() * sizeof(double));
}

TEST(SimdBatch, LaneKernelIsBitwiseTheReferenceBatch) {
  f3d::SimdBatchWorkspace ws;
  std::uint64_t seed = 1;
  for (const BatchCase& bc : kBatchCases) {
    Zone z(bc.dims, bc.dx, bc.dy, bc.dz);
    perturb(z, seed++);
    for (int dir = 0; dir < 3; ++dir) {
      const f3d::SweepShape shape = f3d::sweep_shape(z, dir);
      for (const double kappa_i : {0.0, 0.35}) {
        auto got = random_work(z, seed++);
        auto want = got;
        for (int outer = 0; outer < shape.outer_n; ++outer) {
          for (int inner = 0; inner < shape.inner_n;
               inner += f3d::kTridiagLaneWidth) {
            const int count =
                std::min(f3d::kTridiagLaneWidth, shape.inner_n - inner);
            f3d::solve_pencil_batch(z, dir, outer, inner, count, 0.05,
                                    kappa_i, got, ws);
            reference_batch(z, dir, outer, inner, count, 0.05, kappa_i,
                            want);
          }
        }
        EXPECT_EQ(rhs_mismatch(got, want), 0)
            << bc.dims.jmax << "x" << bc.dims.kmax << "x" << bc.dims.lmax
            << " dir=" << dir << " kappa_i=" << kappa_i << " kernel "
            << f3d::tridiag_lanes_kernel();
      }
    }
  }
}

TEST(SimdBatch, EveryCountAndTailTouchesOnlyItsOwnLines) {
  // One batch at a time, so a padding lane that leaked into the array (or
  // a real lane that was dropped) shows up against the untouched rest.
  Zone z({7, 9, 6}, 0.11, 0.07, 0.13);
  perturb(z, 77);
  f3d::SimdBatchWorkspace ws;
  for (int dir = 0; dir < 3; ++dir) {
    const f3d::SweepShape shape = f3d::sweep_shape(z, dir);
    for (int count = 1; count <= f3d::kTridiagLaneWidth; ++count) {
      for (const int inner0 : {0, 1, shape.inner_n - count}) {
        const auto before = random_work(z, 1000 + count);
        auto got = before;
        auto want = before;
        const int outer = shape.outer_n / 2;
        f3d::solve_pencil_batch(z, dir, outer, inner0, count, 0.08, 0.25,
                                got, ws);
        reference_batch(z, dir, outer, inner0, count, 0.08, 0.25, want);
        EXPECT_EQ(rhs_mismatch(got, want), 0)
            << "dir=" << dir << " count=" << count << " inner0=" << inner0;
        EXPECT_NE(rhs_mismatch(got, before), 0);
      }
    }
  }
}

TEST(SimdBatch, WorkspaceIsThirteenLaneArraysPerPoint) {
  f3d::SimdBatchWorkspace ws;
  ws.ensure(10);
  EXPECT_EQ(ws.capacity, 10);
  EXPECT_EQ(ws.bytes(),
            13u * 10u * f3d::kTridiagLaneWidth * sizeof(double));
  ws.ensure(4);  // no shrink
  EXPECT_EQ(ws.capacity, 10);
}

}  // namespace
