#include "f3d/validation.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "f3d/cases.hpp"
#include "f3d/solver.hpp"
#include "f3d/tridiag.hpp"
#include "util/error.hpp"

namespace {

TEST(Checksum, IdenticalGridsMatch) {
  const auto spec = f3d::wall_compression_case(8);
  auto a = f3d::build_grid(spec);
  auto b = f3d::build_grid(spec);
  EXPECT_EQ(f3d::checksum(a), f3d::checksum(b));
}

TEST(Checksum, SensitiveToSingleValue) {
  const auto spec = f3d::wall_compression_case(8);
  auto a = f3d::build_grid(spec);
  auto b = f3d::build_grid(spec);
  b.zone(0).q(2, 3, 4, 5) += 1e-14;
  EXPECT_NE(f3d::checksum(a), f3d::checksum(b));
}

TEST(Checksum, IgnoresGhostCells) {
  const auto spec = f3d::wall_compression_case(8);
  auto a = f3d::build_grid(spec);
  auto b = f3d::build_grid(spec);
  b.zone(0).q(0, -1, 0, 0) = 999.0;
  EXPECT_EQ(f3d::checksum(a), f3d::checksum(b));
}

TEST(Diff, ZeroForIdentical) {
  const auto spec = f3d::paper_1m_case(0.08);
  auto a = f3d::build_grid(spec);
  auto b = f3d::build_grid(spec);
  EXPECT_DOUBLE_EQ(f3d::linf_diff(a, b), 0.0);
  EXPECT_DOUBLE_EQ(f3d::l2_diff(a, b), 0.0);
}

TEST(Diff, LinfPicksLargestDeviation) {
  const auto spec = f3d::wall_compression_case(8);
  auto a = f3d::build_grid(spec);
  auto b = f3d::build_grid(spec);
  b.zone(0).q(0, 1, 1, 1) += 0.5;
  b.zone(0).q(1, 2, 2, 2) += 0.25;
  EXPECT_DOUBLE_EQ(f3d::linf_diff(a, b), 0.5);
}

TEST(Diff, L2AveragesOverAllValues) {
  const auto spec = f3d::wall_compression_case(8);
  auto a = f3d::build_grid(spec);
  auto b = f3d::build_grid(spec);
  b.zone(0).q(0, 1, 1, 1) += 3.0;
  const double count = 8.0 * 8.0 * 8.0 * 5.0;
  EXPECT_NEAR(f3d::l2_diff(a, b), std::sqrt(9.0 / count), 1e-12);
}

TEST(Diff, ShapeMismatchRejected) {
  auto a = f3d::build_grid(f3d::wall_compression_case(8));
  auto b = f3d::build_grid(f3d::wall_compression_case(10));
  EXPECT_THROW(f3d::linf_diff(a, b), llp::Error);
}

TEST(RunHistory, FirstDivergenceFindsChecksumMismatch) {
  f3d::RunHistory a, b;
  for (int i = 0; i < 10; ++i) {
    a.record(1.0 / (i + 1), 100 + i);
    b.record(1.0 / (i + 1), i == 6 ? 999u : 100u + i);
  }
  EXPECT_EQ(f3d::first_divergence(a, b), 6);
}

TEST(RunHistory, FirstDivergenceFindsResidualDrift) {
  f3d::RunHistory a, b;
  for (int i = 0; i < 10; ++i) {
    a.record(1.0, 0);
    b.record(i >= 4 ? 1.001 : 1.0, 0);
  }
  EXPECT_EQ(f3d::first_divergence(a, b, 1e-6), 4);
}

TEST(RunHistory, AgreementGivesMinusOne) {
  f3d::RunHistory a, b;
  for (int i = 0; i < 5; ++i) {
    a.record(0.5, 42);
    b.record(0.5, 42);
  }
  EXPECT_EQ(f3d::first_divergence(a, b), -1);
}

TEST(RunHistory, ComparesOnlyCommonPrefix) {
  f3d::RunHistory a, b;
  a.record(1.0, 1);
  b.record(1.0, 1);
  b.record(2.0, 2);  // extra step in b
  EXPECT_EQ(f3d::first_divergence(a, b), -1);
}

TEST(ResidualDecreasing, DetectsDecay) {
  f3d::RunHistory h;
  for (int i = 0; i < 20; ++i) h.record(std::pow(0.8, i), 0);
  EXPECT_TRUE(f3d::residual_decreasing(h));
}

TEST(ResidualDecreasing, RejectsFlatHistory) {
  f3d::RunHistory h;
  for (int i = 0; i < 20; ++i) h.record(1.0, 0);
  EXPECT_FALSE(f3d::residual_decreasing(h));
}

TEST(ResidualDecreasing, NeedsEnoughSteps) {
  f3d::RunHistory h;
  for (int i = 0; i < 4; ++i) h.record(1.0, 0);
  EXPECT_THROW(f3d::residual_decreasing(h), llp::Error);
}

// Solutions pinned to the bit. The risc and vector engines' arithmetic is
// plain IEEE double with no fused multiply-add, so the x86-64-v3 build and
// the forced-scalar simd build must reproduce these digests exactly. The
// simd engine fuses inside its lane Thomas kernel only, so it is pinned per
// kernel: the avx2 digest is its own, the generic kernel rounds twice and
// lands on the risc digest. The pins are the `solution checksum:` line of
//   f3d_run --case 1m --scale 0.3 --steps 5 --pulse 0.1 --engine E
//   f3d_run --case cube --n 12 --steps 10 --wall --pulse 0.05
//           --viscous 1000 --engine E
std::uint64_t pinned_run(const f3d::CaseSpec& spec, bool wall, double pulse,
                         double reynolds, int steps, f3d::EngineKind engine) {
  auto grid = f3d::build_grid(spec);
  if (wall) f3d::add_kmin_wall(grid);
  f3d::add_gaussian_pulse(grid, pulse, 2.5);
  f3d::SolverConfig cfg;
  cfg.freestream = spec.freestream;
  cfg.engine = engine;
  if (reynolds > 0.0) {
    cfg.rhs.viscous.enabled = true;
    cfg.rhs.viscous.reynolds = reynolds;
  }
  f3d::Solver solver(grid, cfg);
  solver.run(steps);
  return f3d::checksum(grid);
}

TEST(Checksum, PinnedAcrossInstructionSets) {
  for (const auto engine :
       {f3d::EngineKind::kPencilScalar, f3d::EngineKind::kPlaneVector}) {
    EXPECT_EQ(pinned_run(f3d::paper_1m_case(0.3), false, 0.1, 0.0, 5, engine),
              0x530d455d0fff105fULL);
    EXPECT_EQ(pinned_run(f3d::wall_compression_case(12), true, 0.05, 1000.0,
                         10, engine),
              0x81f027173537b052ULL);
  }
  const std::uint64_t simd_pin = f3d::tridiag_lanes_kernel() == "avx2"
                                     ? 0x7beb30a1e117785aULL
                                     : 0x530d455d0fff105fULL;
  EXPECT_EQ(pinned_run(f3d::paper_1m_case(0.3), false, 0.1, 0.0, 5,
                       f3d::EngineKind::kPencilSimd),
            simd_pin)
      << "lanes kernel " << f3d::tridiag_lanes_kernel();
}

}  // namespace
