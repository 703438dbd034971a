// The engine registry: parse/print round trips, factory/registry
// agreement, wire decoding, the lane-batched tridiagonal kernel's parity
// with the scalar solver, and the engine axis of the autotuner.
#include "f3d/engine.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "core/runtime.hpp"
#include "f3d/cases.hpp"
#include "f3d/engine_select.hpp"
#include "f3d/tridiag.hpp"
#include "tune/tuner.hpp"
#include "util/error.hpp"

namespace {

TEST(EngineRegistry, RowsAreOrderedAndDistinct) {
  const auto reg = f3d::engines();
  ASSERT_EQ(reg.size(), static_cast<std::size_t>(f3d::kNumEngines));
  std::set<std::string_view> names;
  for (int i = 0; i < f3d::kNumEngines; ++i) {
    EXPECT_EQ(static_cast<int>(reg[i].kind), i) << "registry out of order";
    EXPECT_FALSE(reg[i].name.empty());
    EXPECT_FALSE(reg[i].summary.empty());
    names.insert(reg[i].name);
  }
  EXPECT_EQ(names.size(), reg.size()) << "duplicate engine name";
}

TEST(EngineRegistry, LegacySpellingsAreByteStable) {
  // These strings are on the wire in CLI flags, Scenario specs, serve job
  // JSON, and TuningDb files. They must never drift.
  EXPECT_EQ(f3d::engine_name(f3d::EngineKind::kPlaneVector), "vector");
  EXPECT_EQ(f3d::engine_name(f3d::EngineKind::kPencilScalar), "risc");
  EXPECT_EQ(f3d::engine_name(f3d::EngineKind::kPencilSimd), "simd");
  EXPECT_EQ(f3d::engine_names_usage(), "vector|risc|simd");
}

TEST(EngineRegistry, ParsePrintRoundTripsEveryEngine) {
  for (const f3d::EngineInfo& info : f3d::engines()) {
    f3d::EngineKind back;
    ASSERT_TRUE(parse_engine(f3d::engine_name(info.kind), &back))
        << info.name;
    EXPECT_EQ(back, info.kind);
  }
}

TEST(EngineRegistry, ParseRejectsUnknownAndLeavesOutAlone) {
  f3d::EngineKind out = f3d::EngineKind::kPencilScalar;
  EXPECT_FALSE(f3d::parse_engine("cray", &out));
  EXPECT_FALSE(f3d::parse_engine("", &out));
  EXPECT_FALSE(f3d::parse_engine("RISC", &out));  // case-sensitive
  EXPECT_FALSE(f3d::parse_engine("simd ", &out));
  EXPECT_EQ(out, f3d::EngineKind::kPencilScalar);
}

TEST(EngineRegistry, FactoryAgreesWithRegistry) {
  for (const f3d::EngineInfo& info : f3d::engines()) {
    const auto engine = f3d::make_engine(info.kind);
    ASSERT_NE(engine, nullptr);
    EXPECT_EQ(engine->kind(), info.kind);
    EXPECT_EQ(engine->name(), info.name);
    EXPECT_EQ(engine->name(), f3d::engine_name(info.kind));
  }
}

TEST(EngineRegistry, WireRoundTripAndRejection) {
  for (const f3d::EngineInfo& info : f3d::engines()) {
    f3d::EngineKind back;
    ASSERT_TRUE(
        f3d::engine_from_wire(static_cast<std::uint32_t>(info.kind), &back));
    EXPECT_EQ(back, info.kind);
  }
  f3d::EngineKind out;
  EXPECT_FALSE(f3d::engine_from_wire(f3d::kNumEngines, &out));
  EXPECT_FALSE(f3d::engine_from_wire(0xffffffffu, &out));
}

TEST(EngineRegistry, WireValuesMatchLegacySweepModeEncoding) {
  // The cluster protocol shipped 0 = vector, 1 = risc before the registry
  // existed; checkpointed INIT frames must keep decoding.
  f3d::EngineKind k;
  ASSERT_TRUE(f3d::engine_from_wire(0, &k));
  EXPECT_EQ(k, f3d::EngineKind::kPlaneVector);
  ASSERT_TRUE(f3d::engine_from_wire(1, &k));
  EXPECT_EQ(k, f3d::EngineKind::kPencilScalar);
}

TEST(EngineRegistry, CapabilityFlags) {
  EXPECT_FALSE(f3d::engine_info(f3d::EngineKind::kPlaneVector).parallel_outer);
  EXPECT_TRUE(f3d::engine_info(f3d::EngineKind::kPencilScalar).parallel_outer);
  EXPECT_TRUE(f3d::engine_info(f3d::EngineKind::kPencilSimd).parallel_outer);
  // Only the SIMD engine fuses multiply-adds; the other two must stay
  // bitwise-comparable in the differential oracle.
  EXPECT_FALSE(f3d::engine_info(f3d::EngineKind::kPlaneVector).fma_lanes);
  EXPECT_FALSE(f3d::engine_info(f3d::EngineKind::kPencilScalar).fma_lanes);
  EXPECT_TRUE(f3d::engine_info(f3d::EngineKind::kPencilSimd).fma_lanes);
}

TEST(EngineRegistry, FallbackIsTheSerialBaseline) {
  for (const f3d::EngineInfo& info : f3d::engines()) {
    EXPECT_EQ(f3d::engine_fallback_for(info.kind),
              f3d::EngineKind::kPlaneVector);
  }
}

TEST(EngineRegistry, InfoThrowsOnBogusKind) {
  EXPECT_THROW(f3d::engine_info(static_cast<f3d::EngineKind>(99)),
               llp::Error);
}

// ---- lane-batched tridiagonal kernel parity ------------------------------

void fill_system(int n, int lane, std::vector<double>& a,
                 std::vector<double>& b, std::vector<double>& c,
                 std::vector<double>& d) {
  a.resize(n), b.resize(n), c.resize(n), d.resize(n);
  for (int i = 0; i < n; ++i) {
    a[i] = 1.0 + 0.01 * ((i + lane) % 7);
    c[i] = 1.0 - 0.01 * ((i + 2 * lane) % 5);
    b[i] = 4.0 + 0.1 * (i % 3) + 0.05 * lane;  // diagonally dominant
    d[i] = std::sin(0.3 * i + lane);
  }
}

TEST(TridiagLanes, MatchesScalarSolverPerLane) {
  constexpr int W = f3d::kTridiagLaneWidth;
  for (int n : {1, 2, 3, 7, 32, 97}) {
    std::vector<double> a[W], b[W], c[W], d[W];
    std::vector<double> la(static_cast<std::size_t>(n) * W);
    std::vector<double> lb(la.size()), lc(la.size()), ld(la.size());
    for (int w = 0; w < W; ++w) {
      fill_system(n, w, a[w], b[w], c[w], d[w]);
      for (int i = 0; i < n; ++i) {
        la[static_cast<std::size_t>(i) * W + w] = a[w][i];
        lb[static_cast<std::size_t>(i) * W + w] = b[w][i];
        lc[static_cast<std::size_t>(i) * W + w] = c[w][i];
        ld[static_cast<std::size_t>(i) * W + w] = d[w][i];
      }
    }
    f3d::solve_tridiagonal_lanes(la.data(), lb.data(), lc.data(), ld.data(),
                                 n);
    for (int w = 0; w < W; ++w) {
      f3d::solve_tridiagonal(a[w], b[w], c[w], d[w]);
      for (int i = 0; i < n; ++i) {
        // FMA rounding is the only permitted divergence: O(eps) relative.
        EXPECT_NEAR(ld[static_cast<std::size_t>(i) * W + w], d[w][i],
                    1e-12 * (1.0 + std::abs(d[w][i])))
            << "n " << n << " lane " << w << " i " << i;
      }
    }
  }
}

TEST(TridiagLanes, KernelNameIsRegistered) {
  const std::string_view k = f3d::tridiag_lanes_kernel();
  EXPECT_TRUE(k == "avx2" || k == "generic") << k;
#if defined(LLP_SIMD_FORCE_SCALAR)
  EXPECT_EQ(k, "generic");
#endif
}

// ---- engine axis of the autotuner ----------------------------------------

TEST(EngineSelect, PicksARegisteredEngineAndPersistsIt) {
  llp::Runtime rt(1);
  llp::RuntimeScope scope(rt);
  const auto spec = f3d::wall_compression_case(8);
  auto grid = f3d::build_grid(spec);
  f3d::SolverConfig cfg;
  cfg.freestream = spec.freestream;
  cfg.region_prefix = "engsel.test";

  llp::tune::Tuner tuner;
  const f3d::EngineChoice probed =
      f3d::select_engine(grid, cfg, &tuner, /*repeats=*/1);
  EXPECT_FALSE(probed.from_db);
  EXPECT_GT(probed.seconds, 0.0);
  f3d::EngineKind parsed;
  ASSERT_TRUE(
      f3d::parse_engine(f3d::engine_name(probed.kind), &parsed));
  EXPECT_EQ(parsed, probed.kind);

  // Second call must short-circuit on the committed DB row: same decision,
  // no re-probe (from_db flips).
  const f3d::EngineChoice cached =
      f3d::select_engine(grid, cfg, &tuner, /*repeats=*/1);
  EXPECT_TRUE(cached.from_db);
  EXPECT_EQ(cached.kind, probed.kind);
  EXPECT_EQ(cached.seconds, probed.seconds);

  // And the decision survives a save/load round trip through the text DB.
  const auto path = std::filesystem::temp_directory_path() /
                    "llp_engine_select_roundtrip.tsv";
  tuner.save_db(path.string());
  llp::tune::Tuner fresh;
  ASSERT_TRUE(fresh.load_db(path.string()));
  const f3d::EngineChoice loaded =
      f3d::select_engine(grid, cfg, &fresh, /*repeats=*/1);
  EXPECT_TRUE(loaded.from_db);
  EXPECT_EQ(loaded.kind, probed.kind);
  std::filesystem::remove(path);
}

TEST(EngineSelect, ZoneShapeKeysTheDecision) {
  llp::Runtime rt(1);
  llp::RuntimeScope scope(rt);
  // Equal point counts (864), different J line lengths: one engine
  // decision must not be reused for the other zone shape.
  f3d::CaseSpec short_j = f3d::wall_compression_case(8);
  short_j.zones = {f3d::ZoneDims{8, 12, 9}};
  f3d::CaseSpec long_j = short_j;
  long_j.zones = {f3d::ZoneDims{12, 8, 9}};
  auto grid_a = f3d::build_grid(short_j);
  auto grid_b = f3d::build_grid(long_j);
  ASSERT_EQ(grid_a.zone(0).interior_points(),
            grid_b.zone(0).interior_points());
  f3d::SolverConfig cfg;
  cfg.freestream = short_j.freestream;
  cfg.region_prefix = "engsel.shape";

  llp::tune::Tuner tuner;
  EXPECT_FALSE(f3d::select_engine(grid_a, cfg, &tuner, 1).from_db);
  EXPECT_FALSE(f3d::select_engine(grid_b, cfg, &tuner, 1).from_db);
  // Each shape then hits its own entry.
  EXPECT_TRUE(f3d::select_engine(grid_a, cfg, &tuner, 1).from_db);
  EXPECT_TRUE(f3d::select_engine(grid_b, cfg, &tuner, 1).from_db);
}

TEST(EngineSelect, RunsWithoutATuner) {
  llp::Runtime rt(1);
  llp::RuntimeScope scope(rt);
  const auto spec = f3d::wall_compression_case(8);
  auto grid = f3d::build_grid(spec);
  f3d::SolverConfig cfg;
  cfg.freestream = spec.freestream;
  cfg.region_prefix = "engsel.notuner";
  const f3d::EngineChoice c = f3d::select_engine(grid, cfg, nullptr, 1);
  EXPECT_FALSE(c.from_db);
  EXPECT_GT(c.seconds, 0.0);
}

}  // namespace
