// The paper's §4 methodology as an integration test: profile, parallelize
// the expensive loops one at a time, verify the answer never changes, and
// watch the predicted scaling improve with each enabled loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "f3d/cases.hpp"
#include "f3d/solver.hpp"
#include "f3d/validation.hpp"
#include "perf/trace_builder.hpp"
#include "simsmp/smp_simulator.hpp"

namespace {

std::vector<llp::RegionId> solver_loop_regions(const std::string& prefix) {
  std::vector<llp::RegionId> ids;
  for (const auto& r : llp::regions().snapshot()) {
    if (r.name.rfind(prefix + ".", 0) == 0 &&
        r.kind == llp::RegionKind::kParallelLoop) {
      ids.push_back(llp::regions().find(r.name));
    }
  }
  return ids;
}

TEST(Incremental, DisablingLoopsNeverChangesTheSolution) {
  const auto spec = f3d::wall_compression_case(10);

  auto run_with_enabled = [&](bool enabled) {
    auto grid = f3d::build_grid(spec);
    f3d::add_gaussian_pulse(grid, 0.05, 2.0);
    f3d::SolverConfig cfg;
    cfg.freestream = spec.freestream;
    cfg.region_prefix = "inc.sol";
    f3d::Solver s(grid, cfg);
    for (auto id : solver_loop_regions("inc.sol")) {
      llp::regions().set_parallel_enabled(id, enabled);
    }
    s.run(5);
    return f3d::checksum(grid);
  };

  const auto serial = run_with_enabled(false);
  const auto parallel = run_with_enabled(true);
  EXPECT_EQ(serial, parallel);
}

TEST(Incremental, EachEnabledLoopImprovesPredictedScaling) {
  const auto spec = f3d::paper_1m_case(0.1);
  auto grid = f3d::build_grid(spec);
  f3d::add_gaussian_pulse(grid, 0.05, 2.0);
  f3d::SolverConfig cfg;
  cfg.freestream = spec.freestream;
  cfg.region_prefix = "inc.step";
  f3d::Solver s(grid, cfg);

  const auto loops = solver_loop_regions("inc.step");
  ASSERT_GE(loops.size(), 10u);

  llp::simsmp::SmpSimulator sim(llp::model::origin2000_r12k_300());
  double prev_speedup = 0.0;

  // Enable loops cumulatively: none -> all, measuring after each batch of 5.
  for (auto id : loops) llp::regions().set_parallel_enabled(id, false);
  for (std::size_t enabled = 0; enabled <= loops.size(); enabled += 5) {
    for (std::size_t i = 0; i < loops.size(); ++i) {
      llp::regions().set_parallel_enabled(loops[i], i < enabled);
    }
    llp::regions().reset_stats();
    s.run(2);
    auto snap = llp::regions().snapshot();
    std::vector<llp::RegionStats> mine;
    for (auto& r : snap) {
      if (r.name.rfind("inc.step.", 0) == 0 && r.invocations > 0) {
        mine.push_back(r);
      }
    }
    // Extrapolate to the full-size case: at the measured toy scale the
    // sync cost dominates (correctly!), which would mask the trend.
    const auto trace = llp::model::scale_trace(
        llp::perf::build_trace(mine, 2), 1000.0, 10.0);
    const double speedup = sim.run(trace, 32).speedup;
    EXPECT_GE(speedup, prev_speedup * 0.999)
        << "enabling more loops must not hurt, at " << enabled;
    prev_speedup = speedup;
  }
  // With everything enabled the prediction must show real scaling.
  EXPECT_GT(prev_speedup, 5.0);
  for (auto id : loops) llp::regions().set_parallel_enabled(id, true);
}

TEST(Incremental, ProfileIdentifiesSweepsAsHottest) {
  const auto spec = f3d::paper_1m_case(0.1);
  auto grid = f3d::build_grid(spec);
  f3d::SolverConfig cfg;
  cfg.freestream = spec.freestream;
  cfg.region_prefix = "inc.prof";
  f3d::Solver s(grid, cfg);
  // Each region's fastest of several 2-step solves: at this toy scale a
  // region runs for microseconds, and one preempted call would otherwise
  // crown whichever region it landed in.
  std::map<std::string, double> fastest;
  for (int rep = 0; rep < 5; ++rep) {
    llp::regions().reset_stats();
    s.run(2);
    for (const auto& r : llp::regions().snapshot()) {
      if (r.name.rfind("inc.prof.", 0) != 0) continue;
      const auto [it, fresh] = fastest.emplace(r.name, r.seconds);
      if (!fresh) it->second = std::min(it->second, r.seconds);
    }
  }
  // The flat profile's biggest entries should be sweep or rhs kernels of
  // the biggest zones — not bc/exchange.
  double hottest_time = 0.0;
  std::string hottest;
  for (const auto& [name, seconds] : fastest) {
    if (seconds > hottest_time) {
      hottest_time = seconds;
      hottest = name;
    }
  }
  EXPECT_TRUE(hottest.find("sweep") != std::string::npos ||
              hottest.find("rhs") != std::string::npos)
      << hottest;
}

}  // namespace
