#include "model/stairstep.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "util/error.hpp"

namespace {

using llp::model::composite_stairstep_speedup;
using llp::model::equivalent_processors;
using llp::model::max_units_per_processor;
using llp::model::speedup_jump_points;
using llp::model::stairstep_efficiency;
using llp::model::stairstep_speedup;

// Paper Table 3: a loop with 15 units of parallelism. Every field is 8
// bytes wide so the row has no padding: gtest names each case after the
// row's bytes, and padding bytes would change the name from run to run.
struct Table3Row {
  std::int64_t processors;
  std::int64_t max_units;
  double speedup;
};

class Table3 : public ::testing::TestWithParam<Table3Row> {};

TEST_P(Table3, MatchesPaper) {
  const auto& row = GetParam();
  const int processors = static_cast<int>(row.processors);
  EXPECT_EQ(max_units_per_processor(15, processors), row.max_units);
  EXPECT_DOUBLE_EQ(stairstep_speedup(15, processors), row.speedup);
}

INSTANTIATE_TEST_SUITE_P(
    Paper, Table3,
    ::testing::Values(Table3Row{1, 15, 1.0}, Table3Row{2, 8, 15.0 / 8.0},
                      Table3Row{3, 5, 3.0}, Table3Row{4, 4, 3.75},
                      Table3Row{5, 3, 5.0}, Table3Row{6, 3, 5.0},
                      Table3Row{7, 3, 5.0}, Table3Row{8, 2, 7.5},
                      Table3Row{10, 2, 7.5}, Table3Row{14, 2, 7.5},
                      Table3Row{15, 1, 15.0}));

// Properties of the stair-step over a wide sweep.
class StairStepProperties
    : public ::testing::TestWithParam<std::tuple<std::int64_t, int>> {};

TEST_P(StairStepProperties, SpeedupNeverExceedsProcessorsOrUnits) {
  const auto [n, p] = GetParam();
  const double s = stairstep_speedup(n, p);
  EXPECT_LE(s, static_cast<double>(p) + 1e-12);
  EXPECT_LE(s, static_cast<double>(n) + 1e-12);
  EXPECT_GE(s, 1.0);
}

TEST_P(StairStepProperties, MonotoneNondecreasingInProcessors) {
  const auto [n, p] = GetParam();
  EXPECT_LE(stairstep_speedup(n, p), stairstep_speedup(n, p + 1) + 1e-12);
}

TEST_P(StairStepProperties, EfficiencyIsOneAtDivisors) {
  const auto [n, p] = GetParam();
  if (n % p == 0) {
    EXPECT_DOUBLE_EQ(stairstep_efficiency(n, p), 1.0);
  } else {
    EXPECT_LT(stairstep_efficiency(n, p), 1.0);
  }
}

TEST_P(StairStepProperties, EquivalentProcessorsGiveSameSpeedup) {
  const auto [n, p] = GetParam();
  const int eq = equivalent_processors(n, p);
  EXPECT_LE(eq, p);
  EXPECT_DOUBLE_EQ(stairstep_speedup(n, eq), stairstep_speedup(n, p));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StairStepProperties,
    ::testing::Combine(::testing::Values<std::int64_t>(5, 15, 25, 45, 70, 75,
                                                       350, 450, 1000),
                       ::testing::Values(1, 2, 3, 5, 16, 48, 64, 88, 104,
                                         127)));

TEST(StairStep, FullSpeedupAtUnitCount) {
  EXPECT_DOUBLE_EQ(stairstep_speedup(450, 450), 450.0);
}

TEST(JumpPoints, For15UnitsMatchTable3Boundaries) {
  // Speedup changes at p = 1,2,3,4,5,8,15 (Table 3's row boundaries).
  const auto jumps = speedup_jump_points(15, 20);
  const std::vector<int> expected = {1, 2, 3, 4, 5, 8, 15};
  EXPECT_EQ(jumps, expected);
}

TEST(JumpPoints, PaperK450JumpsNearMeasuredFlats) {
  // For the 59M case's K = 450 loops, the paper reports nearly flat
  // performance between 88 and 104 processors. ceil(450/p) = 5 for all of
  // 90..112, so the model predicts a flat covering [90, 112] with jumps at
  // its ends.
  const auto jumps = speedup_jump_points(450, 128);
  bool has90 = false, has113 = false;
  for (int j : jumps) {
    if (j == 90) has90 = true;
    if (j == 113) has113 = true;
    EXPECT_FALSE(j > 90 && j < 113) << "no jump inside the flat, got " << j;
  }
  EXPECT_TRUE(has90);
  EXPECT_TRUE(has113);
}

TEST(JumpPoints, JumpsAreAtMOverK) {
  // Jumps land at ceil(M/k) for integer k: M/5, M/4, M/3, M/2, M (paper §5).
  const auto jumps = speedup_jump_points(100, 100);
  for (int j : {20, 25, 34, 50, 100}) {
    EXPECT_NE(std::find(jumps.begin(), jumps.end(), j), jumps.end()) << j;
  }
}

TEST(Composite, SingleLoopReducesToPlainStairstep) {
  EXPECT_DOUBLE_EQ(composite_stairstep_speedup({15}, {1.0}, 4),
                   stairstep_speedup(15, 4));
}

TEST(Composite, WeightsByTimeFraction) {
  // Half the time in a 15-unit loop, half in a 450-unit loop, on p=15:
  // t = 0.5/15 + 0.5/15 = 1/15 (450-unit loop also gives exactly 15).
  const double s = composite_stairstep_speedup({15, 450}, {0.5, 0.5}, 15);
  EXPECT_DOUBLE_EQ(s, 15.0);
}

TEST(Composite, ShortLoopDragsDownLongLoop) {
  const double s = composite_stairstep_speedup({10, 1000}, {0.5, 0.5}, 64);
  EXPECT_LT(s, 20.0);  // the 10-unit loop caps its half at 10x
  EXPECT_GT(s, 10.0);
}

TEST(Composite, RejectsBadFractions) {
  EXPECT_THROW(composite_stairstep_speedup({10, 10}, {0.7, 0.7}, 4),
               llp::Error);
  EXPECT_THROW(composite_stairstep_speedup({10}, {1.0, 0.0}, 4), llp::Error);
}

TEST(StairStep, RejectsBadArgs) {
  EXPECT_THROW(stairstep_speedup(0, 4), llp::Error);
  EXPECT_THROW(stairstep_speedup(10, 0), llp::Error);
}

}  // namespace
