#include "model/sync_cost.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace {

using llp::model::min_work_for_efficiency;
using llp::model::sync_overhead_fraction;

// Paper Table 1, all twelve cells. Every field is 8 bytes wide so the row
// has no padding: gtest names each case after the row's bytes, and padding
// bytes would give the cases a different name on every run.
struct Table1Row {
  std::int64_t processors;
  std::int64_t sync;
  std::int64_t expected;
};

class Table1 : public ::testing::TestWithParam<Table1Row> {};

TEST_P(Table1, MatchesPaperExactly) {
  const auto& row = GetParam();
  EXPECT_EQ(min_work_for_efficiency(static_cast<int>(row.processors), row.sync),
            row.expected);
}

INSTANTIATE_TEST_SUITE_P(
    Paper, Table1,
    ::testing::Values(
        Table1Row{2, 10000, 2000000}, Table1Row{2, 100000, 20000000},
        Table1Row{2, 1000000, 200000000}, Table1Row{8, 10000, 8000000},
        Table1Row{8, 100000, 80000000}, Table1Row{8, 1000000, 800000000},
        Table1Row{32, 10000, 32000000}, Table1Row{32, 100000, 320000000},
        Table1Row{32, 1000000, 3200000000LL},
        Table1Row{128, 10000, 128000000},
        Table1Row{128, 100000, 1280000000LL},
        Table1Row{128, 1000000, 12800000000LL}));

TEST(MinWork, ScalesLinearlyInProcessors) {
  EXPECT_EQ(min_work_for_efficiency(64, 10000),
            2 * min_work_for_efficiency(32, 10000));
}

TEST(MinWork, LooserToleranceNeedsLessWork) {
  EXPECT_LT(min_work_for_efficiency(8, 10000, 0.05),
            min_work_for_efficiency(8, 10000, 0.01));
}

TEST(MinWork, RejectsBadArgs) {
  EXPECT_THROW(min_work_for_efficiency(0, 1000), llp::Error);
  EXPECT_THROW(min_work_for_efficiency(2, -1), llp::Error);
  EXPECT_THROW(min_work_for_efficiency(2, 1000, 0.0), llp::Error);
  EXPECT_THROW(min_work_for_efficiency(2, 1000, 1.5), llp::Error);
}

TEST(OverheadFraction, AtThresholdWorkIsAboutOnePercent) {
  const std::int64_t w = min_work_for_efficiency(8, 10000);
  const double f = sync_overhead_fraction(w, 8, 10000);
  EXPECT_NEAR(f, 0.01, 0.001);
}

TEST(OverheadFraction, GrowsWithProcessors) {
  const std::int64_t w = 1000000;
  EXPECT_LT(sync_overhead_fraction(w, 2, 10000),
            sync_overhead_fraction(w, 32, 10000));
}

TEST(OverheadFraction, ZeroSyncIsFree) {
  EXPECT_DOUBLE_EQ(sync_overhead_fraction(1000, 4, 0), 0.0);
}

TEST(OverheadFraction, BoundedByOne) {
  EXPECT_LE(sync_overhead_fraction(1, 128, 1000000), 1.0);
}

}  // namespace
