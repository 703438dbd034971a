// Shared machinery for the bench binaries. The measure-and-extrapolate
// method itself lives in the library (f3d/case_trace.hpp); this header
// just re-exports it into the bench namespace plus a heading helper.
#pragma once

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "f3d/case_trace.hpp"
#include "f3d/cases.hpp"
#include "f3d/solver.hpp"
#include "model/scaling.hpp"
#include "perf/trace_builder.hpp"

namespace bench {

inline llp::model::WorkTrace measure_full_size_trace(
    const f3d::CaseSpec& scaled, const f3d::CaseSpec& full,
    const std::string& prefix, int steps = 3) {
  return f3d::measure_full_size_trace(scaled, full, prefix, steps);
}

/// Median of a sample (mean of the middle two for an even count).
inline double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

/// Print a heading in a uniform style.
inline void heading(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

}  // namespace bench
