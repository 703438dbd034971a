// Interleaved-pencil SIMD engine vs the per-pencil scalar engine, at two
// levels.
//
// The paper's RISC organization solves one pencil at a time; the SIMD
// engine packs kTridiagLaneWidth independent pencils into vector lanes.
// This bench times, on identical inputs:
//
//   * kernel: the lane-batched Thomas solve vs the per-pencil scalar
//     solver on diagonally dominant systems sized to sit in L2, so the
//     comparison measures the recurrence, not memory bandwidth;
//   * sweeps: a full J, K and L sweep of SimdSweeps vs RiscSweeps over the
//     largest zone of paper_1m_case(1.0) at 1 thread — the whole batch
//     (gather, projections, coefficients, Thomas, scatter), which is what
//     a time step pays. Repeats alternate the two engines; the gated
//     number is the median of the per-repeat ratios.
//
// It is the acceptance gate for the SIMD engine: when the AVX2 kernel is
// active both ratios must reach the floor (2x), and the binary exits
// nonzero if either does not. On hosts (or forced-scalar builds) where the
// dispatch reports "generic" there is no hardware win to gate on, so the
// floor defaults to 0; CI's forced-scalar job still runs the bench to prove
// the kernels and the reporting path work, passing an explicit
// --min-ratio 0.
//
//   micro_simd_tridiag [--n N] [--systems S] [--passes P] [--repeats R]
//                      [--min-ratio X] [--out PATH]
//
// Results land as one JSON line in BENCH_micro.json (shared with the other
// micro benches; --out overrides the path).
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "common.hpp"
#include "core/runtime.hpp"
#include "f3d/sweeps.hpp"
#include "f3d/tridiag.hpp"

namespace {

using clock_type = std::chrono::steady_clock;

// Deterministic low-discrepancy fill (no RNG: runs must be reproducible).
double weyl(double& x) {
  x += 0.6180339887498949;
  x -= std::floor(x);
  return x;
}

struct Problem {
  int n = 0;
  int systems = 0;  // multiple of f3d::kTridiagLaneWidth
  // Pencil layout: system s contiguous at [s*n, s*n + n).
  std::vector<double> a, b, c, d;
  // Lane layout: group g of W systems at offset g*n*W, element i of lane w
  // at g*n*W + i*W + w; lane w of group g is system g*W + w.
  std::vector<double> la, lb, lc, ld;
};

Problem make_problem(int n, int systems) {
  constexpr int W = f3d::kTridiagLaneWidth;
  Problem p;
  p.n = n;
  p.systems = systems;
  const std::size_t total = static_cast<std::size_t>(n) * systems;
  p.a.resize(total);
  p.b.resize(total);
  p.c.resize(total);
  p.d.resize(total);
  p.la.resize(total);
  p.lb.resize(total);
  p.lc.resize(total);
  p.ld.resize(total);
  double x = 0.0;
  for (int s = 0; s < systems; ++s) {
    for (int i = 0; i < n; ++i) {
      const std::size_t pi = static_cast<std::size_t>(s) * n + i;
      const std::size_t li = static_cast<std::size_t>(s / W) * n * W +
                             static_cast<std::size_t>(i) * W + (s % W);
      const double av = 1.0 + 0.1 * (weyl(x) - 0.5);
      const double cv = 1.0 + 0.1 * (weyl(x) - 0.5);
      const double bv = 3.5 + weyl(x);  // dominant: |b| > |a| + |c|
      const double dv = weyl(x) - 0.5;
      p.a[pi] = av, p.b[pi] = bv, p.c[pi] = cv, p.d[pi] = dv;
      p.la[li] = av, p.lb[li] = bv, p.lc[li] = cv, p.ld[li] = dv;
    }
  }
  return p;
}

/// One pass = restore the overwritten arrays, then solve every system.
/// The restore cost is identical on both sides, so the ratio is fair.
double time_scalar(const Problem& p, int passes) {
  std::vector<double> b(p.b), d(p.d);
  const auto t0 = clock_type::now();
  for (int pass = 0; pass < passes; ++pass) {
    std::memcpy(b.data(), p.b.data(), b.size() * sizeof(double));
    std::memcpy(d.data(), p.d.data(), d.size() * sizeof(double));
    for (int s = 0; s < p.systems; ++s) {
      const std::size_t off = static_cast<std::size_t>(s) * p.n;
      f3d::solve_tridiagonal(
          std::span<const double>(p.a.data() + off, p.n),
          std::span<double>(b.data() + off, p.n),
          std::span<const double>(p.c.data() + off, p.n),
          std::span<double>(d.data() + off, p.n));
    }
  }
  const std::chrono::duration<double> dt = clock_type::now() - t0;
  return dt.count() / passes;
}

double time_lanes(const Problem& p, int passes) {
  constexpr int W = f3d::kTridiagLaneWidth;
  std::vector<double> b(p.lb), d(p.ld);
  const auto t0 = clock_type::now();
  for (int pass = 0; pass < passes; ++pass) {
    std::memcpy(b.data(), p.lb.data(), b.size() * sizeof(double));
    std::memcpy(d.data(), p.ld.data(), d.size() * sizeof(double));
    for (int g = 0; g < p.systems / W; ++g) {
      const std::size_t off = static_cast<std::size_t>(g) * p.n * W;
      f3d::solve_tridiagonal_lanes(p.la.data() + off, b.data() + off,
                                   p.lc.data() + off, d.data() + off, p.n);
    }
  }
  const std::chrono::duration<double> dt = clock_type::now() - t0;
  return dt.count() / passes;
}

/// Max |scalar - lanes| over every solution element: the bench refuses to
/// report a speedup for a kernel that is not solving the same systems.
double max_solution_diff(const Problem& p) {
  constexpr int W = f3d::kTridiagLaneWidth;
  std::vector<double> b(p.b), d(p.d), lb(p.lb), ld(p.ld);
  for (int s = 0; s < p.systems; ++s) {
    const std::size_t off = static_cast<std::size_t>(s) * p.n;
    f3d::solve_tridiagonal(std::span<const double>(p.a.data() + off, p.n),
                           std::span<double>(b.data() + off, p.n),
                           std::span<const double>(p.c.data() + off, p.n),
                           std::span<double>(d.data() + off, p.n));
  }
  for (int g = 0; g < p.systems / W; ++g) {
    const std::size_t off = static_cast<std::size_t>(g) * p.n * W;
    f3d::solve_tridiagonal_lanes(p.la.data() + off, lb.data() + off,
                                 p.lc.data() + off, ld.data() + off, p.n);
  }
  double worst = 0.0;
  for (int s = 0; s < p.systems; ++s) {
    for (int i = 0; i < p.n; ++i) {
      const std::size_t pi = static_cast<std::size_t>(s) * p.n + i;
      const std::size_t li = static_cast<std::size_t>(s / W) * p.n * W +
                             static_cast<std::size_t>(i) * W + (s % W);
      const double diff = std::abs(d[pi] - ld[li]);
      if (diff > worst) worst = diff;
    }
  }
  return worst;
}

struct SweepTiming {
  double risc_s = 0.0;  // median J+K+L sweep time
  double simd_s = 0.0;
  double ratio = 0.0;   // median of per-repeat risc/simd
  int points = 0;
};

/// Time one J, K and L sweep of each pencil engine over the largest zone
/// of the full-size 1m case, on a 1-thread runtime. The rhs is restored
/// before every timed sweep set, outside the clock.
SweepTiming time_sweeps(int repeats) {
  const f3d::CaseSpec spec = f3d::paper_1m_case(1.0);
  auto grid = f3d::build_grid(spec);
  f3d::add_gaussian_pulse(grid, 0.1, 2.5);
  int biggest = 0;
  for (int z = 1; z < grid.num_zones(); ++z) {
    if (grid.zone(z).interior_points() >
        grid.zone(biggest).interior_points()) {
      biggest = z;
    }
  }
  const f3d::Zone& zone = grid.zone(biggest);
  const int g = f3d::Zone::kGhost;
  llp::Array4D<double> pristine(f3d::kNumVars, zone.jmax() + 2 * g,
                                zone.kmax() + 2 * g, zone.lmax() + 2 * g);
  double x = 0.0;
  for (std::size_t i = 0; i < pristine.size(); ++i) {
    pristine.data()[i] = 1e-3 * (weyl(x) - 0.5);
  }
  llp::Array4D<double> rhs = pristine;

  llp::Runtime rt(1);
  llp::RuntimeScope scope(rt);
  const llp::RegionId region = rt.regions().define("micro.sweep");
  // dt at the solver's default CFL of 2.
  const double dt = 2.0 * spec.spacing / (spec.freestream.mach + 1.0);
  f3d::RiscSweeps risc;
  f3d::SimdSweeps simd;
  auto time_engine = [&](f3d::SweepEngine& engine) {
    std::memcpy(rhs.data(), pristine.data(), rhs.size() * sizeof(double));
    const auto t0 = clock_type::now();
    for (int dir = 0; dir < 3; ++dir) {
      engine.sweep(zone, dir, dt, 0.25, rhs, region);
    }
    const std::chrono::duration<double> dt_s = clock_type::now() - t0;
    return dt_s.count();
  };
  time_engine(risc);  // warm-up: workspaces, first touch
  time_engine(simd);
  std::vector<double> risc_s, simd_s, ratios;
  for (int r = 0; r < repeats; ++r) {
    double a = 0.0, b = 0.0;
    if (r % 2 == 0) {
      a = time_engine(risc);
      b = time_engine(simd);
    } else {
      b = time_engine(simd);
      a = time_engine(risc);
    }
    risc_s.push_back(a);
    simd_s.push_back(b);
    ratios.push_back(a / b);
  }
  SweepTiming t;
  t.risc_s = bench::median(risc_s);
  t.simd_s = bench::median(simd_s);
  t.ratio = bench::median(ratios);
  t.points = static_cast<int>(zone.interior_points());
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  int n = 96;
  int systems = 128;
  int passes = 40;
  int repeats = 3;
  const bool avx2 = f3d::tridiag_lanes_kernel() == "avx2";
  double min_ratio = avx2 ? 2.0 : 0.0;
  std::string out = "BENCH_micro.json";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (a == "--n" && (v = next())) n = std::atoi(v);
    else if (a == "--systems" && (v = next())) systems = std::atoi(v);
    else if (a == "--passes" && (v = next())) passes = std::atoi(v);
    else if (a == "--repeats" && (v = next())) repeats = std::atoi(v);
    else if (a == "--min-ratio" && (v = next())) min_ratio = std::atof(v);
    else if (a == "--out" && (v = next())) out = v;
    else {
      std::fprintf(stderr,
                   "usage: micro_simd_tridiag [--n N] [--systems S] "
                   "[--passes P] [--repeats R] [--min-ratio X] "
                   "[--out PATH]\n");
      return 2;
    }
  }
  constexpr int W = f3d::kTridiagLaneWidth;
  if (n < 2 || systems < W || passes < 1 || repeats < 1) return 2;
  systems -= systems % W;

  std::printf("SIMD pencil tridiag — kernel '%s', %d systems of length %d, "
              "best of %d x %d passes\n\n",
              std::string(f3d::tridiag_lanes_kernel()).c_str(), systems, n,
              repeats, passes);

  const Problem p = make_problem(n, systems);
  const double diff = max_solution_diff(p);
  // The two kernels differ only by FMA rounding: O(eps) per element.
  if (!(diff < 1e-10)) {
    std::fprintf(stderr,
                 "micro_simd_tridiag: lane kernel diverged from the scalar "
                 "solver (max diff %.3g) — refusing to time it\n", diff);
    return 1;
  }

  double scalar_s = 1e300, lanes_s = 1e300;
  for (int r = 0; r < repeats; ++r) {
    scalar_s = std::min(scalar_s, time_scalar(p, passes));
    lanes_s = std::min(lanes_s, time_lanes(p, passes));
  }
  const double ratio = scalar_s / lanes_s;
  const double flops = f3d::tridiag_flops(n) * systems;

  std::printf("scalar pencils : %9.3f us/pass  (%.2f GFLOP/s)\n",
              scalar_s * 1e6, flops / scalar_s * 1e-9);
  std::printf("simd lanes     : %9.3f us/pass  (%.2f GFLOP/s)\n",
              lanes_s * 1e6, flops / lanes_s * 1e-9);
  std::printf("speedup        : %9.2fx  (floor %.2fx)\n", ratio, min_ratio);
  std::printf("max |diff|     : %9.3g\n\n", diff);

  const SweepTiming sw = time_sweeps(repeats);
  std::printf("J+K+L sweeps of the largest 1m zone (%d points), 1 thread, "
              "median of %d:\n", sw.points, repeats);
  std::printf("risc sweeps    : %9.3f ms\n", sw.risc_s * 1e3);
  std::printf("simd sweeps    : %9.3f ms\n", sw.simd_s * 1e3);
  std::printf("speedup        : %9.2fx  (floor %.2fx)\n\n", sw.ratio,
              min_ratio);

  const llp::Json rec = llp::Json::Object{
      {"bench", "micro_simd_tridiag"},
      {"kernel", std::string(f3d::tridiag_lanes_kernel())},
      {"n", n},
      {"systems", systems},
      {"passes", passes},
      {"repeats", repeats},
      {"scalar_us_per_pass", scalar_s * 1e6},
      {"simd_us_per_pass", lanes_s * 1e6},
      {"speedup", ratio},
      {"sweep_points", sw.points},
      {"risc_sweeps_ms", sw.risc_s * 1e3},
      {"simd_sweeps_ms", sw.simd_s * 1e3},
      {"sweep_speedup", sw.ratio},
      {"min_ratio", min_ratio},
      {"max_abs_diff", diff}};
  if (!bench::upsert_json_line(out, rec)) {
    std::fprintf(stderr, "micro_simd_tridiag: cannot write %s\n",
                 out.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out.c_str());

  bool ok = true;
  if (ratio < min_ratio) {
    std::fprintf(stderr,
                 "micro_simd_tridiag: kernel speedup %.2fx below the %.2fx "
                 "floor\n", ratio, min_ratio);
    ok = false;
  }
  if (sw.ratio < min_ratio) {
    std::fprintf(stderr,
                 "micro_simd_tridiag: sweep speedup %.2fx below the %.2fx "
                 "floor\n", sw.ratio, min_ratio);
    ok = false;
  }
  return ok ? 0 : 1;
}
