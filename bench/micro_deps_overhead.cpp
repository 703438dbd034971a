// Cost of the static dependence analyzer (analyze/static/) on the fig2
// F3D case — proving the "declarations are free" claim the design makes:
//
//   * one-time cost: deriving every hot-region affine signature,
//     declaring it, and running the full GCD/Banerjee classification must
//     stay under 1% of ONE solver run (steps x step time). This is the
//     hard gate: the static pass is pure integer arithmetic on a dozen
//     declared regions, so it should be microseconds against milliseconds.
//   * steady state: a solver stepping WITH its signatures declared vs the
//     same solver with the registry emptied. Nothing in the hot loops
//     consults the registry per iteration (the tuner caches legality per
//     region, the logger only on a finding), so the ratio is pure noise
//     around 1.0; a loose sanity bound guards against someone ever putting
//     a registry lookup on the iteration path. The two runs of each of R
//     pairs are adjacent, their order alternating pair to pair, and the
//     gate reads the median of the per-pair ratios: host drift between
//     two halves of the measurement cannot land whole in the ratio.
//
// Exits nonzero when either bound is violated; results land as one JSON
// line in BENCH_micro.json next to the other micro benches.
//
//   micro_deps_overhead [--scale S] [--steps N] [--repeats R] [--out PATH]
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "analyze/static/registry.hpp"
#include "bench_json.hpp"
#include "common.hpp"
#include "f3d/signatures.hpp"
#include "util/format.hpp"

namespace {

double run_steps(const f3d::CaseSpec& spec, int steps, bool declared) {
  auto grid = f3d::build_grid(spec);
  f3d::SolverConfig cfg;
  cfg.freestream = spec.freestream;
  f3d::Solver solver(grid, cfg);  // define_regions declares the signatures
  if (!declared) llp::analyze::clear_declarations();
  const auto t0 = std::chrono::steady_clock::now();
  for (int s = 0; s < steps; ++s) solver.step();
  const std::chrono::duration<double> dt =
      std::chrono::steady_clock::now() - t0;
  return dt.count() / steps;
}

struct SteadyState {
  double undeclared = 0.0;  // median s/step
  double declared = 0.0;    // median s/step
  double ratio = 0.0;       // median of per-pair declared/undeclared
};

SteadyState steady_state(const f3d::CaseSpec& spec, int steps, int pairs) {
  std::vector<double> undeclared, declared, ratios;
  for (int r = 0; r < pairs; ++r) {
    double u = 0.0, d = 0.0;
    if (r % 2 == 0) {
      u = run_steps(spec, steps, /*declared=*/false);
      d = run_steps(spec, steps, /*declared=*/true);
    } else {
      d = run_steps(spec, steps, /*declared=*/true);
      u = run_steps(spec, steps, /*declared=*/false);
    }
    undeclared.push_back(u);
    declared.push_back(d);
    ratios.push_back(d / u);
  }
  return {bench::median(undeclared), bench::median(declared),
          bench::median(ratios)};
}

/// Best-of time of the whole static pass: derive + declare every signature
/// for `grid`, then classify every declared region through the full
/// GCD/Banerjee engine.
double time_static_pass(const f3d::MultiZoneGrid& grid,
                        const f3d::SolverConfig& cfg, int repeats,
                        std::size_t* regions) {
  double best = 1e300;
  for (int r = 0; r < repeats; ++r) {
    llp::analyze::clear_declarations();
    const auto t0 = std::chrono::steady_clock::now();
    f3d::declare_region_signatures(grid, cfg, /*overwrite=*/true);
    const auto table = llp::analyze::classification_table();
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    *regions = table.size();
    if (dt.count() < best) best = dt.count();
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  double scale = 0.12;
  int steps = 3;
  int repeats = 11;
  std::string out = "BENCH_micro.json";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (a == "--scale" && (v = next())) scale = std::atof(v);
    else if (a == "--steps" && (v = next())) steps = std::atoi(v);
    else if (a == "--repeats" && (v = next())) repeats = std::atoi(v);
    else if (a == "--out" && (v = next())) out = v;
    else {
      std::fprintf(stderr,
                   "usage: micro_deps_overhead [--scale S] [--steps N] "
                   "[--repeats R] [--out PATH]\n");
      return 2;
    }
  }
  if (scale <= 0.0 || steps < 1 || repeats < 1) return 2;

  bench::heading(llp::strfmt(
      "Static dependence pass overhead — fig2 case at scale %.2f, %d steps, "
      "%d interleaved pairs", scale, steps, repeats));
  const f3d::CaseSpec spec = f3d::paper_1m_case(scale);
  std::printf("grid: %zu points, %d threads\n\n", spec.total_points(),
              llp::num_threads());

  (void)run_steps(spec, 1, /*declared=*/true);  // warm-up, off the books

  const SteadyState steady = steady_state(spec, steps, repeats);
  const double undeclared = steady.undeclared;
  const double declared = steady.declared;
  const double steady_ratio = steady.ratio;

  auto grid = f3d::build_grid(spec);
  f3d::SolverConfig cfg;
  cfg.freestream = spec.freestream;
  std::size_t regions = 0;
  const double pass_s = time_static_pass(grid, cfg, repeats, &regions);
  std::size_t not_doall = 0;
  for (const auto& row : llp::analyze::classification_table()) {
    if (!row.verdict.parallel_ok()) ++not_doall;
  }
  const double overhead_pct =
      100.0 * pass_s / (static_cast<double>(steps) * declared);

  std::printf("undeclared   : %9.3f ms/step\n", undeclared * 1e3);
  std::printf("declared     : %9.3f ms/step  (median pair ratio %.3f, "
              "sanity < 1.10)\n",
              declared * 1e3, steady_ratio);
  std::printf("static pass  : %9.3f us for %zu region(s)\n", pass_s * 1e6,
              regions);
  std::printf("one-time cost: %9.4f %% of a %d-step run  (budget < 1%%)\n\n",
              overhead_pct, steps);

  bool ok = true;
  if (overhead_pct >= 1.0) {
    std::fprintf(stderr,
                 "FAIL: static pass costs %.3f%% of a run, budget is 1%%\n",
                 overhead_pct);
    ok = false;
  }
  if (steady_ratio >= 1.10) {
    std::fprintf(stderr,
                 "FAIL: declared steady-state ratio %.3f — something now "
                 "consults the registry on the iteration path\n",
                 steady_ratio);
    ok = false;
  }
  if (regions == 0) {
    std::fprintf(stderr, "FAIL: the static pass declared nothing\n");
    ok = false;
  }
  if (not_doall != 0) {
    std::fprintf(stderr,
                 "FAIL: %zu f3d region(s) not DOALL — the hot loops must "
                 "classify parallel\n", not_doall);
    ok = false;
  }

  const llp::Json rec = llp::Json::Object{
      {"bench", "micro_deps_overhead"},
      {"scale", scale},
      {"steps", steps},
      {"repeats", repeats},
      {"threads", llp::num_threads()},
      {"undeclared_ms_per_step", undeclared * 1e3},
      {"declared_ms_per_step", declared * 1e3},
      {"steady_ratio", steady_ratio},
      {"static_pass_us", pass_s * 1e6},
      {"overhead_pct", overhead_pct},
      {"budget_pct", 1.0},
      {"regions", static_cast<std::uint64_t>(regions)},
      {"not_doall", static_cast<std::uint64_t>(not_doall)},
      {"ok", ok}};
  if (!bench::upsert_json_line(out, rec)) {
    std::fprintf(stderr, "micro_deps_overhead: cannot write %s\n",
                 out.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out.c_str());

  std::printf("%s\n", ok ? "deps overhead: OK" : "deps overhead: FAIL");
  return ok ? 0 : 1;
}
