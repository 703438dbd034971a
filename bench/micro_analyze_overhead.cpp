// Cost of the loop-safety analyzer on the paper's fig2 1-million-point F3D
// case, in both states the design promises:
//
//   * analyzer OFF (the production default): every logging call in the
//     solver is one null-pointer check, so the instrumented accessors must
//     be free — the OFF run here is the reference the ON run is judged
//     against;
//   * analyzer ON: access logging is interval-granular (a handful of
//     on_access calls per plane/pencil task, never per element), so a
//     fully checked run must stay under 3x the plain run.
//
// The bench exits nonzero when either bound is violated, so CI fails on an
// overhead regression, and also prints how many region invocations the ON
// run actually checked (a zero would mean the guard proved nothing).
//
// Results also land as one JSON line in BENCH_micro.json (shared with the
// other micro benches; --out overrides the path).
//
//   micro_analyze_overhead [--scale S] [--steps N] [--repeats R] [--out PATH]
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "analyze/analyzer.hpp"
#include "bench_json.hpp"
#include "common.hpp"
#include "util/format.hpp"

namespace {

double run_steps(const f3d::CaseSpec& spec, int steps) {
  auto grid = f3d::build_grid(spec);
  f3d::SolverConfig cfg;
  cfg.freestream = spec.freestream;
  f3d::Solver solver(grid, cfg);
  const auto t0 = std::chrono::steady_clock::now();
  for (int s = 0; s < steps; ++s) solver.step();
  const std::chrono::duration<double> dt =
      std::chrono::steady_clock::now() - t0;
  return dt.count() / steps;
}

double best_of(const f3d::CaseSpec& spec, int steps, int repeats) {
  double best = 1e300;
  for (int r = 0; r < repeats; ++r) {
    const double s = run_steps(spec, steps);
    if (s < best) best = s;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  double scale = 0.12;
  int steps = 5;
  int repeats = 3;
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
                   "usage: micro_analyze_overhead [--scale S] [--steps N] "
                   "[--repeats R] [--out PATH]\n");
      return 2;
    }
  }
  if (scale <= 0.0 || steps < 1 || repeats < 1) return 2;

  bench::heading(llp::strfmt(
      "Analyzer overhead — fig2 1M-point case at scale %.2f, %d steps, best "
      "of %d", scale, steps, repeats));
  const f3d::CaseSpec spec = f3d::paper_1m_case(scale);
  std::printf("grid: %zu points, %d threads\n\n", spec.total_points(),
              llp::num_threads());

  // Warm-up run: pools, allocators, page faults — off the books for both
  // configurations.
  (void)run_steps(spec, 1);

  llp::analyze::uninstall();
  const double off = best_of(spec, steps, repeats);

  llp::analyze::AccessLogger& logger = llp::analyze::install();
  const double on = best_of(spec, steps, repeats);
  const unsigned long long checked =
      static_cast<unsigned long long>(logger.invocations_checked());
  const std::size_t findings = logger.num_findings();
  llp::analyze::uninstall();

  const double ratio = on / off;

  std::printf("analyzer off : %9.3f ms/step\n", off * 1e3);
  std::printf("analyzer on  : %9.3f ms/step  (%.2fx, target < 3x)\n",
              on * 1e3, ratio);
  std::printf("checked      : %llu region invocation(s), %zu finding(s)\n\n",
              checked, findings);

  // The OFF cost is measured against the pre-analyzer baseline implicitly:
  // this binary IS the instrumented solver; a separate un-instrumented
  // build does not exist to compare against. What the guard can and does
  // pin down in-process: the ON/OFF ratio, that checking really happened,
  // and that a clean solver stays clean.
  bool ok = true;
  if (ratio >= 3.0) {
    std::fprintf(stderr,
                 "FAIL: analyzer-on overhead %.2fx exceeds the 3x budget\n",
                 ratio);
    ok = false;
  }
  if (checked == 0) {
    std::fprintf(stderr, "FAIL: analyzer-on run checked nothing\n");
    ok = false;
  }
  if (findings != 0) {
    std::fprintf(stderr, "FAIL: f3d step is expected to be race-free\n");
    ok = false;
  }
  const llp::Json rec = llp::Json::Object{
      {"bench", "micro_analyze_overhead"},
      {"scale", scale},
      {"steps", steps},
      {"repeats", repeats},
      {"threads", llp::num_threads()},
      {"off_ms_per_step", off * 1e3},
      {"on_ms_per_step", on * 1e3},
      {"ratio", ratio},
      {"budget_ratio", 3.0},
      {"checked", static_cast<std::uint64_t>(checked)},
      {"findings", static_cast<std::uint64_t>(findings)},
      {"ok", ok}};
  if (!bench::upsert_json_line(out, rec)) {
    std::fprintf(stderr, "micro_analyze_overhead: cannot write %s\n",
                 out.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out.c_str());

  std::printf("%s\n", ok ? "analyze overhead: OK" : "analyze overhead: FAIL");
  return ok ? 0 : 1;
}
