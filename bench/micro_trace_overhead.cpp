// Cost of always-on tracing on the paper's fig2 1-million-point F3D case:
// the same solver steps run untraced and with the obs::Tracer installed,
// and the per-step difference is reported. The acceptance bar is <= 2%
// overhead — event emission rides region/lane/chunk boundaries, never
// per-iteration, so the cost must vanish against real step work.
//
//   micro_trace_overhead [--scale S] [--steps N] [--repeats R] [--out PATH]
//
// scale = 1 is the full 1M-point case; the default keeps the smoke test in
// seconds. Timing takes the best of R repeats per configuration to shed
// scheduler noise. Results also land as one JSON line in BENCH_micro.json
// (shared with the other micro benches; --out overrides the path).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_json.hpp"
#include "common.hpp"
#include "obs/obs.hpp"
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
                   "usage: micro_trace_overhead [--scale S] [--steps N] "
                   "[--repeats R] [--out PATH]\n");
      return 2;
    }
  }
  if (scale <= 0.0 || steps < 1 || repeats < 1) return 2;

  bench::heading(llp::strfmt(
      "Trace overhead — fig2 1M-point case at scale %.2f, %d steps, best of "
      "%d", scale, steps, repeats));
  const f3d::CaseSpec spec = f3d::paper_1m_case(scale);
  std::printf("grid: %zu points, %d threads\n\n", spec.total_points(),
              llp::num_threads());

  // Baseline first, with no tracer anywhere in the process.
  llp::obs::uninstall();
  const double untraced = best_of(spec, steps, repeats);

  llp::obs::Tracer& tracer = llp::obs::install();
  const double traced = best_of(spec, steps, repeats);
  const double overhead = (traced - untraced) / untraced * 100.0;

  std::printf("untraced : %9.3f ms/step\n", untraced * 1e3);
  std::printf("traced   : %9.3f ms/step\n", traced * 1e3);
  std::printf("overhead : %+8.2f %%  (target <= 2%%)\n\n", overhead);
  std::printf("events accepted: %llu, dropped: %llu\n",
              static_cast<unsigned long long>(tracer.accepted()),
              static_cast<unsigned long long>(tracer.dropped()));
  std::printf("\nper-region latency (traced runs):\n%s",
              tracer.summary().c_str());

  const llp::Json rec = llp::Json::Object{
      {"bench", "micro_trace_overhead"},
      {"scale", scale},
      {"steps", steps},
      {"repeats", repeats},
      {"threads", llp::num_threads()},
      {"untraced_ms_per_step", untraced * 1e3},
      {"traced_ms_per_step", traced * 1e3},
      {"overhead_pct", overhead},
      {"target_pct", 2.0},
      {"events_accepted", tracer.accepted()},
      {"events_dropped", tracer.dropped()}};
  if (!bench::upsert_json_line(out, rec)) {
    std::fprintf(stderr, "micro_trace_overhead: cannot write %s\n",
                 out.c_str());
    llp::obs::uninstall();
    return 1;
  }
  std::printf("wrote %s\n", out.c_str());
  llp::obs::uninstall();
  return 0;
}
