// paper1m_serial and paper1m_t4: the paper's zonal case, timed a whole
// solver step at a time on real threads.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>

#include "core/llp.hpp"
#include "f3d/cases.hpp"
#include "f3d/engine.hpp"
#include "f3d/solver.hpp"
#include "f3d/validation.hpp"
#include "util/format.hpp"
#include "workloads.hpp"

namespace bench {

namespace {

constexpr double kPulseAmps[] = {0.06, 0.08, 0.10, 0.12, 0.14};
constexpr double kPulseRadiusCells = 2.5;

struct Config {
  f3d::EngineKind engine;
  int threads;
};

struct PaperSpec {
  const char* name;
  double scale;
  int timed_steps;  ///< per solve, after the warm-up step
  int threads;      ///< the thread count step_s is reported at
  std::vector<Config> configs;
};

using f3d::EngineKind;

const PaperSpec kSerial{"paper1m_serial", 1.0, 6, 1,
                        {{EngineKind::kPlaneVector, 1},
                         {EngineKind::kPencilScalar, 1},
                         {EngineKind::kPencilSimd, 1}}};
const PaperSpec kT4{"paper1m_t4", 0.5, 5, 4,
                    {{EngineKind::kPencilScalar, 4},
                     {EngineKind::kPencilSimd, 4},
                     {EngineKind::kPencilScalar, 1},
                     {EngineKind::kPencilSimd, 1}}};

std::string label(const Config& c) {
  return std::string(f3d::engine_name(c.engine)) + "@" +
         std::to_string(c.threads);
}

std::string problem_name(double scale) { return llp::strfmt("1m@%.2f", scale); }

bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t n = std::char_traits<char>::length(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

}  // namespace

void StepBreakdown::add(const StepBreakdown& o) {
  steps += o.steps;
  step_s += o.step_s;
  rhs_s += o.rhs_s;
  sweep_j_s += o.sweep_j_s;
  sweep_k_s += o.sweep_k_s;
  sweep_l_s += o.sweep_l_s;
  update_s += o.update_s;
  serial_s += o.serial_s;
  forks += o.forks;
  parallel_s += o.parallel_s;
  lane_max_s += o.lane_max_s;
  lane_mean_s += o.lane_mean_s;
  flops_per_step = o.flops_per_step;
  bytes_per_step = o.bytes_per_step;
  if (regions.size() != o.regions.size()) {
    regions = o.regions;
    return;
  }
  for (std::size_t i = 0; i < regions.size(); ++i) {
    regions[i].second += o.regions[i].second;
  }
}

StepBreakdown registry_delta(const std::vector<llp::RegionStats>& before,
                             const std::vector<llp::RegionStats>& after,
                             const std::string& prefix, int steps,
                             double step_wall_s) {
  StepBreakdown b;
  b.steps = steps;
  b.step_s = step_wall_s;
  for (std::size_t i = 0; i < after.size(); ++i) {
    const llp::RegionStats& a = after[i];
    if (a.name.rfind(prefix + ".", 0) != 0) continue;
    const llp::RegionStats zero;
    const llp::RegionStats& z = i < before.size() ? before[i] : zero;
    const double sec = a.seconds - z.seconds;
    const double inv = static_cast<double>(a.invocations - z.invocations);
    const double trips = static_cast<double>(a.total_trips - z.total_trips);
    if (ends_with(a.name, ".rhs")) b.rhs_s += sec;
    if (ends_with(a.name, ".sweep_j")) b.sweep_j_s += sec;
    if (ends_with(a.name, ".sweep_k")) b.sweep_k_s += sec;
    if (ends_with(a.name, ".sweep_l")) b.sweep_l_s += sec;
    if (ends_with(a.name, ".update")) b.update_s += sec;
    if (ends_with(a.name, ".bc") || ends_with(a.name, ".exchange")) {
      b.serial_s += sec;
    }
    const bool parallel = a.kind == llp::RegionKind::kParallelLoop;
    if (parallel) {
      b.forks += inv;
      b.parallel_s += sec;
      b.lane_max_s += a.lane_max_seconds - z.lane_max_seconds;
      b.lane_mean_s += a.lane_mean_seconds - z.lane_mean_seconds;
    }
    const auto mean_trips =
        parallel && inv > 0 ? static_cast<std::int64_t>(std::llround(trips / inv))
                            : std::int64_t{1};
    b.regions.emplace_back(std::max<std::int64_t>(1, mean_trips), sec);
  }
  return b;
}

double pulse_amplitude(std::uint64_t seed) {
  return kPulseAmps[mix_seed(seed, 1) % std::size(kPulseAmps)];
}

namespace {

std::string reference_key(const std::string& problem, double amp, int steps) {
  return llp::strfmt("%s amp=%.3f steps=%d", problem.c_str(), amp, steps);
}

std::map<std::string, double> load_references(const std::string& path) {
  std::map<std::string, double> refs;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    // "<problem> amp=<a> steps=<n> <residual>"
    const std::size_t cut = line.rfind(' ');
    if (cut == std::string::npos) continue;
    refs[line.substr(0, cut)] = std::strtod(line.c_str() + cut + 1, nullptr);
  }
  return refs;
}

}  // namespace

SolveSample solve_paper(double scale, double amp, f3d::EngineKind engine,
                        llp::Runtime& rt, int timed_steps, std::int64_t id,
                        bool keep_grid) {
  SolveSample out;
  const Config c{engine, rt.num_threads()};
  const std::string prefix = label(c);
  spans::Scope solve_span("solve", id);
  const double t0 = now_s();
  const f3d::CaseSpec spec = f3d::paper_1m_case(scale);
  std::shared_ptr<f3d::MultiZoneGrid> grid;
  {
    spans::Scope s("f3d::build_grid", id);
    grid = std::make_shared<f3d::MultiZoneGrid>(f3d::build_grid(spec));
    f3d::add_gaussian_pulse(*grid, amp, kPulseRadiusCells);
  }
  f3d::SolverConfig cfg;
  cfg.freestream = spec.freestream;
  cfg.engine = engine;
  cfg.region_prefix = prefix;
  std::optional<f3d::Solver> solver;
  {
    spans::Scope s("f3d::Solver::Solver", id);
    solver.emplace(*grid, cfg, rt);
  }
  {
    spans::Scope s("f3d::Solver::step(warm-up)", id);
    solver->step();
  }
  out.setup_s = now_s() - t0;

  const auto before = rt.regions().snapshot();
  double timed = 0.0;
  for (int k = 0; k < timed_steps; ++k) {
    spans::Scope s("f3d::Solver::step", id * 1000 + k);
    const double ts = now_s();
    solver->step();
    const double dt = now_s() - ts;
    out.step_s.push_back(dt);
    timed += dt;
  }
  out.breakdown = registry_delta(before, rt.regions().snapshot(), prefix,
                                 timed_steps, timed);
  out.breakdown.flops_per_step = solver->flops_per_step();
  out.breakdown.bytes_per_step = solver->bytes_per_step();
  out.latency_s = now_s() - t0;

  out.outcome.label = prefix;
  out.outcome.engine = engine;
  out.outcome.residual = solver->residual();
  out.outcome.checksum = f3d::checksum(*grid);
  solver.reset();
  if (keep_grid) out.outcome.grid = grid;
  return out;
}

bool is_paper_workload(const std::string& name) {
  return name == kSerial.name || name == kT4.name;
}

void report_breakdown(Report& r, const std::string& engine,
                      const StepBreakdown& b) {
  const double n = std::max(1.0, b.steps);
  const std::string p = "f3d." + engine + ".";
  const double regions =
      b.rhs_s + b.sweep_j_s + b.sweep_k_s + b.sweep_l_s + b.update_s +
      b.serial_s;
  r.metric(p + "rhs_s", b.rhs_s / n, "s");
  r.metric(p + "sweep_j_s", b.sweep_j_s / n, "s");
  r.metric(p + "sweep_k_s", b.sweep_k_s / n, "s");
  r.metric(p + "sweep_l_s", b.sweep_l_s / n, "s");
  r.metric(p + "update_s", b.update_s / n, "s");
  r.metric(p + "outside_regions_s", (b.step_s - regions) / n, "s");
}

void run_paper(const RunArgs& args, RunResult& out) {
  const PaperSpec& spec = args.workload == kSerial.name ? kSerial : kT4;
  const double amp = pulse_amplitude(args.seed);
  const int total_steps = spec.timed_steps + 1;
  const auto refs = load_references(args.reference_path);
  const std::string ref_key =
      reference_key(problem_name(spec.scale), amp, total_steps);
  const auto ref_it = refs.find(ref_key);
  const double reference = ref_it == refs.end() ? 0.0 : ref_it->second;
  std::printf("%s: 1m case scale %.2f, pulse %.3f, %d timed steps per solve\n",
              spec.name, spec.scale, amp, spec.timed_steps);

  constexpr int kBaseThreads = 4;
  std::map<int, std::unique_ptr<llp::Runtime>> runtimes;
  for (const Config& c : spec.configs) runtimes.try_emplace(c.threads);
  runtimes.try_emplace(kBaseThreads);
  for (auto& [threads, rt] : runtimes) {
    rt = std::make_unique<llp::Runtime>(threads);
  }

  // The gate's base: one untimed risc solve at 4 threads, judged first, so
  // every timed solve is compared against the same solution and only that
  // one grid is held whatever the seeded order.
  Gate gate;
  {
    llp::Runtime& rt = *runtimes[kBaseThreads];
    SolveSample base = solve_paper(spec.scale, amp, EngineKind::kPencilScalar,
                                   rt, spec.timed_steps, -1, true);
    base.outcome.label += " (gate base)";
    base.outcome.reference = reference;
    gate.add(std::move(base.outcome));
  }
  out.setup_rss_mb = peak_rss_mb();
  std::map<std::string, std::vector<double>> steps_by_label[2];  // [traced]
  std::map<std::string, StepBreakdown> breakdown;
  // Set-up and latency per label, at the reported thread count only: the
  // 1-thread base solves of paper1m_t4 are another population.
  std::map<std::string, std::vector<double>> setups, latencies;
  const double t_start = now_s();
  int round = 0;
  long solves = 0;
  // A traced run alternates traced and untraced rounds, so the tracing
  // overhead is an interleaved A/B difference inside one process.
  while (round == 0 || now_s() - t_start < args.seconds ||
         (args.trace && round < 2)) {
    const bool traced = args.trace && round % 2 == 0;
    spans::set_enabled(traced);
    std::vector<Config> order = spec.configs;
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1],
                order[mix_seed(args.seed, 100 + round * 16 + i) % i]);
    }
    for (const Config& c : order) {
      SolveSample s = solve_paper(spec.scale, amp, c.engine,
                                  *runtimes[c.threads], spec.timed_steps,
                                  solves, /*keep_grid=*/true);
      ++solves;
      s.outcome.reference = reference;
      if (reference <= 0.0) {
        out.failures.push_back(label(c) + ": no reference residual for '" +
                               ref_key + "'");
      }
      gate.add(std::move(s.outcome));
      auto& v = steps_by_label[traced ? 1 : 0][label(c)];
      v.insert(v.end(), s.step_s.begin(), s.step_s.end());
      if (c.threads == spec.threads) {
        setups[label(c)].push_back(s.setup_s);
        latencies[label(c)].push_back(s.latency_s);
        breakdown[std::string(f3d::engine_name(c.engine))].add(s.breakdown);
      }
    }
    ++round;
  }
  spans::set_enabled(false);
  const double wall = now_s() - t_start;
  out.attempted += static_cast<long>(gate.attempted());
  for (const auto& [i, why] : gate.failures()) out.failures.push_back(why);

  Report& r = out.report;
  const auto& untraced = steps_by_label[0];
  auto step_of = [&](const std::string& engine, int threads) {
    const auto it = untraced.find(engine + "@" + std::to_string(threads));
    return it == untraced.end() ? std::nan("") : median(it->second);
  };
  r.note(llp::strfmt("%ld solves in %d rounds over %.1f s; %zu step samples "
                     "per label",
                     solves, round, wall,
                     untraced.empty() ? 0 : untraced.begin()->second.size()));
  for (const auto& [lbl, v] : untraced) {
    r.note(llp::strfmt("%s s/step: min %.4f  median %.4f  max %.4f over %zu "
                       "steps",
                       lbl.c_str(), quantile(v, 0.0), median(v),
                       quantile(v, 1.0), v.size()));
  }
  for (const char* e : {"risc", "simd"}) {
    const double t1 = step_of(e, 1), tn = step_of(e, spec.threads);
    if (spec.threads > 1) {
      r.note(llp::strfmt("speedup.%s: %.3f (base: %s@1 %.4f s/step over "
                         "%s@%d %.4f s/step)",
                         e, t1 / tn, e, t1, e, spec.threads, tn));
    } else {
      r.note(llp::strfmt("speedup.%s: n/a (1 thread only)", e));
    }
  }
  // The plane-buffer engine streams plane-sized scratch through memory, so
  // its step time follows the host's shared memory bandwidth: printed, not
  // gated.
  if (untraced.count("vector@1") != 0) {
    r.note(llp::strfmt("step_s.vector: %.6g s (ungated)",
                       step_of("vector", 1)));
  }

  if (!args.trace) {
    r.metric("setup_s", mean_of_quantiles(setups, 0.5), "s");
    for (const char* e : {"risc", "simd"}) {
      r.metric(std::string("step_s.") + e, step_of(e, spec.threads), "s");
    }
    r.metric("jobs_per_s", static_cast<double>(solves) / wall, "1/s");
    r.metric("job_latency_s.p50", mean_of_quantiles(latencies, 0.5), "s");
    r.metric("job_latency_s.p90", mean_of_quantiles(latencies, 0.9), "s");
    r.note(llp::strfmt("setup_s and job_latency_s: mean over the %zu "
                       "engines at %d thread(s) of each engine's quantile, "
                       "%zu solves each (a job here is one solve: set-up "
                       "plus %d steps)",
                       latencies.size(), spec.threads,
                       latencies.begin()->second.size(), spec.timed_steps));
    return;
  }

  // Traced run: the per-layer numbers of this workload's own solves.
  for (const auto& [engine, b] : breakdown) report_breakdown(r, engine, b);
  const StepBreakdown& risc = breakdown["risc"];
  const double n = std::max(1.0, risc.steps);
  r.metric("core.forks_per_step", risc.forks / n, "count");
  r.metric("core.serial_s", risc.serial_s / n, "s");
  r.metric("f3d.flops_per_step", risc.flops_per_step, "flop");
  r.metric("f3d.bytes_per_step", risc.bytes_per_step, "B");
  double overhead = 0.0;
  for (const auto& [engine, b] : breakdown) {
    const auto& traced = steps_by_label[1][engine + "@" +
                                           std::to_string(spec.threads)];
    overhead += median(traced) - step_of(engine, spec.threads);
  }
  r.metric("bench.trace_overhead",
           overhead / static_cast<double>(breakdown.size()), "s");
  r.note(llp::strfmt("bench.trace_overhead: traced minus untraced step_s "
                     "(alternate rounds traced), mean over the engines at "
                     "%d thread(s)",
                     spec.threads));
}

int write_references() {
  llp::Runtime rt(4);
  std::printf("# Final residuals of the paper's 1m case with the seeded "
              "Gaussian pulse,\n# risc engine, warm-up step included. "
              "Regenerate with: llpbench reference\n");
  for (const PaperSpec* spec : {&kSerial, &kT4}) {
    for (double amp : kPulseAmps) {
      const SolveSample s =
          solve_paper(spec->scale, amp, f3d::EngineKind::kPencilScalar, rt,
                      spec->timed_steps, 0, false);
      std::printf("%s %.17g\n",
                  reference_key(problem_name(spec->scale), amp,
                                spec->timed_steps + 1)
                      .c_str(),
                  s.outcome.residual);
      std::fflush(stdout);
    }
  }
  return 0;
}

}  // namespace bench
