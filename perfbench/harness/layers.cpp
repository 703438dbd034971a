// The traced run's layer probes. Each probe calls one module's public
// functions directly, so a number here moves only when that layer does.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>

#include "ckpt/checkpoint.hpp"
#include "core/llp.hpp"
#include "f3d/cases.hpp"
#include "f3d/bc.hpp"
#include "f3d/eigen.hpp"
#include "f3d/engine.hpp"
#include "f3d/rhs.hpp"
#include "f3d/solver.hpp"
#include "f3d/sweep_common.hpp"
#include "f3d/tridiag.hpp"
#include "model/stairstep.hpp"
#include "obs/obs.hpp"
#include "serve/job.hpp"
#include "util/format.hpp"
#include "workloads.hpp"

namespace bench {

namespace {

constexpr double kProbeScale = 0.5;  // the paper1m_t4 problem
constexpr int kReps = 7;

// Median over kReps of (seconds for one pass / calls in the pass), in us.
// `reset` runs untimed before each pass.
double per_call_us(const char* span, int calls,
                   const std::function<void()>& pass,
                   const std::function<void()>& reset = {}) {
  std::vector<double> v;
  for (int r = 0; r < kReps; ++r) {
    if (reset) reset();
    spans::Scope s(span, r);
    const double t0 = now_s();
    pass();
    v.push_back((now_s() - t0) * 1e6 / calls);
  }
  return median(v);
}

struct ProbeGrid {
  f3d::CaseSpec spec;
  f3d::MultiZoneGrid grid;
  double dt;
  explicit ProbeGrid(double amp)
      : spec(f3d::paper_1m_case(kProbeScale)), grid(f3d::build_grid(spec)) {
    f3d::add_gaussian_pulse(grid, amp, 2.5);
    dt = 2.0 * grid.spacing() / (spec.freestream.mach + 1.0);
  }
};

void probe_kernels(Report& r, double amp) {
  ProbeGrid pg(amp);
  const f3d::Zone& zone = pg.grid.zone(1);  // the largest zone
  const int g = f3d::Zone::kGhost;
  llp::Array4D<double> rhs(f3d::kNumVars, zone.jmax() + 2 * g,
                           zone.kmax() + 2 * g, zone.lmax() + 2 * g);
  const f3d::RhsConfig rc;
  const double rhs_us = per_call_us("f3d::compute_rhs_plane", zone.lmax(), [&] {
    for (int l = 0; l < zone.lmax(); ++l) {
      f3d::compute_rhs_plane(zone, l, pg.dt, rc, rhs);
    }
  });
  r.metric("f3d.rhs_plane_us", rhs_us, "us");
  const llp::Array4D<double> pristine = rhs;

  // One J pencil per (k, l); the rhs is restored between passes, untimed.
  const double kappa_i = 0.25;
  const int lines = zone.kmax() * zone.lmax();
  f3d::PencilWorkspace ws;
  const double pencil_us = per_call_us(
      "f3d::solve_pencil", lines,
      [&] {
        for (int l = 0; l < zone.lmax(); ++l) {
          for (int k = 0; k < zone.kmax(); ++k) {
            f3d::solve_pencil(zone, 0, k, l, pg.dt, kappa_i, rhs, ws);
          }
        }
      },
      [&] { rhs = pristine; });
  r.metric("f3d.pencil_us", pencil_us, "us");

  const f3d::SweepShape shape = f3d::sweep_shape(zone, 0);
  const int W = f3d::kTridiagLaneWidth;
  int batches = 0;
  for (int in = 0; in < shape.inner_n; in += W) ++batches;
  batches *= shape.outer_n;
  f3d::SimdBatchWorkspace bws;
  const double batch_us = per_call_us(
      "f3d::solve_pencil_batch", batches,
      [&] {
        for (int o = 0; o < shape.outer_n; ++o) {
          for (int in = 0; in < shape.inner_n; in += W) {
            f3d::solve_pencil_batch(zone, 0, o, in,
                                    std::min(W, shape.inner_n - in), pg.dt,
                                    kappa_i, rhs, bws);
          }
        }
      },
      [&] { rhs = pristine; });
  r.metric("simd.batch_us", batch_us, "us");

  // Eigenvector projections of one pencil: L then R at every point.
  const int n = shape.line_n;
  std::vector<double> x(static_cast<std::size_t>(5 * n)),
      w(static_cast<std::size_t>(5 * n));
  for (int j = 0; j < n; ++j) {
    for (int v = 0; v < 5; ++v) x[static_cast<std::size_t>(5 * j + v)] =
        pristine(v, j + g, g, g);
  }
  const int pencils = 200;
  const double eigen_us = per_call_us("f3d::apply_left/right", pencils, [&] {
    for (int p = 0; p < pencils; ++p) {
      for (int j = 0; j < n; ++j) {
        const double* q = zone.q_point(j, p % zone.kmax(), 0);
        f3d::apply_left(0, q, &x[static_cast<std::size_t>(5 * j)],
                        &w[static_cast<std::size_t>(5 * j)]);
        f3d::apply_right(0, q, &w[static_cast<std::size_t>(5 * j)],
                         &x[static_cast<std::size_t>(5 * j)]);
      }
    }
  });
  r.metric("f3d.eigen_proj_us", eigen_us, "us");

  // Thomas solves on a diagonally dominant system; inputs are restored
  // before every solve and the restore alone is timed and subtracted.
  const int reps = 2000;
  std::vector<double> a(n, -1.0), c(n, -1.0), b0(n, 4.0), d0(n);
  for (int i = 0; i < n; ++i) d0[i] = 1.0 + 0.01 * i;
  std::vector<double> b = b0, d = d0;
  const double restore_us = per_call_us("restore", reps, [&] {
    for (int i = 0; i < reps; ++i) {
      std::memcpy(b.data(), b0.data(), n * sizeof(double));
      std::memcpy(d.data(), d0.data(), n * sizeof(double));
      asm volatile("" : : "r"(b.data()), "r"(d.data()) : "memory");
    }
  });
  const double thomas_us =
      per_call_us("f3d::solve_tridiagonal", reps, [&] {
        for (int i = 0; i < reps; ++i) {
          std::memcpy(b.data(), b0.data(), n * sizeof(double));
          std::memcpy(d.data(), d0.data(), n * sizeof(double));
          f3d::solve_tridiagonal(a, b, c, d);
        }
      }) - restore_us;
  r.metric("f3d.thomas_us", thomas_us, "us");

  const std::size_t nl = static_cast<std::size_t>(n) * W;
  std::vector<double> la(nl, -1.0), lc(nl, -1.0), lb0(nl, 4.0), ld0(nl);
  for (std::size_t i = 0; i < nl; ++i) ld0[i] = 1.0 + 0.01 * static_cast<double>(i);
  std::vector<double> lb = lb0, ld = ld0;
  const double lrestore_us = per_call_us("restore", reps, [&] {
    for (int i = 0; i < reps; ++i) {
      std::memcpy(lb.data(), lb0.data(), nl * sizeof(double));
      std::memcpy(ld.data(), ld0.data(), nl * sizeof(double));
      asm volatile("" : : "r"(lb.data()), "r"(ld.data()) : "memory");
    }
  });
  const double lanes_us =
      per_call_us("f3d::solve_tridiagonal_lanes", reps, [&] {
        for (int i = 0; i < reps; ++i) {
          std::memcpy(lb.data(), lb0.data(), nl * sizeof(double));
          std::memcpy(ld.data(), ld0.data(), nl * sizeof(double));
          f3d::solve_tridiagonal_lanes(la.data(), lb.data(), lc.data(),
                                       ld.data(), n);
        }
      }) - lrestore_us;
  r.metric("simd.lanes_us", lanes_us, "us");
  r.metric("simd.lanes_vs_scalar", W * thomas_us / lanes_us, "ratio");
  r.note(llp::strfmt("simd.lanes_vs_scalar: %d scalar Thomas solves (%.3f us "
                     "each) over one %d-lane solve (%.3f us), n = %d",
                     W, thomas_us, W, lanes_us, n));

  const double gs = pencil_us - 5.0 * thomas_us - eigen_us;
  r.metric("f3d.gather_scatter_us", gs, "us");
  r.note("f3d.gather_scatter_us is derived: pencil - 5 Thomas solves - "
         "eigen projections (includes coefficient set-up)");
}

// Spans around the remaining pieces of a step, called one at a time on
// the probe grid: each pencil engine's three sweeps, the boundary
// conditions and the zonal exchange. Their per-step totals are the
// f3d.<engine>.* and core.serial_s metrics.
void probe_step_pieces(double amp) {
  ProbeGrid pg(amp);
  llp::Runtime rt(4);
  llp::RuntimeScope scope(rt);
  const llp::RegionId region = rt.regions().define("probe.sweep");
  const f3d::Zone& zone = pg.grid.zone(1);
  const int g = f3d::Zone::kGhost;
  llp::Array4D<double> rhs(f3d::kNumVars, zone.jmax() + 2 * g,
                           zone.kmax() + 2 * g, zone.lmax() + 2 * g);
  for (int l = 0; l < zone.lmax(); ++l) {
    f3d::compute_rhs_plane(zone, l, pg.dt, f3d::RhsConfig{}, rhs);
  }
  const llp::Array4D<double> pristine = rhs;
  for (const auto kind :
       {f3d::EngineKind::kPencilScalar, f3d::EngineKind::kPencilSimd}) {
    const auto engine = f3d::make_engine(kind);
    for (int dir = 0; dir < 3; ++dir) {
      rhs = pristine;
      spans::Scope s(kind == f3d::EngineKind::kPencilSimd
                         ? "f3d::SimdSweeps::sweep"
                         : "f3d::RiscSweeps::sweep",
                     dir);
      engine->sweep(zone, dir, pg.dt, 0.25, rhs, region);
    }
  }
  for (int z = 0; z < pg.grid.num_zones(); ++z) {
    spans::Scope s("f3d::apply_boundary_conditions", z);
    f3d::apply_boundary_conditions(pg.grid.zone(z), pg.grid.bcs(z),
                                   pg.spec.freestream);
  }
  spans::Scope s("f3d::MultiZoneGrid::exchange");
  pg.grid.exchange();
}

void probe_forkjoin(Report& r) {
  llp::Runtime rt(4);
  llp::RuntimeScope scope(rt);
  const int calls = 200;
  std::int64_t sink = 0;
  const double us = per_call_us("llp::parallel_for(empty)", calls, [&] {
    for (int i = 0; i < calls; ++i) {
      llp::parallel_for(0, 35, [&](std::int64_t k) {
        if (k < 0) ++sink;
      });
    }
  });
  r.metric("core.forkjoin_us", us, "us");
}

void probe_ckpt(Report& r, const RunArgs& args) {
  f3d::serve::JobSpec spec;
  spec.case_name = "cube";
  spec.n = 14;
  spec.wall = true;
  spec.pulse = pulse_amplitude(args.seed);
  auto grid = f3d::serve::build_case_grid(spec);
  f3d::ckpt::Config cc;
  cc.dir = args.work_dir + "/ckpt_probe";
  cc.keep_generations = 2;
  cc.meta = spec.fingerprint();
  f3d::ckpt::CheckpointStore store(cc);
  const f3d::SolverState state{1, 2.0, 1e-3, -1.0};
  std::vector<double> save, load;
  int gen = -1;
  for (int i = 0; i < kReps; ++i) {
    spans::Scope s("ckpt::CheckpointStore::save", i);
    const double t0 = now_s();
    gen = store.save(grid, state);
    save.push_back(now_s() - t0);
  }
  for (int i = 0; i < kReps; ++i) {
    spans::Scope s("ckpt::CheckpointStore::load", i);
    const double t0 = now_s();
    store.load(gen, grid);
    load.push_back(now_s() - t0);
  }
  r.metric("ckpt.save_s", median(save), "s");
  r.metric("ckpt.load_s", median(load), "s");
  r.metric("ckpt.bytes",
           static_cast<double>(std::filesystem::file_size(
               f3d::ckpt::state_path(cc.dir, gen))),
           "B");
}

// p = 1..4 on the paper1m_t4 problem (risc), beside the stair-step bound
// computed from the measured trips and p = 1 time fractions.
void probe_scaling(Report& r, double amp) {
  constexpr int kSteps = 10;
  std::vector<std::unique_ptr<llp::Runtime>> rts;
  for (int p = 1; p <= 4; ++p) rts.push_back(std::make_unique<llp::Runtime>(p));
  std::vector<std::vector<double>> steps(5);
  std::vector<StepBreakdown> bd(5);
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < 4; ++i) {
      const int p = round == 0 ? i + 1 : 4 - i;
      SolveSample s = solve_paper(kProbeScale, amp,
                                  f3d::EngineKind::kPencilScalar,
                                  *rts[static_cast<std::size_t>(p - 1)],
                                  kSteps, p, false);
      steps[p].insert(steps[p].end(), s.step_s.begin(), s.step_s.end());
      bd[p].add(s.breakdown);
    }
  }
  const double t1 = median(steps[1]);
  std::vector<std::int64_t> units;
  std::vector<double> fractions;
  double covered = 0.0;
  for (const auto& [trips, sec] : bd[1].regions) covered += sec;
  for (const auto& [trips, sec] : bd[1].regions) {
    units.push_back(trips);
    fractions.push_back(sec / bd[1].step_s);
  }
  units.push_back(1);  // time outside every region runs serially
  fractions.push_back(std::max(0.0, 1.0 - covered / bd[1].step_s));
  double fsum = 0.0;
  for (double f : fractions) fsum += f;
  for (double& f : fractions) f /= fsum;
  for (int p = 2; p <= 4; ++p) {
    const double measured = t1 / median(steps[p]);
    const double bound =
        llp::model::composite_stairstep_speedup(units, fractions, p);
    r.metric(llp::strfmt("core.speedup_p%d", p), measured, "ratio");
    r.metric(llp::strfmt("model.stairstep_bound_p%d", p), bound, "ratio");
    r.note(llp::strfmt("p=%d: measured speed-up %.3f (base: p=1 %.4f s/step) "
                       "vs stair-step bound %.3f",
                       p, measured, t1, bound));
  }
  const StepBreakdown& b4 = bd[4];
  const double n4 = std::max(1.0, b4.steps);
  r.metric("core.join_wait_s", (b4.lane_max_s - b4.lane_mean_s) / n4, "s");
  r.metric("core.imbalance", b4.lane_max_s / b4.lane_mean_s, "ratio");
  r.metric("core.busy_inflation",
           (4.0 * b4.lane_mean_s / n4) /
               (bd[1].parallel_s / std::max(1.0, bd[1].steps)),
           "ratio");
  r.note("core.busy_inflation: summed lane busy time per step at p=4 over "
         "p=1, risc, paper1m_t4 problem");
}

// Interleaved A/B pairs of Solver::step at the paper1m_t4 size with the
// obs tracer installed (B) and not (A), on the process runtime the tracer
// observes.
void probe_obs(Report& r, double amp) {
  constexpr int kPairs = 8, kSteps = 5;
  llp::Runtime& rt = llp::Runtime::instance();
  rt.set_num_threads(4);
  ProbeGrid pg(amp);
  f3d::SolverConfig cfg;
  cfg.freestream = pg.spec.freestream;
  cfg.engine = f3d::EngineKind::kPencilScalar;
  cfg.region_prefix = "obs_probe";
  f3d::Solver solver(pg.grid, cfg, rt);
  solver.step();
  auto timed = [&](bool traced) {
    if (traced) llp::obs::install();
    spans::Scope s(traced ? "obs::traced_steps" : "obs::untraced_steps");
    const double t0 = now_s();
    for (int i = 0; i < kSteps; ++i) solver.step();
    const double t = now_s() - t0;
    if (traced) llp::obs::uninstall();
    return t;
  };
  std::vector<double> ratios;
  for (int i = 0; i < kPairs; ++i) {
    double a = 0, b = 0;
    if (i % 2 == 0) {
      a = timed(false);
      b = timed(true);
    } else {
      b = timed(true);
      a = timed(false);
    }
    ratios.push_back(b / a - 1.0);
  }
  r.metric("obs.trace_overhead", median(ratios), "ratio");
  r.note(llp::strfmt("obs.trace_overhead: median of %d interleaved A/B pairs "
                     "of %d steps, quartiles %.4f .. %.4f",
                     kPairs, kSteps, quantile(ratios, 0.25),
                     quantile(ratios, 0.75)));
}

}  // namespace

void run_layer_probes(const RunArgs& args, RunResult& out) {
  Report& r = out.report;
  const double amp = pulse_amplitude(args.seed);
  std::filesystem::create_directories(args.work_dir);
  spans::set_enabled(true);
  probe_forkjoin(r);
  probe_kernels(r, amp);
  probe_step_pieces(amp);
  probe_ckpt(r, args);
  probe_scaling(r, amp);
  probe_obs(r, amp);
  if (args.workload != "serve_jobs") {
    // The serve layer's numbers come from a short session of the serve
    // mix; on serve_jobs they come from the workload itself.
    RunArgs probe = args;
    probe.work_dir = args.work_dir + "/serve_probe";
    const ServeSession s = serve_session(probe, 3.0, true, nullptr, nullptr);
    out.attempted += s.attempted;
    out.failures.insert(out.failures.end(), s.failures.begin(),
                        s.failures.end());
    report_serve_layers(r, s);
  }
  spans::set_enabled(false);
}

}  // namespace bench
