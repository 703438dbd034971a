#include "f3d/solver.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <sstream>

#include "core/access_span.hpp"
#include "core/runtime.hpp"
#include "f3d/engine.hpp"
#include "f3d/io.hpp"
#include "f3d/signatures.hpp"
#include "f3d/validation.hpp"
#include "obs/obs.hpp"
#include "tune/tuner.hpp"
#include "util/error.hpp"
#include "util/format.hpp"

namespace f3d {

namespace {
// Analytic per-point traffic estimates (bytes/step) for the NUMA check.
// The pencil organization re-reads Q once per kernel and writes dQ once;
// scratch stays in cache. These are deliberately coarse — the paper's
// comparison only needs the order of magnitude (68 MB/s vs 135+ MB/s).
constexpr double kBytesPerPointRhs = 3.0 * kNumVars * 8.0;
constexpr double kBytesPerPointSweep = 2.0 * kNumVars * 8.0;
constexpr double kBytesPerPointUpdate = 2.0 * kNumVars * 8.0;
constexpr double kFlopsPerPointUpdate = 1.0 * kNumVars;
}  // namespace

Solver::Solver(MultiZoneGrid& grid, SolverConfig config)
    : Solver(grid, std::move(config), llp::Runtime::current()) {}

Solver::Solver(MultiZoneGrid& grid, SolverConfig config, llp::Runtime& rt)
    : grid_(grid), config_(std::move(config)), rt_(&rt) {
  // Install the process-global autotuner when LLP_TUNE=1 (no-op otherwise)
  // so every auto-marked loop below self-optimizes over the run, and the
  // tracer when LLP_TRACE=file.json — both ride the same observer seam.
  llp::tune::init_from_env();
  llp::obs::init_from_env();
  // Typed rejection of fuzzer-shaped configs: a NaN CFL satisfies no
  // ordering comparison, so plain > / >= checks would wave it through and
  // every dt downstream would be NaN.
  if (!std::isfinite(config_.cfl) || config_.cfl <= 0.0) {
    throw llp::ValidationError("cfl must be finite and positive");
  }
  if (!std::isfinite(config_.kappa_i) || config_.kappa_i < 0.0) {
    throw llp::ValidationError("kappa_i must be finite and nonnegative");
  }
  if (!std::isfinite(config_.cfl_growth) || config_.cfl_growth < 1.0) {
    throw llp::ValidationError("cfl_growth must be finite and >= 1");
  }
  if (!std::isfinite(config_.cfl_max) || config_.cfl_max < config_.cfl) {
    throw llp::ValidationError(
        "cfl_max must be finite and >= the starting cfl");
  }
  if (!std::isfinite(config_.freestream.mach) ||
      config_.freestream.mach <= 0.0) {
    throw llp::ValidationError("free-stream Mach must be finite and positive");
  }
  // The 4th-difference dissipation stencil reaches two cells each way; a
  // zone thinner than 2*kGhost in any direction would fold the stencil
  // back through its own ghost layers.
  for (int z = 0; z < grid_.num_zones(); ++z) {
    const Zone& zn = grid_.zone(z);
    if (zn.jmax() < kMinZoneDim || zn.kmax() < kMinZoneDim ||
        zn.lmax() < kMinZoneDim) {
      throw llp::ValidationError(llp::strfmt(
          "zone %d dims %dx%dx%d below the stencil minimum of %d per axis",
          z, zn.jmax(), zn.kmax(), zn.lmax(), kMinZoneDim));
    }
  }
  cfl_ = config_.cfl;
  dt_ = cfl_ * grid_.spacing() / (config_.freestream.mach + 1.0);

  engine_ = make_engine(config_.engine);

  rhs_.reserve(static_cast<std::size_t>(grid_.num_zones()));
  for (int z = 0; z < grid_.num_zones(); ++z) {
    const Zone& zn = grid_.zone(z);
    rhs_.emplace_back(kNumVars, zn.jmax() + 2 * Zone::kGhost,
                      zn.kmax() + 2 * Zone::kGhost,
                      zn.lmax() + 2 * Zone::kGhost);
  }
  define_regions();
}

void Solver::define_regions() {
  auto& reg = rt_->regions();
  const auto kind = engine_info(config_.engine).parallel_outer
                        ? llp::RegionKind::kParallelLoop
                        : llp::RegionKind::kSerial;
  const std::string pre =
      config_.region_prefix.empty() ? "" : config_.region_prefix + ".";
  regions_.clear();
  for (int z = 0; z < grid_.num_zones(); ++z) {
    const std::string base = pre + "z" + std::to_string(z) + ".";
    ZoneRegions r;
    r.rhs = reg.define(base + "rhs", kind);
    r.sweep_j = reg.define(base + "sweep_j", kind);
    r.sweep_k = reg.define(base + "sweep_k", kind);
    r.sweep_l = reg.define(base + "sweep_l", kind);
    r.update = reg.define(base + "update", kind);
    regions_.push_back(r);
  }
  bc_region_ = reg.define(pre + "bc", llp::RegionKind::kSerial);
  exchange_region_ = reg.define(pre + "exchange", llp::RegionKind::kSerial);
  // Declare every hot region's affine access signature to the static
  // dependence analyzer, derived from this grid's real plane strides. The
  // tuner and engine selector prune illegal configs from these verdicts,
  // and the dynamic checker cross-validates them on every analyzed run.
  declare_region_signatures(grid_, config_, /*overwrite=*/true);
}

namespace {
// Step-scoped event pair for the trace timeline. The end fires on every
// exit with ok=0 when the step threw (an injected lane fault), so the
// exported timeline stays balanced across recoveries.
struct StepTraceScope {
  llp::Runtime* rt;
  std::int64_t step;
  bool ok = false;
  StepTraceScope(llp::Runtime& runtime, std::int64_t attempt)
      : rt(&runtime), step(attempt) {
    rt->emit(llp::Event{
        .t_ns = 0, .region = llp::kNoRegion, .a = step, .b = 0,
        .kind = llp::EventKind::kStepBegin, .pad = 0, .lane = -1, .tid = -1});
  }
  ~StepTraceScope() {
    rt->emit(llp::Event{
        .t_ns = 0, .region = llp::kNoRegion, .a = step, .b = ok ? 1 : 0,
        .kind = llp::EventKind::kStepEnd, .pad = 0, .lane = -1, .tid = -1});
  }
};
}  // namespace

void Solver::step() {
  // Bind this solver's runtime for the whole step: every parallel loop,
  // every emit reached from kernel code (fault hooks, engine timers), and
  // the region shorthands below all resolve to rt_, not the process
  // default — two solvers on different runtimes never share state.
  llp::RuntimeScope rt_scope(*rt_);
  auto& reg = rt_->regions();
  StepTraceScope step_trace(*rt_, steps_ + 1);

  // Boundary conditions and zonal exchange: cheap, deliberately serial
  // (Table 2: a face offers ~1/LMAX of the interior's work per sync).
  // Their work is mostly copies; attribute a small equivalent-FLOP cost so
  // the scaling model carries an honest (tiny) Amdahl tail.
  {
    const auto t0 = std::chrono::steady_clock::now();
    double face_points = 0.0;
    for (int z = 0; z < grid_.num_zones(); ++z) {
      const Zone& zn = grid_.zone(z);
      apply_boundary_conditions(grid_.zone(z), grid_.bcs(z),
                                config_.freestream);
      face_points += 2.0 * (static_cast<double>(zn.jmax()) * zn.kmax() +
                            static_cast<double>(zn.jmax()) * zn.lmax() +
                            static_cast<double>(zn.kmax()) * zn.lmax());
    }
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    reg.record(bc_region_, 0, dt.count());
    reg.add_flops(bc_region_, face_points * Zone::kGhost * 2.0);
  }
  {
    const auto t0 = std::chrono::steady_clock::now();
    grid_.exchange();
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    reg.record(exchange_region_, 0, dt.count());
    double iface_points = 0.0;
    for (int z = 0; z + 1 < grid_.num_zones(); ++z) {
      const Zone& zn = grid_.zone(z);
      iface_points += static_cast<double>(zn.kmax()) * zn.lmax();
    }
    reg.add_flops(exchange_region_, iface_points * Zone::kGhost * 2.0);
  }

  double sumsq = 0.0;
  std::size_t total_points = 0;
  // Every lane's rhs line buffers, grown here on the calling thread: a
  // buffer first allocated inside a worker would land in that thread's
  // malloc arena and stay resident there.
  const std::size_t lanes = static_cast<std::size_t>(rt_->num_threads());
  if (rhs_ws_.size() < lanes) rhs_ws_.resize(lanes);
  for (int z = 0; z < grid_.num_zones(); ++z) {
    for (RhsWorkspace& ws : rhs_ws_) ws.ensure(grid_.zone(z).jmax());
  }

  for (int z = 0; z < grid_.num_zones(); ++z) {
    Zone& zone = grid_.zone(z);
    llp::Array4D<double>& rhs = rhs_[static_cast<std::size_t>(z)];
    const ZoneRegions& rg = regions_[static_cast<std::size_t>(z)];
    const double pts = static_cast<double>(zone.interior_points());
    total_points += zone.interior_points();

    // Right-hand side, one task per L plane, with the residual reduced
    // across lanes. Auto mode: tuned schedule/threads when LLP_TUNE=1.
    sumsq += llp::parallel_reduce<double>(
        0, zone.lmax(), 0.0, [](double a, double b) { return a + b; },
        [&](std::int64_t l, double& acc, const llp::LaneContext& ctx) {
          // Access logging in element coordinates: a fixed-L slab of the
          // (n,j,k,l) layout is contiguous, so the stencil's l±kGhost read
          // and the plane-l write are exact intervals. One log call per
          // plane; free (a null check) when no analyzer is recording.
          if (ctx.access_hook() != nullptr) {
            const auto& qs = zone.storage();
            const int lg = static_cast<int>(l);  // ghost slab of plane l-ng
            llp::AccessSpan<const double> q_log(
                qs.data(), static_cast<std::int64_t>(qs.size()), ctx,
                "zone.q");
            q_log.read_block(
                static_cast<std::int64_t>(qs.index(0, 0, 0, lg)),
                static_cast<std::int64_t>(
                    qs.index(0, 0, 0, lg + 2 * Zone::kGhost + 1)));
            llp::AccessSpan<double> rhs_log(
                rhs.data(), static_cast<std::int64_t>(rhs.size()), ctx,
                "rhs");
            rhs_log.write_block(
                static_cast<std::int64_t>(
                    rhs.index(0, 0, 0, lg + Zone::kGhost)),
                static_cast<std::int64_t>(
                    rhs.index(0, 0, 0, lg + Zone::kGhost + 1)));
          }
          RhsWorkspace& ws = rhs_ws_[static_cast<std::size_t>(ctx.lane())];
          compute_rhs_plane(zone, static_cast<int>(l), dt_, config_.rhs, rhs,
                            ws);
          ctx.note_scratch(&ws, ws.bytes());
          acc += rhs_plane_sumsq(zone, static_cast<int>(l), rhs);
        },
        llp::ForOptions::auto_tuned(rg.rhs));
    const double rhs_flops =
        kFlopsPerPointRhs +
        (config_.rhs.viscous.enabled ? kFlopsPerPointViscous : 0.0);
    reg.add_flops(rg.rhs, pts * rhs_flops);
    reg.add_bytes(rg.rhs, pts * kBytesPerPointRhs);

    // Implicit factored sweeps. A direction is cyclic when its min face
    // wraps (periodic BCs set both faces together).
    const BoundarySet& bcs = grid_.bcs(z);
    const bool per_j = bcs[Face::kJMin] == BcType::kPeriodic;
    const bool per_k = bcs[Face::kKMin] == BcType::kPeriodic;
    const bool per_l = bcs[Face::kLMin] == BcType::kPeriodic;

    engine_->sweep(zone, 0, dt_, config_.kappa_i, rhs, rg.sweep_j, per_j);
    reg.add_flops(rg.sweep_j, pts * kFlopsPerPointSweep);
    reg.add_bytes(rg.sweep_j, pts * kBytesPerPointSweep);

    engine_->sweep(zone, 1, dt_, config_.kappa_i, rhs, rg.sweep_k, per_k);
    reg.add_flops(rg.sweep_k, pts * kFlopsPerPointSweep);
    reg.add_bytes(rg.sweep_k, pts * kBytesPerPointSweep);

    engine_->sweep(zone, 2, dt_, config_.kappa_i, rhs, rg.sweep_l, per_l);
    reg.add_flops(rg.sweep_l, pts * kFlopsPerPointSweep);
    reg.add_bytes(rg.sweep_l, pts * kBytesPerPointSweep);

    // Update Q += dQ, one task per L plane.
    const int ng = Zone::kGhost;
    llp::parallel_for(
        0, zone.lmax(),
        [&](std::int64_t l, const llp::LaneContext& ctx) {
          // Element-coordinate logging, as in the rhs loop above: this
          // lane reads rhs plane l and read-modify-writes q plane l.
          if (ctx.access_hook() != nullptr) {
            auto& qs = zone.storage();
            const int lg = static_cast<int>(l) + ng;
            llp::AccessSpan<double> q_log(
                qs.data(), static_cast<std::int64_t>(qs.size()), ctx,
                "zone.q");
            q_log.write_block(
                static_cast<std::int64_t>(qs.index(0, 0, 0, lg)),
                static_cast<std::int64_t>(qs.index(0, 0, 0, lg + 1)));
            llp::AccessSpan<const double> rhs_log(
                rhs.data(), static_cast<std::int64_t>(rhs.size()), ctx,
                "rhs");
            rhs_log.read_block(
                static_cast<std::int64_t>(rhs.index(0, 0, 0, lg)),
                static_cast<std::int64_t>(rhs.index(0, 0, 0, lg + 1)));
          }
          for (int k = 0; k < zone.kmax(); ++k) {
            for (int j = 0; j < zone.jmax(); ++j) {
              double* qp = zone.q_point(j, k, static_cast<int>(l));
              for (int n = 0; n < kNumVars; ++n) {
                qp[n] += rhs(n, j + ng, k + ng, static_cast<int>(l) + ng);
              }
            }
          }
        },
        llp::ForOptions::in_region(rg.update));
    reg.add_flops(rg.update, pts * kFlopsPerPointUpdate);
    reg.add_bytes(rg.update, pts * kBytesPerPointUpdate);
  }

  // RMS of R = (rhs / dt) over all interior values.
  residual_ = std::sqrt(sumsq / (static_cast<double>(total_points) * kNumVars)) /
              dt_;
  ++steps_;

  // CFL ramping toward deep steady-state convergence: grow while the
  // residual falls, back off to the starting CFL when it rises.
  if (config_.cfl_growth > 1.0) {
    if (prev_residual_ >= 0.0 && residual_ < prev_residual_) {
      cfl_ = std::min(config_.cfl_max, cfl_ * config_.cfl_growth);
    } else if (prev_residual_ >= 0.0 && residual_ > prev_residual_) {
      cfl_ = config_.cfl;
    }
    dt_ = cfl_ * grid_.spacing() / (config_.freestream.mach + 1.0);
  }
  prev_residual_ = residual_;
  step_trace.ok = true;
}

double Solver::run(int steps) {
  LLP_REQUIRE(steps >= 1, "steps must be >= 1");
  for (int i = 0; i < steps; ++i) step();
  return residual_;
}

void Solver::restore(const SolverState& state) {
  LLP_REQUIRE(state.steps >= 0, "restored step index must be >= 0");
  LLP_REQUIRE(std::isfinite(state.cfl) && state.cfl > 0.0,
              "restored cfl must be finite and positive");
  LLP_REQUIRE(std::isfinite(state.residual),
              "restored residual must be finite");
  steps_ = state.steps;
  cfl_ = state.cfl;
  residual_ = state.residual;
  prev_residual_ = state.prev_residual;
  dt_ = cfl_ * grid_.spacing() / (config_.freestream.mach + 1.0);
}

std::string RunReport::summary() const {
  std::string s = llp::strfmt(
      "steps=%d recoveries=%d checkpoints=%d residual=%.6e", steps_completed,
      recoveries, checkpoints, final_residual);
  if (durable_checkpoints > 0 || ckpt_write_failures > 0) {
    s += llp::strfmt(" durable=%d", durable_checkpoints);
  }
  if (ckpt_write_failures > 0) {
    s += llp::strfmt(" ckpt-write-failures=%d (%s)", ckpt_write_failures,
                     ckpt_failure_reason.c_str());
  }
  if (engine_fallback) s += " engine=vector-fallback";
  if (failed) s += " FAILED: " + failure_reason;
  return s;
}

RunReport Solver::run_protected(int steps, RunHistory* history) {
  LLP_REQUIRE(steps >= 1, "steps must be >= 1");
  // Bound for the whole run, not just inside step(): the checkpoint hook
  // runs between steps and emits durability events via Runtime::current().
  llp::RuntimeScope rt_scope(*rt_);
  const RecoveryConfig& rc = config_.recovery;
  RunReport report;

  // In-memory checkpoint: the interior solution (the same bytes a file
  // checkpoint would hold — ghost cells are rebuilt by the next step's BC
  // and exchange) plus the scalar time-stepping state.
  struct Checkpoint {
    std::string solution;
    double cfl = 0.0;
    double residual = 0.0;
    double prev_residual = -1.0;
    int steps = 0;
    std::size_t history_steps = 0;
  } ckpt;

  auto healthy_now = [&] {
    return std::isfinite(residual_) && all_finite(grid_);
  };
  auto take_checkpoint = [&] {
    std::ostringstream out(std::ios::binary);
    write_solution(out, grid_);
    ckpt.solution = out.str();
    ckpt.cfl = cfl_;
    ckpt.residual = residual_;
    ckpt.prev_residual = prev_residual_;
    ckpt.steps = steps_;
    ckpt.history_steps = history ? history->steps() : 0;
    ++report.checkpoints;
  };
  auto rollback = [&] {
    std::istringstream in(ckpt.solution, std::ios::binary);
    read_solution(in, grid_);
    // Back the CFL off from the checkpoint value once per recovery so a
    // dt-sensitive fault (AF blow-up at an aggressive CFL) clears on
    // replay; a later healthy checkpoint restores normal ramping.
    cfl_ = std::max(1e-6, ckpt.cfl * std::pow(rc.cfl_backoff,
                                              static_cast<double>(
                                                  report.recoveries)));
    dt_ = cfl_ * grid_.spacing() / (config_.freestream.mach + 1.0);
    residual_ = ckpt.residual;
    prev_residual_ = ckpt.prev_residual;
    steps_ = ckpt.steps;
    if (history) history->truncate(ckpt.history_steps);
    // Any durable snapshot taken after the rollback point is off the
    // standing timeline now; the hook must drop it rather than seal it
    // against the replayed (CFL-backed-off) trajectory.
    if (ckpt_hook_ != nullptr) ckpt_hook_->on_rollback(ckpt.steps);
    rt_->emit(llp::Event{
        .t_ns = 0, .region = llp::kNoRegion,
        .a = static_cast<std::int64_t>(ckpt.steps),
        .b = static_cast<std::int64_t>(report.recoveries),
        .kind = llp::EventKind::kRollback, .pad = 0, .lane = -1, .tid = -1});
  };

  // Persistent-fault tracking for the engine fallback: LaneErrors carry
  // the region that produced them, so repeated faults from one region are
  // recognizable even across rollbacks.
  llp::RegionId last_fault_region = llp::kNoRegion;
  int same_region_faults = 0;
  auto note_fault = [&](llp::RegionId region) {
    same_region_faults =
        (region != llp::kNoRegion && region == last_fault_region)
            ? same_region_faults + 1
            : 1;
    last_fault_region = region;
    if (!report.engine_fallback && rc.persistent_fault_limit > 0 &&
        region != llp::kNoRegion &&
        same_region_faults >= rc.persistent_fault_limit) {
      // The region keeps faulting under the configured engine: degrade to
      // the registry's fallback (serial plane-buffer) and keep going.
      const EngineKind fb = engine_fallback_for(engine_->kind());
      if (fb != engine_->kind()) {
        engine_ = make_engine(fb);
        report.engine_fallback = true;
      }
    }
  };

  take_checkpoint();  // step-0 baseline: a first-step fault is recoverable
  const int target = steps_ + steps;
  while (steps_ < target) {
    bool healthy = true;
    std::string why;
    llp::RegionId fault_region = llp::kNoRegion;
    // The step this iteration attempts. A thrown fault leaves steps_
    // unincremented while the health check sees it incremented; recording
    // the attempt keeps recovery_steps meaning "the step that faulted"
    // on both detection paths (and in both NDEBUG and assert builds,
    // where a NaN may trip an in-step LLP_ASSERT instead of surviving to
    // the post-step check).
    const int attempt = steps_ + 1;
    try {
      step();
      const bool due = rc.health_check_every <= 0 ||
                       (steps_ - ckpt.steps) % rc.health_check_every == 0 ||
                       steps_ == target;
      if (due && !healthy_now()) {
        healthy = false;
        why = llp::strfmt("health check failed at step %d: non-finite %s",
                          steps_,
                          std::isfinite(residual_) ? "solution value"
                                                   : "residual");
      }
    } catch (const llp::LaneError& e) {
      healthy = false;
      why = e.what();
      fault_region = e.region();
    } catch (const std::exception& e) {
      healthy = false;
      why = e.what();
    }

    if (healthy) {
      if (history) history->record(residual_, checksum(grid_));
      if (rc.checkpoint_every > 0 &&
          steps_ - ckpt.steps >= rc.checkpoint_every && steps_ < target &&
          healthy_now()) {
        take_checkpoint();
      }
      // Durable checkpoints ride the same healthy-step boundary. A failed
      // write is a diagnostic, not a solver fault: the run continues on the
      // previous intact generation. A CrashError propagates — a simulated
      // process death must not be absorbed by the recovery loop.
      if (ckpt_hook_ != nullptr && healthy_now()) {
        try {
          if (ckpt_hook_->on_healthy_step(grid_, state())) {
            ++report.durable_checkpoints;
          }
        } catch (const llp::IoError& e) {
          ++report.ckpt_write_failures;
          report.ckpt_failure_reason = e.what();
        }
      }
      continue;
    }

    if (report.recoveries >= rc.max_recoveries) {
      report.failed = true;
      report.failure_reason = why;
      rollback();  // leave the solver on its last healthy state
      break;
    }
    ++report.recoveries;
    report.recovery_steps.push_back(attempt);
    if (fault_region != llp::kNoRegion) {
      rt_->regions().record_recovery(fault_region);
    }
    note_fault(fault_region);
    rollback();
  }

  if (ckpt_hook_ != nullptr) {
    try {
      if (ckpt_hook_->flush(grid_, state())) ++report.durable_checkpoints;
    } catch (const llp::IoError& e) {
      ++report.ckpt_write_failures;
      report.ckpt_failure_reason = e.what();
    }
  }

  report.steps_completed = steps_;
  report.final_residual = residual_;
  return report;
}

double Solver::flops_per_step() const {
  double pts = 0.0;
  for (int z = 0; z < grid_.num_zones(); ++z) {
    pts += static_cast<double>(grid_.zone(z).interior_points());
  }
  const double viscous =
      config_.rhs.viscous.enabled ? kFlopsPerPointViscous : 0.0;
  return pts * (kFlopsPerPointRhs + viscous + 3.0 * kFlopsPerPointSweep +
                kFlopsPerPointUpdate);
}

double Solver::bytes_per_step() const {
  double pts = 0.0;
  for (int z = 0; z < grid_.num_zones(); ++z) {
    pts += static_cast<double>(grid_.zone(z).interior_points());
  }
  return pts * (kBytesPerPointRhs + 3.0 * kBytesPerPointSweep +
                kBytesPerPointUpdate);
}

}  // namespace f3d
