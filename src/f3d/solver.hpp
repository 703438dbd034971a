// The implicit multi-zone solver driver.
//
// One time step, per zone:
//   1. boundary conditions + zonal exchange (serial regions);
//   2. right-hand side, doacross over L planes;
//   3. implicit J, K, L sweeps (the SweepEngine), doacross over L, L, K;
//   4. update Q += dQ, doacross over L.
//
// Every loop is registered with the region registry under
// "z<i>.<kernel>", so the flat profile, the incremental-parallelization
// switches, and the SMP simulator all see the real loop structure. For an
// engine whose registry row says !parallel_outer (the plane-vector
// baseline) the same regions are registered as serial — the untuned
// baseline. Engine identities and the registry live in f3d/engine.hpp.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/llp.hpp"
#include "f3d/multizone.hpp"
#include "f3d/rhs.hpp"
#include "f3d/sweeps.hpp"

namespace f3d {

struct RunHistory;  // validation.hpp

/// Smallest per-axis zone extent the solver accepts: the 4th-difference
/// dissipation stencil reaches Zone::kGhost cells each way, so anything
/// thinner folds the stencil back through its own ghost layers. The Zone
/// type itself stays permissive (extents >= 1) for non-stencil uses.
inline constexpr int kMinZoneDim = 2 * Zone::kGhost;

/// Graceful-degradation policy for run_protected(). A "fault" is a step
/// that threw (lane exception, watchdog timeout) or left the solution
/// non-finite (NaN/Inf in the residual or any interior cell).
struct RecoveryConfig {
  int max_recoveries = 0;       ///< rollback budget; 0 = fail on first fault
  int checkpoint_every = 10;    ///< steps between in-memory checkpoints
  double cfl_backoff = 0.5;     ///< CFL multiplier applied per recovery
  int persistent_fault_limit = 3;  ///< consecutive same-region faults before
                                   ///< falling back to the vector engine
  int health_check_every = 1;   ///< steps between finite-ness checks
};

/// The scalar time-stepping state that, together with the grid's interior,
/// fully determines the rest of a run: what a durable checkpoint records
/// beside the zone payloads and what restore() reapplies after a restart.
struct SolverState {
  int steps = 0;
  double cfl = 0.0;
  double residual = 0.0;
  double prev_residual = -1.0;
};

/// Durable-checkpoint seam under run_protected(). The solver layer knows
/// only this interface (same pattern as llp::FaultHook / LoopTuner): the
/// file format, generation rotation, and corruption fallback live in
/// src/ckpt, which implements it. All calls happen on the run loop's
/// thread.
class CheckpointHook {
public:
  virtual ~CheckpointHook() = default;

  /// Called after every healthy step with the standing state. Returns true
  /// if a durable generation was completed during this call. May throw
  /// llp::IoError (run_protected counts it as a checkpoint write failure
  /// and keeps running — the previous generation still stands); a
  /// llp::CrashError must propagate, a simulated crash is a crash.
  virtual bool on_healthy_step(const MultiZoneGrid& grid,
                               const SolverState& state) = 0;

  /// Called when a fault rolls the solver back to `step`: any state
  /// snapshotted after that step is now off the standing timeline and must
  /// be discarded, not written.
  virtual void on_rollback(int step) = 0;

  /// End of the protected run: write anything still pending (the final
  /// snapshot cannot be sealed with a next-step residual — there is no
  /// next step). Returns true if a generation was completed.
  virtual bool flush(const MultiZoneGrid& grid, const SolverState& state) = 0;
};

struct SolverConfig {
  FreeStream freestream;
  double cfl = 2.0;            ///< dt = cfl * h / (M + 1)
  RhsConfig rhs;               ///< dissipation gains
  double kappa_i = 0.25;       ///< implicit smoothing gain
  EngineKind engine = EngineKind::kPencilScalar;  ///< sweep engine (engine.hpp)
  std::string region_prefix;   ///< optional namespace for region names

  /// Steady-state CFL ramping: while the residual is falling, multiply
  /// the CFL by cfl_growth each step up to cfl_max (1.0 disables); a
  /// residual rise resets to the starting CFL. Note the AF trade-off:
  /// factorization error grows with dt, so per-step effectiveness peaks
  /// at moderate CFL — ramp when wall-clock per unit of pseudo-time
  /// matters, not when per-step residual reduction does.
  double cfl_growth = 1.0;
  double cfl_max = 10.0;

  RecoveryConfig recovery;     ///< run_protected() policy
};

/// Diagnostic record of a run_protected() invocation.
struct RunReport {
  int steps_completed = 0;     ///< total steps standing at return
  int recoveries = 0;          ///< rollbacks performed
  int checkpoints = 0;         ///< in-memory checkpoints taken
  int durable_checkpoints = 0; ///< generations completed by the hook
  int ckpt_write_failures = 0; ///< hook writes that threw llp::IoError
  double final_residual = 0.0;
  bool engine_fallback = false;  ///< degraded to the vector sweep engine
  bool failed = false;         ///< recovery budget exhausted
  std::string failure_reason;  ///< what() of the terminal fault, if failed
  std::string ckpt_failure_reason;  ///< what() of the last failed write
  std::vector<int> recovery_steps;  ///< the faulted step behind each recovery

  std::string summary() const;
};

class Solver {
public:
  /// Runs on the caller's current runtime (llp::Runtime::current() at
  /// construction — the process default unless a RuntimeScope is bound).
  Solver(MultiZoneGrid& grid, SolverConfig config);

  /// Runs on `rt`: regions are defined in rt's registry, every parallel
  /// loop dispatches to rt's pool, and step/rollback events go to rt's
  /// observers. The runtime must outlive the solver. This is the
  /// multi-tenant seam: one Runtime per job isolates tuner state, fault
  /// hooks, watchdogs, and cancellation between concurrent solves.
  Solver(MultiZoneGrid& grid, SolverConfig config, llp::Runtime& rt);

  /// Advance one time step; updates residual().
  void step();

  /// Advance n steps; returns the final residual.
  double run(int steps);

  /// Advance n steps with fault recovery: after each step a health check
  /// (finite residual, finite solution) runs, and a step that throws or
  /// fails the check is rolled back to the last in-memory checkpoint with
  /// the CFL backed off, up to config().recovery.max_recoveries times.
  /// Faults attributed to one region persistently (LaneError) trigger a
  /// fallback from the RISC to the vector sweep engine. Never throws for
  /// fault-shaped errors — the outcome is described by the returned
  /// RunReport. If `history` is non-null, per-step residual/checksum pairs
  /// are recorded and truncated on rollback so the log matches the steps
  /// that actually stand.
  RunReport run_protected(int steps, RunHistory* history = nullptr);

  /// RMS of the flux divergence R(Q) over all interior cells after the
  /// latest step (steady-state convergence monitor).
  double residual() const noexcept { return residual_; }

  /// The scalar state a durable checkpoint records beside the grid.
  SolverState state() const noexcept {
    return SolverState{steps_, cfl_, residual_, prev_residual_};
  }

  /// Reapply checkpointed scalar state (the grid is restored separately via
  /// the checkpoint loader); dt is recomputed from the restored CFL. The
  /// next step() continues the interrupted run's timeline exactly. Throws
  /// llp::Error on non-finite or non-positive CFL / negative step index.
  void restore(const SolverState& state);

  /// Install the durable-checkpoint seam consulted by run_protected()
  /// (nullptr uninstalls). The hook must outlive the runs it observes.
  void set_checkpoint_hook(CheckpointHook* hook) noexcept {
    ckpt_hook_ = hook;
  }

  int steps_taken() const noexcept { return steps_; }
  double dt() const noexcept { return dt_; }
  /// Current effective CFL (grows under cfl_growth).
  double cfl() const noexcept { return cfl_; }
  const SolverConfig& config() const noexcept { return config_; }
  MultiZoneGrid& grid() noexcept { return grid_; }
  /// The runtime this solver dispatches to.
  llp::Runtime& runtime() noexcept { return *rt_; }

  /// Analytic floating-point work of one step (all zones).
  double flops_per_step() const;

  /// Estimated main-memory traffic of one step in bytes (used for the §7
  /// NUMA-headroom check; the RISC organization's reuse keeps this low).
  double bytes_per_step() const;

private:
  void define_regions();

  MultiZoneGrid& grid_;
  SolverConfig config_;
  llp::Runtime* rt_;  ///< never null; defaults to the construction-time current
  double dt_;
  double cfl_;
  double residual_ = 0.0;
  double prev_residual_ = -1.0;
  int steps_ = 0;

  std::unique_ptr<SweepEngine> engine_;
  std::vector<llp::Array4D<double>> rhs_;  // per-zone padded work array
  std::vector<RhsWorkspace> rhs_ws_;       // rhs line buffers, one per lane

  struct ZoneRegions {
    llp::RegionId rhs, sweep_j, sweep_k, sweep_l, update;
  };
  std::vector<ZoneRegions> regions_;
  llp::RegionId bc_region_ = llp::kNoRegion;
  llp::RegionId exchange_region_ = llp::kNoRegion;
  CheckpointHook* ckpt_hook_ = nullptr;
};

}  // namespace f3d
