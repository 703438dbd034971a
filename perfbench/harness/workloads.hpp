// The benchmark's workloads and the traced run's layer probes.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/region.hpp"
#include "gate.hpp"

namespace llp {
class Runtime;
}

namespace bench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;        ///< scratch for sockets, state, traces
  std::string reference_path;  ///< recorded residuals (reference.txt)
};

/// What a run hands back to main: its metrics, and the operations (solves
/// or jobs) it attempted and saw fail, with a reason per failure.
struct RunResult {
  Report report;
  long attempted = 0;
  std::vector<std::string> failures;
  /// Peak RSS once set up (solver workloads: after the gate's base solve,
  /// which allocates everything a solve does; serve_jobs: after the server
  /// set-ups), before the measured window.
  double setup_rss_mb = 0;
};

/// Per-step layer breakdown of one engine, taken from region-registry
/// deltas over the timed steps.
struct StepBreakdown {
  double steps = 0;  ///< timed steps the sums cover
  double step_s = 0, rhs_s = 0, sweep_j_s = 0, sweep_k_s = 0, sweep_l_s = 0,
         update_s = 0, serial_s = 0, forks = 0;
  double flops_per_step = 0, bytes_per_step = 0;
  /// Parallel regions only: their total time, and sums of the busiest and
  /// the mean lane time (lane times are recorded above one thread only).
  double parallel_s = 0, lane_max_s = 0, lane_mean_s = 0;
  /// Mean trips and total seconds of every region, for the stair-step
  /// model (serial regions carry 1 trip).
  std::vector<std::pair<std::int64_t, double>> regions;

  void add(const StepBreakdown& o);
};

/// One timed solve of the paper's zonal case: set-up (grid, pulse, solver,
/// one warm-up step), then `timed_steps` individually timed steps.
struct SolveSample {
  double setup_s = 0, latency_s = 0;
  std::vector<double> step_s;
  StepBreakdown breakdown;
  SolveOutcome outcome;
};
SolveSample solve_paper(double scale, double amp, f3d::EngineKind engine,
                        llp::Runtime& rt, int timed_steps, std::int64_t id,
                        bool keep_grid);

/// Layer sums of the regions named "<prefix>.*" between two snapshots of
/// one registry; `step_wall_s` is the timed wall time of those steps.
StepBreakdown registry_delta(const std::vector<llp::RegionStats>& before,
                             const std::vector<llp::RegionStats>& after,
                             const std::string& prefix, int steps,
                             double step_wall_s);

/// The seeded Gaussian pulse amplitude every solver workload adds; without
/// it the paper's case is uniform free stream and never moves.
double pulse_amplitude(std::uint64_t seed);

/// paper1m_serial / paper1m_t4.
void run_paper(const RunArgs& args, RunResult& out);
bool is_paper_workload(const std::string& name);

/// serve_jobs.
void run_serve(const RunArgs& args, RunResult& out);

/// Result of one closed-loop serve session, shared by the serve_jobs
/// workload and the serve probe of the other workloads' traced runs.
struct ServeSession {
  long attempted = 0;
  std::vector<std::string> failures;
  double wall_s = 0;
  std::vector<double> latency_s, queue_wait_s, run_s, rtt_s;
  /// Served step time of each unpreempted job, per engine (untraced jobs
  /// only when alternate jobs are traced).
  std::map<std::string, std::vector<double>> step_s;
  double preemptions = 0, ckpt_generations = 0;
  /// Traced minus untraced median served step time, mean over engines.
  double trace_overhead = 0;
  std::map<std::string, StepBreakdown> direct;  ///< direct reference runs
};
/// Runs in args.work_dir (removed afterwards); appends each set-up time
/// (server start plus one warm-up job per class) to `setups` and stores
/// the peak RSS once set up in `setup_rss_mb`.
ServeSession serve_session(const RunArgs& args, double seconds,
                           bool trace_alternate, std::vector<double>* setups,
                           double* setup_rss_mb);
void report_serve_layers(Report& r, const ServeSession& s);

/// The traced run's layer probes: isolated per-call timings of each f3d
/// and simd kernel, fork-join, the checkpoint store, the p = 1..4 sweep on
/// the paper1m_t4 problem beside the stair-step model, and the tracer's
/// A/B overhead.
void run_layer_probes(const RunArgs& args, RunResult& out);

/// Report the f3d.<engine>.* breakdown rows.
void report_breakdown(Report& r, const std::string& engine,
                      const StepBreakdown& b);

/// Print reference lines for every pulse amplitude and paper problem.
int write_references();

/// Self-tests of the harness's own pieces.
int run_selftest();

}  // namespace bench
