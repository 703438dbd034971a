// Shared pieces of the implicit directional sweeps.
//
// One sweep applies (I + dt * delta_dir A_dir + implicit smoothing)^-1 to
// the right-hand side using the diagonalization A = R diag(lambda) L:
// project with L, solve five scalar tridiagonal systems along the line,
// project back with R. The recurrence lives in the Thomas solve, so the
// line direction can never be the parallel (or vector) direction — the
// fact the whole paper revolves around.
#pragma once

#include <span>

#include "f3d/zone.hpp"
#include "util/aligned.hpp"
#include "util/array.hpp"

namespace f3d {

/// Pencil workspace for one line of length <= capacity. This is the paper's
/// §4 item (4): the RISC tuning resizes the vector code's plane-sized
/// scratch down to a single line that "comfortably fits in a 1-MB cache for
/// zone dimensions ranging up to about 1,000" (24 doubles/point -> 192 KB at
/// N=1000).
struct PencilWorkspace {
  llp::AlignedVector<double> q;    // 5*N gathered state
  llp::AlignedVector<double> r;    // 5*N gathered rhs / result
  llp::AlignedVector<double> w;    // 5*N characteristic variables
  llp::AlignedVector<double> lam;  // 5*N eigenvalues
  llp::AlignedVector<double> a, b, c, d;  // N tridiagonal coefficients

  void ensure(int n);
  int capacity = 0;

  /// Current footprint, as reported to the analyzer's shared-scratch
  /// detector: a pencil is O(N) and lane-private; sharing one across lanes
  /// is the plane-buffer mistake the paper's §4 item (4) removes.
  std::size_t bytes() const noexcept {
    return sizeof(double) * (q.size() + r.size() + w.size() + lam.size() +
                             a.size() + b.size() + c.size() + d.size());
  }
};

/// Solve the implicit system along one line of `zone` in direction dir
/// (0=J,1=K,2=L) at fixed transverse indices (t0,t1):
///   dir 0: line (j, t0=k, t1=l);  dir 1: (t0=j, k, t1=l);
///   dir 2: (t0=j, t1=k, l).
/// Reads Q for coefficients, transforms rhs in place. kappa_i scales an
/// optional extra implicit second-difference smoothing. When `periodic` is
/// true the line closes on itself and a cyclic Thomas solve is used;
/// otherwise boundary rows couple one-sidedly inward (the ghost cells'
/// increments are zero — boundary conditions are reapplied explicitly).
void solve_pencil(const Zone& zone, int dir, int t0, int t1, double dt,
                  double kappa_i, llp::Array4D<double>& rhs,
                  PencilWorkspace& ws, bool periodic = false);

/// Workspace for one W-pencil batch of the SIMD engine (W =
/// kTridiagLaneWidth, fixed in tridiag.hpp), every array in lane layout
/// (element i of pencil p at i*W + p): each cell's cached local state
/// (un, ut1, ut2, c, H), the characteristic variables variable-major (one
/// contiguous n*W slice per variable, solved in place), and the
/// tridiagonal coefficients of the variable being solved. Still O(N) and
/// lane-private — the cache story of the pencil organization is
/// unchanged, the batch just fills vector lanes.
struct SimdBatchWorkspace {
  llp::AlignedVector<double> state;  // 5N * W cached un, ut1, ut2, c, H
  llp::AlignedVector<double> w;      // 5N * W rhs / characteristic vars
  llp::AlignedVector<double> a, b, c;  // N * W

  void ensure(int n);
  int capacity = 0;

  std::size_t bytes() const noexcept {
    return sizeof(double) *
           (state.size() + w.size() + a.size() + b.size() + c.size());
  }
};

/// Solve the implicit system along `count` adjacent lines at once (the
/// lines at transverse inner indices inner0 .. inner0+count-1, fixed outer
/// index `outer`, in sweep_shape's (outer, inner) task coordinates).
/// count must be in [1, kTridiagLaneWidth]; a tail batch with count < W
/// replicates the last real pencil into the padding lanes and never
/// scatters them back. The whole batch — gather, projections, coefficient
/// build, Thomas and scatter — runs in SIMD lanes (sweep_batch.hpp), on
/// the AVX2 kernel when the host has it. Identical arithmetic to count
/// separate solve_pencil calls except inside the Thomas elimination,
/// where the lane kernel's fused multiply-adds round once instead of
/// twice. Non-periodic lines only — cyclic systems don't lane-batch (the
/// Sherman–Morrison correction couples whole-line solves); callers fall
/// back to solve_pencil per line, exactly as the plane-buffer engine does.
void solve_pencil_batch(const Zone& zone, int dir, int outer, int inner0,
                        int count, double dt, double kappa_i,
                        llp::Array4D<double>& rhs, SimdBatchWorkspace& ws);

/// Analytic FLOPs per grid point of one directional sweep.
inline constexpr double kFlopsPerPointSweep = 200.0;

/// Line length and trip counts of a sweep in direction dir.
struct SweepShape {
  int line_n = 0;    ///< points along the solve direction
  int outer_n = 0;   ///< parallelized loop trips
  int inner_n = 0;   ///< serial transverse loop inside each task
};
SweepShape sweep_shape(const Zone& zone, int dir);

}  // namespace f3d
