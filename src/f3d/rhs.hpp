// Explicit right-hand side: central flux differences plus scalar JST
// artificial dissipation.
//
// R(Q) approximates the flux divergence; the implicit update solves
//   (I + dt A_j)(I + dt A_k)(I + dt A_l) dQ = -dt R(Q).
//
// The RHS is evaluated plane-by-plane so the solver can parallelize the
// outer L loop (a doacross with lmax trips) while the inner J/K loops stay
// serial and vectorizable — the paper's Example 1 structure.
//
// Within a plane the kernel walks K rows and caches along unit-stride J
// (the paper's §5 line buffers applied to the RHS). Each cell's pressure
// and sound speed, and its normal velocity, flux, spectral radius and
// pressure switch in each direction, are evaluated once, and so is every J
// and K dissipation interface. Only the L neighbours, which belong to other
// planes' tasks, are evaluated per cell.
#pragma once

#include <cstddef>

#include "f3d/viscous.hpp"
#include "f3d/zone.hpp"
#include "util/aligned.hpp"
#include "util/array.hpp"

namespace f3d {

struct RhsConfig {
  double kappa2 = 0.5;        ///< 2nd-difference (shock) dissipation gain
  double kappa4 = 1.0 / 64.0; ///< 4th-difference (background) gain
  ViscousConfig viscous;      ///< thin-layer terms (off by default)
};

/// Line buffers of one compute_rhs_plane call: a few dozen rows of
/// capacity + 2*kGhost doubles holding the current row's per-cell and
/// per-interface values plus the rolling K-neighbour rows. O(jmax) and
/// lane-private, like the sweeps' PencilWorkspace.
struct RhsWorkspace {
  llp::AlignedVector<double> rows;
  int capacity = 0;  ///< largest jmax the rows fit

  void ensure(int jmax);
  std::size_t bytes() const noexcept { return sizeof(double) * rows.size(); }
};

/// Compute rhs(n,j,k,l) = -dt * R(Q) for all interior cells of plane l.
/// `rhs` must have the zone's padded shape; ghosts of Q must be current.
/// `ws` is grown to the zone's row length as needed.
void compute_rhs_plane(const Zone& zone, int l, double dt,
                       const RhsConfig& config, llp::Array4D<double>& rhs,
                       RhsWorkspace& ws);

/// As above with a workspace of its own, allocated for this one call.
void compute_rhs_plane(const Zone& zone, int l, double dt,
                       const RhsConfig& config, llp::Array4D<double>& rhs);

/// L2 norm of R(Q)*dt over one plane (used for residual monitoring):
/// sum of squares of the plane's rhs entries.
double rhs_plane_sumsq(const Zone& zone, int l, const llp::Array4D<double>& rhs);

/// Analytic FLOPs per interior grid point of compute_rhs_plane.
inline constexpr double kFlopsPerPointRhs = 340.0;

}  // namespace f3d
