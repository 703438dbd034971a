// The correctness gate: every solve the benchmark times must produce the
// answer the paper's invariant promises — parallelization and engine
// choice change neither the solution nor its convergence.
//
// A solve fails when
//   - its residual is 0 or non-finite (a free-stream case never moves, so
//     timing it checks nothing);
//   - its final residual is outside `kRefRelTol` of the reference
//     recorded in perfbench/reference.txt for the same problem;
//   - its solution checksum differs from the first solve of its family:
//     vector and risc compute bitwise-identical arithmetic, and any engine
//     at 4 threads must match itself at 1 thread;
//   - it is a simd solve further (linf) from the risc solution than the
//     fuzz oracle's simd_diff_tol (`kSimdDiffTol`) — fused multiply-adds
//     round once.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "f3d/multizone.hpp"
#include "f3d/sweeps.hpp"

namespace bench {

constexpr double kSimdDiffTol = 1e-9;  ///< fuzz oracle's simd_diff_tol
constexpr double kRefRelTol = 1e-9;    ///< residual vs recorded reference

/// The final state of one timed solve.
struct SolveOutcome {
  std::string label;  ///< e.g. "risc@4"
  f3d::EngineKind engine = f3d::EngineKind::kPencilScalar;
  double residual = 0.0;
  double reference = 0.0;  ///< recorded residual; <= 0 means none recorded
  std::uint64_t checksum = 0;
  std::shared_ptr<const f3d::MultiZoneGrid> grid;
};

/// Residual checks on one solve; empty when it passes.
std::string check_residual(double residual, double reference);

/// Collects the solves of one problem (same case, pulse and step count)
/// and judges each against the others.
class Gate {
public:
  /// Judge a solve. The first vector or risc solve is the base every simd
  /// solve is compared against, so it must come before them; only its grid
  /// is kept.
  void add(SolveOutcome s);

  std::size_t attempted() const { return labels_.size(); }
  /// Failure reason per failed solve index.
  const std::map<std::size_t, std::string>& failures() const {
    return failures_;
  }

private:
  void fail(std::size_t index, const std::string& why);

  std::vector<std::string> labels_;
  std::map<std::size_t, std::string> failures_;
  bool have_scalar_ = false, have_simd_ = false;
  std::uint64_t scalar_checksum_ = 0, simd_checksum_ = 0;
  std::shared_ptr<const f3d::MultiZoneGrid> scalar_grid_;
};

}  // namespace bench
