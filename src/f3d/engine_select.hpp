// Engine selection: the autotuner's third axis.
//
// The PR 1 tuner searches {schedule} x {chunk} x {num_threads} per region;
// the engine choice is the axis above all of those — it decides which
// loops exist at all. select_engine() closes it the same way the loop
// tuner closes the others: measure each registered engine on the actual
// grid (one J-sweep over the largest zone, best of `repeats`), commit the
// winner to the TuningDb under an "engine.<prefix>.<J>x<K>x<L>" key (the
// probed zone's shape), and short-circuit the probe entirely on the next
// run with a matching key — same machine fingerprint, same zone shape,
// decision reused verbatim.
#pragma once

#include "f3d/engine.hpp"
#include "f3d/multizone.hpp"
#include "f3d/solver.hpp"

namespace llp::tune {
class Tuner;
}

namespace f3d {

/// Outcome of an engine-axis decision.
struct EngineChoice {
  EngineKind kind = EngineKind::kPencilScalar;
  double seconds = 0.0;  ///< winning probe time (or the DB entry's record)
  bool from_db = false;  ///< reused a persisted decision, no probe run
};

/// Pick the fastest registered engine for `grid` under `config`.
///
/// With a tuner: a TuningDb hit whose engine column parses wins without
/// running a probe, and a fresh measurement is committed back so later
/// runs (and f3d_run --engine=auto) inherit it. Without a tuner the probe
/// still runs — the decision just isn't persisted. The probe mutates only
/// its own scratch rhs array; `grid` is read, never written.
EngineChoice select_engine(const MultiZoneGrid& grid,
                           const SolverConfig& config,
                           llp::tune::Tuner* tuner = nullptr,
                           int repeats = 2);

}  // namespace f3d
