#include "f3d/engine_select.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <string>

#include "analyze/static/registry.hpp"
#include "core/runtime.hpp"
#include "f3d/signatures.hpp"
#include "tune/candidates.hpp"
#include "tune/tuner.hpp"
#include "util/error.hpp"
#include "util/format.hpp"

namespace f3d {

namespace {

// Static legality gate for the engine axis: an engine that runs the sweep
// regions as parallel outer loops is only eligible when every sweep
// signature classifies DOALL. Signatures are declared if_absent first, so
// a caller (or test) that declared a stricter pattern wins over the
// default derivation — exactly how an illegal engine config gets pruned
// before a single probe sweep is paid for.
bool parallel_sweeps_legal(const MultiZoneGrid& grid,
                           const SolverConfig& config) {
  declare_region_signatures(grid, config, /*overwrite=*/false);
  for (const std::string& region : sweep_region_names(grid, config)) {
    if (!llp::analyze::static_legality(region).parallel_ok()) return false;
  }
  return true;
}

// Deterministic, cheap, non-trivial rhs payload for the probe sweep: the
// same bytes every call, so probe timings across runs measure the engine,
// not the data. Values stay O(1e-3) — well inside every engine's assumed
// smooth regime.
void fill_probe_rhs(llp::Array4D<double>& rhs) {
  double x = 0.5;
  for (std::size_t i = 0; i < rhs.size(); ++i) {
    // Weyl sequence: dense in (0,1), no libc RNG, no global state.
    x += 0.6180339887498949;
    if (x >= 1.0) x -= 1.0;
    rhs.data()[i] = 1e-3 * (x - 0.5);
  }
}

// The decision is only reused for the probed zone's exact shape: line
// lengths, not just the point count, decide which engine wins (pencil
// batches fill lanes across the transverse direction, plane buffers scale
// with the plane).
std::string engine_key(const SolverConfig& config, const Zone& zone) {
  const std::string region =
      "engine." +
      (config.region_prefix.empty() ? std::string("select")
                                    : config.region_prefix) +
      llp::strfmt(".%dx%dx%d", zone.jmax(), zone.kmax(), zone.lmax());
  const int threads = llp::Runtime::current().num_threads();
  return llp::tune::make_key(
      region, static_cast<std::int64_t>(zone.interior_points()),
      llp::tune::machine_fingerprint(threads));
}

}  // namespace

EngineChoice select_engine(const MultiZoneGrid& grid,
                           const SolverConfig& config,
                           llp::tune::Tuner* tuner, int repeats) {
  LLP_REQUIRE(grid.num_zones() > 0, "select_engine: empty grid");
  if (repeats < 1) repeats = 1;

  // Probe the largest zone: it dominates the step time, so its winner is
  // the run's winner.
  int biggest = 0;
  for (int z = 1; z < grid.num_zones(); ++z) {
    if (grid.zone(z).interior_points() >
        grid.zone(biggest).interior_points()) {
      biggest = z;
    }
  }
  const Zone& zone = grid.zone(biggest);
  const std::string key = engine_key(config, zone);

  // A persisted decision with a parsable engine column short-circuits the
  // probe (the loop tuner's load -> identical-decisions contract).
  if (tuner != nullptr) {
    llp::tune::TunedEntry hit;
    EngineKind cached;
    if (tuner->db().lookup(key, &hit) && !hit.engine.empty() &&
        parse_engine(hit.engine, &cached)) {
      return EngineChoice{cached, hit.seconds, /*from_db=*/true};
    }
  }

  const double dt =
      config.cfl * grid.spacing() / (config.freestream.mach + 1.0);
  auto& rt = llp::Runtime::current();
  llp::Array4D<double> rhs(kNumVars, zone.jmax() + 2 * Zone::kGhost,
                           zone.kmax() + 2 * Zone::kGhost,
                           zone.lmax() + 2 * Zone::kGhost);

  EngineChoice best;
  best.seconds = std::numeric_limits<double>::infinity();
  const bool parallel_ok = parallel_sweeps_legal(grid, config);
  for (const EngineInfo& info : engines()) {
    // Statically illegal engine x schedule config: never probed. The
    // serial plane-buffer engine (parallel_outer == false) stays legal
    // under any verdict, so the candidate set is never empty.
    if (info.parallel_outer && !parallel_ok) continue;
    const llp::RegionId region = rt.regions().define(
        "engine_select.probe." + std::string(info.name),
        info.parallel_outer ? llp::RegionKind::kParallelLoop
                            : llp::RegionKind::kSerial);
    auto engine = make_engine(info.kind);
    double best_run = std::numeric_limits<double>::infinity();
    for (int r = 0; r < repeats + 1; ++r) {
      fill_probe_rhs(rhs);
      const auto start = std::chrono::steady_clock::now();
      engine->sweep(zone, /*dir=*/0, dt, config.kappa_i, rhs, region,
                    /*periodic=*/false);
      const std::chrono::duration<double> elapsed =
          std::chrono::steady_clock::now() - start;
      // Repeat 0 is a warm-up (workspace allocation, first-touch); it
      // never scores.
      if (r > 0) best_run = std::min(best_run, elapsed.count());
    }
    if (best_run < best.seconds) {
      best.kind = info.kind;
      best.seconds = best_run;
    }
  }

  if (tuner != nullptr) {
    llp::tune::TunedEntry entry;
    entry.config.num_threads = rt.num_threads();
    entry.seconds = best.seconds;
    entry.trials = static_cast<std::uint64_t>(repeats);
    entry.engine = std::string(engine_name(best.kind));
    tuner->db().put(key, entry);
  }
  return best;
}

}  // namespace f3d
