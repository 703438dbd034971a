// Ablation for §8 (Behr): the same computation written with doacross
// loop-level parallelism and with explicit message passing. Both produce
// identical answers; the comparison is the synchronization structure and
// the programming burden — the paper: message passing "worked and
// produced a credible level of performance, [but] was significantly more
// difficult to implement".
//
// Kernel: S Jacobi relaxation sweeps of a 1-D diffusion stencil on N
// points (a vectorizable loop of exactly the class the paper targets).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "bench_json.hpp"
#include "common.hpp"
#include "core/llp.hpp"
#include "msg/message_passing.hpp"
#include "util/format.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

constexpr int kN = 4096;
constexpr int kSweeps = 200;
constexpr double kC = 0.2;

std::vector<double> initial_field() {
  std::vector<double> u(kN, 0.0);
  u[0] = 1.0;          // hot left wall
  u[kN - 1] = -1.0;    // cold right wall
  for (int i = kN / 4; i < kN / 2; ++i) u[i] = 0.5;  // interior blob
  return u;
}

// (a) Shared memory: one doacross per sweep. The loop body is the whole
// parallelization effort.
std::vector<double> shared_memory_version(int threads,
                                          std::uint64_t* sync_events) {
  llp::set_num_threads(threads);
  std::vector<double> u = initial_field();
  std::vector<double> v = u;
  const auto opts =
      llp::ForOptions::in_region(llp::regions().define("ablation.sweep"));
  const auto before = llp::Runtime::instance().pool().sync_events();
  for (int s = 0; s < kSweeps; ++s) {
    llp::parallel_for(
        1, kN - 1,
        [&](std::int64_t i) {
          v[i] = u[i] + kC * (u[i - 1] - 2.0 * u[i] + u[i + 1]);
        },
        opts);
    std::swap(u, v);
  }
  *sync_events = llp::Runtime::instance().pool().sync_events() - before;
  return u;
}

// (b) Message passing: the SAME arithmetic needs explicit decomposition,
// halo buffers, neighbor bookkeeping, and exchange logic.
std::vector<double> message_passing_version(int ranks,
                                            llp::msg::WorldStats* stats) {
  std::vector<double> result(kN, 0.0);
  *stats = llp::msg::run(ranks, [&](llp::msg::Communicator& comm) {
    const int r = comm.rank();
    // Block decomposition of the interior [1, kN-1).
    const std::int64_t interior = kN - 2;
    const auto range = llp::static_block(interior, r, ranks);
    const int lo = static_cast<int>(range.begin) + 1;
    const int hi = static_cast<int>(range.end) + 1;  // exclusive
    const int local = hi - lo;

    // Local block with one halo cell on each side.
    const auto full = initial_field();
    std::vector<double> u(static_cast<std::size_t>(local) + 2);
    for (int i = 0; i < local + 2; ++i) u[static_cast<std::size_t>(i)] =
        full[static_cast<std::size_t>(lo - 1 + i)];
    // v starts as a copy so fixed physical-wall halo cells survive swaps.
    std::vector<double> v = u;

    const int left = r - 1, right = r + 1;
    for (int s = 0; s < kSweeps; ++s) {
      // Halo exchange (skipped at physical boundaries).
      if (left >= 0) {
        comm.sendrecv(left, 2 * s, std::span<const double>(&u[1], 1), left,
                      2 * s + 1, std::span<double>(&u[0], 1));
      }
      if (right < ranks) {
        comm.sendrecv(right, 2 * s + 1,
                      std::span<const double>(&u[static_cast<std::size_t>(local)], 1),
                      right, 2 * s,
                      std::span<double>(&u[static_cast<std::size_t>(local) + 1], 1));
      }
      for (int i = 1; i <= local; ++i) {
        v[static_cast<std::size_t>(i)] =
            u[static_cast<std::size_t>(i)] +
            kC * (u[static_cast<std::size_t>(i) - 1] -
                  2.0 * u[static_cast<std::size_t>(i)] +
                  u[static_cast<std::size_t>(i) + 1]);
      }
      std::swap(u, v);
      // Halo cells of u are stale after the swap; refreshed next sweep.
    }
    // Gather: ranks own disjoint slices of the shared result vector.
    for (int i = 1; i <= local; ++i) {
      result[static_cast<std::size_t>(lo + i - 1)] =
          u[static_cast<std::size_t>(i)];
    }
    result[0] = full[0];
    result[kN - 1] = full[kN - 1];
  });
  return result;
}

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  int repeats = 3;
  std::string out = "BENCH_micro.json";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (a == "--repeats" && v) { repeats = std::atoi(v); ++i; }
    else if (a == "--out" && v) { out = v; ++i; }
    else {
      std::fprintf(stderr,
                   "usage: ablation_msg_vs_shared [--repeats R] [--out PATH]\n");
      return 2;
    }
  }
  if (repeats < 1) return 2;

  bench::heading(
      "Ablation — §8: doacross loop-level parallelism vs explicit message "
      "passing (same Jacobi kernel, 4096 points, 200 sweeps)");

  std::uint64_t sync_events = 0;
  llp::msg::WorldStats stats;
  std::vector<double> shared, passed;
  double shared_s = 1e300, msg_s = 1e300;
  for (int r = 0; r < repeats; ++r) {
    double t0 = now_seconds();
    shared = shared_memory_version(4, &sync_events);
    shared_s = std::min(shared_s, now_seconds() - t0);
    t0 = now_seconds();
    passed = message_passing_version(4, &stats);
    msg_s = std::min(msg_s, now_seconds() - t0);
  }

  double max_diff = 0.0;
  for (int i = 0; i < kN; ++i) {
    max_diff = std::max(max_diff, llp::rel_diff(shared[i], passed[i]));
  }

  llp::Table t({"metric", "shared memory (doacross)", "message passing"});
  t.add_row({"answer agreement", "reference", llp::strfmt("%.1e rel", max_diff)});
  t.add_row({"parallel constructs used", "1 (parallel_for)",
             "decompose + halo + sendrecv + gather"});
  t.add_row({"sync events / fork-joins", std::to_string(sync_events), "0"});
  t.add_row({"messages sent", "0", std::to_string(stats.total_messages)});
  t.add_row({"payload bytes", "0", std::to_string(stats.total_bytes)});
  t.add_row({"wall time (best of runs)", llp::strfmt("%.3f ms", shared_s * 1e3),
             llp::strfmt("%.3f ms", msg_s * 1e3)});
  std::printf("%s", t.to_string().c_str());

  bench::heading("Modeled per-sweep synchronization cost");
  llp::Table m({"platform", "shared: 1 fork-join", "msg: 2 exchanges"});
  struct Net {
    const char* name;
    double sync_us;
    double msg_latency_us;
  };
  for (const Net& n : {Net{"SGI Origin 2000 (SMP, 32p)", 34.2, 2.0},
                       Net{"Cray T3E + SHMEM", 34.2, 3.0},
                       Net{"workstation cluster + MPI", 34.2, 75.0}}) {
    m.add_row({n.name, llp::strfmt("%.1f us", n.sync_us),
               llp::strfmt("%.1f us", 2.0 * n.msg_latency_us)});
  }
  std::printf("%s", m.to_string().c_str());
  std::printf(
      "\nBoth versions compute the same answer (diff %.1e). The message-\n"
      "passing version needed a domain decomposition, halo buffers, and\n"
      "explicit exchange choreography for a loop the shared-memory version\n"
      "parallelized with one directive — Behr's experience porting F3D to\n"
      "the T3D/T3E. On low-latency interconnects (SHMEM) its per-sweep\n"
      "cost is competitive, which is §8's 'worked and produced a credible\n"
      "level of performance'; on a 50-100 us cluster it is not. The\n"
      "deeper limitation the paper notes: those machines' 16-128 KB\n"
      "caches made the RISC cache optimizations impossible.\n",
      max_diff);

  const llp::Json rec = llp::Json::Object{
      {"bench", "ablation_msg_vs_shared"},
      {"points", kN},
      {"sweeps", kSweeps},
      {"threads", 4},
      {"repeats", repeats},
      {"shared_ms", shared_s * 1e3},
      {"msg_ms", msg_s * 1e3},
      {"msg_over_shared", shared_s > 0.0 ? msg_s / shared_s : 0.0},
      {"sync_events", sync_events},
      {"messages", stats.total_messages},
      {"payload_bytes", stats.total_bytes},
      {"max_rel_diff", max_diff}};
  if (!bench::upsert_json_line(out, rec)) {
    std::fprintf(stderr, "ablation_msg_vs_shared: cannot write %s\n",
                 out.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out.c_str());
  return 0;
}
