// serve_throughput — is the daemon path cheap enough to live behind?
//
// Measures jobs/second for a fixed small solver job three ways:
//   baseline   the job run directly on a private runtime (no server)
//   serve c=1  the same jobs through an in-process Server, one at a time
//   serve c=K  the same jobs K at a time behind the fair-share scheduler
//
// The acceptance gate is serve@c1 >= 0.9x baseline: submitting through
// the job table, scheduler thread, event log, and per-job runtime must
// cost at most 10% against running the solver by hand.
//
// Baseline and c=1 alternate for kRounds rounds and the gate takes the
// median of the per-round ratios: a batch lasts ~30 ms at the smoke-test
// size, and on a shared host the speed of the whole machine shifts by
// 30% for tens of milliseconds at a time, so a single pair of batches is
// decided by which one such a shift happens to hit. Both arms of those
// rounds also run on one CPU: the calling thread is pinned to the CPU it
// is on, and the server's threads inherit that mask when they start. On a
// shared host the CPUs differ in speed by up to 40% for seconds at a
// time (the same 8-step job took 2.6 ms on one and 3.7 ms on another in
// one run), so unpinned the ratio mostly said which CPU each arm landed
// on. The serving costs — hand-offs, scheduler, event log, per-job
// runtime — all still run inside the serve arm. Concurrency rows run
// unpinned and are reported for scaling context (on a shared CI box they
// mostly show the fair-share split working, not a speedup).
//
// Results land in BENCH_serve.json (override with --out PATH); exits 1
// when the gate is breached, so the smoke test doubles as the regression
// gate.
//
//   serve_throughput [--jobs N] [--steps N] [--n N] [--out PATH]
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <sched.h>

#include "common.hpp"
#include "core/runtime.hpp"
#include "f3d/solver.hpp"
#include "serve/job.hpp"
#include "serve/json.hpp"
#include "serve/server.hpp"

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kRounds = 11;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

f3d::serve::JobSpec bench_spec(int n, int steps) {
  f3d::serve::JobSpec spec;
  spec.case_name = "cube";
  spec.n = n;
  spec.steps = steps;
  spec.wall = true;
  spec.pulse = 0.05;
  spec.threads = 1;    // pinned: every path runs the identical trajectory
  spec.ckpt_every = 0; // no durability in the throughput loop
  return spec;
}

// The no-server reference: build + run the same job back to back.
double baseline_jobs_per_s(const f3d::serve::JobSpec& spec, int jobs) {
  llp::Runtime rt(1);
  const auto start = Clock::now();
  for (int i = 0; i < jobs; ++i) {
    auto grid = f3d::serve::build_case_grid(spec);
    f3d::Solver solver(grid, f3d::serve::build_solver_config(spec), rt);
    solver.run(spec.steps);
    if (!std::isfinite(solver.residual())) {
      std::fprintf(stderr, "baseline run diverged\n");
      std::exit(1);
    }
  }
  return jobs / seconds_since(start);
}

// The same jobs through an in-process server, `concurrent` in flight.
double serve_jobs_per_s(const f3d::serve::JobSpec& spec, int jobs,
                        int concurrent) {
  f3d::serve::ServerConfig cfg;   // no socket, no state dir
  cfg.total_threads = concurrent; // one lane per pinned job
  cfg.max_running = concurrent;
  f3d::serve::Server server(cfg);
  server.start();
  const auto start = Clock::now();
  std::vector<std::uint64_t> inflight;
  int submitted = 0;
  while (submitted < jobs || !inflight.empty()) {
    while (submitted < jobs &&
           inflight.size() < static_cast<std::size_t>(concurrent)) {
      std::string error;
      const auto id = server.submit(spec, &error);
      if (id == 0) {
        std::fprintf(stderr, "submit failed: %s\n", error.c_str());
        std::exit(1);
      }
      inflight.push_back(id);
      ++submitted;
    }
    f3d::serve::JobStatus status;
    if (!server.wait_terminal(inflight.front(), 600.0, &status) ||
        status.state != f3d::serve::JobState::kDone) {
      std::fprintf(stderr, "job %llu did not finish: %s\n",
                   static_cast<unsigned long long>(inflight.front()),
                   status.error.c_str());
      std::exit(1);
    }
    inflight.erase(inflight.begin());
  }
  const double rate = jobs / seconds_since(start);
  server.stop();
  return rate;
}

// Pins the calling thread to the CPU it is running on for its lifetime,
// then restores the previous mask. Threads started meanwhile inherit the
// pin. When the kernel refuses, the rounds run unpinned.
class PinToCurrentCpu {
public:
  PinToCurrentCpu() {
    const int cpu = sched_getcpu();
    if (cpu < 0 || sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
  }
  ~PinToCurrentCpu() {
    if (pinned_) sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  PinToCurrentCpu(const PinToCurrentCpu&) = delete;
  PinToCurrentCpu& operator=(const PinToCurrentCpu&) = delete;
  bool pinned() const { return pinned_; }

private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

}  // namespace

int main(int argc, char** argv) {
  int jobs = 24;
  int steps = 12;
  int n = 10;
  std::string out = "BENCH_serve.json";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto need = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "usage: serve_throughput [--jobs N] [--steps N]"
                             " [--n N] [--out PATH]\n");
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--jobs") jobs = std::atoi(need());
    else if (a == "--steps") steps = std::atoi(need());
    else if (a == "--n") n = std::atoi(need());
    else if (a == "--out") out = need();
    else {
      std::fprintf(stderr, "usage: serve_throughput [--jobs N] [--steps N]"
                           " [--n N] [--out PATH]\n");
      return 2;
    }
  }
  if (jobs < 1 || steps < 1 || n < 4) {
    std::fprintf(stderr, "usage: serve_throughput: bad argument values\n");
    return 2;
  }

  const auto spec = bench_spec(n, steps);
  std::printf("serve_throughput: %d jobs of cube n=%d steps=%d (pinned 1 "
              "lane each)\n",
              jobs, n, steps);

  std::vector<double> base_rates;
  std::vector<double> c1_rates;
  std::vector<double> ratios;
  bool pinned = false;
  {
    const PinToCurrentCpu pin;
    pinned = pin.pinned();
    for (int r = 0; r < kRounds; ++r) {
      base_rates.push_back(baseline_jobs_per_s(spec, jobs));
      c1_rates.push_back(serve_jobs_per_s(spec, jobs, 1));
      ratios.push_back(c1_rates.back() / base_rates.back());
    }
  }
  const double base = bench::median(base_rates);
  std::printf("  %-14s %8.2f jobs/s (median of %d rounds%s)\n", "baseline",
              base, kRounds, pinned ? ", one CPU" : ", unpinned");
  const double c1 = bench::median(c1_rates);
  std::printf("  %-14s %8.2f jobs/s (median of %d rounds)\n", "serve c=1",
              c1, kRounds);
  const double c2 = serve_jobs_per_s(spec, jobs, 2);
  std::printf("  %-14s %8.2f jobs/s\n", "serve c=2", c2);
  const double c4 = serve_jobs_per_s(spec, jobs, 4);
  std::printf("  %-14s %8.2f jobs/s\n", "serve c=4", c4);

  const double ratio = bench::median(ratios);
  std::printf("  serve/baseline ratio at c=1: %.3f (median of %d rounds; "
              "gate: >= 0.9)\n",
              ratio, kRounds);

  f3d::serve::Json j;
  j["bench"] = "serve_throughput";
  j["jobs"] = jobs;
  j["case"] = "cube";
  j["n"] = n;
  j["steps"] = steps;
  j["baseline_jobs_per_s"] = base;
  j["serve_c1_jobs_per_s"] = c1;
  j["serve_c2_jobs_per_s"] = c2;
  j["serve_c4_jobs_per_s"] = c4;
  j["rounds"] = kRounds;
  j["pinned"] = pinned;
  j["c1_ratio"] = ratio;
  j["gate"] = 0.9;
  std::FILE* f = std::fopen(out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "serve_throughput: cannot write %s\n", out.c_str());
    return 1;
  }
  std::fprintf(f, "%s\n", j.dump().c_str());
  std::fclose(f);
  std::printf("  wrote %s\n", out.c_str());

  if (ratio < 0.9) {
    std::fprintf(stderr,
                 "serve_throughput: FAIL — serving overhead above 10%% "
                 "(ratio %.3f < 0.9)\n",
                 ratio);
    return 1;
  }
  return 0;
}
