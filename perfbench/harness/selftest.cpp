// Self-tests of the harness's own pieces: the order statistics on fixed
// vectors, the span writer against the repository's trace checker, and
// the correctness gate, which must fail on a wrong answer and on a
// free-stream run.
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>

#include "core/llp.hpp"
#include "f3d/validation.hpp"
#include "obs/trace_check.hpp"
#include "workloads.hpp"

namespace bench {

namespace {

int g_failed = 0;

void expect(bool ok, const char* what) {
  std::printf("  %s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++g_failed;
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

void test_stats() {
  expect(near(median({3, 1, 2}), 2.0), "median of an odd vector");
  expect(near(median({4, 1, 3, 2}), 2.5), "median of an even vector");
  expect(near(quantile({1, 2, 3, 4, 5}, 0.9), 4.6), "p90 interpolates");
  expect(near(quantile({5, 4, 3, 2, 1}, 0.25), 2.0), "p25 of unsorted input");
  expect(near(quantile({10}, 0.9), 10.0), "quantile of one sample");
  expect(std::isnan(median({})), "median of nothing is NaN");
  // Two clusters: a pooled median would land between them (5.5); the mean
  // of the per-group medians is (2 + 10) / 2.
  expect(near(mean_of_quantiles({{"a", {1, 2, 3}}, {"b", {9, 10, 11}}}, 0.5),
              6.0),
         "mean of per-group medians");
}

void test_spans(const std::string& dir) {
  spans::clear();
  spans::set_enabled(true);
  {
    spans::Scope outer("outer", 1);
    spans::Scope inner("inner", 2);
  }
  spans::set_enabled(false);
  { spans::Scope off("not-recorded"); }
  const std::string path = dir + "/selftest_trace.json";
  std::string error;
  expect(spans::write_chrome_trace(path, &error), "span trace written");
  const auto check = llp::obs::check_chrome_trace_file(path);
  expect(check.ok && check.begins == 2 && check.ends == 2,
         "span trace passes the trace checker with 2 balanced spans");
  spans::clear();
}

SolveOutcome perturbed(const SolveOutcome& s, double rel) {
  auto g = std::make_shared<f3d::MultiZoneGrid>(*s.grid);
  g->zone(0).q(0, 1, 1, 1) *= 1.0 + rel;
  SolveOutcome p = s;
  p.grid = g;
  p.checksum = f3d::checksum(*g);
  return p;
}

void test_gate() {
  constexpr double kScale = 0.12;
  llp::Runtime rt(2);
  auto run = [&](f3d::EngineKind e, double amp) {
    return solve_paper(kScale, amp, e, rt, 2, 0, true).outcome;
  };
  const SolveOutcome vec = run(f3d::EngineKind::kPlaneVector, 0.1);
  const SolveOutcome risc = run(f3d::EngineKind::kPencilScalar, 0.1);
  const SolveOutcome simd = run(f3d::EngineKind::kPencilSimd, 0.1);
  auto judge = [&](std::vector<SolveOutcome> solves) {
    Gate gate;
    for (SolveOutcome& s : solves) {
      s.reference = risc.residual;
      gate.add(std::move(s));
    }
    return gate.failures().size();
  };
  expect(judge({risc, vec, simd}) == 0, "gate passes risc, vector and simd");
  expect(judge({vec, simd, risc}) == 0, "gate passes with vector as base");
  expect(judge({risc, perturbed(vec, 1e-7)}) == 1,
         "gate fails a vector solve with one perturbed cell");
  expect(judge({risc, perturbed(simd, 1e-6)}) == 1,
         "gate fails a simd solve with one perturbed cell");
  expect(judge({simd, risc}) == 1,
         "gate fails a simd solve with no risc base before it");
  const SolveOutcome still = run(f3d::EngineKind::kPencilScalar, 0.0);
  expect(still.residual == 0.0, "free-stream run has residual exactly 0");
  {
    Gate gate;
    gate.add(still);
    expect(gate.failures().size() == 1, "gate fails a free-stream run");
  }
  expect(!check_residual(risc.residual * (1 + 1e-6), risc.residual).empty(),
         "gate fails a residual 1e-6 off its reference");
  expect(!check_residual(std::nan(""), 0.0).empty(),
         "gate fails a non-finite residual");
}

}  // namespace

int run_selftest() {
  const std::string dir = ".bench_selftest";
  std::filesystem::create_directories(dir);
  std::printf("selftest: order statistics\n");
  test_stats();
  std::printf("selftest: spans\n");
  test_spans(dir);
  std::printf("selftest: correctness gate\n");
  test_gate();
  std::filesystem::remove_all(dir);
  std::printf("selftest: %s (%d failed)\n", g_failed == 0 ? "PASS" : "FAIL",
              g_failed);
  return g_failed == 0 ? 0 : 1;
}

}  // namespace bench
