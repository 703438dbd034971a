// llpbench — the LLP benchmark harness.
//
//   llpbench run --workload W --seed N --seconds S --trace 0|1
//                --work-dir DIR --reference FILE [--trace-file FILE]
//   llpbench selftest
//   llpbench reference      (prints the lines of reference.txt)
//
// `run` prints a host record, human-readable report lines, and as its last
// line one JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics untraced (--trace 0), the per-layer metrics traced
// (--trace 1). Exit codes: 0 run completed (correct or not), 1 error,
// 2 usage, 3 an environment variable that changes the program is set.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "util/format.hpp"
#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: llpbench run --workload paper1m_serial|paper1m_t4|"
               "serve_jobs --seed N --seconds S --trace 0|1 --work-dir DIR "
               "--reference FILE [--trace-file FILE]\n"
               "       llpbench selftest | reference\n");
  return 2;
}

int run(int argc, char** argv) {
  bench::RunArgs args;
  std::string trace_file;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    if (a == "--workload") args.workload = v;
    else if (a == "--seed") args.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (a == "--seconds") args.seconds = std::strtod(v.c_str(), nullptr);
    else if (a == "--trace") args.trace = v == "1";
    else if (a == "--work-dir") args.work_dir = v;
    else if (a == "--reference") args.reference_path = v;
    else if (a == "--trace-file") trace_file = v;
    else return usage();
  }
  const bool paper = bench::is_paper_workload(args.workload);
  if ((!paper && args.workload != "serve_jobs") || args.work_dir.empty() ||
      args.reference_path.empty() || !(args.seconds > 0)) {
    return usage();
  }
  std::printf("host: %s\n", bench::host_record().c_str());

  bench::RunResult res;
  if (paper) {
    bench::run_paper(args, res);
  } else {
    bench::run_serve(args, res);
  }
  if (args.trace) {
    bench::run_layer_probes(args, res);
    if (!trace_file.empty()) {
      std::string error;
      if (!bench::spans::write_chrome_trace(trace_file, &error)) {
        std::fprintf(stderr, "llpbench: %s\n", error.c_str());
        return 1;
      }
      std::printf("spans: %zu written to %s\n", bench::spans::count(),
                  trace_file.c_str());
    }
  } else {
    res.report.metric("peak_rss_mb", res.setup_rss_mb, "MB");
    res.report.note(llp::strfmt(
        "peak_rss_mb is the peak once set up; at the end of the run: %.1f MB",
        bench::peak_rss_mb()));
  }
  std::error_code ec;
  std::filesystem::remove_all(args.work_dir, ec);

  const long failed = static_cast<long>(
      std::min<std::size_t>(res.failures.size(),
                            static_cast<std::size_t>(res.attempted)));
  res.report.note("fail_rate: " + std::to_string(failed) + "/" +
                  std::to_string(res.attempted) +
                  " operations (an operation is one solve or one job)");
  for (std::size_t i = 0; i < res.failures.size() && i < 20; ++i) {
    std::printf("FAILED %s\n", res.failures[i].c_str());
  }
  std::printf("%s seed %llu (%s):\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed),
              args.trace ? "traced, per-layer metrics" : "untraced, end-to-end");
  res.report.print_human();
  std::printf("%s\n", res.report
                          .final_json(res.failures.empty(), res.attempted,
                                      failed)
                          .c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  const auto env = bench::forbidden_env_set();
  if (!env.empty()) {
    std::fprintf(stderr, "llpbench: refusing to run with %s set: it "
                         "changes the program under test\n",
                 env.front().c_str());
    return 3;
  }
  try {
    if (cmd == "run") return run(argc, argv);
    if (cmd == "selftest") return bench::run_selftest();
    if (cmd == "reference") return bench::write_references();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "llpbench: error: %s\n", e.what());
    return 1;
  }
  return usage();
}
