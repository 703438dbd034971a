// Shared pieces of the benchmark harness: clock, order statistics, the
// metric report, the in-memory span recorder, and the host record.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace bench {

using Clock = std::chrono::steady_clock;

/// Seconds on the steady clock since the harness started.
double now_s();

/// Median of `v` (mean of the two middle values for even sizes); NaN when
/// empty.
double median(std::vector<double> v);

/// Quantile q in [0,1] by linear interpolation between order statistics
/// (the "inclusive" / type-7 definition); NaN when empty.
double quantile(std::vector<double> v, double q);

/// Mean over the groups of each group's quantile q: a steady summary of a
/// mix whose groups (engines) sit in separate clusters, where one quantile
/// over the pooled samples would fall in the gap between them.
double mean_of_quantiles(const std::map<std::string, std::vector<double>>& g,
                         double q);

/// Seeded pick from a fixed table, so a seed names the same input on
/// every host.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

/// The metrics a run reports, in insertion order, plus free-form report
/// lines printed before the final JSON line.
class Report {
public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// A human-readable line ("name: value unit (note)") that is not part of
  /// the machine-readable metrics — ratios given with their base, counts
  /// of samples, and metrics a workload does not exercise.
  void note(const std::string& line);

  /// Print notes and metrics, one per line.
  void print_human() const;
  /// The final JSON object {"correct", "attempted", "failed", "metrics"}.
  std::string final_json(bool correct, long attempted, long failed) const;

private:
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  std::vector<std::string> notes_;
};

/// In-memory span recorder. A span is a name, start, end, the enclosing
/// span on its thread, and an id (one per solve, step, or job). Spans are
/// kept per thread and written as one Chrome trace when the run ends.
/// Disabled by default: a disabled Scope costs one relaxed load.
namespace spans {

void set_enabled(bool on);
bool enabled();

class Scope {
public:
  Scope(const char* name, std::int64_t id = -1);
  /// Recorded only when `on` (per-operation A/B alternation).
  Scope(const char* name, std::int64_t id, bool on);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

private:
  const char* name_;
  bool active_;
};

/// Number of spans recorded so far, over all threads.
std::size_t count();

/// Write every recorded span as B/E pairs of a Chrome trace. Returns false
/// (with `error`) when the file cannot be written.
bool write_chrome_trace(const std::string& path, std::string* error);

/// Drop everything recorded (self-tests).
void clear();

}  // namespace spans

/// Peak resident set size of this process in MB (VmHWM).
double peak_rss_mb();

/// One line describing the host and build the numbers were taken on.
std::string host_record();

/// Environment variables that silently change the program under test; the
/// harness refuses to time while any is set.
std::vector<std::string> forbidden_env_set();

}  // namespace bench
