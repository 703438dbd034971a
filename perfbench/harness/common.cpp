#include "common.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <memory>
#include <mutex>
#include <sstream>

#include "f3d/tridiag.hpp"
#include "util/rng.hpp"

namespace bench {

namespace {
const Clock::time_point g_epoch = Clock::now();
}  // namespace

double now_s() {
  return std::chrono::duration<double>(Clock::now() - g_epoch).count();
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double mean_of_quantiles(const std::map<std::string, std::vector<double>>& g,
                         double q) {
  if (g.empty()) return std::numeric_limits<double>::quiet_NaN();
  double sum = 0.0;
  for (const auto& [name, v] : g) sum += quantile(v, q);
  return sum / static_cast<double>(g.size());
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  llp::SplitMix64 rng(seed * 0x100000001b3ULL + stream);
  return rng.next();
}

// ---- report -------------------------------------------------------------

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  for (Entry& e : metrics_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  metrics_.push_back(Entry{name, value, unit});
}

void Report::note(const std::string& line) { notes_.push_back(line); }

void Report::print_human() const {
  for (const std::string& n : notes_) std::printf("  %s\n", n.c_str());
  for (const Entry& e : metrics_) {
    std::printf("  %-32s %.6g %s\n", e.name.c_str(), e.value, e.unit.c_str());
  }
}

std::string Report::final_json(bool correct, long attempted,
                               long failed) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const Entry& e : metrics_) {
    char buf[64];
    // Non-finite values are not JSON: leave the metric out of the line.
    if (!std::isfinite(e.value)) continue;
    std::snprintf(buf, sizeof buf, "%.17g", e.value);
    out += first ? "" : ", ";
    out += "\"" + e.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           e.unit + "\"}";
    first = false;
  }
  out += "}}";
  return out;
}

// ---- spans --------------------------------------------------------------

namespace spans {
namespace {

struct Ev {
  const char* name;
  const char* parent;  // enclosing span on the thread, for "B" events
  std::int64_t id;
  double ts_us;
  bool begin;
};

struct ThreadLog {
  int tid = 0;
  std::vector<Ev> events;
  std::vector<const char*> stack;
};

std::atomic<bool> g_enabled{false};
std::mutex g_mu;
std::vector<std::unique_ptr<ThreadLog>> g_logs;  // guarded by g_mu

ThreadLog& thread_log() {
  thread_local ThreadLog* log = nullptr;
  if (log == nullptr) {
    std::lock_guard<std::mutex> lock(g_mu);
    g_logs.push_back(std::make_unique<ThreadLog>());
    log = g_logs.back().get();
    log->tid = static_cast<int>(g_logs.size());
    log->events.reserve(4096);
  }
  return *log;
}

double ts_us() { return now_s() * 1e6; }

}  // namespace

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

Scope::Scope(const char* name, std::int64_t id)
    : Scope(name, id, enabled()) {}

Scope::Scope(const char* name, std::int64_t id, bool on)
    : name_(name), active_(on) {
  if (!active_) return;
  ThreadLog& log = thread_log();
  const char* parent = log.stack.empty() ? "" : log.stack.back();
  log.events.push_back(Ev{name, parent, id, ts_us(), true});
  log.stack.push_back(name);
}

Scope::~Scope() {
  if (!active_) return;
  ThreadLog& log = thread_log();
  log.stack.pop_back();
  log.events.push_back(Ev{name_, "", -1, ts_us(), false});
}

std::size_t count() {
  std::lock_guard<std::mutex> lock(g_mu);
  std::size_t n = 0;
  for (const auto& log : g_logs) n += log->events.size() / 2;
  return n;
}

bool write_chrome_trace(const std::string& path, std::string* error) {
  std::ofstream out(path);
  if (!out) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  std::lock_guard<std::mutex> lock(g_mu);
  out << "{\"traceEvents\": [\n";
  bool first = true;
  char buf[128];
  for (const auto& log : g_logs) {
    // Only the prefix in which every B has met its E is written; every
    // Scope has ended by the time the run writes its trace.
    std::size_t closed = 0;
    std::int64_t depth = 0;
    for (std::size_t i = 0; i < log->events.size(); ++i) {
      depth += log->events[i].begin ? 1 : -1;
      if (depth == 0) closed = i + 1;
    }
    for (std::size_t i = 0; i < closed; ++i) {
      const Ev& e = log->events[i];
      out << (first ? "" : ",\n");
      first = false;
      std::snprintf(buf, sizeof buf, "%.3f", e.ts_us);
      out << "{\"name\": \"" << e.name << "\", \"ph\": \""
          << (e.begin ? "B" : "E") << "\", \"ts\": " << buf
          << ", \"pid\": 1, \"tid\": " << log->tid;
      if (e.begin) {
        out << ", \"args\": {\"id\": " << e.id << ", \"parent\": \""
            << e.parent << "\"}";
      }
      out << "}";
    }
  }
  out << "\n]}\n";
  out.flush();
  if (!out) {
    if (error != nullptr) *error = "write failed: " + path;
    return false;
  }
  return true;
}

void clear() {
  std::lock_guard<std::mutex> lock(g_mu);
  for (auto& log : g_logs) {
    log->events.clear();
  }
}

}  // namespace spans

// ---- host ---------------------------------------------------------------

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream is(line.substr(6));
      double kb = 0.0;
      is >> kb;
      return kb / 1024.0;
    }
  }
  return std::numeric_limits<double>::quiet_NaN();
}

namespace {

std::string l3_size() {
  std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index3/size");
  std::string s;
  if (in >> s) return s;
  const long bytes = sysconf(_SC_LEVEL3_CACHE_SIZE);
  return bytes > 0 ? std::to_string(bytes / 1024) + "K" : "unknown";
}

}  // namespace

std::string host_record() {
  std::string out = "{\"nproc\": ";
  out += std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  out += ", \"l3\": \"" + l3_size() + "\"";
  out += ", \"tridiag_lanes_kernel\": \"" +
         std::string(f3d::tridiag_lanes_kernel()) + "\"";
  out += ", \"compiler\": \"" LLPBENCH_COMPILER "\"";
  out += ", \"build_type\": \"" LLPBENCH_BUILD_TYPE "\"}";
  return out;
}

std::vector<std::string> forbidden_env_set() {
  static const char* const kVars[] = {
      "LLP_TUNE",       "LLP_TRACE",   "LLP_FAULT",       "LLP_ANALYZE",
      "LLP_SIMD_FORCE_SCALAR", "LLP_NUM_THREADS", "LLP_WATCHDOG_MS"};
  std::vector<std::string> set;
  for (const char* v : kVars) {
    if (std::getenv(v) != nullptr) set.push_back(v);
  }
  return set;
}

}  // namespace bench
