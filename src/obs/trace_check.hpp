// Validator for exported Chrome traces — the checking half of the
// `llp_trace check` CLI and the CI trace job.
//
// Checks, in order:
//   1. the file is one well-formed JSON document (the strict shared codec,
//      util/json.hpp);
//   2. the top level is an object with a "traceEvents" array;
//   3. every entry has name (string), ph (string), ts (number, >= 0 and
//      non-decreasing is NOT required — Chrome sorts), pid and tid
//      (numbers);
//   4. duration events balance: per (pid, tid) row, every "E" closes the
//      most recent open "B" with the same name, and no "B" is left open.
#pragma once

#include <cstddef>
#include <istream>
#include <string>

namespace llp::obs {

struct TraceCheckResult {
  bool ok = false;
  std::string error;          ///< first failure, empty when ok
  std::size_t events = 0;     ///< traceEvents entries
  std::size_t begins = 0;     ///< ph == "B"
  std::size_t ends = 0;       ///< ph == "E"
  std::size_t instants = 0;   ///< ph == "i"
  std::size_t names = 0;      ///< distinct event names
};

TraceCheckResult check_chrome_trace(std::istream& in);
TraceCheckResult check_chrome_trace_file(const std::string& path);

/// One-line human summary of a result.
std::string format_check(const TraceCheckResult& result);

}  // namespace llp::obs
