// Machine-readable results for the self-timed micro benches.
//
// Every bench upserts exactly one line into a shared BENCH_micro.json:
// each line is a complete JSON object (an llp::Json, keys sorted) carrying
// a "bench" key, so the file is JSON-lines — trivially parseable a line at
// a time, and re-running one bench replaces only its own record instead of
// clobbering the others. CI reads the file to flag overhead drift without
// scraping stdout.
#pragma once

#include <fstream>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace bench {

/// Replace the line whose "bench" member equals the record's in the
/// JSON-lines file at `path`, appending when absent. Lines that do not
/// parse are kept verbatim. Returns false when the file cannot be written.
inline bool upsert_json_line(const std::string& path,
                             const llp::Json& record) {
  const std::string name = record.get_string("bench");
  std::vector<std::string> lines;
  {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      const auto old = llp::Json::parse(line);
      if (!old.has_value() || old->get_string("bench") != name) {
        lines.push_back(line);
      }
    }
  }
  lines.push_back(record.dump());
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  for (const auto& line : lines) out << line << "\n";
  return static_cast<bool>(out);
}

}  // namespace bench
