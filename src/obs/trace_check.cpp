#include "obs/trace_check.hpp"

#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <vector>

#include "util/format.hpp"
#include "util/json.hpp"

namespace llp::obs {

namespace {

TraceCheckResult failure(std::string message) {
  TraceCheckResult r;
  r.ok = false;
  r.error = std::move(message);
  return r;
}

}  // namespace

TraceCheckResult check_chrome_trace(std::istream& in) {
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string error;
  const std::optional<Json> root = Json::parse(buf.str(), &error);
  if (!root.has_value()) return failure("invalid JSON: " + error);
  if (!root->is_object()) return failure("top level is not an object");
  const Json* events = root->find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    return failure("missing traceEvents array");
  }

  TraceCheckResult r;
  std::set<std::string> names;
  // Per (pid, tid) row: stack of open "B" names.
  std::map<std::pair<double, double>, std::vector<std::string>> open;
  for (std::size_t i = 0; i < events->array().size(); ++i) {
    const Json& e = events->array()[i];
    if (!e.is_object()) {
      return failure(strfmt("traceEvents[%zu] is not an object", i));
    }
    const Json* name = e.find("name");
    const Json* ph = e.find("ph");
    const Json* pid = e.find("pid");
    const Json* tid = e.find("tid");
    if (name == nullptr || !name->is_string()) {
      return failure(strfmt("traceEvents[%zu]: missing string name", i));
    }
    if (ph == nullptr || !ph->is_string() || ph->as_string().size() != 1) {
      return failure(strfmt("traceEvents[%zu]: missing ph", i));
    }
    if (pid == nullptr || !pid->is_number() || tid == nullptr ||
        !tid->is_number()) {
      return failure(strfmt("traceEvents[%zu]: missing pid/tid", i));
    }
    const char phase = ph->as_string()[0];
    if (phase != 'M') {
      const Json* ts = e.find("ts");
      if (ts == nullptr || !ts->is_number() || ts->as_double() < 0.0) {
        return failure(strfmt("traceEvents[%zu]: missing or negative ts", i));
      }
    }
    const std::string& label = name->as_string();
    ++r.events;
    names.insert(label);
    auto& stack = open[{pid->as_double(), tid->as_double()}];
    switch (phase) {
      case 'B':
        ++r.begins;
        stack.push_back(label);
        break;
      case 'E':
        ++r.ends;
        if (stack.empty()) {
          return failure(strfmt(
              "traceEvents[%zu]: E \"%s\" with no open B on its row", i,
              label.c_str()));
        }
        if (stack.back() != label) {
          return failure(strfmt(
              "traceEvents[%zu]: E \"%s\" does not close open B \"%s\"", i,
              label.c_str(), stack.back().c_str()));
        }
        stack.pop_back();
        break;
      case 'i':
        ++r.instants;
        break;
      case 'M':
        break;  // metadata
      default:
        return failure(strfmt("traceEvents[%zu]: unsupported ph \"%c\"", i,
                              phase));
    }
  }
  for (const auto& [row, stack] : open) {
    if (!stack.empty()) {
      return failure(strfmt("row pid=%g tid=%g: %zu unclosed B event(s), "
                            "first \"%s\"",
                            row.first, row.second, stack.size(),
                            stack.front().c_str()));
    }
  }
  r.names = names.size();
  r.ok = true;
  return r;
}

TraceCheckResult check_chrome_trace_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return failure(strfmt("cannot open %s", path.c_str()));
  return check_chrome_trace(in);
}

std::string format_check(const TraceCheckResult& result) {
  if (!result.ok) return "FAIL: " + result.error;
  return strfmt(
      "OK: %zu events (%zu B / %zu E / %zu instant), %zu distinct names, "
      "all rows balanced",
      result.events, result.begins, result.ends, result.instants,
      result.names);
}

}  // namespace llp::obs
