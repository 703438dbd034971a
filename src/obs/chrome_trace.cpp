#include "obs/chrome_trace.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "core/runtime.hpp"
#include "util/error.hpp"
#include "util/format.hpp"
#include "util/json.hpp"

namespace llp::obs {

namespace {

enum class PairClass { kNone, kRegion, kLane, kChunk, kStep, kCkptWrite };

PairClass begin_class(EventKind k) {
  switch (k) {
    case EventKind::kRegionEnter: return PairClass::kRegion;
    case EventKind::kLaneBegin: return PairClass::kLane;
    case EventKind::kChunkAcquire: return PairClass::kChunk;
    case EventKind::kStepBegin: return PairClass::kStep;
    case EventKind::kCkptWriteBegin: return PairClass::kCkptWrite;
    default: return PairClass::kNone;
  }
}

PairClass end_class(EventKind k) {
  switch (k) {
    case EventKind::kRegionExit: return PairClass::kRegion;
    case EventKind::kLaneEnd: return PairClass::kLane;
    case EventKind::kChunkFinish: return PairClass::kChunk;
    case EventKind::kStepEnd: return PairClass::kStep;
    case EventKind::kCkptWriteEnd: return PairClass::kCkptWrite;
    default: return PairClass::kNone;
  }
}

bool is_instant(EventKind k) {
  switch (k) {
    case EventKind::kCancel:
    case EventKind::kFault:
    case EventKind::kRollback:
    case EventKind::kCkptDurable:
    case EventKind::kMark:
      return true;
    default:
      return false;
  }
}

/// Does end event `e` close begin event `b`?
bool ids_match(const Event& b, const Event& e, PairClass c) {
  switch (c) {
    case PairClass::kRegion: return b.region == e.region;
    case PairClass::kLane: return b.region == e.region && b.lane == e.lane;
    case PairClass::kChunk:
      // Chunk identity is its [begin,end) range on that lane. The end event
      // repeats the range, so a lane's interleaved history pairs exactly.
      return b.region == e.region && b.lane == e.lane && b.a == e.a &&
             b.b == e.b;
    case PairClass::kStep: return b.a == e.a;
    case PairClass::kCkptWrite: return b.a == e.a;
    case PairClass::kNone: return false;
  }
  return false;
}

std::string region_name(RegionId id) {
  if (id == kNoRegion) return "global";
  auto& registry = llp::regions();
  if (id < registry.size()) return registry.stats(id).name;
  return strfmt("region#%zu", id);
}

const char* category(PairClass c) {
  switch (c) {
    case PairClass::kRegion: return "region";
    case PairClass::kLane: return "lane";
    case PairClass::kChunk: return "chunk";
    case PairClass::kStep: return "step";
    case PairClass::kCkptWrite: return "ckpt";
    case PairClass::kNone: return "event";
  }
  return "event";
}

std::string display_name(const Event& b, PairClass c) {
  switch (c) {
    case PairClass::kRegion: return region_name(b.region);
    case PairClass::kLane: return strfmt("lane %d", b.lane);
    case PairClass::kChunk:
      return strfmt("chunk [%lld,%lld)", static_cast<long long>(b.a),
                    static_cast<long long>(b.b));
    case PairClass::kStep: return strfmt("step %lld",
                                         static_cast<long long>(b.a));
    case PairClass::kCkptWrite:
      return strfmt("ckpt write step %lld", static_cast<long long>(b.a));
    case PairClass::kNone: return event_kind_name(b.kind);
  }
  return event_kind_name(b.kind);
}

std::string ts_us(std::uint64_t t_ns, std::uint64_t epoch_ns) {
  const std::uint64_t rel = t_ns >= epoch_ns ? t_ns - epoch_ns : 0;
  return strfmt("%llu.%03llu", static_cast<unsigned long long>(rel / 1000),
                static_cast<unsigned long long>(rel % 1000));
}

}  // namespace

ChromeTraceStats write_chrome_trace(const std::vector<Event>& events,
                                    std::ostream& os,
                                    const ChromeTraceOptions& options) {
  ChromeTraceStats stats;

  // Timestamp order; stable so per-ring FIFO breaks ties (a lane's begin
  // precedes its first chunk even at equal nanoseconds).
  std::vector<const Event*> sorted;
  sorted.reserve(events.size());
  for (const Event& e : events) {
    const PairClass bc = begin_class(e.kind);
    const PairClass ec = end_class(e.kind);
    if (!options.include_chunks &&
        (bc == PairClass::kChunk || ec == PairClass::kChunk)) {
      continue;
    }
    if (bc == PairClass::kNone && ec == PairClass::kNone &&
        !is_instant(e.kind)) {
      continue;
    }
    sorted.push_back(&e);
  }
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const Event* a, const Event* b) {
                     return a->t_ns < b->t_ns;
                   });

  // Pairing pass, per thread row: begins push; an end closes the matching
  // open (discarding anything opened above it — a lane aborted by a fault
  // leaves an open begin that must not unbalance the row); unmatched ends
  // and leftover opens are discarded. Output is balanced by construction.
  std::vector<signed char> keep(sorted.size(), 0);  // 1=B, 2=E, 3=instant
  std::unordered_map<int, std::vector<std::size_t>> open_by_tid;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    const Event& e = *sorted[i];
    if (is_instant(e.kind)) {
      keep[i] = 3;
      continue;
    }
    auto& stack = open_by_tid[e.tid];
    if (begin_class(e.kind) != PairClass::kNone) {
      stack.push_back(i);
      continue;
    }
    const PairClass c = end_class(e.kind);
    std::size_t depth = stack.size();
    while (depth > 0) {
      const std::size_t j = stack[depth - 1];
      if (begin_class(sorted[j]->kind) == c && ids_match(*sorted[j], e, c)) {
        break;
      }
      --depth;
    }
    if (depth == 0) {
      ++stats.unmatched_dropped;  // end with no matching open
      continue;
    }
    stats.unmatched_dropped += stack.size() - depth;  // aborted opens above
    keep[stack[depth - 1]] = 1;
    keep[i] = 2;
    stack.resize(depth - 1);
  }
  for (const auto& [tid, stack] : open_by_tid) {
    stats.unmatched_dropped += stack.size();
  }

  os << "{\"traceEvents\":[";
  bool first = true;
  auto emit = [&](const std::string& record) {
    if (!first) os << ",";
    os << "\n" << record;
    first = false;
    ++stats.events_written;
  };

  emit("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
       "\"args\":{\"name\":\"llp\"}}");
  if (options.dropped_events > 0) {
    emit(strfmt("{\"name\":\"dropped_events\",\"ph\":\"M\",\"pid\":0,"
                "\"tid\":0,\"args\":{\"count\":%llu}}",
                static_cast<unsigned long long>(options.dropped_events)));
  }

  std::uint64_t epoch = 0;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    if (keep[i] != 0) {
      epoch = sorted[i]->t_ns;
      break;
    }
  }

  for (std::size_t i = 0; i < sorted.size(); ++i) {
    if (keep[i] == 0) continue;
    const Event& e = *sorted[i];
    const int tid = e.tid >= 0 ? e.tid : 0;
    const std::string ts = ts_us(e.t_ns, epoch);
    if (keep[i] == 3) {
      emit(strfmt("{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"i\",\"s\":\"t\","
                  "\"ts\":%s,\"pid\":0,\"tid\":%d,"
                  "\"args\":{\"region\":%s,\"a\":%lld,\"b\":%lld,"
                  "\"lane\":%d}}",
                  event_kind_name(e.kind), event_kind_name(e.kind), ts.c_str(),
                  tid, json_quote(region_name(e.region)).c_str(),
                  static_cast<long long>(e.a), static_cast<long long>(e.b),
                  e.lane));
    } else {
      const PairClass c = keep[i] == 1 ? begin_class(e.kind)
                                       : end_class(e.kind);
      // The end event repeats the begin's name — its identity fields
      // (region/lane/range/step) are identical by the pairing rules, so
      // display_name agrees on both, and `llp_trace check` can pair by name.
      emit(strfmt("{\"name\":%s,\"cat\":\"%s\",\"ph\":\"%s\",\"ts\":%s,"
                  "\"pid\":0,\"tid\":%d,\"args\":{\"a\":%lld,\"b\":%lld}}",
                  json_quote(display_name(e, c)).c_str(), category(c),
                  keep[i] == 1 ? "B" : "E", ts.c_str(), tid,
                  static_cast<long long>(e.a), static_cast<long long>(e.b)));
    }
  }
  os << "\n]}\n";
  return stats;
}

ChromeTraceStats write_chrome_trace_file(const std::vector<Event>& events,
                                         const std::string& path,
                                         const ChromeTraceOptions& options) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw IoError(strfmt("cannot open trace file %s", path.c_str()));
  const ChromeTraceStats stats = write_chrome_trace(events, out, options);
  out.flush();
  if (!out) throw IoError(strfmt("short write to trace file %s", path.c_str()));
  return stats;
}

}  // namespace llp::obs
