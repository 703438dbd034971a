#include "serve/job.hpp"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>

#include <fcntl.h>
#include <unistd.h>

#include "f3d/engine.hpp"
#include "util/error.hpp"
#include "util/format.hpp"
#include "util/io.hpp"

namespace f3d::serve {

namespace fs = std::filesystem;

namespace {
// A job.json is a few hundred bytes; reject anything wildly larger rather
// than slurp a corrupted file into memory during restart recovery.
constexpr std::size_t kMaxRecordBytes = std::size_t{1} << 16;
}  // namespace

const char* job_state_name(JobState state) noexcept {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kPreempted: return "preempted";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
    case JobState::kCancelled: return "cancelled";
  }
  return "unknown";
}

std::optional<JobState> job_state_from_name(std::string_view name) noexcept {
  for (const JobState s :
       {JobState::kQueued, JobState::kRunning, JobState::kPreempted,
        JobState::kDone, JobState::kFailed, JobState::kCancelled}) {
    if (name == job_state_name(s)) return s;
  }
  return std::nullopt;
}

bool is_terminal(JobState state) noexcept {
  return state == JobState::kDone || state == JobState::kFailed ||
         state == JobState::kCancelled;
}

bool is_runnable(JobState state) noexcept {
  return state == JobState::kQueued || state == JobState::kPreempted;
}

namespace {

// The same validation posture as f3d_run's flag parser: a bad value is a
// client error with a precise message, never a garbage run.
bool check_range_num(double v, double lo, double hi, const char* what,
                     std::string* error) {
  if (!std::isfinite(v) || v < lo || v > hi) {
    *error = llp::strfmt("%s=%g must be finite and in [%g, %g]", what, v, lo,
                         hi);
    return false;
  }
  return true;
}

}  // namespace

std::optional<JobSpec> JobSpec::from_json(const Json& j, std::string* error) {
  std::string scratch;
  if (error == nullptr) error = &scratch;
  if (!j.is_object()) {
    *error = "spec must be a JSON object";
    return std::nullopt;
  }
  JobSpec s;
  s.name = j.get_string("name", "");
  s.case_name = j.get_string("case", s.case_name);
  s.scale = j.get_double("scale", s.scale);
  s.cfl = j.get_double("cfl", s.cfl);
  s.mode = j.get_string("mode", s.mode);
  s.wall = j.get_bool("wall", s.wall);
  s.pulse = j.get_double("pulse", s.pulse);
  if (!j.read_int("n", &s.n, error, 4, 1 << 12) ||
      !j.read_int("steps", &s.steps, error, 1, 1 << 24) ||
      !j.read_int("priority", &s.priority, error, 0, 9) ||
      !j.read_int("threads", &s.threads, error, 0, 1 << 12) ||
      !j.read_int("ckpt_every", &s.ckpt_every, error, 0, 1 << 24)) {
    return std::nullopt;
  }

  if (s.case_name != "1m" && s.case_name != "59m" && s.case_name != "cube" &&
      s.case_name != "vortex") {
    *error = "unknown case '" + s.case_name + "'";
    return std::nullopt;
  }
  f3d::EngineKind parsed_engine;
  if (!f3d::parse_engine(s.mode, &parsed_engine)) {
    *error = "mode must be one of '" + f3d::engine_names_usage() + "'";
    return std::nullopt;
  }
  if (!check_range_num(s.scale, 1e-6, 1e3, "scale", error)) return std::nullopt;
  if (!check_range_num(s.cfl, 1e-9, 1e6, "cfl", error)) return std::nullopt;
  if (!check_range_num(s.pulse, 0.0, 1e3, "pulse", error)) return std::nullopt;
  return s;
}

Json JobSpec::to_json() const {
  Json j;
  j["name"] = name;
  j["case"] = case_name;
  j["scale"] = scale;
  j["n"] = n;
  j["steps"] = steps;
  j["cfl"] = cfl;
  j["mode"] = mode;
  j["wall"] = wall;
  j["pulse"] = pulse;
  j["priority"] = priority;
  j["threads"] = threads;
  j["ckpt_every"] = ckpt_every;
  return j;
}

std::string JobSpec::fingerprint() const {
  return llp::strfmt("case=%s scale=%g n=%d mode=%s cfl=%g wall=%d pulse=%g",
                     case_name.c_str(), scale, n, mode.c_str(), cfl,
                     wall ? 1 : 0, pulse);
}

f3d::MultiZoneGrid build_case_grid(const JobSpec& spec) {
  f3d::CaseSpec cs;
  if (spec.case_name == "1m") cs = f3d::paper_1m_case(spec.scale);
  else if (spec.case_name == "59m") cs = f3d::paper_59m_case(spec.scale);
  else if (spec.case_name == "cube") cs = f3d::wall_compression_case(spec.n);
  else cs = f3d::vortex_case(spec.n);

  auto grid = f3d::build_grid(cs);
  if (spec.case_name == "vortex") {
    f3d::make_periodic(grid);
    f3d::Vortex v;
    v.x0 = v.y0 = 5.0;
    f3d::initialize_vortex(grid, cs.freestream, v);
  }
  if (spec.wall) f3d::add_kmin_wall(grid);
  if (spec.pulse > 0.0) f3d::add_gaussian_pulse(grid, spec.pulse, 2.5);
  return grid;
}

f3d::SolverConfig build_solver_config(const JobSpec& spec) {
  f3d::CaseSpec cs;
  if (spec.case_name == "1m") cs = f3d::paper_1m_case(spec.scale);
  else if (spec.case_name == "59m") cs = f3d::paper_59m_case(spec.scale);
  else if (spec.case_name == "cube") cs = f3d::wall_compression_case(spec.n);
  else cs = f3d::vortex_case(spec.n);

  f3d::SolverConfig cfg;
  cfg.freestream = cs.freestream;
  cfg.cfl = spec.cfl;
  // from_json validated the spelling; default to the registry's parse so a
  // spec constructed in code with a bad mode string fails loudly here.
  if (!f3d::parse_engine(spec.mode, &cfg.engine)) {
    throw llp::ValidationError("unknown engine '" + spec.mode + "'");
  }
  cfg.region_prefix = "job";
  return cfg;
}

Json JobRecord::to_json() const {
  Json j;
  j["id"] = static_cast<double>(id);
  j["spec"] = spec.to_json();
  j["state"] = job_state_name(state);
  j["steps_done"] = steps_done;
  j["residual"] = residual;
  if (!error.empty()) j["error"] = error;
  return j;
}

std::optional<JobRecord> JobRecord::from_json(const Json& j,
                                              std::string* error) {
  std::string scratch;
  if (error == nullptr) error = &scratch;
  if (!j.is_object()) {
    *error = "job record must be a JSON object";
    return std::nullopt;
  }
  JobRecord r;
  if (j.find("id") == nullptr) {
    *error = "job record missing id";
    return std::nullopt;
  }
  if (!j.read_int("id", &r.id, error)) return std::nullopt;
  const Json* spec = j.find("spec");
  if (spec == nullptr) {
    *error = "job record missing spec";
    return std::nullopt;
  }
  auto parsed = JobSpec::from_json(*spec, error);
  if (!parsed.has_value()) return std::nullopt;
  r.spec = std::move(*parsed);
  const auto state = job_state_from_name(j.get_string("state", ""));
  if (!state.has_value()) {
    *error = "job record has unknown state '" + j.get_string("state", "") +
             "'";
    return std::nullopt;
  }
  r.state = *state;
  if (!j.read_int("steps_done", &r.steps_done, error)) return std::nullopt;
  r.residual = j.get_double("residual", 0.0);
  r.error = j.get_string("error", "");
  return r;
}

std::string job_dir(const std::string& state_dir, std::uint64_t id) {
  return state_dir + "/jobs/" + std::to_string(id);
}

std::string job_record_path(const std::string& state_dir, std::uint64_t id) {
  return job_dir(state_dir, id) + "/job.json";
}

std::string job_ckpt_dir(const std::string& state_dir, std::uint64_t id) {
  return job_dir(state_dir, id) + "/ckpt";
}

void write_job_record(const std::string& state_dir, const JobRecord& record) {
  const std::string dir = job_dir(state_dir, record.id);
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) throw llp::IoError("cannot create job dir " + dir);

  // Same atomic-publish discipline as the checkpoint writer: the record on
  // disk is always a complete previous or complete next version, never a
  // torn one — restart recovery trusts what it parses.
  const std::string final_path = dir + "/job.json";
  const std::string tmp_path = dir + "/job.json.tmp";
  const std::string payload = record.to_json().dump() + "\n";
  const int fd = ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throw llp::IoError("cannot open " + tmp_path);
  const llp::io::IoResult wr =
      llp::io::write_exact(fd, payload.data(), payload.size());
  if (!wr.ok()) {
    ::close(fd);
    ::unlink(tmp_path.c_str());
    throw llp::IoError("write failed for " + tmp_path + ": " +
                       std::strerror(wr.error));
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    ::unlink(tmp_path.c_str());
    throw llp::IoError("fsync failed for " + tmp_path);
  }
  ::close(fd);
  fs::rename(tmp_path, final_path, ec);
  if (ec) throw llp::IoError("rename failed for " + final_path);
}

std::optional<JobRecord> read_job_record(const std::string& path,
                                         std::string* error) {
  std::string scratch;
  if (error == nullptr) error = &scratch;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    *error = "cannot open " + path;
    return std::nullopt;
  }
  std::string text;
  char chunk[4096];
  std::size_t n = 0;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    text.append(chunk, n);
    if (text.size() > kMaxRecordBytes) break;
  }
  std::fclose(f);
  if (text.size() > kMaxRecordBytes) {
    *error = path + " is implausibly large for a job record";
    return std::nullopt;
  }
  auto j = Json::parse(text, error);
  if (!j.has_value()) {
    *error = path + ": " + *error;
    return std::nullopt;
  }
  return JobRecord::from_json(*j, error);
}

std::string done_event_line(std::uint64_t id, JobState state, int steps,
                            double final_residual) {
  Json j;
  j["event"] = "done";
  j["job"] = static_cast<double>(id);
  j["state"] = job_state_name(state);
  j["steps"] = steps;
  j["final_residual"] = final_residual;
  return j.dump();
}

}  // namespace f3d::serve
