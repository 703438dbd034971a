// Job model: spec validation mirrors f3d_run's ranges, records survive a
// durable round trip, and the terminal event line is byte-stable (it is
// the contract between f3d_serve and f3d_run --serve-compat).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "serve/job.hpp"

namespace fs = std::filesystem;

namespace {

using f3d::serve::JobRecord;
using f3d::serve::JobSpec;
using f3d::serve::JobState;
using f3d::serve::Json;

JobSpec parse_spec(const std::string& text) {
  std::string error;
  const auto j = Json::parse(text);
  EXPECT_TRUE(j.has_value()) << text;
  const auto spec = JobSpec::from_json(*j, &error);
  EXPECT_TRUE(spec.has_value()) << error;
  return spec.value_or(JobSpec{});
}

std::string spec_error(const std::string& text) {
  std::string error;
  const auto j = Json::parse(text);
  EXPECT_TRUE(j.has_value()) << text;
  EXPECT_FALSE(JobSpec::from_json(*j, &error).has_value()) << text;
  return error;
}

TEST(JobSpec, DefaultsMatchTheBatchCli) {
  const JobSpec spec = parse_spec("{}");
  EXPECT_EQ(spec.case_name, "cube");
  EXPECT_EQ(spec.n, 24);
  EXPECT_EQ(spec.steps, 50);
  EXPECT_DOUBLE_EQ(spec.cfl, 2.0);
  EXPECT_EQ(spec.mode, "risc");
  EXPECT_EQ(spec.priority, 0);
  EXPECT_EQ(spec.threads, 0);
  EXPECT_EQ(spec.ckpt_every, 10);
}

TEST(JobSpec, RoundTripsThroughJson) {
  JobSpec spec;
  spec.name = "night-run";
  spec.case_name = "vortex";
  spec.n = 32;
  spec.steps = 123;
  spec.cfl = 1.25;
  spec.mode = "vector";
  spec.wall = true;
  spec.pulse = 0.05;
  spec.priority = 7;
  spec.threads = 3;
  spec.ckpt_every = 4;
  std::string error;
  const auto back = JobSpec::from_json(spec.to_json(), &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(back->to_json().dump(), spec.to_json().dump());
}

TEST(JobSpec, AcceptsEveryRegisteredEngineName) {
  for (const char* name : {"vector", "risc", "simd"}) {
    const JobSpec spec =
        parse_spec(std::string(R"({"mode":")") + name + R"("})");
    EXPECT_EQ(spec.mode, name);
  }
}

TEST(JobSpec, RejectsOutOfRangeAndGarbage) {
  EXPECT_NE(spec_error(R"({"case":"sphere"})").find("case"),
            std::string::npos);
  EXPECT_FALSE(spec_error(R"({"n":2})").empty());
  EXPECT_FALSE(spec_error(R"({"steps":0})").empty());
  EXPECT_FALSE(spec_error(R"({"cfl":-1})").empty());
  EXPECT_FALSE(spec_error(R"({"mode":"cisc"})").empty());
  // The rejection names the registered engines, so the message tracks the
  // registry instead of hard-coding a list.
  EXPECT_NE(spec_error(R"({"mode":"cisc"})").find("vector|risc|simd"),
            std::string::npos);
  EXPECT_FALSE(spec_error(R"({"priority":11})").empty());
  EXPECT_FALSE(spec_error(R"({"priority":-1})").empty());
  EXPECT_FALSE(spec_error(R"({"threads":-2})").empty());
  EXPECT_FALSE(spec_error(R"({"ckpt_every":-1})").empty());
  // Integers are checked, never truncated: these once ran as n=8 / steps=1.
  // The error names the field.
  EXPECT_EQ(spec_error(R"({"case":"cube","n":4294967304,"steps":2})")
                .rfind("n must be an integer", 0),
            0u);
  EXPECT_EQ(spec_error(R"({"case":"cube","n":8.9,"steps":2})")
                .rfind("n must be an integer", 0),
            0u);
  EXPECT_EQ(spec_error(R"({"case":"cube","n":8,"steps":4294967297})")
                .rfind("steps must be an integer", 0),
            0u);
}

TEST(JobSpec, FingerprintSeparatesDifferentPhysics) {
  JobSpec a, b;
  b.pulse = 0.05;
  EXPECT_NE(a.fingerprint(), b.fingerprint());
  JobSpec c = a;
  c.priority = 9;  // scheduling detail, not physics
  c.threads = 4;   // lane count does not change the trajectory contract…
  EXPECT_EQ(a.fingerprint().find("case=cube"), 0u);
}

TEST(JobState, NamesRoundTrip) {
  using f3d::serve::job_state_from_name;
  using f3d::serve::job_state_name;
  for (const JobState s :
       {JobState::kQueued, JobState::kRunning, JobState::kPreempted,
        JobState::kDone, JobState::kFailed, JobState::kCancelled}) {
    const auto back = job_state_from_name(job_state_name(s));
    ASSERT_TRUE(back.has_value()) << job_state_name(s);
    EXPECT_EQ(*back, s);
  }
  EXPECT_FALSE(job_state_from_name("zombie").has_value());
}

TEST(JobState, TerminalAndRunnablePartitionTheLifecycle) {
  using f3d::serve::is_runnable;
  using f3d::serve::is_terminal;
  EXPECT_TRUE(is_runnable(JobState::kQueued));
  EXPECT_TRUE(is_runnable(JobState::kPreempted));
  EXPECT_FALSE(is_runnable(JobState::kDone));
  EXPECT_TRUE(is_terminal(JobState::kDone));
  EXPECT_TRUE(is_terminal(JobState::kFailed));
  EXPECT_TRUE(is_terminal(JobState::kCancelled));
  EXPECT_FALSE(is_terminal(JobState::kRunning));
}

TEST(JobRecord, PersistsAndReloadsAtomically) {
  const std::string state = ::testing::TempDir() + "llp_job_record";
  fs::remove_all(state);
  JobRecord rec;
  rec.id = 17;
  rec.spec.name = "persist-me";
  rec.spec.steps = 77;
  rec.state = JobState::kPreempted;
  rec.steps_done = 31;
  rec.residual = 2.2780666679499829e-14;
  f3d::serve::write_job_record(state, rec);

  std::string error;
  const auto back =
      f3d::serve::read_job_record(f3d::serve::job_record_path(state, 17),
                                  &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(back->id, 17u);
  EXPECT_EQ(back->spec.name, "persist-me");
  EXPECT_EQ(back->state, JobState::kPreempted);
  EXPECT_EQ(back->steps_done, 31);
  EXPECT_EQ(back->residual, 2.2780666679499829e-14);
  // No stray temp files survive the atomic write.
  for (const auto& entry :
       fs::directory_iterator(f3d::serve::job_dir(state, 17))) {
    EXPECT_EQ(entry.path().filename().string().find(".tmp"),
              std::string::npos)
        << entry.path();
  }
  fs::remove_all(state);
}

TEST(JobRecord, RejectsGarbageAndOversizedFiles) {
  const std::string dir = ::testing::TempDir() + "llp_job_garbage";
  fs::remove_all(dir);
  fs::create_directories(dir);
  std::string error;
  EXPECT_FALSE(
      f3d::serve::read_job_record(dir + "/missing.json", &error).has_value());

  {
    std::ofstream out(dir + "/bad.json");
    out << "{\"id\": not json";
  }
  error.clear();
  EXPECT_FALSE(
      f3d::serve::read_job_record(dir + "/bad.json", &error).has_value());
  EXPECT_FALSE(error.empty());

  {
    std::ofstream out(dir + "/huge.json");
    out << std::string(1 << 20, ' ');  // over the record size guard
  }
  error.clear();
  EXPECT_FALSE(
      f3d::serve::read_job_record(dir + "/huge.json", &error).has_value());
  fs::remove_all(dir);
}

TEST(DoneEventLine, IsByteStable) {
  // f3d_run --serve-compat prints exactly this line; a drift here breaks
  // the cross-frontend parity check.
  EXPECT_EQ(f3d::serve::done_event_line(3, JobState::kDone, 5000,
                                        2.2780666679499829e-14),
            R"({"event":"done","final_residual":2.2780666679499829e-14,)"
            R"("job":3,"state":"done","steps":5000})");
  EXPECT_EQ(f3d::serve::done_event_line(1, JobState::kCancelled, 0, 0.0),
            R"({"event":"done","final_residual":0,"job":1,)"
            R"("state":"cancelled","steps":0})");
}

}  // namespace
