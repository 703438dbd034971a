// The server core, in-process and over the socket protocol: lifecycle,
// cancel semantics, drain, preemption, event streams, durable restart,
// and the protocol's rejection paths (malformed JSON, oversized lines,
// unknown verbs).
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <string>
#include <vector>

#include "serve/client.hpp"
#include "serve/job.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"

namespace fs = std::filesystem;

namespace {

using f3d::serve::Client;
using f3d::serve::JobSpec;
using f3d::serve::JobState;
using f3d::serve::JobStatus;
using f3d::serve::Json;
using f3d::serve::LineReader;
using f3d::serve::Server;
using f3d::serve::ServerConfig;
using f3d::serve::Socket;
using f3d::serve::write_line;

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "llp_serve_" + name;
  fs::remove_all(dir);
  return dir;
}

// A spec small enough to finish in well under a second on one lane.
JobSpec quick_spec(int steps = 5) {
  JobSpec s;
  s.n = 8;
  s.steps = steps;
  s.threads = 1;
  s.ckpt_every = 0;
  return s;
}

// A spec that runs long enough to observe/preempt/cancel mid-flight.
JobSpec slow_spec(int priority = 0) {
  JobSpec s;
  s.n = 20;
  s.steps = 100000;
  s.wall = true;
  s.pulse = 0.05;
  s.priority = priority;
  s.threads = 1;
  s.ckpt_every = 50;
  return s;
}

TEST(Server, RunsAJobToCompletionInProcess) {
  ServerConfig cfg;  // no socket, no state dir
  cfg.total_threads = 2;
  Server server(cfg);
  server.start();
  std::string error;
  const auto id = server.submit(quick_spec(), &error);
  ASSERT_NE(id, 0u) << error;
  JobStatus status;
  ASSERT_TRUE(server.wait_terminal(id, 30.0, &status));
  EXPECT_EQ(status.state, JobState::kDone);
  EXPECT_EQ(status.steps_done, 5);
  EXPECT_TRUE(std::isfinite(status.residual));
  server.stop();
}

TEST(Server, RunsManyConcurrentJobsWithFairShares) {
  ServerConfig cfg;
  cfg.total_threads = 4;
  cfg.max_running = 4;
  Server server(cfg);
  server.start();
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 4; ++i) {
    JobSpec s = quick_spec(8);
    s.threads = 0;  // let the fair-share policy size each job
    s.name = "tenant-" + std::to_string(i);
    std::string error;
    const auto id = server.submit(s, &error);
    ASSERT_NE(id, 0u) << error;
    ids.push_back(id);
  }
  for (const auto id : ids) {
    JobStatus status;
    ASSERT_TRUE(server.wait_terminal(id, 60.0, &status)) << id;
    EXPECT_EQ(status.state, JobState::kDone) << status.error;
  }
  // With 4 auto jobs over 4 lanes every tenant ran; the started events
  // carry the share each was given.
  std::size_t next = 0;
  const auto events = server.events_since(ids[0], 0, &next);
  bool saw_started = false;
  for (const auto& line : events) {
    if (line.find("\"event\":\"started\"") != std::string::npos) {
      saw_started = true;
      EXPECT_NE(line.find("\"threads\":"), std::string::npos) << line;
    }
  }
  EXPECT_TRUE(saw_started);
  server.stop();
}

TEST(Server, CancelIsIdempotentUntilTerminalThenAnError) {
  ServerConfig cfg;
  cfg.total_threads = 1;
  Server server(cfg);
  server.start();
  std::string error;
  const auto id = server.submit(slow_spec(), &error);
  ASSERT_NE(id, 0u) << error;
  EXPECT_TRUE(server.cancel(id, &error)) << error;
  // A second cancel while the first is still in flight is a no-op, not an
  // error (the client may race the runner).
  server.cancel(id, &error);
  JobStatus status;
  ASSERT_TRUE(server.wait_terminal(id, 30.0, &status));
  EXPECT_EQ(status.state, JobState::kCancelled);
  // …but cancelling a job that is already terminal is a client error.
  error.clear();
  EXPECT_FALSE(server.cancel(id, &error));
  EXPECT_NE(error.find("terminal"), std::string::npos) << error;
  // Unknown jobs are a different error.
  error.clear();
  EXPECT_FALSE(server.cancel(9999, &error));
  EXPECT_NE(error.find("unknown"), std::string::npos) << error;
  server.stop();
}

TEST(Server, DrainRefusesNewWorkButFinishesAdmittedWork) {
  ServerConfig cfg;
  cfg.total_threads = 1;
  Server server(cfg);
  server.start();
  std::string error;
  const auto id = server.submit(quick_spec(20), &error);
  ASSERT_NE(id, 0u) << error;
  EXPECT_FALSE(server.draining());
  server.drain();
  EXPECT_TRUE(server.draining());
  error.clear();
  EXPECT_EQ(server.submit(quick_spec(), &error), 0u);
  EXPECT_NE(error.find("draining"), std::string::npos) << error;
  JobStatus status;
  ASSERT_TRUE(server.wait_terminal(id, 30.0, &status));
  EXPECT_EQ(status.state, JobState::kDone);
  server.stop();
}

TEST(Server, HigherPriorityPreemptsTheWeakestRunningJob) {
  ServerConfig cfg;
  cfg.total_threads = 2;
  cfg.max_running = 1;  // force the conflict
  cfg.state_dir = fresh_dir("preempt");
  Server server(cfg);
  server.start();
  std::string error;
  const auto low = server.submit(slow_spec(/*priority=*/1), &error);
  ASSERT_NE(low, 0u) << error;

  // Wait until the low job actually runs, then outrank it.
  for (int i = 0; i < 200 && server.status(low)->state != JobState::kRunning;
       ++i) {
    ::usleep(10000);
  }
  ASSERT_EQ(server.status(low)->state, JobState::kRunning);

  const auto high = server.submit(quick_spec(5), &error);
  ASSERT_NE(high, 0u) << error;
  {
    auto s = server.status(high);
    ASSERT_TRUE(s.has_value());
  }
  // quick_spec has priority 0 — bump it above the victim.
  JobSpec hi = quick_spec(5);
  hi.priority = 9;
  const auto high2 = server.submit(hi, &error);
  ASSERT_NE(high2, 0u) << error;

  JobStatus hs;
  ASSERT_TRUE(server.wait_terminal(high2, 60.0, &hs));
  EXPECT_EQ(hs.state, JobState::kDone) << hs.error;

  // The victim was checkpoint-preempted at least once and is back in the
  // runnable set (or running again).
  const auto vs = server.status(low);
  ASSERT_TRUE(vs.has_value());
  EXPECT_GE(vs->preemptions, 1);
  EXPECT_FALSE(f3d::serve::is_terminal(vs->state));
  std::size_t next = 0;
  bool saw_preempted = false;
  for (const auto& line : server.events_since(low, 0, &next)) {
    saw_preempted |= line.find("\"event\":\"preempted\"") != std::string::npos;
  }
  EXPECT_TRUE(saw_preempted);

  server.cancel(low, &error);
  server.wait_terminal(low, 30.0, nullptr);
  server.stop();
  fs::remove_all(cfg.state_dir);
}

TEST(Server, StopPreemptsAndRestartResumesFromCheckpoints) {
  // Graceful-stop flavour of the durability story: stop() checkpoints the
  // running job; a new Server on the same state dir requeues and finishes
  // it, resuming from the durable generation rather than step zero.
  ServerConfig cfg;
  cfg.total_threads = 1;
  cfg.state_dir = fresh_dir("stop_resume");
  std::uint64_t id = 0;
  {
    Server server(cfg);
    server.start();
    JobSpec s = slow_spec();
    // Small enough that the resumed remainder finishes under TSan on one
    // CPU, big enough that the stop below always lands mid-flight (the
    // poll breaks out within ~2 checkpoint intervals of step 60).
    s.n = 12;
    s.steps = 1500;
    s.ckpt_every = 20;
    std::string error;
    id = server.submit(s, &error);
    ASSERT_NE(id, 0u) << error;
    for (int i = 0; i < 1000; ++i) {
      const auto st = server.status(id);
      if (st->steps_done > 60) break;
      ::usleep(10000);
    }
    server.stop();  // flushes a final generation
  }
  {
    Server server(cfg);
    server.start();
    const auto st = server.status(id);
    ASSERT_TRUE(st.has_value());
    // Recovery left the job healthy: queued, dispatched, or even already
    // done if the resumed runner outran this probe — anything but a
    // terminal failure. Resume evidence is the resumed_from_step check
    // below, not this snapshot.
    EXPECT_NE(st->state, JobState::kFailed) << st->error;
    EXPECT_NE(st->state, JobState::kCancelled);
    JobStatus done;
    ASSERT_TRUE(server.wait_terminal(id, 300.0, &done));
    EXPECT_EQ(done.state, JobState::kDone) << done.error;
    EXPECT_EQ(done.steps_done, 1500);
    // The second run reported where it picked up — far from step zero.
    EXPECT_GT(done.resumed_from_step, 0) << "job restarted from scratch";
    server.stop();
  }
  fs::remove_all(cfg.state_dir);
}

TEST(Server, EventsSinceHonorsCursorAndRetention) {
  ServerConfig cfg;
  cfg.total_threads = 1;
  Server server(cfg);
  server.start();
  std::string error;
  const auto id = server.submit(quick_spec(5), &error);
  ASSERT_NE(id, 0u) << error;
  ASSERT_TRUE(server.wait_terminal(id, 30.0, nullptr));
  std::size_t next = 0;
  const auto all = server.events_since(id, 0, &next);
  ASSERT_FALSE(all.empty());
  EXPECT_EQ(next, all.size());
  EXPECT_NE(all.front().find("\"event\":\"queued\""), std::string::npos);
  EXPECT_NE(all.back().find("\"event\":\"done\""), std::string::npos);
  // Cursor past the tail returns nothing and does not move backwards.
  std::size_t next2 = 0;
  EXPECT_TRUE(server.events_since(id, next, &next2).empty());
  EXPECT_EQ(next2, next);
  // Mid-stream cursor returns exactly the suffix.
  std::size_t next3 = 0;
  const auto tail = server.events_since(id, 2, &next3);
  EXPECT_EQ(tail.size(), all.size() - 2);
  server.stop();
}

// ---------------------------------------------------------------------------
// Protocol over a real unix socket.

struct SocketServer {
  ServerConfig cfg;
  Server server;
  explicit SocketServer(const std::string& name, int max_running = 2)
      : cfg(make_cfg(name, max_running)), server(cfg) {
    server.start();
  }
  ~SocketServer() {
    server.stop();
    ::unlink(cfg.socket_path.c_str());
  }
  static ServerConfig make_cfg(const std::string& name, int max_running) {
    ServerConfig c;
    c.socket_path = ::testing::TempDir() + "llp_serve_" + name + ".sock";
    c.total_threads = 2;
    c.max_running = max_running;
    return c;
  }
  Client client() {
    std::string err;
    Client c = Client::connect(cfg.socket_path, &err);
    EXPECT_TRUE(c.connected()) << err;
    return c;
  }
};

Json roundtrip(Client& client, const Json& req) {
  Json resp;
  std::string err;
  EXPECT_TRUE(client.request(req, &resp, &err)) << err;
  return resp;
}

TEST(ServeProtocol, PingPongs) {
  SocketServer s("ping");
  Client c = s.client();
  Json req;
  req["op"] = "ping";
  const Json resp = roundtrip(c, req);
  EXPECT_TRUE(resp.get_bool("ok"));
  EXPECT_TRUE(resp.get_bool("pong"));
}

TEST(ServeProtocol, MalformedJsonGetsAnErrorAndKeepsTheConnection) {
  SocketServer s("badjson");
  Client c = s.client();
  ASSERT_TRUE(write_line(c.fd(), "{this is not json"));
  std::string err;
  auto resp = c.read_json_line(&err);
  ASSERT_TRUE(resp.has_value()) << err;
  EXPECT_FALSE(resp->get_bool("ok", true));
  EXPECT_NE(resp->get_string("error").find("parse"), std::string::npos)
      << resp->dump();
  // The connection survives a parse error — a good request still works.
  Json req;
  req["op"] = "ping";
  EXPECT_TRUE(roundtrip(c, req).get_bool("ok"));
}

TEST(ServeProtocol, NonObjectRequestIsRejected) {
  SocketServer s("nonobject");
  Client c = s.client();
  ASSERT_TRUE(write_line(c.fd(), "[1,2,3]"));
  std::string err;
  auto resp = c.read_json_line(&err);
  ASSERT_TRUE(resp.has_value()) << err;
  EXPECT_FALSE(resp->get_bool("ok", true));
}

TEST(ServeProtocol, UnknownVerbIsRejected) {
  SocketServer s("verb");
  Client c = s.client();
  Json req;
  req["op"] = "frobnicate";
  const Json resp = roundtrip(c, req);
  EXPECT_FALSE(resp.get_bool("ok", true));
  EXPECT_NE(resp.get_string("error").find("unknown op"), std::string::npos)
      << resp.dump();
}

TEST(ServeProtocol, OversizedLineDropsTheConnection) {
  SocketServer s("oversize");
  Client c = s.client();
  // Stream well past the cap with no newline: the server must answer with
  // one error line and close — never buffer without bound.
  const std::string chunk(1 << 16, 'x');
  for (std::size_t sent = 0; sent <= f3d::serve::kMaxLine;) {
    const ssize_t n = ::send(c.fd(), chunk.data(), chunk.size(), MSG_NOSIGNAL);
    if (n <= 0) break;  // server already hung up
    sent += static_cast<std::size_t>(n);
  }
  std::string err;
  LineReader reader(c.fd());
  std::string line;
  // Either we see the error line followed by EOF, or the server closed
  // before we finished writing; both end in a dead connection.
  const auto first = reader.next_line(&line, &err);
  if (first == LineReader::Result::kLine) {
    EXPECT_NE(line.find("byte limit"), std::string::npos) << line;
    // The close may surface as a clean EOF or as ECONNRESET (the server
    // hung up with our unread bytes still in flight) — dead either way.
    const auto next = reader.next_line(&line, &err);
    EXPECT_NE(next, LineReader::Result::kLine) << line;
    EXPECT_NE(next, LineReader::Result::kOversize);
  }
  // A fresh connection still serves.
  Client c2 = s.client();
  Json req;
  req["op"] = "ping";
  EXPECT_TRUE(roundtrip(c2, req).get_bool("ok"));
}

TEST(ServeProtocol, SubmitStatusWaitAndDoubleCancel) {
  SocketServer s("lifecycle");
  Client c = s.client();

  Json submit;
  submit["op"] = "submit";
  Json spec;
  spec["n"] = 20;
  spec["steps"] = 100000;
  spec["wall"] = true;
  spec["pulse"] = 0.05;
  spec["threads"] = 1;
  submit["spec"] = spec;
  const Json sub = roundtrip(c, submit);
  ASSERT_TRUE(sub.get_bool("ok")) << sub.dump();
  const auto id = sub.get_int("job");
  ASSERT_GT(id, 0);

  Json status;
  status["op"] = "status";
  status["job"] = static_cast<double>(id);
  const Json st = roundtrip(c, status);
  EXPECT_TRUE(st.get_bool("ok")) << st.dump();
  EXPECT_EQ(st.get_int("job"), id);

  // A job id that is no integer is refused by name, not cast.
  ASSERT_TRUE(write_line(c.fd(), R"({"op":"status","job":1e300})"));
  std::string err;
  const auto huge = c.read_json_line(&err);
  ASSERT_TRUE(huge.has_value()) << err;
  EXPECT_FALSE(huge->get_bool("ok", true));
  EXPECT_EQ(huge->get_string("error").rfind("job ", 0), 0u) << huge->dump();

  Json cancel;
  cancel["op"] = "cancel";
  cancel["job"] = static_cast<double>(id);
  EXPECT_TRUE(roundtrip(c, cancel).get_bool("ok"));

  Json wait;
  wait["op"] = "wait";
  wait["job"] = static_cast<double>(id);
  const Json done = roundtrip(c, wait);
  EXPECT_TRUE(done.get_bool("ok")) << done.dump();
  EXPECT_EQ(done.get_string("state"), "cancelled");

  // Double-cancel of a terminal job: a protocol-level error, connection
  // stays up.
  const Json again = roundtrip(c, cancel);
  EXPECT_FALSE(again.get_bool("ok", true));
  EXPECT_NE(again.get_string("error").find("terminal"), std::string::npos)
      << again.dump();
  Json ping;
  ping["op"] = "ping";
  EXPECT_TRUE(roundtrip(c, ping).get_bool("ok"));
}

TEST(ServeProtocol, SubmitWhileDrainingIsRefused) {
  SocketServer s("drain");
  Client c = s.client();
  Json drain;
  drain["op"] = "drain";
  EXPECT_TRUE(roundtrip(c, drain).get_bool("ok"));

  Json submit;
  submit["op"] = "submit";
  submit["spec"] = Json(Json::Object{});
  const Json resp = roundtrip(c, submit);
  EXPECT_FALSE(resp.get_bool("ok", true));
  EXPECT_NE(resp.get_string("error").find("draining"), std::string::npos)
      << resp.dump();
}

TEST(ServeProtocol, EventStreamEndsWithDoneOrEndMarker) {
  SocketServer s("events");
  Client c = s.client();
  Json submit;
  submit["op"] = "submit";
  Json spec;
  spec["n"] = 8;
  spec["steps"] = 5;
  spec["threads"] = 1;
  spec["ckpt_every"] = 0;
  submit["spec"] = spec;
  const Json sub = roundtrip(c, submit);
  ASSERT_TRUE(sub.get_bool("ok")) << sub.dump();
  const auto id = sub.get_int("job");

  Json wait;
  wait["op"] = "wait";
  wait["job"] = static_cast<double>(id);
  ASSERT_TRUE(roundtrip(c, wait).get_bool("ok"));

  // Follow-mode stream of a finished job: replays history, ends at the
  // terminal done event, and the connection returns to request mode.
  Json events;
  events["op"] = "events";
  events["job"] = static_cast<double>(id);
  events["from"] = 0;
  events["follow"] = true;
  std::string err;
  ASSERT_TRUE(c.send(events, &err)) << err;
  bool saw_done = false;
  for (int i = 0; i < 64 && !saw_done; ++i) {
    const auto line = c.read_json_line(&err);
    ASSERT_TRUE(line.has_value()) << err;
    saw_done = line->get_string("event") == "done";
  }
  EXPECT_TRUE(saw_done);
  Json ping;
  ping["op"] = "ping";
  EXPECT_TRUE(roundtrip(c, ping).get_bool("ok"));

  // Unknown job: the stream is refused with a normal error response.
  Json bad;
  bad["op"] = "events";
  bad["job"] = 9999;
  const Json refused = roundtrip(c, bad);
  EXPECT_FALSE(refused.get_bool("ok", true));

  // A cursor that is no integer is refused by name.
  bad["job"] = static_cast<double>(id);
  bad["from"] = 1.5;
  const Json fractional = roundtrip(c, bad);
  EXPECT_FALSE(fractional.get_bool("ok", true));
  EXPECT_EQ(fractional.get_string("error").rfind("from ", 0), 0u)
      << fractional.dump();
}

TEST(ServeProtocol, ShutdownOpFlagsTheDaemonLoop) {
  SocketServer s("shutdown");
  Client c = s.client();
  EXPECT_FALSE(s.server.shutdown_requested());
  Json req;
  req["op"] = "shutdown";
  EXPECT_TRUE(roundtrip(c, req).get_bool("ok"));
  EXPECT_TRUE(s.server.shutdown_requested());
  EXPECT_TRUE(s.server.wait_shutdown(0.0));
}

}  // namespace
