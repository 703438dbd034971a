// serve_jobs: the same solver used as a service — many short fresh solves
// through an in-process serve::Server on a socket, driven closed-loop by
// client connections, with one client at a higher priority so running jobs
// are preempted at a checkpoint and resumed from it.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "core/llp.hpp"
#include "f3d/solver.hpp"
#include "serve/client.hpp"
#include "serve/job.hpp"
#include "serve/server.hpp"
#include "util/format.hpp"
#include "workloads.hpp"

namespace bench {

namespace {

namespace serve = f3d::serve;

struct JobClass {
  const char* case_name;
  const char* mode;
  bool wall_and_pulse;
};

// cube: wall + pulse on the pencil engine's non-periodic path; vortex:
// periodic, so the cyclic (non-batched) sweep path of the simd engine.
constexpr JobClass kClasses[] = {{"cube", "risc", true},
                                 {"vortex", "simd", false}};
constexpr int kGridN = 14;
constexpr int kJobSteps = 30;
constexpr int kCkptEvery = 10;
constexpr int kClients = 4;
constexpr int kHighPriority = 5;  // client 0; the others submit at 0
constexpr int kLanes = 2;
constexpr int kSetups = 5;

serve::JobSpec make_spec(const JobClass& c, double amp, int priority) {
  serve::JobSpec s;
  s.name = std::string(c.case_name) + "-" + c.mode;
  s.case_name = c.case_name;
  s.n = kGridN;
  s.steps = kJobSteps;
  s.mode = c.mode;
  s.wall = c.wall_and_pulse;
  s.pulse = c.wall_and_pulse ? amp : 0.0;
  s.priority = priority;
  s.threads = 1;
  s.ckpt_every = kCkptEvery;
  return s;
}

struct JobRecord {
  int cls = 0;
  double t_send = 0, t_ack = 0, t_started = -1, t_last_started = -1,
         t_done = -1;
  int preemptions = 0, ckpts = 0, steps = 0;
  bool traced = false;
  std::string state;
  double residual = std::nan("");
  std::string error;
};

// One closed-loop client: submit, stream the job's events to its terminal
// line, repeat until the deadline.
void client_jobs(const std::string& socket, int client, std::uint64_t seed,
                 double amp, double deadline, bool trace_alternate,
                 std::vector<JobRecord>* out) {
  std::string err;
  serve::Client cl = serve::Client::connect(socket, &err);
  if (!cl.connected()) {
    JobRecord r;
    r.error = "connect: " + err;
    out->push_back(r);
    return;
  }
  const int priority = client == 0 ? kHighPriority : 0;
  for (std::uint64_t j = 0; now_s() < deadline; ++j) {
    JobRecord r;
    r.cls = static_cast<int>(mix_seed(seed, 1000 + client * 100003 + j) %
                             std::size(kClasses));
    r.traced = trace_alternate && j % 2 == 0;
    const std::int64_t span_id = client * 1000000 + static_cast<std::int64_t>(j);
    spans::Scope job_span("serve::job", span_id, r.traced);
    serve::Json req;
    req["op"] = "submit";
    req["spec"] = make_spec(kClasses[r.cls], amp, priority).to_json();
    serve::Json resp;
    r.t_send = now_s();
    {
      spans::Scope s("serve::Client::request(submit)", span_id, r.traced);
      if (!cl.request(req, &resp, &err)) {
        r.error = "submit: " + err;
        out->push_back(r);
        return;
      }
    }
    r.t_ack = now_s();
    if (!resp.get_bool("ok")) {
      r.error = "submit refused: " + resp.get_string("error");
      out->push_back(r);
      return;
    }
    serve::Json ev_req;
    ev_req["op"] = "events";
    ev_req["job"] = resp.get_double("job");
    ev_req["follow"] = true;
    if (!cl.send(ev_req, &err)) {
      r.error = "events: " + err;
      out->push_back(r);
      return;
    }
    std::optional<spans::Scope> phase;
    phase.emplace("serve::queue_wait", span_id, r.traced);
    while (true) {
      const auto line = cl.read_json_line(&err);
      if (!line.has_value()) {
        r.error = "event stream: " + err;
        break;
      }
      const std::string ev = line->get_string("event");
      if (ev == "started") {
        r.t_last_started = now_s();
        if (r.t_started < 0) {
          r.t_started = r.t_last_started;
          phase.reset();
          phase.emplace("serve::run", span_id, r.traced);
        }
      } else if (ev == "preempted") {
        ++r.preemptions;
      } else if (ev == "ckpt") {
        ++r.ckpts;
      } else if (ev == "done") {
        r.t_done = now_s();
        r.state = line->get_string("state");
        r.steps = static_cast<int>(line->get_int("steps"));
        r.residual = line->get_double("final_residual", std::nan(""));
        break;
      } else if (line->find("end") != nullptr) {
        r.error = "event stream ended before the job";
        break;
      }
    }
    phase.reset();
    const bool broken = !r.error.empty();
    out->push_back(r);
    if (broken) return;
  }
}

// Thread entry: an exception ends this client's loop as a recorded failure.
void client_loop(const std::string& socket, int client, std::uint64_t seed,
                 double amp, double deadline, bool trace_alternate,
                 std::vector<JobRecord>* out) {
  try {
    client_jobs(socket, client, seed, amp, deadline, trace_alternate, out);
  } catch (const std::exception& e) {
    JobRecord r;
    r.error = std::string("client: ") + e.what();
    out->push_back(r);
  }
}

// The direct, unpreempted run of a spec on a private 1-lane runtime: the
// residual every served job of that spec must reproduce to the bit, and
// the per-step layer breakdown of the served solver.
double direct_run(const serve::JobSpec& spec, StepBreakdown* breakdown) {
  llp::Runtime rt(1);
  auto grid = serve::build_case_grid(spec);
  f3d::SolverConfig cfg = serve::build_solver_config(spec);
  cfg.region_prefix = spec.mode;
  f3d::Solver solver(grid, cfg, rt);
  const auto before = rt.regions().snapshot();
  const double t0 = now_s();
  for (int s = 0; s < spec.steps; ++s) solver.step();
  *breakdown = registry_delta(before, rt.regions().snapshot(), spec.mode,
                              spec.steps, now_s() - t0);
  breakdown->flops_per_step = solver.flops_per_step();
  breakdown->bytes_per_step = solver.bytes_per_step();
  return solver.residual();
}

std::unique_ptr<serve::Server> start_server(const std::string& dir, int k) {
  serve::ServerConfig cfg;
  cfg.socket_path = llp::strfmt("%s/s%d.sock", dir.c_str(), k);
  cfg.state_dir = llp::strfmt("%s/state%d", dir.c_str(), k);
  cfg.total_threads = kLanes;
  cfg.max_running = kLanes;
  auto server = std::make_unique<serve::Server>(cfg);
  server->start();
  return server;
}

// Set-up as a user pays it: start the server, connect, and push one job of
// each class through it so lazy state (directories, pools) exists.
void warm_up(const serve::Server& server, double amp) {
  std::string err;
  serve::Client cl = serve::Client::connect(server.config().socket_path, &err);
  if (!cl.connected()) throw std::runtime_error("connect: " + err);
  for (const JobClass& c : kClasses) {
    serve::Json req;
    req["op"] = "submit";
    req["spec"] = make_spec(c, amp, 0).to_json();
    serve::Json resp;
    if (!cl.request(req, &resp, &err) || !resp.get_bool("ok")) {
      throw std::runtime_error("warm-up submit failed: " + err);
    }
    serve::Json wait;
    wait["op"] = "wait";
    wait["job"] = resp.get_double("job");
    if (!cl.request(wait, &resp, &err) || resp.get_string("state") != "done") {
      throw std::runtime_error("warm-up job did not finish: " + err);
    }
  }
}

}  // namespace

ServeSession serve_session(const RunArgs& args, double seconds,
                           bool trace_alternate, std::vector<double>* setups,
                           double* setup_rss_mb) {
  ServeSession out;
  const double amp = pulse_amplitude(args.seed);
  std::filesystem::create_directories(args.work_dir);

  std::unique_ptr<serve::Server> server;
  for (int k = 0; k < kSetups; ++k) {
    if (server != nullptr) server->stop();
    server.reset();
    spans::Scope s("serve::setup", k);
    const double t0 = now_s();
    server = start_server(args.work_dir, k);
    warm_up(*server, amp);
    if (setups != nullptr) setups->push_back(now_s() - t0);
  }
  if (setup_rss_mb != nullptr) *setup_rss_mb = peak_rss_mb();

  std::vector<std::vector<JobRecord>> records(kClients);
  const double t_start = now_s();
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back(client_loop, server->config().socket_path, c,
                           args.seed, amp, t_start + seconds, trace_alternate,
                           &records[static_cast<std::size_t>(c)]);
    }
    for (std::thread& t : clients) t.join();
  }
  server->stop();
  server.reset();

  // Reference residuals, one direct run per class.
  std::vector<double> reference;
  for (const JobClass& c : kClasses) {
    StepBreakdown b;
    reference.push_back(direct_run(make_spec(c, amp, 0), &b));
    out.direct[c.mode] = b;
  }

  double last_done = t_start;
  std::map<std::string, std::vector<double>> traced_step_s;
  for (const auto& per_client : records) {
    for (const JobRecord& r : per_client) {
      ++out.attempted;
      const JobClass& c = kClasses[r.cls];
      const std::string tag = llp::strfmt("%s-%s", c.case_name, c.mode);
      if (!r.error.empty()) {
        out.failures.push_back(tag + ": " + r.error);
        continue;
      }
      if (r.state != "done" || r.steps != kJobSteps) {
        out.failures.push_back(llp::strfmt("%s: ended %s at step %d",
                                           tag.c_str(), r.state.c_str(),
                                           r.steps));
        continue;
      }
      const double ref = reference[static_cast<std::size_t>(r.cls)];
      if (!(r.residual == ref) || ref == 0.0) {
        out.failures.push_back(llp::strfmt(
            "%s: residual %.17g, direct unpreempted run %.17g (%d "
            "preemptions)",
            tag.c_str(), r.residual, ref, r.preemptions));
        continue;
      }
      last_done = std::max(last_done, r.t_done);
      out.latency_s.push_back(r.t_done - r.t_send);
      out.queue_wait_s.push_back(r.t_started - r.t_ack);
      out.run_s.push_back(r.t_done - r.t_started);
      out.rtt_s.push_back(r.t_ack - r.t_send);
      out.preemptions += r.preemptions;
      out.ckpt_generations += r.ckpts;
      if (r.preemptions == 0) {
        (r.traced ? traced_step_s : out.step_s)[c.mode].push_back(
            (r.t_done - r.t_last_started) / kJobSteps);
      }
    }
  }
  out.wall_s = last_done - t_start;
  if (!traced_step_s.empty()) {
    for (const auto& [engine, v] : traced_step_s) {
      out.trace_overhead += median(v) - median(out.step_s[engine]);
    }
    out.trace_overhead /= static_cast<double>(traced_step_s.size());
  }
  std::error_code ec;
  std::filesystem::remove_all(args.work_dir, ec);
  return out;
}

void report_serve_layers(Report& r, const ServeSession& s) {
  const double jobs = std::max<double>(1.0, static_cast<double>(s.latency_s.size()));
  r.metric("serve.queue_wait_s", median(s.queue_wait_s), "s");
  r.metric("serve.run_s", median(s.run_s), "s");
  r.metric("serve.rtt_us", median(s.rtt_s) * 1e6, "us");
  r.metric("serve.preemptions_per_job", s.preemptions / jobs, "count");
  r.metric("ckpt.generations_per_job", s.ckpt_generations / jobs, "count");
}

void run_serve(const RunArgs& args, RunResult& out) {
  std::printf("serve_jobs: %d clients (client 0 at priority %d), %d lanes, "
              "max_running %d, %d-step jobs of cube/vortex n=%d, pulse "
              "%.3f\n",
              kClients, kHighPriority, kLanes, kLanes, kJobSteps, kGridN,
              pulse_amplitude(args.seed));
  std::vector<double> setups;
  spans::set_enabled(args.trace);  // set-up spans; jobs alternate below
  const ServeSession s = serve_session(args, args.seconds, args.trace,
                                       &setups, &out.setup_rss_mb);
  spans::set_enabled(false);
  out.attempted += s.attempted;
  out.failures.insert(out.failures.end(), s.failures.begin(),
                      s.failures.end());
  Report& r = out.report;
  r.note(llp::strfmt("%ld jobs attempted, %zu completed correctly in %.1f s; "
                     "%.0f preemptions",
                     s.attempted, s.latency_s.size(), s.wall_s,
                     s.preemptions));
  for (const char* e : {"risc", "simd"}) {
    r.note(llp::strfmt("speedup.%s: n/a (1-lane jobs on serve_jobs)", e));
  }
  if (!args.trace) {
    r.metric("setup_s", median(setups), "s");
    for (const JobClass& c : kClasses) {
      const auto it = s.step_s.find(c.mode);
      r.metric(std::string("step_s.") + c.mode,
               it == s.step_s.end() ? std::nan("") : median(it->second), "s");
      r.note(llp::strfmt("step_s.%s over %zu unpreempted %s-%s jobs "
                         "(started to done / steps)",
                         c.mode,
                         it == s.step_s.end() ? 0 : it->second.size(),
                         c.case_name, c.mode));
    }
    r.metric("jobs_per_s",
             static_cast<double>(s.latency_s.size()) / s.wall_s, "1/s");
    r.metric("job_latency_s.p50", quantile(s.latency_s, 0.5), "s");
    r.metric("job_latency_s.p90", quantile(s.latency_s, 0.9), "s");
    r.note(llp::strfmt("job_latency_s (submit to done) over %zu jobs",
                       s.latency_s.size()));
    return;
  }
  report_serve_layers(r, s);
  for (const auto& [engine, b] : s.direct) report_breakdown(r, engine, b);
  const StepBreakdown& risc = s.direct.at("risc");
  const double n = std::max(1.0, risc.steps);
  r.metric("core.forks_per_step", risc.forks / n, "count");
  r.metric("core.serial_s", risc.serial_s / n, "s");
  r.metric("f3d.flops_per_step", risc.flops_per_step, "flop");
  r.metric("f3d.bytes_per_step", risc.bytes_per_step, "B");
  r.metric("bench.trace_overhead", s.trace_overhead, "s");
  r.note("bench.trace_overhead: traced minus untraced served step_s "
         "(alternate jobs traced), mean over the engines");
}

}  // namespace bench
