#include "serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <optional>
#include <utility>

#include <unistd.h>

#include "ckpt/checkpoint.hpp"
#include "core/runtime.hpp"
#include "serve/scheduler.hpp"
#include "util/error.hpp"
#include "util/format.hpp"

namespace f3d::serve {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

namespace {

// Per-job event retention: enough to replay a long run's recent history
// without letting a million-step job grow an unbounded log. Old lines are
// dropped from the front in blocks; events_base tracks absolute indexing.
constexpr std::size_t kMaxEventLines = 8192;
constexpr std::size_t kEventDropBlock = 1024;

Json error_response(const std::string& message) {
  Json j;
  j["ok"] = false;
  j["error"] = message;
  return j;
}

}  // namespace

Json JobStatus::to_json() const {
  Json j;
  j["ok"] = true;
  j["job"] = static_cast<double>(id);
  j["name"] = spec.name;
  j["case"] = spec.case_name;
  j["state"] = job_state_name(state);
  j["priority"] = spec.priority;
  j["steps"] = steps_done;
  j["target_steps"] = spec.steps;
  j["residual"] = residual;
  j["threads"] = threads;
  j["preemptions"] = preemptions;
  if (resumed_from_step >= 0) j["resumed_from_step"] = resumed_from_step;
  if (!error.empty()) j["error"] = error;
  return j;
}

Server::Server(ServerConfig cfg) : cfg_(std::move(cfg)) {
  if (cfg_.total_threads <= 0) {
    cfg_.total_threads = llp::Runtime::instance().num_threads();
  }
  LLP_REQUIRE(cfg_.max_running >= 1, "max_running must be >= 1");
  LLP_REQUIRE(cfg_.keep_generations >= 1, "keep_generations must be >= 1");
}

Server::~Server() { stop(); }

void Server::start() {
  LLP_REQUIRE(!started_, "server already started");
  recover_state();
  if (!cfg_.socket_path.empty()) {
    std::string err;
    listen_sock_ = listen_unix(cfg_.socket_path, cfg_.backlog, &err);
    if (!listen_sock_.valid()) {
      throw llp::Error("serve: " + err);
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    started_ = true;
  }
  scheduler_ = std::thread(&Server::scheduler_loop, this);
  if (listen_sock_.valid()) {
    acceptor_ = std::thread(&Server::accept_loop, this);
  }
}

void Server::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_ || stopping_) return;
    stopping_ = true;
    draining_ = true;
    // Graceful: every running job checkpoints and requeues, exactly the
    // preemption path — restart picks them all up from their newest
    // generation.
    for (auto& [id, job] : jobs_) {
      if (job->state == JobState::kRunning) job->preempt_requested = true;
    }
    cv_.notify_all();
    events_cv_.notify_all();
  }
  if (acceptor_.joinable()) acceptor_.join();
  for (auto& s : sessions_) s->sock.shutdown_both();
  for (auto& s : sessions_) {
    if (s->thread.joinable()) s->thread.join();
  }
  sessions_.clear();
  if (scheduler_.joinable()) scheduler_.join();
  listen_sock_.close();
  if (!cfg_.socket_path.empty()) ::unlink(cfg_.socket_path.c_str());
}

void Server::recover_state() {
  if (cfg_.state_dir.empty()) return;
  const fs::path jobs_root = fs::path(cfg_.state_dir) / "jobs";
  std::error_code ec;
  if (!fs::is_directory(jobs_root, ec)) return;

  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& entry : fs::directory_iterator(jobs_root, ec)) {
    std::string error;
    auto record =
        read_job_record((entry.path() / "job.json").string(), &error);
    if (!record.has_value()) continue;  // torn/alien dirs are not jobs
    auto job = std::make_unique<Job>();
    job->id = record->id;
    job->seq = record->id;  // admission order == id order for recovery
    job->spec = record->spec;
    job->steps_done = record->steps_done;
    job->residual = record->residual;
    job->error = record->error;
    if (is_terminal(record->state)) {
      job->state = record->state;
    } else {
      // The daemon died with this job in flight. Requeue it; its runner
      // resumes from the newest intact checkpoint generation.
      job->state = JobState::kQueued;
      Json e;
      e["event"] = "recovered";
      e["job"] = static_cast<double>(job->id);
      e["step"] = job->steps_done;
      push_event_locked(*job, e.dump());
      persist_job_locked(*job);
    }
    next_id_ = std::max(next_id_, job->id + 1);
    jobs_.emplace(job->id, std::move(job));
  }
  next_seq_ = next_id_;
}

// ---- public API ------------------------------------------------------

std::uint64_t Server::submit(const JobSpec& spec, std::string* error) {
  std::lock_guard<std::mutex> lock(mu_);
  if (stopping_ || draining_) {
    if (error != nullptr) {
      *error = stopping_ ? "server is stopping" : "server is draining";
    }
    return 0;
  }
  auto job = std::make_unique<Job>();
  job->id = next_id_++;
  job->seq = next_seq_++;
  job->spec = spec;
  Job* raw = job.get();
  jobs_.emplace(raw->id, std::move(job));
  Json e;
  e["event"] = "queued";
  e["job"] = static_cast<double>(raw->id);
  e["priority"] = spec.priority;
  push_event_locked(*raw, e.dump());
  persist_job_locked(*raw);
  // Dispatch here rather than through the scheduler thread: the job's
  // runner starts one hand-off sooner.
  if (started_) dispatch_locked();
  return raw->id;
}

std::optional<JobStatus> Server::status(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  Job* job = find_job_locked(id);
  if (job == nullptr) return std::nullopt;
  return status_locked(*job);
}

std::vector<JobStatus> Server::list() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<JobStatus> out;
  out.reserve(jobs_.size());
  for (auto& [id, job] : jobs_) out.push_back(status_locked(*job));
  return out;
}

bool Server::cancel(std::uint64_t id, std::string* error) {
  std::lock_guard<std::mutex> lock(mu_);
  Job* job = find_job_locked(id);
  if (job == nullptr) {
    if (error != nullptr) *error = "unknown job " + std::to_string(id);
    return false;
  }
  if (is_terminal(job->state)) {
    if (error != nullptr) {
      *error = llp::strfmt("job %llu already terminal (%s)",
                           static_cast<unsigned long long>(id),
                           job_state_name(job->state));
    }
    return false;
  }
  job->cancel_requested = true;  // idempotent while the job is live
  cv_.notify_all();
  return true;
}

void Server::drain() {
  std::lock_guard<std::mutex> lock(mu_);
  draining_ = true;
}

bool Server::draining() {
  std::lock_guard<std::mutex> lock(mu_);
  return draining_;
}

bool Server::wait_terminal(std::uint64_t id, double timeout_s,
                           JobStatus* out) {
  std::unique_lock<std::mutex> lock(mu_);
  Job* job = find_job_locked(id);
  if (job == nullptr) return false;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timeout_s < 0 ? 0 : timeout_s));
  while (!is_terminal(job->state) && !stopping_) {
    if (timeout_s < 0) {
      cv_.wait_for(lock, 200ms);
    } else {
      if (cv_.wait_until(lock, deadline) == std::cv_status::timeout &&
          std::chrono::steady_clock::now() >= deadline) {
        break;
      }
    }
  }
  if (out != nullptr) *out = status_locked(*job);
  return is_terminal(job->state);
}

std::vector<std::string> Server::events_since(std::uint64_t id,
                                              std::size_t from,
                                              std::size_t* next) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  Job* job = find_job_locked(id);
  if (job == nullptr) {
    if (next != nullptr) *next = from;
    return out;
  }
  std::size_t cursor = std::max(from, job->events_base);
  for (; cursor < job->events_base + job->events.size(); ++cursor) {
    out.push_back(job->events[cursor - job->events_base]);
  }
  if (next != nullptr) *next = cursor;
  return out;
}

bool Server::shutdown_requested() {
  std::lock_guard<std::mutex> lock(mu_);
  return shutdown_requested_;
}

bool Server::wait_shutdown(double timeout_s) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait_for(lock, std::chrono::duration<double>(timeout_s),
               [&] { return shutdown_requested_ || stopping_; });
  return shutdown_requested_;
}

// ---- internals (mu_ held) --------------------------------------------

Server::Job* Server::find_job_locked(std::uint64_t id) {
  auto it = jobs_.find(id);
  return it == jobs_.end() ? nullptr : it->second.get();
}

JobStatus Server::status_locked(const Job& job) const {
  JobStatus s;
  s.id = job.id;
  s.spec = job.spec;
  s.state = job.state;
  s.steps_done = job.steps_done;
  s.residual = job.residual;
  s.threads = job.state == JobState::kRunning ? job.threads : 0;
  s.resumed_from_step = job.resumed_from_step;
  s.preemptions = job.preemptions;
  s.error = job.error;
  return s;
}

void Server::push_event_locked(Job& job, std::string line) {
  job.events.push_back(std::move(line));
  if (job.events.size() > kMaxEventLines) {
    job.events.erase(job.events.begin(),
                     job.events.begin() + kEventDropBlock);
    job.events_base += kEventDropBlock;
  }
  events_cv_.notify_all();
}

void Server::persist_job_locked(Job& job) {
  if (cfg_.state_dir.empty()) return;
  JobRecord record;
  record.id = job.id;
  record.spec = job.spec;
  record.state = job.state;
  record.steps_done = job.steps_done;
  record.residual = job.residual;
  record.error = job.error;
  try {
    write_job_record(cfg_.state_dir, record);
  } catch (const llp::IoError& e) {
    // A failed record write must not take the job down; the previous
    // record still stands and the event log says what happened.
    Json ev;
    ev["event"] = "record_write_failed";
    ev["job"] = static_cast<double>(job.id);
    ev["error"] = std::string(e.what());
    push_event_locked(job, ev.dump());
  }
}

// ---- scheduler -------------------------------------------------------

void Server::reap_runners(std::unique_lock<std::mutex>& lock) {
  for (auto& [id, job] : jobs_) {
    if (job->runner_done && job->runner.joinable()) {
      std::thread th = std::move(job->runner);
      job->runner_done = false;
      lock.unlock();
      th.join();
      lock.lock();
    }
  }
}

void Server::scheduler_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    reap_runners(lock);
    if (stopping_) {
      bool busy = false;
      for (auto& [id, job] : jobs_) {
        if (job->state == JobState::kRunning || job->runner.joinable() ||
            job->runner_done) {
          busy = true;
          break;
        }
      }
      if (!busy) break;
    } else {
      dispatch_locked();
    }
    cv_.wait_for(lock, 200ms);
  }
}

void Server::dispatch_locked() {
  while (true) {
    // Queued jobs already cancelled never need a runner.
    for (auto& [id, job] : jobs_) {
      if (is_runnable(job->state) && job->cancel_requested &&
          !job->runner.joinable()) {
        job->state = JobState::kCancelled;
        push_event_locked(*job, done_event_line(job->id, job->state,
                                                job->steps_done,
                                                job->residual));
        persist_job_locked(*job);
        cv_.notify_all();
      }
    }

    std::vector<Job*> running;
    std::vector<SchedJob> queued;
    std::vector<Job*> queued_jobs;
    for (auto& [id, job] : jobs_) {
      if (job->state == JobState::kRunning) running.push_back(job.get());
      if (is_runnable(job->state) && !job->runner.joinable() &&
          !job->runner_done) {
        queued.push_back(SchedJob{job->id, job->seq, job->spec.priority,
                                  job->spec.threads});
        queued_jobs.push_back(job.get());
      }
    }
    const auto next = pick_next(queued);
    if (!next.has_value()) return;
    Job* incoming = queued_jobs[*next];

    if (static_cast<int>(running.size()) >= cfg_.max_running) {
      // Full house: the incoming job may evict a strictly weaker one.
      std::vector<SchedJob> running_sched;
      running_sched.reserve(running.size());
      for (Job* j : running) {
        running_sched.push_back(
            SchedJob{j->id, j->seq, j->spec.priority, j->spec.threads});
      }
      const auto victim =
          pick_victim(running_sched, incoming->spec.priority);
      if (victim.has_value()) {
        running[*victim]->preempt_requested = true;
        cv_.notify_all();
      }
      return;  // either way, wait for a slot to free
    }

    // Start the incoming job with its fair share of the pool; refresh the
    // shares of every auto job already running (their runners apply the
    // new count between steps).
    running.push_back(incoming);
    std::vector<int> pins;
    pins.reserve(running.size());
    for (Job* j : running) pins.push_back(j->spec.threads);
    const std::vector<int> shares = fair_shares(cfg_.total_threads, pins);
    for (std::size_t i = 0; i < running.size(); ++i) {
      running[i]->desired_threads = shares[i];
    }
    incoming->threads = shares.back();
    incoming->state = JobState::kRunning;
    incoming->preempt_requested = false;
    Json e;
    e["event"] = "started";
    e["job"] = static_cast<double>(incoming->id);
    e["threads"] = incoming->threads;
    push_event_locked(*incoming, e.dump());
    persist_job_locked(*incoming);
    incoming->runner = std::thread(&Server::runner_loop, this, incoming);
  }
}

// ---- the per-job runner ----------------------------------------------

void Server::runner_loop(Job* job) {
  JobSpec spec;
  int threads = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    spec = job->spec;
    threads = job->threads;
  }

  // Terminal outcome, decided inside the try block and committed at the
  // bottom so every exit path shares one bookkeeping sequence.
  JobState final_state = JobState::kFailed;
  std::string failure;
  int final_steps = 0;
  double final_residual = std::numeric_limits<double>::quiet_NaN();

  try {
    // THE tenant boundary: this job's own runtime. Every loop the solver
    // runs, every event its checkpoint writer emits, and every region it
    // defines lives here — invisible to other jobs and to the process
    // default.
    llp::Runtime rt(threads);
    llp::RuntimeScope rt_scope(rt);

    // Forward the runtime's durability/recovery events into the job's
    // protocol event stream. Step events are pushed by the loop below
    // (they need the residual, which core events do not carry).
    struct Forwarder final : llp::RuntimeObserver {
      Server* srv;
      Job* job;
      void on_event(const llp::Event& ev) override {
        if (ev.kind != llp::EventKind::kCkptDurable &&
            ev.kind != llp::EventKind::kRollback) {
          return;
        }
        Json e;
        e["job"] = static_cast<double>(job->id);
        if (ev.kind == llp::EventKind::kCkptDurable) {
          e["event"] = "ckpt";
          e["generation"] = static_cast<double>(ev.a);
          e["step"] = static_cast<double>(ev.b);
        } else {
          e["event"] = "rollback";
          e["step"] = static_cast<double>(ev.a);
        }
        std::lock_guard<std::mutex> lock(srv->mu_);
        srv->push_event_locked(*job, e.dump());
      }
    } forwarder;
    forwarder.srv = this;
    forwarder.job = job;
    rt.add_observer(&forwarder);
    struct ObserverGuard {
      llp::Runtime& rt;
      Forwarder& fwd;
      ~ObserverGuard() { rt.remove_observer(&fwd); }
    } observer_guard{rt, forwarder};

    auto grid = build_case_grid(spec);
    const f3d::SolverConfig cfg = build_solver_config(spec);

    std::unique_ptr<f3d::ckpt::CheckpointStore> store;
    if (!cfg_.state_dir.empty()) {
      f3d::ckpt::Config cc;
      cc.dir = job_ckpt_dir(cfg_.state_dir, job->id);
      cc.every = spec.ckpt_every;  // <= 0: flush-only (preemption still works)
      cc.keep_generations = cfg_.keep_generations;
      cc.meta = spec.fingerprint();
      store = std::make_unique<f3d::ckpt::CheckpointStore>(cc);
    }

    // Resume ladder (same walk as f3d_run --restart=auto): newest intact
    // generation whose first replay verifies wins; no generation, or all
    // rejected, means a fresh start.
    std::optional<f3d::Solver> solver;
    if (store != nullptr) {
      for (const int gen : store->generations()) {
        solver.reset();
        grid = build_case_grid(spec);
        f3d::ckpt::Manifest man;
        try {
          man = store->load(gen, grid);
        } catch (const llp::IoError&) {
          continue;
        }
        solver.emplace(grid, cfg, rt);
        solver->restore(man.state);
        std::string why;
        if (!f3d::ckpt::verify_first_replay(
                *solver, man, store->config().replay_tol, &why)) {
          continue;
        }
        Json e;
        e["event"] = "resumed";
        e["job"] = static_cast<double>(job->id);
        e["generation"] = gen;
        e["step"] = man.state.steps;
        std::lock_guard<std::mutex> lock(mu_);
        job->resumed_from_step = man.state.steps;
        job->steps_done = solver->steps_taken();
        job->residual = solver->residual();
        push_event_locked(*job, e.dump());
        break;
      }
      if (!solver.has_value()) grid = build_case_grid(spec);
    }
    if (!solver.has_value()) solver.emplace(grid, cfg, rt);

    bool cancelled = false;
    bool preempted = false;
    while (solver->steps_taken() < spec.steps) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (job->cancel_requested) {
          cancelled = true;
          break;
        }
        if (job->preempt_requested) {
          preempted = true;
          break;
        }
        // Fair-share rebalance: auto jobs track the scheduler's current
        // share between steps; pinned jobs never change lane count (their
        // residual trajectory is part of the contract).
        if (spec.threads == 0 && job->desired_threads > 0 &&
            job->desired_threads != rt.num_threads()) {
          rt.set_num_threads(job->desired_threads);
          job->threads = job->desired_threads;
        }
      }
      solver->step();
      if (store != nullptr) {
        try {
          store->on_healthy_step(grid, solver->state());
        } catch (const llp::IoError& e) {
          // Same stance as run_protected: a failed durable write is a
          // diagnostic; the run continues on the previous generation.
          Json ev;
          ev["event"] = "ckpt_write_failed";
          ev["job"] = static_cast<double>(job->id);
          ev["error"] = std::string(e.what());
          std::lock_guard<std::mutex> lock(mu_);
          push_event_locked(*job, ev.dump());
        }
      }
      {
        Json e;
        e["event"] = "step";
        e["job"] = static_cast<double>(job->id);
        e["step"] = solver->steps_taken();
        e["residual"] = solver->residual();
        std::lock_guard<std::mutex> lock(mu_);
        job->steps_done = solver->steps_taken();
        job->residual = solver->residual();
        push_event_locked(*job, e.dump());
      }
    }

    final_steps = solver->steps_taken();
    final_residual = solver->residual();
    if (cancelled) {
      final_state = JobState::kCancelled;
    } else if (preempted) {
      if (store != nullptr) {
        try {
          store->flush(grid, solver->state());
        } catch (const llp::IoError& e) {
          failure = e.what();  // noted, not fatal: an older generation stands
        }
      }
      final_state = JobState::kPreempted;
    } else {
      if (store != nullptr) {
        try {
          store->flush(grid, solver->state());
        } catch (const llp::IoError& e) {
          failure = e.what();
        }
      }
      final_state = JobState::kDone;
    }
  } catch (const std::exception& e) {
    final_state = JobState::kFailed;
    failure = e.what();
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    job->state = final_state;
    if (final_state != JobState::kFailed) {
      job->steps_done = final_steps;
      job->residual = final_residual;
    }
    if (!failure.empty() && job->error.empty()) job->error = failure;
    if (final_state == JobState::kPreempted) {
      ++job->preemptions;
      job->preempt_requested = false;
      Json e;
      e["event"] = "preempted";
      e["job"] = static_cast<double>(job->id);
      e["step"] = job->steps_done;
      push_event_locked(*job, e.dump());
    } else {
      push_event_locked(*job, done_event_line(job->id, final_state,
                                              job->steps_done,
                                              job->residual));
    }
    persist_job_locked(*job);
    job->runner_done = true;
    // The freed slot goes to the next queued job now; the notify wakes
    // the scheduler to join this thread, and the waiters.
    if (!stopping_) dispatch_locked();
    cv_.notify_all();
  }
}

// ---- the socket face -------------------------------------------------

void Server::accept_loop() {
  while (true) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) return;
    }
    std::string err;
    Socket conn =
        accept_with_timeout(listen_sock_.fd(), /*timeout_ms=*/200, &err);
    // Reap sessions whose loop has returned, so a long-lived daemon does
    // not accumulate dead threads.
    for (auto it = sessions_.begin(); it != sessions_.end();) {
      bool done = false;
      {
        std::lock_guard<std::mutex> lock(mu_);
        done = (*it)->done;
      }
      if (done) {
        if ((*it)->thread.joinable()) (*it)->thread.join();
        it = sessions_.erase(it);
      } else {
        ++it;
      }
    }
    if (!conn.valid()) continue;
    auto session = std::make_unique<Session>();
    session->sock = std::move(conn);
    Session* raw = session.get();
    sessions_.push_back(std::move(session));
    raw->thread = std::thread(&Server::session_loop, this, raw);
  }
}

void Server::session_loop(Session* session) {
  LineReader reader(session->sock.fd());
  const int fd = session->sock.fd();
  std::string line;
  std::string err;
  while (true) {
    const LineReader::Result res = reader.next_line(&line, &err);
    if (res == LineReader::Result::kEof ||
        res == LineReader::Result::kError) {
      break;
    }
    if (res == LineReader::Result::kOversize) {
      write_line(fd, error_response(llp::strfmt(
                         "line exceeds %zu byte limit", kMaxLine))
                         .dump());
      break;  // the stream is unframed garbage from here; drop the peer
    }
    if (line.empty()) continue;
    std::string parse_err;
    const auto req = Json::parse(line, &parse_err);
    if (!req.has_value()) {
      if (!write_line(fd, error_response("parse error: " + parse_err).dump())) {
        break;
      }
      continue;
    }
    if (!req->is_object()) {
      if (!write_line(fd,
                      error_response("request must be a JSON object").dump())) {
        break;
      }
      continue;
    }
    if (req->get_string("op") == "events") {
      if (!handle_events(fd, *req)) break;
      continue;
    }
    if (!write_line(fd, handle_request(*req).dump())) break;
  }
  std::lock_guard<std::mutex> lock(mu_);
  session->done = true;
}

Json Server::handle_request(const Json& req) {
  const std::string op = req.get_string("op");
  if (op == "ping") {
    Json j;
    j["ok"] = true;
    j["pong"] = true;
    return j;
  }
  if (op == "submit") {
    const Json* spec_json = req.find("spec");
    const Json empty{Json::Object{}};
    std::string error;
    auto spec = JobSpec::from_json(
        spec_json != nullptr ? *spec_json : empty, &error);
    if (!spec.has_value()) return error_response(error);
    const std::uint64_t id = submit(*spec, &error);
    if (id == 0) return error_response(error);
    Json j;
    j["ok"] = true;
    j["job"] = static_cast<double>(id);
    return j;
  }
  if (op == "list") {
    Json::Array arr;
    for (const JobStatus& s : list()) arr.push_back(s.to_json());
    Json j;
    j["ok"] = true;
    j["jobs"] = Json(std::move(arr));
    return j;
  }
  std::uint64_t id = 0;
  std::string error;
  if ((op == "status" || op == "cancel" || op == "wait") &&
      !req.read_int("job", &id, &error)) {
    return error_response(error);
  }
  if (op == "status") {
    const auto s = status(id);
    if (!s.has_value()) {
      return error_response("unknown job " + std::to_string(id));
    }
    return s->to_json();
  }
  if (op == "cancel") {
    if (!cancel(id, &error)) return error_response(error);
    Json j;
    j["ok"] = true;
    j["job"] = static_cast<double>(id);
    return j;
  }
  if (op == "wait") {
    const double timeout_s = req.get_double("timeout_ms", -1.0) < 0
                                 ? -1.0
                                 : req.get_double("timeout_ms") / 1000.0;
    JobStatus out;
    if (!wait_terminal(id, timeout_s, &out)) {
      if (status(id).has_value()) return error_response("timeout");
      return error_response("unknown job " + std::to_string(id));
    }
    return out.to_json();
  }
  if (op == "drain") {
    drain();
    Json j;
    j["ok"] = true;
    j["draining"] = true;
    return j;
  }
  if (op == "shutdown") {
    {
      std::lock_guard<std::mutex> lock(mu_);
      shutdown_requested_ = true;
      cv_.notify_all();
    }
    Json j;
    j["ok"] = true;
    j["stopping"] = true;
    return j;
  }
  return error_response("unknown op '" + op + "'");
}

bool Server::handle_events(int fd, const Json& req) {
  std::uint64_t id = 0;
  std::int64_t from = 0;
  std::string error;
  if (!req.read_int("job", &id, &error) ||
      !req.read_int("from", &from, &error)) {
    return write_line(fd, error_response(error).dump());
  }
  const bool follow = req.get_bool("follow", true);
  std::size_t cursor = from > 0 ? static_cast<std::size_t>(from) : 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (find_job_locked(id) == nullptr) {
      return write_line(
          fd, error_response("unknown job " + std::to_string(id)).dump());
    }
  }
  while (true) {
    bool terminal = false;
    std::vector<std::string> batch;
    {
      std::unique_lock<std::mutex> lock(mu_);
      Job* job = find_job_locked(id);
      cursor = std::max(cursor, job->events_base);
      while (cursor < job->events_base + job->events.size()) {
        batch.push_back(job->events[cursor - job->events_base]);
        ++cursor;
      }
      terminal = is_terminal(job->state);
      if (batch.empty() && !terminal && follow && !stopping_) {
        events_cv_.wait_for(lock, 200ms);
        continue;
      }
    }
    for (const std::string& line : batch) {
      if (!write_line(fd, line)) return false;
    }
    // The terminal event line (pushed at the terminal transition) is the
    // last line of the stream; the connection then returns to request
    // mode. A stream that ends before the job does (--no-follow, or the
    // server is stopping) gets an explicit end marker so the client is
    // never left blocking on a line that will not come.
    bool stopping_now;
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopping_now = stopping_;
    }
    if (terminal || !follow || stopping_now) {
      if (!terminal) {
        Json end;
        end["end"] = true;
        end["next"] = static_cast<double>(cursor);
        if (!write_line(fd, end.dump())) return false;
      }
      return true;
    }
  }
}

}  // namespace f3d::serve
