// The serve daemon core: a long-lived multi-tenant solver host.
//
// One Server owns a job table, a scheduler thread, one runner thread per
// running job, and (optionally) an AF_UNIX accept loop speaking the
// line-delimited JSON protocol (ops: ping, submit, status, list, cancel,
// events, wait, drain, shutdown). Each job runs on its OWN llp::Runtime —
// pool, region registry, observers, watchdog all per tenant — so nothing a
// job does (tuning, faulting, hanging a lane) leaks into its neighbours.
//
// Scheduling is priority + fair share (src/serve/scheduler.hpp): the
// running set is capped at max_running; a queued job that outranks the
// weakest running job triggers checkpoint-preemption — the victim writes
// a durable generation via src/ckpt, leaves the pool, and requeues behind
// the newcomer. The same flush-and-requeue path implements graceful stop,
// and the durable job.json records let start() resume every in-flight job
// from its newest intact checkpoint generation after a SIGKILL.
//
// Concurrency: one mutex guards the job table and every Job field; one
// condition variable wakes the scheduler and the waiters on job state,
// and a second wakes event streams, so a per-step event wakes only those.
// submit() and a finishing runner dispatch themselves, so a job's runner
// starts without a hand-off through the scheduler thread. Runner threads
// only touch solver state they own plus Job fields under the lock — the
// layout is deliberately coarse so TSan can vouch for it.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "serve/job.hpp"
#include "serve/json.hpp"
#include "serve/wire.hpp"

namespace f3d::serve {

struct ServerConfig {
  /// Unix socket to serve the protocol on; empty runs the server purely
  /// in-process (tests, the throughput bench).
  std::string socket_path;
  /// Durable root for job.json records and per-job checkpoint generations;
  /// empty disables durability (jobs restart from scratch on preemption).
  std::string state_dir;
  /// Lanes the fair-share policy divides among running jobs; 0 takes the
  /// process default (LLP_NUM_THREADS / hardware concurrency).
  int total_threads = 0;
  /// Cap on concurrently running jobs; queued jobs wait or preempt.
  int max_running = 4;
  /// Checkpoint generations kept per job.
  int keep_generations = 3;
  int backlog = 16;
};

/// Point-in-time public view of one job.
struct JobStatus {
  std::uint64_t id = 0;
  JobSpec spec;
  JobState state = JobState::kQueued;
  int steps_done = 0;
  double residual = std::numeric_limits<double>::quiet_NaN();
  int threads = 0;             ///< current lane allocation (0 = not running)
  int resumed_from_step = -1;  ///< checkpoint step this run resumed at
  int preemptions = 0;
  std::string error;

  Json to_json() const;
};

class Server {
public:
  explicit Server(ServerConfig cfg);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Recover persisted jobs from state_dir, bind the socket (when
  /// configured), and start the scheduler/accept threads. Throws
  /// llp::Error on bind failure.
  void start();

  /// Graceful stop: preempt (checkpoint) every running job, stop
  /// accepting, drain sessions, join everything. Idempotent.
  void stop();

  // ---- in-process API (the protocol handlers call these too) ----------

  /// Admit a job. Returns its id, or 0 with *error set (draining/stopped).
  std::uint64_t submit(const JobSpec& spec, std::string* error = nullptr);
  std::optional<JobStatus> status(std::uint64_t id);
  std::vector<JobStatus> list();
  /// Request cancellation. False with *error for unknown/terminal jobs;
  /// repeated cancels of a live job are idempotent.
  bool cancel(std::uint64_t id, std::string* error = nullptr);
  /// Stop admitting new jobs; already-admitted jobs keep running.
  void drain();
  bool draining();
  /// Block until the job reaches a terminal state (true) or the timeout
  /// expires (false). timeout_s < 0 waits forever.
  bool wait_terminal(std::uint64_t id, double timeout_s,
                     JobStatus* out = nullptr);
  /// Copy of the job's event lines starting at absolute index `from`
  /// (lines older than the retention window are skipped). *next receives
  /// the absolute index one past the last line returned.
  std::vector<std::string> events_since(std::uint64_t id, std::size_t from,
                                        std::size_t* next);

  /// True once a client issued the shutdown op (the daemon main loop
  /// polls this; the server does not stop itself).
  bool shutdown_requested();
  /// Wait up to timeout_s for a shutdown request; returns
  /// shutdown_requested().
  bool wait_shutdown(double timeout_s);

  const ServerConfig& config() const noexcept { return cfg_; }

private:
  struct Job {
    std::uint64_t id = 0;
    std::uint64_t seq = 0;
    JobSpec spec;
    JobState state = JobState::kQueued;
    int threads = 0;
    int desired_threads = 0;  ///< scheduler-set fair share (auto jobs)
    int steps_done = 0;
    double residual = std::numeric_limits<double>::quiet_NaN();
    int resumed_from_step = -1;
    int preemptions = 0;
    std::string error;
    bool cancel_requested = false;
    bool preempt_requested = false;
    std::vector<std::string> events;
    std::size_t events_base = 0;  ///< absolute index of events.front()
    std::thread runner;
    bool runner_done = false;
  };

  struct Session {
    Socket sock;
    std::thread thread;
    bool done = false;
  };

  // Threads.
  void scheduler_loop();
  void runner_loop(Job* job);
  void accept_loop();
  void session_loop(Session* session);

  // Protocol. handle_request serves every op except the streaming
  // `events`, which writes to the fd itself.
  Json handle_request(const Json& req);
  bool handle_events(int fd, const Json& req);

  // All _locked helpers require mu_ held.
  void dispatch_locked();
  void reap_runners(std::unique_lock<std::mutex>& lock);
  void push_event_locked(Job& job, std::string line);
  void persist_job_locked(Job& job);
  JobStatus status_locked(const Job& job) const;
  Job* find_job_locked(std::uint64_t id);
  void recover_state();

  ServerConfig cfg_;
  std::mutex mu_;
  std::condition_variable cv_;         ///< job state, cancel, stop
  std::condition_variable events_cv_;  ///< a job's event log grew
  std::map<std::uint64_t, std::unique_ptr<Job>> jobs_;
  std::uint64_t next_id_ = 1;
  std::uint64_t next_seq_ = 1;
  bool draining_ = false;
  bool stopping_ = false;
  bool started_ = false;
  bool shutdown_requested_ = false;

  Socket listen_sock_;
  std::thread scheduler_;
  std::thread acceptor_;
  std::vector<std::unique_ptr<Session>> sessions_;
};

}  // namespace f3d::serve
