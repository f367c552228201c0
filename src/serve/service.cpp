#include "serve/service.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "diag/process.hpp"
#include "lab/fingerprint.hpp"
#include "lab/serialize.hpp"
#include "serve/transport.hpp"
#include "serve/worker.hpp"

namespace hidisc::serve {

namespace {

using Clock = std::chrono::steady_clock;

// Self-pipe: signal handlers write the signal number, the poll loop
// reads it.  Async-signal-safe by construction.
int g_signal_wr = -1;

void on_signal(int sig) {
  const unsigned char b = static_cast<unsigned char>(sig);
  if (g_signal_wr >= 0) {
    const ssize_t ignored = ::write(g_signal_wr, &b, 1);
    (void)ignored;
  }
}

// One cell-shaped unit of computation, identified by its logical key and
// subscribed to by (plan, cell) pairs.  A job outlives its subscribers:
// when a client dies its plans are dropped, but their jobs still run to
// completion and publish to the memo and the shared cache.
struct Subscriber {
  std::uint64_t plan = 0;
  std::size_t cell = 0;
};

enum class JobState : std::uint8_t { Queued, Running };

struct Job {
  std::uint64_t id = 0;
  std::string base_key;    // logical cell key (memoization identity)
  std::string unique_key;  // base_key, or refresh-disambiguated variant
  JobSpec spec;            // what a worker needs to run it
  JobState state = JobState::Queued;
  int attempts = 0;             // crash/timeout re-dispatches so far
  std::int64_t not_before = 0;  // backoff gate, ms on the service clock
  std::int64_t deadline = 0;    // running-job timeout, 0 = none
  int worker = -1;
  std::vector<Subscriber> subs;
};

// One submitted plan, owned by the client that submitted it.
struct PlanState {
  std::uint64_t id = 0;
  PlanRequest req;
  int client = -1;
  std::size_t cells = 0;
  std::size_t remaining = 0;
  std::size_t simulated = 0;
  std::size_t cached = 0;
  std::size_t deduped = 0;
  std::size_t failed = 0;
  std::int64_t start_ms = 0;
  std::vector<bool> done;
};

struct ClientState {
  int id = -1;
  Conn conn;
  bool dead = false;
  std::set<std::uint64_t> plans;  // submitted, unfinished plan ids
};

struct WorkerProc {
  pid_t pid = -1;
  Conn conn;
  bool busy = false;
  std::uint64_t job = 0;
  std::uint64_t jobs_done = 0;
};

struct Counters {
  std::uint64_t clients_total = 0;
  std::uint64_t plans_submitted = 0;
  std::uint64_t plans_completed = 0;
  std::uint64_t cells_total = 0;
  std::uint64_t jobs_done = 0;
  std::uint64_t jobs_failed = 0;  // infrastructure failure after retries
  std::uint64_t cells_failed = 0; // deterministic cell errors (prep/sim/..)
  std::uint64_t retries = 0;
  std::uint64_t dedup_hits = 0;   // subscriptions attached to a live job
  std::uint64_t mem_hits = 0;     // served from the completed-job memo
  std::uint64_t disk_cache_hits = 0;
  std::uint64_t cross_client_shared_jobs = 0;
  std::uint64_t worker_restarts = 0;
  std::uint64_t worker_timeouts = 0;
  // Pipeline node work aggregated over worker job completions (each job
  // is a single-cell pipeline run; dedup/memo deliveries add nothing).
  std::uint64_t compile_nodes_rebuilt = 0;
  std::uint64_t trace_nodes_hit = 0;
  std::uint64_t trace_nodes_rebuilt = 0;
  // Per-cell simulation latency (simulated cells only).
  std::uint64_t lat_count = 0;
  double lat_total_ms = 0, lat_min_ms = 0, lat_max_ms = 0;
  std::uint64_t clients_dropped_slow = 0;
};

std::string logical_key(const lab::Cell& c) {
  return c.workload.id() + "|" + lab::describe(c.compile) + "|" +
         machine::preset_name(c.preset) + "|" + lab::describe(c.config);
}

class Service {
 public:
  explicit Service(const ServeOptions& opt) : opt_(opt) {}
  int run();

 private:
  void log(const char* fmt, ...) {
    if (opt_.quiet) return;
    va_list ap;
    va_start(ap, fmt);
    std::fprintf(stderr, "hiserved: ");
    std::vfprintf(stderr, fmt, ap);
    std::fprintf(stderr, "\n");
    va_end(ap);
  }

  [[nodiscard]] std::int64_t now_ms() const {
    return std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                                 start_)
        .count();
  }

  void spawn_worker(std::size_t slot);
  void worker_died(std::size_t slot);
  void requeue_or_fail(std::uint64_t job_id, const std::string& why);
  void handle_worker_frame(std::size_t slot, const Frame& f);
  void handle_client_frame(ClientState& c, const Frame& f);
  void submit_plan(ClientState& c, const PlanRequest& req);
  void enqueue_cells(std::uint64_t plan_id, const lab::ExperimentPlan& plan);
  void complete_job(Job& job, const lab::CellResult& res);
  void deliver_cell(std::uint64_t plan_id, std::size_t cell,
                    const lab::CellResult& res, bool cached, bool dedup);
  bool queue_to_client(ClientState& c, const Frame& f);
  void drop_dead_clients();
  void schedule();
  void check_timeouts();
  [[nodiscard]] std::int64_t next_wakeup() const;
  [[nodiscard]] std::string stats_json() const;
  void write_stats_file();

  ServeOptions opt_;
  Clock::time_point start_ = Clock::now();
  Listener listener_;
  int sig_rd_ = -1, sig_wr_ = -1;
  bool draining_ = false;

  std::vector<WorkerProc> workers_;
  std::map<int, ClientState> clients_;
  std::map<std::uint64_t, PlanState> plans_;
  std::map<std::uint64_t, Job> jobs_;
  std::map<std::string, std::uint64_t> jobs_by_key_;  // unique_key -> id
  // Completed-cell memo, keyed by logical cell key: the in-process layer
  // of the pub-sub result store (the on-disk ResultCache is the
  // cross-process layer).  Late joiners are served from here without
  // touching a worker.
  std::map<std::string, lab::CellResult> completed_;

  int next_client_id_ = 1;
  std::uint64_t next_job_id_ = 1;
  std::uint64_t next_plan_id_ = 1;
  std::uint64_t assigns_ = 0;
  Counters n_;
};

void Service::spawn_worker(std::size_t slot) {
  SocketPair sp = make_socketpair();
  const pid_t pid = ::fork();
  if (pid < 0) throw TransportError("hiserved: fork failed");
  if (pid == 0) {
    // Worker child: drop every daemon fd except our socketpair end, then
    // serve jobs until EOF.  PDEATHSIG guarantees no orphan workers
    // outlive a SIGKILLed daemon.
    sp.parent.close();
    listener_.abandon();  // close() would unlink the parent's socket file
    if (sig_rd_ >= 0) ::close(sig_rd_);
    if (sig_wr_ >= 0) ::close(sig_wr_);
    for (auto& [id, c] : clients_) c.conn.close();
    for (auto& w : workers_) w.conn.close();
    ::signal(SIGTERM, SIG_DFL);
    ::signal(SIGINT, SIG_DFL);
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::_exit(worker_main(std::move(sp.child), opt_.cache_dir));
  }
  sp.child.close();
  WorkerProc& w = workers_[slot];
  w.pid = pid;
  w.conn = std::move(sp.parent);
  w.conn.set_nonblocking(true);
  w.busy = false;
  w.job = 0;
  log("worker %d started (slot %zu)", static_cast<int>(pid), slot);
}

void Service::worker_died(std::size_t slot) {
  WorkerProc& w = workers_[slot];
  if (w.pid < 0) return;
  int status = 0;
  ::waitpid(w.pid, &status, 0);
  const std::string why = diag::describe_wait_status(status);
  log("worker %d died: %s%s", static_cast<int>(w.pid), why.c_str(),
      w.busy ? " (job in flight)" : "");
  const std::uint64_t orphan = w.busy ? w.job : 0;
  w.conn.close();
  w.pid = -1;
  w.busy = false;
  w.job = 0;
  if (orphan != 0) requeue_or_fail(orphan, why);
  if (!draining_) {
    spawn_worker(slot);
    ++n_.worker_restarts;
  }
  schedule();
}

void Service::requeue_or_fail(std::uint64_t job_id, const std::string& why) {
  const auto it = jobs_.find(job_id);
  if (it == jobs_.end()) return;
  Job& job = it->second;
  ++job.attempts;
  job.worker = -1;
  job.deadline = 0;
  if (job.attempts <= opt_.max_retries) {
    job.state = JobState::Queued;
    job.not_before = now_ms() + (static_cast<std::int64_t>(opt_.backoff_ms)
                                 << (job.attempts - 1));
    ++n_.retries;
    log("job %llu retry %d/%d after worker %s (backoff %lld ms)",
        static_cast<unsigned long long>(job.id), job.attempts,
        opt_.max_retries, why.c_str(),
        static_cast<long long>(job.not_before - now_ms()));
    return;
  }
  lab::CellResult res;
  res.error = "worker died (" + why + ") " + std::to_string(job.attempts) +
              " times; job abandoned";
  res.error_class = "worker";
  ++n_.jobs_failed;
  log("job %llu failed permanently after %d attempts",
      static_cast<unsigned long long>(job.id), job.attempts);
  complete_job(job, res);
}

void Service::complete_job(Job& job, const lab::CellResult& res) {
  // Memoize by logical key — including deterministic cell failures, so a
  // resubmitted deadlocking cell reports instantly instead of burning a
  // watchdog timeout per client.  Infrastructure failures ("worker") are
  // NOT memoized: a healthier service should retry them.
  if (res.error_class != "worker") completed_[job.base_key] = res;
  std::set<int> distinct;
  for (const auto& sub : job.subs) {
    const auto pit = plans_.find(sub.plan);
    if (pit != plans_.end()) distinct.insert(pit->second.client);
  }
  if (distinct.size() > 1) ++n_.cross_client_shared_jobs;
  if (!res.ok() && res.error_class != "worker") ++n_.cells_failed;
  for (std::size_t i = 0; i < job.subs.size(); ++i)
    deliver_cell(job.subs[i].plan, job.subs[i].cell, res, res.from_cache,
                 i > 0);
  jobs_by_key_.erase(job.unique_key);
  jobs_.erase(job.id);
}

bool Service::queue_to_client(ClientState& c, const Frame& f) {
  if (c.dead || !c.conn.valid()) return false;
  c.conn.queue_frame(f);
  if (c.conn.queued_bytes() > opt_.client_queue_max) {
    log("client %d dropped: outbound queue over %zu bytes (slow peer)", c.id,
        opt_.client_queue_max);
    ++n_.clients_dropped_slow;
    c.dead = true;
    return false;
  }
  if (!c.conn.flush_queue()) {
    c.dead = true;
    return false;
  }
  return true;
}

void Service::deliver_cell(std::uint64_t plan_id, std::size_t cell,
                           const lab::CellResult& res, bool cached,
                           bool dedup) {
  const auto pit = plans_.find(plan_id);
  if (pit == plans_.end()) return;
  PlanState& ps = pit->second;
  if (cell >= ps.cells || ps.done[cell]) return;  // idempotence guard

  KvMap kv = cell_result_to_kv(res);
  kv["cell"] = std::to_string(cell);
  kv["cached"] = (cached || res.from_cache) ? "1" : "0";
  kv["dedup"] = dedup ? "1" : "0";
  if (dedup) {
    // The node work behind this result was already reported to whichever
    // delivery ran it; zero the provenance so clients can sum freely.
    kv["n.compile"] = "0";
    kv["n.trace_hit"] = "0";
    kv["n.trace"] = "0";
  }
  ps.done[cell] = true;

  if (!res.ok()) ++ps.failed;
  else if (cached || res.from_cache) ++ps.cached;
  else ++ps.simulated;
  if (dedup) ++ps.deduped;
  if (ps.remaining > 0) --ps.remaining;

  const auto cit = clients_.find(ps.client);
  ClientState* client =
      (cit != clients_.end() && !cit->second.dead) ? &cit->second : nullptr;
  if (client) queue_to_client(*client, Frame{MsgType::CellDone, kv_encode(kv)});

  if (ps.remaining == 0) {
    KvMap done;
    done["cells"] = std::to_string(ps.cells);
    done["simulated"] = std::to_string(ps.simulated);
    done["cached"] = std::to_string(ps.cached);
    done["dedup"] = std::to_string(ps.deduped);
    done["failed"] = std::to_string(ps.failed);
    done["wall_ms"] = lab::format_double(
        static_cast<double>(now_ms() - ps.start_ms));
    if (client) {
      queue_to_client(*client, Frame{MsgType::PlanDone, kv_encode(done)});
      client->plans.erase(plan_id);
    }
    ++n_.plans_completed;
    log("plan %llu done: %zu cells, %zu simulated, %zu cached, %zu failed",
        static_cast<unsigned long long>(ps.id), ps.cells, ps.simulated,
        ps.cached, ps.failed);
    plans_.erase(pit);
  }
}

void Service::enqueue_cells(std::uint64_t plan_id,
                            const lab::ExperimentPlan& plan) {
  for (std::size_t i = 0; i < plan.cells.size(); ++i) {
    // `ps` may have been erased by a completing memo-hit delivery below,
    // so look it up fresh each iteration.
    const auto pit = plans_.find(plan_id);
    if (pit == plans_.end()) return;
    const PlanRequest req = pit->second.req;
    const std::string base = logical_key(plan.cells[i]);
    // A refresh plan must re-simulate, so its jobs get plan-unique keys;
    // results still land in the shared memo/cache under the base key.
    const std::string unique =
        req.refresh ? base + "|refresh#" + std::to_string(plan_id) : base;
    if (!req.refresh) {
      const auto hit = completed_.find(base);
      if (hit != completed_.end()) {
        ++n_.mem_hits;
        deliver_cell(plan_id, i, hit->second, /*cached=*/true, /*dedup=*/true);
        continue;
      }
    }
    const auto jit = jobs_by_key_.find(unique);
    if (jit != jobs_by_key_.end()) {
      jobs_.at(jit->second).subs.push_back(Subscriber{plan_id, i});
      ++n_.dedup_hits;
      continue;
    }
    Job job;
    job.id = next_job_id_++;
    job.base_key = base;
    job.unique_key = unique;
    job.spec.job_id = job.id;
    job.spec.plan = req;
    job.spec.cell = i;
    job.subs.push_back(Subscriber{plan_id, i});
    jobs_by_key_[unique] = job.id;
    jobs_.emplace(job.id, std::move(job));
  }
}

void Service::submit_plan(ClientState& c, const PlanRequest& req) {
  if (draining_) {
    queue_to_client(c, Frame{MsgType::Error,
                             kv_encode({{"message",
                                         "service is draining; resubmit to "
                                         "the next daemon"}})});
    return;
  }
  lab::ExperimentPlan plan;
  try {
    plan = materialize_plan(req);
  } catch (const std::exception& e) {
    std::string msg = e.what();
    if (msg.find("plan") == std::string::npos)
      msg = "unknown plan '" + req.plan + "'";
    std::string names;
    for (const auto& name : lab::plan_names())
      names += (names.empty() ? "" : " ") + name;
    queue_to_client(
        c, Frame{MsgType::Error,
                 kv_encode({{"message", msg}, {"plans", names}})});
    return;
  }

  const std::uint64_t plan_id = next_plan_id_++;
  PlanState ps;
  ps.id = plan_id;
  ps.req = req;
  ps.client = c.id;
  ps.cells = plan.cells.size();
  ps.remaining = plan.cells.size();
  ps.start_ms = now_ms();
  ps.done.assign(ps.cells, false);
  plans_.emplace(plan_id, std::move(ps));
  c.plans.insert(plan_id);
  ++n_.plans_submitted;
  n_.cells_total += plan.cells.size();
  queue_to_client(
      c, Frame{MsgType::PlanAccepted,
               kv_encode({{"cells", std::to_string(plan.cells.size())},
                          {"plan_id", std::to_string(plan_id)}})});
  log("client %d submitted plan %s/%s: %zu cells%s", c.id, req.plan.c_str(),
      req.scale.c_str(), plan.cells.size(), req.refresh ? " (refresh)" : "");

  enqueue_cells(plan_id, plan);
  schedule();
}

void Service::handle_client_frame(ClientState& c, const Frame& f) {
  switch (f.type) {
    case MsgType::Hello: {
      KvMap kv;
      kv["proto"] = std::to_string(kProtocolVersion);
      kv["pid"] = std::to_string(::getpid());
      kv["workers"] = std::to_string(workers_.size());
      queue_to_client(c, Frame{MsgType::HelloOk, kv_encode(kv)});
      return;
    }
    case MsgType::SubmitPlan:
      submit_plan(c, PlanRequest::from_kv(kv_parse(f.payload)));
      return;
    case MsgType::GetStats:
      queue_to_client(c, Frame{MsgType::Stats, stats_json()});
      return;
    default:
      queue_to_client(
          c, Frame{MsgType::Error,
                   kv_encode({{"message",
                               std::string("unexpected frame ") +
                                   msg_type_name(f.type)}})});
      return;
  }
}

void Service::handle_worker_frame(std::size_t slot, const Frame& f) {
  WorkerProc& w = workers_[slot];
  if (f.type != MsgType::JobDone) return;
  const KvMap kv = kv_parse(f.payload);
  const std::uint64_t job_id = kv_get_u64(kv, "job");
  w.busy = false;
  w.job = 0;
  ++w.jobs_done;
  const auto it = jobs_.find(job_id);
  // A stale completion (job already retried elsewhere or abandoned) is
  // dropped; the authoritative result is whichever completion owns the
  // job entry.
  if (it == jobs_.end() || it->second.worker != static_cast<int>(slot))
    return;
  lab::CellResult res = cell_result_from_kv(kv);
  ++n_.jobs_done;
  n_.compile_nodes_rebuilt += res.compile_nodes_rebuilt;
  n_.trace_nodes_hit += res.trace_nodes_hit;
  n_.trace_nodes_rebuilt += res.trace_nodes_rebuilt;
  if (res.from_cache) {
    ++n_.disk_cache_hits;
  } else if (res.ok()) {
    ++n_.lat_count;
    n_.lat_total_ms += res.wall_ms;
    if (n_.lat_count == 1 || res.wall_ms < n_.lat_min_ms)
      n_.lat_min_ms = res.wall_ms;
    if (res.wall_ms > n_.lat_max_ms) n_.lat_max_ms = res.wall_ms;
  }
  complete_job(it->second, res);
  schedule();
}

void Service::schedule() {
  const std::int64_t now = now_ms();
  for (std::size_t slot = 0; slot < workers_.size(); ++slot) {
    WorkerProc& w = workers_[slot];
    if (w.pid < 0 || w.busy) continue;
    // FIFO by job id over ready queued jobs: deterministic and fair.
    Job* pick = nullptr;
    for (auto& [id, job] : jobs_) {
      if (job.state != JobState::Queued || job.not_before > now) continue;
      pick = &job;
      break;
    }
    if (!pick) return;
    pick->state = JobState::Running;
    pick->worker = static_cast<int>(slot);
    pick->deadline =
        opt_.job_timeout_s > 0
            ? now + static_cast<std::int64_t>(opt_.job_timeout_s * 1000.0)
            : 0;
    w.busy = true;
    w.job = pick->id;
    try {
      w.conn.send_frame(Frame{MsgType::Job, kv_encode(pick->spec.to_kv())});
    } catch (const std::exception&) {
      worker_died(slot);
      return;  // worker_died() reschedules
    }
    ++assigns_;
    if (opt_.chaos_kill_at_assign != 0 &&
        assigns_ == opt_.chaos_kill_at_assign) {
      log("chaos: SIGKILL worker %d on assignment %llu",
          static_cast<int>(w.pid),
          static_cast<unsigned long long>(assigns_));
      ::kill(w.pid, SIGKILL);
    }
  }
}

void Service::check_timeouts() {
  const std::int64_t now = now_ms();
  for (auto& [id, job] : jobs_) {
    if (job.state != JobState::Running || job.deadline == 0 ||
        now < job.deadline)
      continue;
    job.deadline = 0;  // one kill per expiry; the death path requeues
    ++n_.worker_timeouts;
    const WorkerProc& w = workers_[static_cast<std::size_t>(job.worker)];
    log("job %llu timed out; killing worker %d",
        static_cast<unsigned long long>(id), static_cast<int>(w.pid));
    if (w.pid > 0) ::kill(w.pid, SIGKILL);
  }
}

std::int64_t Service::next_wakeup() const {
  std::int64_t next = -1;
  const auto consider = [&](std::int64_t t) {
    if (t > 0 && (next < 0 || t < next)) next = t;
  };
  for (const auto& [id, job] : jobs_) {
    if (job.state == JobState::Running) consider(job.deadline);
    else consider(job.not_before);
  }
  return next;
}

std::string Service::stats_json() const {
  std::size_t queued = 0, running = 0;
  for (const auto& [id, job] : jobs_)
    (job.state == JobState::Queued ? queued : running)++;
  std::size_t connected = 0;
  for (const auto& [id, c] : clients_)
    if (!c.dead) ++connected;

  std::string out = "{\n";
  const auto num = [&out](const char* k, std::uint64_t v, bool last = false) {
    out += std::string("  \"") + k + "\": " + std::to_string(v) +
           (last ? "\n" : ",\n");
  };
  out += "  \"uptime_ms\": " + std::to_string(now_ms()) + ",\n";
  out += "  \"draining\": " + std::string(draining_ ? "true" : "false") +
         ",\n";
  out += "  \"workers\": [";
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    const WorkerProc& w = workers_[i];
    out += std::string(i ? ", " : "") + "{\"pid\": " +
           std::to_string(w.pid) +
           ", \"busy\": " + (w.busy ? "true" : "false") +
           ", \"jobs\": " + std::to_string(w.jobs_done) + "}";
  }
  out += "],\n";
  num("worker_restarts", n_.worker_restarts);
  num("worker_timeouts", n_.worker_timeouts);
  num("clients_connected", connected);
  num("clients_total", n_.clients_total);
  num("clients_dropped_slow", n_.clients_dropped_slow);
  num("plans_submitted", n_.plans_submitted);
  num("plans_completed", n_.plans_completed);
  num("plans_active", plans_.size());
  num("cells_total", n_.cells_total);
  num("jobs_queued", queued);
  num("jobs_running", running);
  num("jobs_done", n_.jobs_done);
  num("jobs_failed", n_.jobs_failed);
  num("cells_failed", n_.cells_failed);
  num("retries", n_.retries);
  num("dedup_hits", n_.dedup_hits);
  num("mem_hits", n_.mem_hits);
  num("disk_cache_hits", n_.disk_cache_hits);
  num("cross_client_shared_jobs", n_.cross_client_shared_jobs);
  num("compile_nodes_rebuilt", n_.compile_nodes_rebuilt);
  num("trace_nodes_hit", n_.trace_nodes_hit);
  num("trace_nodes_rebuilt", n_.trace_nodes_rebuilt);
  out += "  \"cell_latency_ms\": {\"count\": " +
         std::to_string(n_.lat_count) +
         ", \"total\": " + lab::format_double(n_.lat_total_ms) +
         ", \"min\": " + lab::format_double(n_.lat_min_ms) +
         ", \"max\": " + lab::format_double(n_.lat_max_ms) + ", \"avg\": " +
         lab::format_double(n_.lat_count
                                ? n_.lat_total_ms /
                                      static_cast<double>(n_.lat_count)
                                : 0.0) +
         "}\n";
  out += "}\n";
  return out;
}

void Service::write_stats_file() {
  if (opt_.stats_file.empty()) return;
  std::ofstream out(opt_.stats_file, std::ios::trunc);
  if (!out) {
    log("cannot write stats file %s", opt_.stats_file.c_str());
    return;
  }
  out << stats_json();
}

void Service::drop_dead_clients() {
  for (auto it = clients_.begin(); it != clients_.end();) {
    if (!it->second.dead) {
      ++it;
      continue;
    }
    // Drop this client's plans but not their jobs: the work keeps
    // running and publishing to the memo and the shared cache, so a
    // reconnecting client's resubmission attaches to the live jobs (or
    // hits the cache) instead of starting over.
    for (const std::uint64_t plan_id : it->second.plans)
      plans_.erase(plan_id);
    log("client %d disconnected%s", it->first,
        it->second.plans.empty() ? "" : " (plans dropped, jobs kept)");
    it = clients_.erase(it);
  }
}

int Service::run() {
  listener_ = Listener::listen(opt_.endpoint);

  int pipefd[2];
  if (::pipe(pipefd) != 0)
    throw TransportError("hiserved: pipe failed");
  for (const int fd : {pipefd[0], pipefd[1]}) {
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
    ::fcntl(fd, F_SETFD, FD_CLOEXEC);
  }
  sig_rd_ = pipefd[0];
  sig_wr_ = pipefd[1];
  g_signal_wr = sig_wr_;
  ::signal(SIGPIPE, SIG_IGN);
  ::signal(SIGTERM, on_signal);
  ::signal(SIGINT, on_signal);

  workers_.resize(static_cast<std::size_t>(std::max(1, opt_.workers)));
  for (std::size_t i = 0; i < workers_.size(); ++i) spawn_worker(i);
  log("listening on %s with %zu workers (cache: %s)", opt_.endpoint.c_str(),
      workers_.size(),
      opt_.cache_dir.empty() ? "disabled" : opt_.cache_dir.c_str());

  for (;;) {
    if (draining_ && jobs_.empty()) break;

    std::vector<pollfd> fds;
    // Index maps: which poll entry belongs to what.
    const std::size_t sig_idx = fds.size();
    fds.push_back({sig_rd_, POLLIN, 0});
    std::size_t listen_idx = SIZE_MAX;
    if (!draining_) {
      listen_idx = fds.size();
      fds.push_back({listener_.fd(), POLLIN, 0});
    }
    std::vector<std::pair<std::size_t, std::size_t>> worker_idx;  // poll,slot
    for (std::size_t i = 0; i < workers_.size(); ++i)
      if (workers_[i].pid >= 0) {
        worker_idx.emplace_back(fds.size(), i);
        fds.push_back({workers_[i].conn.fd(), POLLIN, 0});
      }
    std::vector<std::pair<std::size_t, int>> client_idx;  // poll,client id
    for (auto& [id, c] : clients_)
      if (!c.dead) {
        client_idx.emplace_back(fds.size(), id);
        const short ev =
            POLLIN | (c.conn.queued_bytes() > 0 ? POLLOUT : 0);
        fds.push_back({c.conn.fd(), ev, 0});
      }

    std::int64_t timeout = -1;
    const std::int64_t wake = next_wakeup();
    if (wake >= 0)
      timeout = std::max<std::int64_t>(0, wake - now_ms());
    const int rc = ::poll(fds.data(), fds.size(),
                          static_cast<int>(std::min<std::int64_t>(
                              timeout < 0 ? -1 : timeout, 60'000)));
    if (rc < 0 && errno != EINTR)
      throw TransportError("hiserved: poll failed");

    // Signals first: a drain request should gate this iteration's accepts.
    if (fds[sig_idx].revents & POLLIN) {
      unsigned char buf[64];
      ssize_t got;
      while ((got = ::read(sig_rd_, buf, sizeof buf)) > 0) {
        for (ssize_t i = 0; i < got; ++i)
          if (buf[i] == SIGTERM || buf[i] == SIGINT) {
            if (!draining_)
              log("drain requested (signal %d): finishing %zu jobs",
                  buf[i], jobs_.size());
            draining_ = true;
          }
      }
    }

    if (listen_idx != SIZE_MAX && (fds[listen_idx].revents & POLLIN)) {
      Conn conn = listener_.accept();
      conn.set_nonblocking(true);
      const int id = next_client_id_++;
      ClientState c;
      c.id = id;
      c.conn = std::move(conn);
      clients_.emplace(id, std::move(c));
      ++n_.clients_total;
      log("client %d connected", id);
    }

    for (const auto& [pidx, slot] : worker_idx) {
      if (!(fds[pidx].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      WorkerProc& w = workers_[slot];
      if (w.pid < 0) continue;  // died earlier this iteration
      bool alive = true;
      try {
        alive = w.conn.read_into_decoder();
        while (auto f = w.conn.next_frame()) handle_worker_frame(slot, *f);
      } catch (const std::exception&) {
        alive = false;  // protocol corruption from a worker: treat as death
        if (w.pid > 0) ::kill(w.pid, SIGKILL);
      }
      if (!alive) worker_died(slot);
    }

    for (const auto& [pidx, id] : client_idx) {
      const auto it = clients_.find(id);
      if (it == clients_.end()) continue;
      ClientState& c = it->second;
      if (fds[pidx].revents & POLLOUT) {
        if (!c.conn.flush_queue()) c.dead = true;
      }
      if (!(fds[pidx].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      if (c.dead) continue;
      bool alive = true;
      try {
        alive = c.conn.read_into_decoder();
        while (auto f = c.conn.next_frame()) handle_client_frame(c, *f);
      } catch (const std::exception&) {
        alive = false;  // protocol corruption: hang up on the client
      }
      if (!alive) c.dead = true;
    }

    drop_dead_clients();
    check_timeouts();
    schedule();
  }

  // Drained: flush what the clients are still owed, then orderly worker
  // shutdown, stats snapshot, exit.
  for (auto& [id, c] : clients_)
    if (!c.dead && c.conn.queued_bytes() > 0) c.conn.flush_blocking(2000);
  for (auto& w : workers_) {
    if (w.pid < 0) continue;
    try {
      w.conn.send_frame(Frame{MsgType::Shutdown, ""});
    } catch (const std::exception&) {
    }
    w.conn.close();
    int status = 0;
    ::waitpid(w.pid, &status, 0);
    w.pid = -1;
  }
  write_stats_file();
  log("drained; bye");
  return 0;
}

}  // namespace

int serve_main(const ServeOptions& opt) {
  Service s(opt);
  return s.run();
}

}  // namespace hidisc::serve
