// The hiserve daemon: a long-lived sharded experiment service.
//
// One single-threaded poll loop owns all control state; the heavy work
// (compile / trace / simulate) happens in forked worker processes, one
// hiserve-protocol socketpair each.  The data model is deliberately
// pub-sub and content-centric (the CycloneDDS borrow): a *job* is the
// unit of computation, identified by its logical cell key — workload
// identity + compile options + preset + machine config — and clients
// *subscribe* to jobs rather than own them.  Two clients submitting
// overlapping plans share one simulation; a late-joining client whose
// cell already completed is served from the in-memory completed map (or
// the shared on-disk ResultCache via its worker probe) without any
// re-simulation.
//
// Job lifecycle:
//
//     Queued ──assign──> Running ──JobDone──> Done (memoized, fanned out)
//       ^                   │
//       │   crash/timeout   │ attempts <= max_retries: backoff
//       └───────────────────┤
//                           │ attempts  > max_retries
//                           v
//                         Failed (error slots fanned out to subscribers)
//
// Worker crash/timeout detection: a worker death is an EOF on its
// socketpair (plus waitpid forensics via diag::describe_wait_status); a
// job past its deadline gets its worker SIGKILLed, which funnels into
// the same path.  Retried jobs wait base_backoff * 2^(attempt-1) before
// re-dispatch.  Cell-level failures (prep/trace/sim/deadlock) are NOT
// retried — they are deterministic results, travel back in the error
// slots (DeadlockReport JSON verbatim), and fan out to every subscriber
// exactly like healthy results.
//
// SIGTERM/SIGINT drain: stop accepting connections and plans, let
// in-flight jobs and plans finish, shut workers down, write the stats
// file, exit 0.
//
// Crash recovery is the shared ResultCache and nothing else: a worker
// publishes each result to disk before reporting it, so after a daemon
// SIGKILL a successor on the same cache serves every finished cell as a
// disk hit, and a client that reconnects and resubmits re-simulates only
// the cells that never reached the cache.  A client death does not
// cancel its plans: their jobs keep running and publishing, and a
// resubmission attaches to them through the logical-key dedup.  Slow
// clients are bounded by a per-client outbound byte queue.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace hidisc::serve {

struct ServeOptions {
  std::string endpoint;        // unix path or tcp:HOST:PORT
  int workers = 2;             // forked worker processes (>= 1)
  std::string cache_dir = ".hilab-cache";  // "" disables the shared cache
  int max_retries = 2;         // re-dispatches after worker crash/timeout
  int backoff_ms = 200;        // base for exponential retry backoff
  double job_timeout_s = 600;  // per-job wall-clock budget; 0 disables
  std::string stats_file;      // stats JSON written on exit ("" = none)
  bool quiet = false;          // suppress stderr event log
  // Chaos hook for tests/CI: SIGKILL the assigned worker immediately
  // after the Nth job assignment (1-based; 0 = off).  Exercises the
  // crash/retry path deterministically.
  std::uint64_t chaos_kill_at_assign = 0;
  // Per-client outbound queue bound; a peer that won't drain past this
  // is dropped as slow (its plans are dropped, their jobs continue).
  std::size_t client_queue_max = 8u << 20;
};

// Runs the daemon until drained; returns the process exit code.
// Throws TransportError when the endpoint cannot be bound.
int serve_main(const ServeOptions& opt);

}  // namespace hidisc::serve
