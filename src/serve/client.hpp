// Thin hiserve client: submit a named plan to a running daemon and get a
// lab::PlanRun back — the same shape lab::run_plan returns, so `hilab
// --connect` shares the table/JSON/CSV path with local mode and the
// acceptance criterion ("connected results bit-identical to local runs")
// is checkable with lab::results_identical.
//
// The client rebuilds the plan locally (plans are named registry
// entries; both ends materialize identical cells), streams CellDone
// frames into the right run slots as they arrive — any order, any
// interleaving with the other clients the daemon is serving — and
// finishes on PlanDone.  A daemon-side Error frame throws; per-cell
// failures arrive in the error slots like local runs.
//
// Connection loss is survivable by resubmission: on a transport failure
// the client reconnects with bounded exponential backoff and sends the
// same SubmitPlan again.  The daemon serves finished cells from its memo
// or the shared ResultCache and attaches still-running ones through its
// logical-key dedup, so no finished cell is simulated again; a
// received-set keeps re-delivered cells from counting twice.  Only when the daemon was
// NEVER reachable does the client give up with ConnectError, which
// `hilab --connect` maps to its dedicated exit code.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "lab/plan.hpp"
#include "lab/runner.hpp"
#include "serve/protocol.hpp"

namespace hidisc::serve {

// The daemon could not be reached at all (refused/timed out before any
// handshake succeeded) — distinct from a mid-plan failure so callers can
// print a "is hiserved running?" hint and exit accordingly.
class ConnectError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct ClientOptions {
  std::string endpoint;  // unix path or tcp:HOST:PORT
  // Progress callback, same contract as lab::RunOptions::on_cell.
  std::function<void(const lab::Cell& cell, std::size_t done,
                     std::size_t total, bool from_cache)>
      on_cell;
  // Reconnect-and-resubmit attempts after a connection failure (0 = fail
  // on the first loss); backoff is 50ms doubling, capped at 2s.
  int max_reconnects = 8;
};

struct ConnectedRun {
  lab::PlanRun run;          // indexed by cell, like lab::run_plan
  std::size_t dedup = 0;     // cells served by sharing another plan's job
  double server_wall_ms = 0; // daemon-side plan wall clock
  std::size_t reconnects = 0;  // connection losses survived
};

// Submits `req` and blocks until the plan completes.  `plan` must be the
// client-side materialization of the same request (see
// materialize_plan); it provides cell count and progress labels.
// Throws std::runtime_error on daemon errors (unknown plan, draining)
// and TransportError/ProtocolError on connection problems.
[[nodiscard]] ConnectedRun run_plan_connected(const PlanRequest& req,
                                              const lab::ExperimentPlan& plan,
                                              const ClientOptions& opt);

// Fetches the daemon's service-stats JSON over a fresh connection.
[[nodiscard]] std::string fetch_service_stats(const std::string& endpoint);

}  // namespace hidisc::serve
