#include "serve/client.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <vector>

#include "serve/transport.hpp"

namespace hidisc::serve {

namespace {

using Clock = std::chrono::steady_clock;

[[noreturn]] void throw_daemon_error(const Frame& f) {
  const KvMap kv = kv_parse(f.payload);
  std::string msg = "hiserve daemon: " + kv_get(kv, "message", "error");
  const std::string plans = kv_get(kv, "plans");
  if (!plans.empty()) msg += "\navailable plans: " + plans;
  throw std::runtime_error(msg);
}

// Next frame from the daemon; Error frames throw, and a closed
// connection is a TransportError (which the reconnect loop owns).
Frame expect_frame(Conn& conn) {
  auto f = conn.recv_frame();
  if (!f) throw TransportError("hiserve client: daemon closed the connection");
  if (f->type == MsgType::Error) throw_daemon_error(*f);
  return std::move(*f);
}

Conn handshake(const std::string& endpoint) {
  Conn conn = connect_to(endpoint);
  conn.send_frame(Frame{MsgType::Hello,
                        kv_encode({{"proto",
                                    std::to_string(kProtocolVersion)}})});
  const Frame ok = expect_frame(conn);
  if (ok.type != MsgType::HelloOk)
    throw ProtocolError("hiserve client: expected HelloOk, got " +
                        std::string(msg_type_name(ok.type)));
  return conn;
}

}  // namespace

ConnectedRun run_plan_connected(const PlanRequest& req,
                                const lab::ExperimentPlan& plan,
                                const ClientOptions& opt) {
  const auto start = Clock::now();
  ConnectedRun out;
  out.run.cells.resize(plan.cells.size());
  // Received-set: a resubmission after a reconnect re-delivers cells the
  // lost connection already carried.
  std::vector<char> got(plan.cells.size(), 0);
  std::size_t done = 0;
  bool ever_connected = false;
  bool finished = false;
  int attempts = 0;

  while (!finished) {
    try {
      Conn conn = handshake(opt.endpoint);
      ever_connected = true;
      conn.send_frame(Frame{MsgType::SubmitPlan, kv_encode(req.to_kv())});
      const Frame accepted = expect_frame(conn);
      if (accepted.type != MsgType::PlanAccepted)
        throw ProtocolError("hiserve client: expected PlanAccepted, got " +
                            std::string(msg_type_name(accepted.type)));
      const std::size_t cells = kv_get_u64(kv_parse(accepted.payload), "cells");
      if (cells != plan.cells.size())
        throw std::runtime_error(
            "hiserve client: daemon materialized " + std::to_string(cells) +
            " cells for plan '" + req.plan + "' but this client built " +
            std::to_string(plan.cells.size()) +
            " — client/daemon plan registries disagree (version skew?)");

      for (;;) {
        const Frame f = expect_frame(conn);
        if (f.type == MsgType::CellDone) {
          const KvMap kv = kv_parse(f.payload);
          const std::size_t idx = kv_get_u64(kv, "cell");
          if (idx >= out.run.cells.size())
            throw ProtocolError("hiserve client: cell index " +
                                std::to_string(idx) + " out of range");
          if (got[idx]) continue;
          got[idx] = 1;
          out.run.cells[idx] = cell_result_from_kv(kv);
          // The daemon marks dedup- and memo-served cells cached on the
          // wire even when the underlying job simulated (from another
          // client's submission); from_cache is the client-visible
          // meaning.
          out.run.cells[idx].from_cache = kv_get(kv, "cached") == "1";
          if (kv_get(kv, "dedup") == "1") ++out.dedup;
          ++done;
          if (opt.on_cell)
            opt.on_cell(plan.cells[idx], done, plan.cells.size(),
                        out.run.cells[idx].from_cache);
          continue;
        }
        if (f.type == MsgType::PlanDone) {
          out.server_wall_ms =
              kv_get_double(kv_parse(f.payload), "wall_ms");
          finished = true;
          break;
        }
        throw ProtocolError("hiserve client: unexpected frame " +
                            std::string(msg_type_name(f.type)));
      }
    } catch (const TransportError& e) {
      if (attempts >= opt.max_reconnects) {
        if (!ever_connected)
          throw ConnectError("hiserve client: cannot reach daemon at " +
                             opt.endpoint + ": " + e.what());
        throw;
      }
      ++attempts;
      ++out.reconnects;
      const int backoff_ms =
          std::min(50 << std::min(attempts - 1, 10), 2000);
      ::usleep(static_cast<useconds_t>(backoff_ms) * 1000);
    }
  }
  if (done != plan.cells.size())
    throw std::runtime_error("hiserve client: plan finished after " +
                             std::to_string(done) + "/" +
                             std::to_string(plan.cells.size()) + " cells");

  out.run.wall_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start)
          .count();
  // Plan counts, pipeline node stats and simulator throughput, with the
  // same definitions as lab::run_plan.  The counts come from the cells,
  // not from PlanDone: after a resubmission the daemon's last plan saw
  // only part of this run.  Compile/trace work travels on the wire per
  // cell (zeroed by the daemon for dedup/memo deliveries, so summing
  // never double counts).  Totals for compile/trace are unknowable here —
  // node sharing happens daemon-side — so they mirror the observed work.
  pipeline::NodeStats& n = out.run.nodes;
  double sim_ms = 0.0;
  std::uint64_t sim_cycles = 0;
  for (const auto& c : out.run.cells) {
    n.compile.rebuilt += c.compile_nodes_rebuilt;
    n.trace.hits += c.trace_nodes_hit;
    n.trace.rebuilt += c.trace_nodes_rebuilt;
    ++n.sim.total;
    if (!c.ok()) {
      ++n.sim.failed;
    } else if (c.from_cache) {
      ++n.sim.hits;
    } else {
      ++n.sim.rebuilt;
      if (c.wall_ms > 0.0) {
        sim_ms += c.wall_ms;
        sim_cycles += c.result.cycles;
      }
    }
  }
  n.compile.total = n.compile.hits + n.compile.rebuilt + n.compile.failed;
  n.trace.total = n.trace.hits + n.trace.rebuilt + n.trace.failed;
  out.run.preps = n.compile.rebuilt;
  out.run.traces = n.trace.rebuilt;
  out.run.simulated = n.sim.rebuilt;
  out.run.cache_hits = n.sim.hits;
  out.run.failed = n.sim.failed;
  if (sim_ms > 0.0)
    out.run.sim_cycles_per_sec =
        static_cast<double>(sim_cycles) * 1000.0 / sim_ms;
  return out;
}

std::string fetch_service_stats(const std::string& endpoint) {
  Conn conn = handshake(endpoint);
  conn.send_frame(Frame{MsgType::GetStats, ""});
  const Frame f = expect_frame(conn);
  if (f.type != MsgType::Stats)
    throw ProtocolError("hiserve client: expected Stats, got " +
                        std::string(msg_type_name(f.type)));
  return f.payload;
}

}  // namespace hidisc::serve
