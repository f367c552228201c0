#include "serve/worker.hpp"

#include <stdexcept>

namespace hidisc::serve {

lab::ExperimentPlan materialize_plan(const PlanRequest& req) {
  workloads::Scale scale;
  if (req.scale == "paper") scale = workloads::Scale::Paper;
  else if (req.scale == "test") scale = workloads::Scale::Test;
  else throw std::runtime_error("hiserve: unknown scale '" + req.scale + "'");
  lab::ExperimentPlan plan = lab::make_plan(req.plan, scale);
  if (req.watchdog != 0 || req.lockstep)
    for (auto& cell : plan.cells) {
      if (req.watchdog != 0) cell.config.watchdog_cycles = req.watchdog;
      if (req.lockstep)
        cell.config.scheduler = machine::SchedulerKind::Lockstep;
    }
  return plan;
}

CellExecutor::CellExecutor(std::string cache_dir) {
  if (!cache_dir.empty()) {
    results_.emplace(cache_dir);
    traces_.emplace(cache_dir);
  }
  pipeline::Pipeline::Stores stores;
  stores.results = results_ ? &*results_ : nullptr;
  stores.traces = traces_ ? &*traces_ : nullptr;
  pipe_.emplace(stores);
}

CellExecutor::~CellExecutor() = default;

lab::CellResult CellExecutor::execute(const JobSpec& spec) {
  const lab::ExperimentPlan plan = materialize_plan(spec.plan);
  if (spec.cell >= plan.cells.size())
    throw std::out_of_range("hiserve: cell index out of range");

  // A single-cell node set, executed inline (no pool): the worker is the
  // parallelism unit, the daemon runs many of us.  The session memo and
  // the on-disk stores carry compile/trace artifacts across jobs.
  pipe_->set_refresh(spec.plan.refresh);
  const std::vector<lab::Cell> cells{plan.cells[spec.cell]};
  pipeline::Pipeline::Outcome outcome = pipe_->run(cells, nullptr);

  lab::CellResult out = std::move(outcome.cells.at(0));
  // Per-cell provenance is well-defined here — every node the run touched
  // was for this one cell — so connected clients can aggregate pipeline
  // stats by summing these over delivered cells (the daemon zeroes them
  // on dedup/memo deliveries to avoid double counting).
  out.compile_nodes_rebuilt =
      static_cast<std::uint32_t>(outcome.nodes.compile.rebuilt);
  out.trace_nodes_hit = static_cast<std::uint32_t>(outcome.nodes.trace.hits);
  out.trace_nodes_rebuilt =
      static_cast<std::uint32_t>(outcome.nodes.trace.rebuilt);
  return out;
}

int worker_main(Conn conn, const std::string& cache_dir) {
  CellExecutor exec(cache_dir);
  try {
    for (;;) {
      const auto frame = conn.recv_frame();
      if (!frame || frame->type == MsgType::Shutdown) return 0;
      if (frame->type != MsgType::Job) continue;  // ignore strays
      const JobSpec spec = JobSpec::from_kv(kv_parse(frame->payload));
      const lab::CellResult res = exec.execute(spec);
      KvMap kv = cell_result_to_kv(res);
      kv["job"] = std::to_string(spec.job_id);
      conn.send_frame(Frame{MsgType::JobDone, kv_encode(kv)});
    }
  } catch (const std::exception&) {
    // Unreadable socket / daemon bug: die loudly, the daemon's
    // crash-retry machinery owns recovery.
    return 1;
  }
}

}  // namespace hidisc::serve
