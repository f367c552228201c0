// Bounded flight recorder for the timing machines.
//
// A fixed-size ring buffer of the most recent scheduler / queue / fetch
// transitions, read only after a failure: the DeadlockReport attaches the
// tail so a watchdog abort carries the machine's last moves, not just its
// final frozen state.  A healthy run records nothing.  A simulation is
// deterministic, so when one deadlocks, `Machine` replays the same inputs
// once with a recorder attached, one or two records per event step, and
// that replay's report is the one thrown (docs/MACHINE.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hidisc::diag {

enum class StepKind : std::uint8_t {
  Progress,     // the step changed machine state
  Stall,        // nothing progressed this step
  Skip,         // fast-forward jump; arg = cycles skipped
  FetchBlock,   // front end blocked (branch or I-fetch); arg = trace pos
  FetchResume,  // front end unblocked
  Deadlock,     // the watchdog fired at this cycle
};

[[nodiscard]] constexpr const char* step_kind_name(StepKind k) noexcept {
  switch (k) {
    case StepKind::Progress: return "progress";
    case StepKind::Stall: return "stall";
    case StepKind::Skip: return "skip";
    case StepKind::FetchBlock: return "fetch-block";
    case StepKind::FetchResume: return "fetch-resume";
    case StepKind::Deadlock: return "deadlock";
  }
  return "?";
}

// One transition.  Queue/window occupancies are sampled at record time so
// a replayed tail shows how traffic drained (or stopped draining) in the
// run-up to a failure.
struct StepRecord {
  std::uint64_t cycle = 0;
  StepKind kind = StepKind::Progress;
  std::uint64_t arg = 0;       // Skip: delta; FetchBlock: trace position
  std::uint64_t fetch_pos = 0;
  std::uint16_t ldq = 0, sdq = 0, scq = 0;  // queue occupancies
  std::uint16_t window[4] = {0, 0, 0, 0};   // main, CP, AP, CMP occupancy
};

class FlightRecorder {
 public:
  // `depth` is rounded up to a power of two (minimum 16).
  explicit FlightRecorder(std::size_t depth) {
    std::size_t cap = 16;
    while (cap < depth) cap <<= 1;
    ring_.resize(cap);
    mask_ = cap - 1;
  }

  void record(const StepRecord& r) noexcept {
    ring_[static_cast<std::size_t>(written_) & mask_] = r;
    ++written_;
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return ring_.size(); }
  // Total records ever written (>= capacity() means the ring has wrapped).
  [[nodiscard]] std::uint64_t recorded() const noexcept { return written_; }

  // The retained tail, oldest first.
  [[nodiscard]] std::vector<StepRecord> snapshot() const {
    const std::uint64_t n =
        written_ < ring_.size() ? written_ : ring_.size();
    std::vector<StepRecord> out;
    out.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = written_ - n; i < written_; ++i)
      out.push_back(ring_[static_cast<std::size_t>(i) & mask_]);
    return out;
  }

 private:
  std::vector<StepRecord> ring_;
  std::size_t mask_ = 0;
  std::uint64_t written_ = 0;
};

}  // namespace hidisc::diag
