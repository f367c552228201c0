// Forward-only view of a machine's dynamic trace (docs/MACHINE.md).
//
// A Machine reads its trace only forward: fetch advances fetch_pos_, and a
// CMP context reads at most max(cmp_fork_lookahead, kCmpLookaheadMax)
// entries past it (its fork anchor; a scan stops at kCmpMaxRunahead).
// Entries below the low-water mark (fetch_pos_ and the scan position of
// every active CMP context) are never read again.
//
// The window serves those reads either from a whole trace the caller
// holds, or from the machine's own functional run, pulled one
// sim::Functional::stream_chunk at a time as reads reach its end.  A
// refill first drops the entries below the low-water mark, so a streamed
// run holds a few thousand entries, never the whole trace.  A functional
// error is thrown as sim::ExecError from the read that reaches it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>

#include "isa/program.hpp"
#include "sim/functional.hpp"

namespace hidisc::machine {

class TraceWindow {
 public:
  // Serves `trace`, which must outlive the window.
  explicit TraceWindow(std::span<const sim::TraceEntry> trace)
      : data_(trace.data()), end_(trace.size()) {}
  // Streams the functional run of `prog` (which must outlive the window)
  // under the step budget `max_steps`.
  TraceWindow(const isa::Program& prog, std::uint64_t max_steps)
      : stream_(std::make_unique<Stream>(prog, max_steps)) {}

  // A window over the same trace, back at entry 0.
  [[nodiscard]] TraceWindow restart() const {
    if (stream_) return TraceWindow(stream_->prog, stream_->max_steps);
    return TraceWindow(std::span(data_, end_));
  }

  // True when the trace has no entry at `pos`.  Refills as needed, and only
  // then evaluates `low()`, the caller's low-water mark.
  template <class Low>
  [[nodiscard]] bool ended(std::size_t pos, const Low& low) {
    return pos >= end_ && !extend(pos, low());
  }

  // Entry `pos`, once ended(pos) is false; valid until the next ended().
  // Throws std::logic_error for an entry a refill dropped (below the
  // low-water mark it was given).
  [[nodiscard]] const sim::TraceEntry& at(std::size_t pos) const {
    if (pos < base_) [[unlikely]]
      below_base(pos);
    return data_[pos - base_];
  }

  // Runs the trace to its end, keeping nothing, and returns its length.
  [[nodiscard]] std::size_t drain();

 private:
  // A streamed window's source: the functional run and the buffer holding
  // entries [base_, end_).
  struct Stream {
    Stream(const isa::Program& p, std::uint64_t steps)
        : prog(p), max_steps(steps), func(p) {}
    void next_chunk() {
      func.stream_chunk(buf, max_steps, sim::Functional::kStreamChunk);
    }

    const isa::Program& prog;
    std::uint64_t max_steps;
    sim::Functional func;
    sim::Trace buf;
  };

  bool extend(std::size_t pos, std::size_t low);
  [[noreturn]] void below_base(std::size_t pos) const;

  const sim::TraceEntry* data_ = nullptr;  // entry `base_`
  std::size_t base_ = 0;
  std::size_t end_ = 0;             // one past the last entry held
  std::unique_ptr<Stream> stream_;  // null when serving a whole trace
};

}  // namespace hidisc::machine
