// Functional (architectural) simulator for HISA.
//
// Executes a program sequentially and, optionally, records the dynamic
// trace that drives the cycle-level machines (DESIGN.md §6: a machine
// pulls it chunk by chunk while it simulates).  The simulator honours the
// decoupling annotation flags (push_ldq/push_sdq) and the explicit queue
// opcodes, maintaining real FIFO contents, so both original and
// compiler-separated binaries execute to the same architectural result —
// the invariant the integration tests enforce.
//
// Two interpreters share this architectural state (docs/FUNCTIONAL.md):
//
//  * the threaded-code interpreter (decoded.hpp + interp.cpp) — the fast
//    path behind run()/run_trace()/run_streamed(): pre-decoded DecodedOp
//    table, computed-goto dispatch to one handler per opcode, batched
//    trace emission into a pre-sized buffer (run_trace) or one reused
//    chunk buffer (run_streamed);
//  * the reference switch interpreter (step(), run_ref(), run_trace_ref())
//    — the original giant-switch implementation, kept as the semantic
//    oracle.  Setting HIDISC_FSIM_REF=1 (mirroring HIDISC_LOCKSTEP) makes
//    every run()/run_trace()/run_streamed() shadow-execute the reference
//    interpreter on a snapshot and byte-compare traces (chunk by chunk for
//    streamed runs) and final state.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "isa/program.hpp"
#include "sim/memory.hpp"

namespace hidisc::sim {

struct DecodedOp;

// HISA FP semantics pin the one bit-level freedom IEEE 754 leaves open:
// an arithmetic result that is NaN always commits as the canonical quiet
// NaN (0x7ff8000000000000).  Hardware is looser — x86 propagates the
// *first machine operand's* NaN payload, so a commutative add of two
// NaNs can return either payload depending on how the compiler allocated
// registers.  Left unpinned, trace bytes would depend on codegen context,
// which is fatal for the dual-interpreter byte-identity invariant and
// for trace caches shared across builds.  Both interpreters apply this
// to every NaN-capable arithmetic op (FADD..FMAX); pure bit operations
// (FNEG/FABS/FMOV, loads, queue moves) preserve payloads exactly and
// are deterministic without it.
inline double canon_nan(double v) {
  return std::isnan(v) ? std::numeric_limits<double>::quiet_NaN() : v;
}

// One retired dynamic instruction.  24 bytes; a few million entries is the
// expected scale for the DIS workloads.
struct TraceEntry {
  std::int32_t static_idx = 0;  // index into Program::code
  std::int32_t next = 0;        // index of the dynamically next instruction
  std::uint64_t addr = 0;       // effective address for memory ops
  std::int64_t value = 0;       // result (bit-cast for FP); stores: data
};

using Trace = std::vector<TraceEntry>;

class ExecError : public std::runtime_error {
  using std::runtime_error::runtime_error;
};

class Functional {
 public:
  // The default step budget aborts runaway programs (e.g. a miscompiled
  // benchmark looping forever) long before memory is exhausted.
  static constexpr std::uint64_t kDefaultMaxSteps = 200'000'000;

  // Trace buffers are pre-sized from the step budget, capped here (8 Mi
  // entries = 192 MiB) so small kernels with a large budget reserve lazily
  // committed address space, not resident memory.
  static constexpr std::uint64_t kTraceReserveCap = 1ull << 23;

  // Entries per run_streamed() chunk: one reused 96 KiB buffer, small
  // enough to stay cache-resident between the interpreter and the sink.
  static constexpr std::size_t kStreamChunk = 4096;

  // Receives consecutive pieces of a streamed run's trace.  The span is
  // valid only for the call; the buffer behind it is reused.
  using ChunkSink = std::function<void(std::span<const TraceEntry>)>;

  explicit Functional(const isa::Program& prog);

  // Deep copy (memory pages cloned; the decoded table is shared).  Used by
  // the HIDISC_FSIM_REF shadow oracle to snapshot state mid-flight.
  Functional(const Functional&) = default;

  // Runs until HALT.  Throws ExecError on bad programs (queue underflow,
  // division by zero, step budget exceeded, pc out of range).
  void run(std::uint64_t max_steps = kDefaultMaxSteps);

  // Runs until HALT while recording the dynamic trace.
  [[nodiscard]] Trace run_trace(std::uint64_t max_steps = kDefaultMaxSteps);

  // Runs until HALT, handing the dynamic trace to `sink` in order, at most
  // `chunk` entries per call, without ever holding more than one chunk:
  // the concatenated chunks are byte-identical to run_trace().  Errors
  // (budget included) throw the same ExecError at the same instructions()
  // as run_trace(); the failing chunk's entries are not delivered.
  void run_streamed(const ChunkSink& sink,
                    std::uint64_t max_steps = kDefaultMaxSteps,
                    std::size_t chunk = kStreamChunk);

  // One chunk of a streamed run, in pull form (run_streamed's loop body):
  // appends at most `chunk` entries to `out`, then pauses or ends at HALT;
  // reaching `max_steps` throws the budget ExecError.  `ref` is null or the
  // HIDISC_FSIM_REF snapshot taken before the first chunk, replayed and
  // compared chunk by chunk.
  void stream_chunk(Trace& out, std::uint64_t max_steps, std::size_t chunk,
                    Functional* ref);

  // Reference-interpreter equivalents of run()/run_trace(): drive the
  // original switch interpreter step by step.  Byte-identical behaviour to
  // the threaded path is the hard invariant; the fuzz oracle's
  // dual-interpreter leg and the HIDISC_FSIM_REF shadow both compare
  // against these.
  void run_ref(std::uint64_t max_steps = kDefaultMaxSteps);
  [[nodiscard]] Trace run_trace_ref(
      std::uint64_t max_steps = kDefaultMaxSteps);

  // Single step of the reference switch interpreter; returns false once
  // halted.  Interleaves freely with run()/run_trace(), which resume from
  // whatever state it leaves.
  bool step(TraceEntry* out = nullptr);

  // True when HIDISC_FSIM_REF is set: run()/run_trace() shadow-execute the
  // reference interpreter and compare.
  [[nodiscard]] static bool ref_shadow_enabled() noexcept;

  // Architectural state access ----------------------------------------------
  [[nodiscard]] std::int64_t reg(int idx) const { return iregs_[idx]; }
  [[nodiscard]] double freg(int idx) const { return fregs_[idx]; }
  void set_reg(int idx, std::int64_t v) {
    if (idx != 0) iregs_[idx] = v;
  }
  void set_freg(int idx, double v) { fregs_[idx] = v; }
  [[nodiscard]] Memory& memory() noexcept { return mem_; }
  [[nodiscard]] const Memory& memory() const noexcept { return mem_; }
  [[nodiscard]] bool halted() const noexcept { return halted_; }
  [[nodiscard]] std::uint64_t instructions() const noexcept { return icount_; }
  [[nodiscard]] std::int32_t pc() const noexcept { return pc_; }

  // Digest of registers + memory; equal digests across machine
  // configurations certify identical architectural outcomes.
  [[nodiscard]] std::uint64_t state_digest() const;

 private:
  struct QVal {
    enum class Tag : std::uint8_t { Int, Fp, Eod } tag = Tag::Int;
    std::int64_t bits = 0;

    bool operator==(const QVal&) const = default;
  };

  [[nodiscard]] QVal pop_queue(std::deque<QVal>& q, const char* name);

  void ensure_decoded();

  // The threaded-code hot loop (interp.cpp).  Executes until HALT, an
  // ExecError, or `stop_at` retired instructions (stop_at <= max_steps):
  // reaching stop_at == max_steps throws the budget error, an earlier
  // stop_at returns — a pause that the next call resumes from.  When
  // kEmit, appends one TraceEntry per retired instruction to *out.
  template <bool kEmit>
  void exec_threaded(std::uint64_t max_steps, std::uint64_t stop_at,
                     Trace* out);

  // Reference-interpreter counterpart of exec_threaded's stop semantics.
  void ref_run(std::uint64_t max_steps, std::uint64_t stop_at, Trace* out);

  // Runs the threaded interpreter to `stop_at` and shadow-compares it with
  // `ref` (a snapshot at the same point) replayed to the same stop; throws
  // ExecError on any divergence, else rethrows the run's own ExecError.
  // A pause compares the trace, pc and icount; the full architectural
  // state is compared once the run ends (halt or error).
  void shadowed_exec(Functional& ref, std::uint64_t max_steps,
                     std::uint64_t stop_at, Trace* out);

  const isa::Program& prog_;
  Memory mem_;
  std::array<std::int64_t, isa::kNumIntRegs> iregs_{};
  std::array<double, isa::kNumFpRegs> fregs_{};
  std::deque<QVal> ldq_;
  std::deque<QVal> sdq_;
  std::int64_t scq_tokens_ = 0;
  std::int32_t pc_ = 0;
  bool halted_ = false;
  std::uint64_t icount_ = 0;
  std::shared_ptr<const std::vector<DecodedOp>> decoded_;
};

}  // namespace hidisc::sim
