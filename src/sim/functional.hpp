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
//    path behind run()/run_trace()/stream_chunk(): pre-decoded DecodedOp
//    table, computed-goto dispatch to one handler per opcode, batched
//    trace emission into a pre-sized buffer (run_trace) or the caller's
//    reused chunk buffer (stream_chunk);
//  * the reference switch interpreter (step(), run_trace_ref()) — the
//    original giant-switch implementation, kept as the semantic oracle
//    that tests and the fuzz oracle compare the threaded path against.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <utility>
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

// FMIN/FMAX: C's fmin/fmax (a NaN operand yields the other operand) with
// -0 ordered below +0.  C lets fmin(+0, -0) return either zero and the
// choice varies with how each call site is compiled, so both interpreters
// pin it here, as canon_nan pins NaN payloads.
inline double fp_min(double a, double b) {
  if (std::isnan(a)) return b;
  if (std::isnan(b)) return a;
  if (a == b) return std::signbit(a) ? a : b;
  return a < b ? a : b;
}
inline double fp_max(double a, double b) {
  if (std::isnan(a)) return b;
  if (std::isnan(b)) return a;
  if (a == b) return std::signbit(a) ? b : a;
  return a > b ? a : b;
}

// One retired dynamic instruction.  24 bytes; a few million entries is the
// expected scale for the DIS workloads.  Trivial (no member initialisers),
// so a Trace grows without writing its new entries: `TraceEntry{}` is
// zero, a plain `TraceEntry e;` is unwritten.
struct TraceEntry {
  std::int32_t static_idx;  // index into Program::code
  std::int32_t next;        // index of the dynamically next instruction
  std::uint64_t addr;       // effective address for memory ops
  std::int64_t value;       // result (bit-cast for FP); stores: data
};

// std::allocator whose argument-less construct() default-initialises, so
// resize() on a vector of trivial entries leaves them unwritten for the
// interpreter to fill: each emitted entry is written once.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  DefaultInitAllocator() = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}

  template <typename U>
  void construct(U* p) noexcept {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

using Trace = std::vector<TraceEntry, DefaultInitAllocator<TraceEntry>>;

class ExecError : public std::runtime_error {
  using std::runtime_error::runtime_error;
};

class Functional {
 public:
  // The default step budget aborts runaway programs (e.g. a miscompiled
  // benchmark looping forever) long before memory is exhausted.
  static constexpr std::uint64_t kDefaultMaxSteps = 200'000'000;

  // Trace buffers are pre-sized from the step budget, capped here (64 Ki
  // entries = 1.5 MiB, under the 32 MiB ceiling of glibc's dynamic mmap
  // threshold, so repeated calls recycle heap instead of mapping and
  // faulting in a fresh region each time); longer traces grow by doubling.
  static constexpr std::uint64_t kTraceReserveCap = 1ull << 16;

  // Entries per stream_chunk() call: one reused 96 KiB buffer, small
  // enough to stay cache-resident between the interpreter and its reader.
  static constexpr std::size_t kStreamChunk = 4096;

  explicit Functional(const isa::Program& prog);

  // Runs until HALT.  Throws ExecError on bad programs (queue underflow,
  // division by zero, step budget exceeded, pc out of range).
  void run(std::uint64_t max_steps = kDefaultMaxSteps);

  // Runs until HALT while recording the dynamic trace.
  [[nodiscard]] Trace run_trace(std::uint64_t max_steps = kDefaultMaxSteps);

  // One chunk of a streamed run: appends at most `chunk` (> 0) entries to
  // `out`, then pauses or ends at HALT; reaching `max_steps` throws the
  // budget ExecError.  Calling it until halted(), clearing one reused
  // buffer before each call, streams the run without ever holding more
  // than one chunk: the concatenated chunks are byte-identical to
  // run_trace(), and errors (budget included) throw the same ExecError at
  // the same instructions().
  void stream_chunk(Trace& out, std::uint64_t max_steps, std::size_t chunk);

  // Reference-interpreter equivalent of run_trace(): drives the original
  // switch interpreter step by step.  Byte-identical behaviour to the
  // threaded path is the hard invariant; the fuzz oracle's
  // dual-interpreter leg and the tests (docs/FUNCTIONAL.md) compare
  // against it.
  [[nodiscard]] Trace run_trace_ref(
      std::uint64_t max_steps = kDefaultMaxSteps);

  // Single step of the reference switch interpreter; returns false once
  // halted.  Interleaves freely with run()/run_trace(), which resume from
  // whatever state it leaves.
  bool step(TraceEntry* out = nullptr);

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
  // Exact architectural equality: registers bitwise, the LDQ/SDQ contents
  // (tag and bits), the SCQ token count and memory page by page
  // (Memory::same_pages).  state_digest() summarises its registers and
  // memory.
  [[nodiscard]] bool same_arch_state(const Functional& other) const;

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
