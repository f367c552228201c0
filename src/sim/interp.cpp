// Threaded-code execution engine for the functional simulator.
//
// `Functional::exec_threaded` runs the pre-decoded DecodedOp table
// (decoded.hpp) with computed-goto dispatch (a GNU extension that GCC and
// Clang both implement), one handler per opcode.  The hot loop keeps both
// register files in local 33-slot arrays (slot kSinkReg absorbs r0 /
// no-destination commits, so handlers commit unconditionally) and batches
// trace emission into the caller's buffer.  Architectural state is synced
// back to the Functional members on every exit path, including thrown
// ExecErrors, so step()-level interleaving and post-mortem state inspection
// behave exactly like the reference switch interpreter in functional.cpp.
//
// Semantics here must stay byte-identical to Functional::step(); the
// HIDISC_FSIM_REF shadow oracle and the fuzz campaign's dual-interpreter
// leg enforce that (docs/FUNCTIONAL.md).

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>

#include "sim/decoded.hpp"
#include "sim/functional.hpp"

#define HIDISC_UNLIKELY(x) __builtin_expect(!!(x), 0)

namespace hidisc::sim {

namespace {

// Wrapping arithmetic: HISA integer ops wrap modulo 2^64 (workloads use
// full-width hash multiplies), so compute in unsigned and cast back.
inline std::int64_t wrap_add(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                   static_cast<std::uint64_t>(b));
}
inline std::int64_t wrap_sub(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) -
                                   static_cast<std::uint64_t>(b));
}
inline std::int64_t wrap_mul(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) *
                                   static_cast<std::uint64_t>(b));
}

// Saturating fp->int conversion (RISC-V FCVT.L.D semantics): values outside
// the int64 range clamp, NaN converts to zero.
inline std::int64_t cvt_fi(double v) {
  if (std::isnan(v)) return 0;
  if (v >= 9223372036854775808.0) return INT64_MAX;
  if (v < -9223372036854775808.0) return INT64_MIN;
  return static_cast<std::int64_t>(v);
}

}  // namespace

template <bool kEmit>
void Functional::exec_threaded(std::uint64_t max_steps, std::uint64_t stop_at,
                               Trace* out) {
  if (halted_) return;
  ensure_decoded();
  const DecodedOp* const ops = decoded_->data();
  const auto ncode = static_cast<std::uint32_t>(prog_.code.size());

  // Register-file hot loop: 32 architectural slots plus the sink.
  std::int64_t R[33];
  double F[33];
  std::memcpy(R, iregs_.data(), sizeof(std::int64_t) * isa::kNumIntRegs);
  std::memcpy(F, fregs_.data(), sizeof(double) * isa::kNumFpRegs);
  R[kSinkReg] = 0;
  F[kSinkReg] = 0.0;

  std::int32_t pc = pc_;
  std::uint64_t icount = icount_;
  const DecodedOp* op = nullptr;
  const char* err_what = "";

  // Emission goes through local cursors into a slab of `out`, and sync()
  // trims its unused tail: push_back would reload the vector's bounds
  // after every store to simulated memory (byte stores may alias them),
  // doubling the cost.  Slabs double from 256 entries up to one
  // kStreamChunk, never past stop_at, so a short run zero-fills little.
  TraceEntry* cur = nullptr;
  TraceEntry* lim = nullptr;
  const auto open_slab = [&] {
    const auto used = out->size() - static_cast<std::size_t>(lim - cur);
    const std::size_t n = static_cast<std::size_t>(std::min<std::uint64_t>(
        stop_at - icount,
        std::clamp<std::size_t>(used, 256, Functional::kStreamChunk)));
    out->resize(used + n);
    cur = out->data() + used;
    lim = cur + n;
  };

  const auto sync = [&] {
    if constexpr (kEmit)
      out->resize(out->size() - static_cast<std::size_t>(lim - cur));
    std::memcpy(iregs_.data(), R, sizeof(std::int64_t) * isa::kNumIntRegs);
    std::memcpy(fregs_.data(), F, sizeof(double) * isa::kNumFpRegs);
    pc_ = pc;
    icount_ = icount;
  };
  const auto push_int = [&](std::uint8_t fl, std::int64_t v) {
    if (fl & kFlagPushLdq) ldq_.push_back({QVal::Tag::Int, v});
    if (fl & kFlagPushSdq) sdq_.push_back({QVal::Tag::Int, v});
  };
  const auto push_fp = [&](std::uint8_t fl, double v) {
    const auto bits = std::bit_cast<std::int64_t>(v);
    if (fl & kFlagPushLdq) ldq_.push_back({QVal::Tag::Fp, bits});
    if (fl & kFlagPushSdq) sdq_.push_back({QVal::Tag::Fp, bits});
  };

#define EMIT(s, n, a, v)                                                     \
  do {                                                                       \
    if constexpr (kEmit) {                                                   \
      if (HIDISC_UNLIKELY(cur == lim)) open_slab();                          \
      *cur++ = TraceEntry{static_cast<std::int32_t>(s),                      \
                          static_cast<std::int32_t>(n),                      \
                          static_cast<std::uint64_t>(a),                     \
                          static_cast<std::int64_t>(v)};                     \
    }                                                                        \
  } while (0)
#define PUSH_INT(fl, v)                       \
  do {                                        \
    const std::uint8_t f_ = (fl);             \
    if (HIDISC_UNLIKELY(f_)) push_int(f_, v); \
  } while (0)
#define PUSH_FP(fl, v)                       \
  do {                                       \
    const std::uint8_t f_ = (fl);            \
    if (HIDISC_UNLIKELY(f_)) push_fp(f_, v); \
  } while (0)
#define EA() \
  (static_cast<std::uint64_t>(R[op->src1]) + static_cast<std::uint64_t>(op->imm))

  // Built per call (not static): GCC documents that address-of-label values
  // may differ between clones of a function, so a static table would be
  // hazardous under IPA cloning.  One pointer store per kind is noise.
  const void* const kLabels[kNumExecKinds] = {
#define X(n) &&case_lbl_##n,
      HIDISC_SIM_OPCODES(X)
#undef X
      &&invalid_opcode,
  };
#define CASE(n) case_lbl_##n:
#define DISPATCH()                                                        \
  do {                                                                    \
    if (HIDISC_UNLIKELY(icount >= stop_at)) goto stop_reached;            \
    if (HIDISC_UNLIKELY(static_cast<std::uint32_t>(pc) >= ncode))         \
      goto pc_out_of_range;                                               \
    op = ops + static_cast<std::uint32_t>(pc);                            \
    goto* kLabels[op->kind];                                              \
  } while (0)

  DISPATCH();

#define ALU_RR(n, expr)                                             \
  CASE(n) {                                                         \
    const std::int64_t a = R[op->src1];                             \
    const std::int64_t b = R[op->src2];                             \
    (void)a; (void)b;                                               \
    const std::int64_t v = (expr);                                  \
    R[op->dst] = v;                                                 \
    PUSH_INT(op->flags, v);                                         \
    EMIT(pc, pc + 1, 0, v);                                         \
    ++pc;                                                           \
    ++icount;                                                       \
    DISPATCH();                                                     \
  }
#define ALU_RI(n, expr)                                             \
  CASE(n) {                                                         \
    const std::int64_t a = R[op->src1];                             \
    const std::int64_t b = op->imm;                                 \
    (void)a; (void)b;                                               \
    const std::int64_t v = (expr);                                  \
    R[op->dst] = v;                                                 \
    PUSH_INT(op->flags, v);                                         \
    EMIT(pc, pc + 1, 0, v);                                         \
    ++pc;                                                           \
    ++icount;                                                       \
    DISPATCH();                                                     \
  }

  ALU_RR(ADD, wrap_add(a, b))
  ALU_RR(SUB, wrap_sub(a, b))
  ALU_RR(MUL, wrap_mul(a, b))

  CASE(DIV) {
    const std::int64_t a = R[op->src1];
    const std::int64_t b = R[op->src2];
    if (HIDISC_UNLIKELY(b == 0)) goto div_by_zero;
    const std::int64_t v = (a == INT64_MIN && b == -1) ? INT64_MIN : a / b;
    R[op->dst] = v;
    PUSH_INT(op->flags, v);
    EMIT(pc, pc + 1, 0, v);
    ++pc;
    ++icount;
    DISPATCH();
  }
  CASE(REM) {
    const std::int64_t a = R[op->src1];
    const std::int64_t b = R[op->src2];
    if (HIDISC_UNLIKELY(b == 0)) goto rem_by_zero;
    const std::int64_t v = (a == INT64_MIN && b == -1) ? 0 : a % b;
    R[op->dst] = v;
    PUSH_INT(op->flags, v);
    EMIT(pc, pc + 1, 0, v);
    ++pc;
    ++icount;
    DISPATCH();
  }

  ALU_RR(AND, a & b)
  ALU_RR(OR, a | b)
  ALU_RR(XOR, a ^ b)
  ALU_RR(NOR, ~(a | b))
  ALU_RR(SLL, static_cast<std::int64_t>(static_cast<std::uint64_t>(a)
                                        << (b & 63)))
  ALU_RR(SRL, static_cast<std::int64_t>(static_cast<std::uint64_t>(a) >>
                                        (b & 63)))
  ALU_RR(SRA, a >> (b & 63))
  ALU_RR(SLT, a < b ? 1 : 0)
  ALU_RR(SLTU, static_cast<std::uint64_t>(a) < static_cast<std::uint64_t>(b)
                   ? 1 : 0)

  ALU_RI(ADDI, wrap_add(a, b))
  ALU_RI(ANDI, a & b)
  ALU_RI(ORI, a | b)
  ALU_RI(XORI, a ^ b)
  ALU_RI(SLLI, static_cast<std::int64_t>(static_cast<std::uint64_t>(a)
                                         << (b & 63)))
  ALU_RI(SRLI, static_cast<std::int64_t>(static_cast<std::uint64_t>(a) >>
                                         (b & 63)))
  ALU_RI(SRAI, a >> (b & 63))
  ALU_RI(SLTI, a < b ? 1 : 0)
  // LUI: imm is pre-shifted by the decoder.
  ALU_RI(LUI, b)

#define FPU(n, expr)                                                \
  CASE(n) {                                                         \
    const double a = F[op->src1];                                   \
    const double b = F[op->src2];                                   \
    (void)a; (void)b;                                               \
    const double v = (expr);                                        \
    F[op->dst] = v;                                                 \
    PUSH_FP(op->flags, v);                                          \
    EMIT(pc, pc + 1, 0, std::bit_cast<std::int64_t>(v));            \
    ++pc;                                                           \
    ++icount;                                                       \
    DISPATCH();                                                     \
  }
#define FCMP(n, expr)                                               \
  CASE(n) {                                                         \
    const double a = F[op->src1];                                   \
    const double b = F[op->src2];                                   \
    const std::int64_t v = (expr) ? 1 : 0;                          \
    R[op->dst] = v;                                                 \
    PUSH_INT(op->flags, v);                                         \
    EMIT(pc, pc + 1, 0, v);                                         \
    ++pc;                                                           \
    ++icount;                                                       \
    DISPATCH();                                                     \
  }

  FPU(FADD, canon_nan(a + b))
  FPU(FSUB, canon_nan(a - b))
  FPU(FMUL, canon_nan(a * b))
  FPU(FDIV, canon_nan(a / b))
  FPU(FSQRT, canon_nan(std::sqrt(a)))
  FPU(FMIN, canon_nan(std::fmin(a, b)))
  FPU(FMAX, canon_nan(std::fmax(a, b)))
  FPU(FNEG, -a)
  FPU(FABS, std::fabs(a))
  FPU(FMOV, a)

  CASE(CVTIF) {
    const double v = static_cast<double>(R[op->src1]);
    F[op->dst] = v;
    PUSH_FP(op->flags, v);
    EMIT(pc, pc + 1, 0, std::bit_cast<std::int64_t>(v));
    ++pc;
    ++icount;
    DISPATCH();
  }
  CASE(CVTFI) {
    const std::int64_t v = cvt_fi(F[op->src1]);
    R[op->dst] = v;
    PUSH_INT(op->flags, v);
    EMIT(pc, pc + 1, 0, v);
    ++pc;
    ++icount;
    DISPATCH();
  }

  FCMP(FEQ, a == b)
  FCMP(FLT, a < b)
  FCMP(FLE, a <= b)

#define LOAD(n, expr)                                               \
  CASE(n) {                                                         \
    const std::uint64_t addr = EA();                                \
    const std::int64_t v = (expr);                                  \
    R[op->dst] = v;                                                 \
    PUSH_INT(op->flags, v);                                         \
    EMIT(pc, pc + 1, addr, v);                                      \
    ++pc;                                                           \
    ++icount;                                                       \
    DISPATCH();                                                     \
  }

  LOAD(LB, static_cast<std::int8_t>(mem_.read<std::uint8_t>(addr)))
  LOAD(LBU, mem_.read<std::uint8_t>(addr))
  LOAD(LH, static_cast<std::int16_t>(mem_.read<std::uint16_t>(addr)))
  LOAD(LHU, mem_.read<std::uint16_t>(addr))
  LOAD(LW, static_cast<std::int32_t>(mem_.read<std::uint32_t>(addr)))
  LOAD(LWU, mem_.read<std::uint32_t>(addr))
  LOAD(LD, mem_.read<std::int64_t>(addr))

  CASE(FLD) {
    const std::uint64_t addr = EA();
    const double v = mem_.read<double>(addr);
    F[op->dst] = v;
    PUSH_FP(op->flags, v);
    EMIT(pc, pc + 1, addr, std::bit_cast<std::int64_t>(v));
    ++pc;
    ++icount;
    DISPATCH();
  }

#define STORE(n, T)                                                 \
  CASE(n) {                                                         \
    const std::uint64_t addr = EA();                                \
    const std::int64_t v = R[op->src2];                             \
    mem_.write<T>(addr, static_cast<T>(v));                         \
    PUSH_INT(op->flags, v);                                         \
    EMIT(pc, pc + 1, addr, v);                                      \
    ++pc;                                                           \
    ++icount;                                                       \
    DISPATCH();                                                     \
  }

  STORE(SB, std::uint8_t)
  STORE(SH, std::uint16_t)
  STORE(SW, std::uint32_t)
  STORE(SD, std::int64_t)

  CASE(FSD) {
    const std::uint64_t addr = EA();
    const double d = F[op->src2];
    mem_.write<double>(addr, d);
    const auto v = std::bit_cast<std::int64_t>(d);
    PUSH_INT(op->flags, v);  // reference FSD leaves wrote_fp unset
    EMIT(pc, pc + 1, addr, v);
    ++pc;
    ++icount;
    DISPATCH();
  }

  CASE(PREF) {
    const std::uint64_t addr = EA();
    PUSH_INT(op->flags, 0);
    EMIT(pc, pc + 1, addr, 0);
    ++pc;
    ++icount;
    DISPATCH();
  }

#define BRANCH(n, expr)                                             \
  CASE(n) {                                                         \
    const std::int64_t a = R[op->src1];                             \
    const std::int64_t b = R[op->src2];                             \
    const std::int32_t nx = (expr) ? op->target : pc + 1;           \
    PUSH_INT(op->flags, 0);                                         \
    EMIT(pc, nx, 0, 0);                                             \
    pc = nx;                                                        \
    ++icount;                                                       \
    DISPATCH();                                                     \
  }

  BRANCH(BEQ, a == b)
  BRANCH(BNE, a != b)
  BRANCH(BLT, a < b)
  BRANCH(BGE, a >= b)
  BRANCH(BLTU,
         static_cast<std::uint64_t>(a) < static_cast<std::uint64_t>(b))
  BRANCH(BGEU,
         static_cast<std::uint64_t>(a) >= static_cast<std::uint64_t>(b))

  CASE(J) {
    const std::int32_t nx = op->target;
    PUSH_INT(op->flags, 0);
    EMIT(pc, nx, 0, 0);
    pc = nx;
    ++icount;
    DISPATCH();
  }
  CASE(JAL) {
    const std::int64_t v = pc + 1;
    const std::int32_t nx = op->target;
    R[op->dst] = v;
    PUSH_INT(op->flags, v);
    EMIT(pc, nx, 0, v);
    pc = nx;
    ++icount;
    DISPATCH();
  }
  CASE(JR) {
    const auto nx = static_cast<std::int32_t>(R[op->src1]);
    PUSH_INT(op->flags, 0);
    EMIT(pc, nx, 0, 0);
    pc = nx;
    ++icount;
    DISPATCH();
  }
  CASE(JALR) {
    // The link value commits after the target register is read, so
    // `jalr rX, rX` jumps to the old value — same as the reference.
    const auto nx = static_cast<std::int32_t>(R[op->src1]);
    const std::int64_t v = pc + 1;
    R[op->dst] = v;
    PUSH_INT(op->flags, v);
    EMIT(pc, nx, 0, v);
    pc = nx;
    ++icount;
    DISPATCH();
  }

  CASE(HALT) {
    halted_ = true;
    PUSH_INT(op->flags, 0);
    EMIT(pc, pc, 0, 0);  // a halting step records next == this pc
    ++icount;
    goto done;
  }

  CASE(PUSHLDQ) {
    const std::int64_t v = R[op->src1];
    ldq_.push_back({QVal::Tag::Int, v});
    PUSH_INT(op->flags, v);
    EMIT(pc, pc + 1, 0, v);
    ++pc;
    ++icount;
    DISPATCH();
  }
  CASE(PUSHLDQF) {
    const auto v = std::bit_cast<std::int64_t>(F[op->src1]);
    ldq_.push_back({QVal::Tag::Fp, v});
    PUSH_INT(op->flags, v);  // reference leaves wrote_fp unset here
    EMIT(pc, pc + 1, 0, v);
    ++pc;
    ++icount;
    DISPATCH();
  }
  CASE(PUSHSDQ) {
    const std::int64_t v = R[op->src1];
    sdq_.push_back({QVal::Tag::Int, v});
    PUSH_INT(op->flags, v);
    EMIT(pc, pc + 1, 0, v);
    ++pc;
    ++icount;
    DISPATCH();
  }
  CASE(PUSHSDQF) {
    const auto v = std::bit_cast<std::int64_t>(F[op->src1]);
    sdq_.push_back({QVal::Tag::Fp, v});
    PUSH_INT(op->flags, v);
    EMIT(pc, pc + 1, 0, v);
    ++pc;
    ++icount;
    DISPATCH();
  }

  CASE(POPLDQ) {
    if (HIDISC_UNLIKELY(ldq_.empty())) {
      err_what = "LDQ";
      goto queue_underflow;
    }
    const QVal qv = ldq_.front();
    ldq_.pop_front();  // the reference pops before the EOD check throws
    if (HIDISC_UNLIKELY(qv.tag == QVal::Tag::Eod)) {
      err_what = "POPLDQ";
      goto eod_consumed;
    }
    R[op->dst] = qv.bits;
    PUSH_INT(op->flags, qv.bits);
    EMIT(pc, pc + 1, 0, qv.bits);
    ++pc;
    ++icount;
    DISPATCH();
  }
  CASE(POPLDQF) {
    if (HIDISC_UNLIKELY(ldq_.empty())) {
      err_what = "LDQ";
      goto queue_underflow;
    }
    const QVal qv = ldq_.front();
    ldq_.pop_front();  // the reference pops before the EOD check throws
    if (HIDISC_UNLIKELY(qv.tag == QVal::Tag::Eod)) {
      err_what = "POPLDQF";
      goto eod_consumed;
    }
    F[op->dst] = std::bit_cast<double>(qv.bits);
    PUSH_FP(op->flags, std::bit_cast<double>(qv.bits));
    EMIT(pc, pc + 1, 0, qv.bits);
    ++pc;
    ++icount;
    DISPATCH();
  }
  CASE(POPSDQ) {
    if (HIDISC_UNLIKELY(sdq_.empty())) {
      err_what = "SDQ";
      goto queue_underflow;
    }
    const QVal qv = sdq_.front();
    sdq_.pop_front();
    R[op->dst] = qv.bits;
    PUSH_INT(op->flags, qv.bits);
    EMIT(pc, pc + 1, 0, qv.bits);
    ++pc;
    ++icount;
    DISPATCH();
  }
  CASE(POPSDQF) {
    if (HIDISC_UNLIKELY(sdq_.empty())) {
      err_what = "SDQ";
      goto queue_underflow;
    }
    const QVal qv = sdq_.front();
    sdq_.pop_front();
    F[op->dst] = std::bit_cast<double>(qv.bits);
    PUSH_FP(op->flags, std::bit_cast<double>(qv.bits));
    EMIT(pc, pc + 1, 0, qv.bits);
    ++pc;
    ++icount;
    DISPATCH();
  }

  CASE(PUTEOD) {
    ldq_.push_back({QVal::Tag::Eod, 0});
    PUSH_INT(op->flags, 0);
    EMIT(pc, pc + 1, 0, 0);
    ++pc;
    ++icount;
    DISPATCH();
  }
  CASE(BEOD) {
    if (HIDISC_UNLIKELY(ldq_.empty())) {
      err_what = "LDQ";
      goto queue_underflow;
    }
    // Peek: the reference pops and re-front-pushes non-EOD tokens, which is
    // state-identical to consuming only on EOD.
    std::int32_t nx;
    if (ldq_.front().tag == QVal::Tag::Eod) {
      ldq_.pop_front();
      nx = op->target;
    } else {
      nx = pc + 1;
    }
    PUSH_INT(op->flags, 0);
    EMIT(pc, nx, 0, 0);
    pc = nx;
    ++icount;
    DISPATCH();
  }
  CASE(GETSCQ) {
    if (HIDISC_UNLIKELY(scq_tokens_ <= 0)) goto scq_underflow;
    --scq_tokens_;
    PUSH_INT(op->flags, 0);
    EMIT(pc, pc + 1, 0, 0);
    ++pc;
    ++icount;
    DISPATCH();
  }
  CASE(PUTSCQ) {
    ++scq_tokens_;
    PUSH_INT(op->flags, 0);
    EMIT(pc, pc + 1, 0, 0);
    ++pc;
    ++icount;
    DISPATCH();
  }
  CASE(NOP) {
    PUSH_INT(op->flags, 0);
    EMIT(pc, pc + 1, 0, 0);
    ++pc;
    ++icount;
    DISPATCH();
  }

stop_reached:
  if (stop_at < max_steps) goto done;  // a pause, not the budget
  sync();
  throw ExecError("step budget exceeded (" + std::to_string(max_steps) + ")");
pc_out_of_range:
  sync();
  throw ExecError("pc out of range: " + std::to_string(pc));
invalid_opcode:
  sync();
  throw ExecError("invalid opcode");
div_by_zero:
  sync();
  throw ExecError("integer divide by zero");
rem_by_zero:
  sync();
  throw ExecError("integer remainder by zero");
queue_underflow:
  sync();
  throw ExecError(std::string("queue underflow on ") + err_what + " at pc " +
                  std::to_string(pc));
eod_consumed:
  sync();
  throw ExecError(std::string(err_what) + " consumed an EOD token");
scq_underflow:
  sync();
  throw ExecError("SCQ underflow (GETSCQ before PUTSCQ)");

done:
  sync();

#undef EMIT
#undef PUSH_INT
#undef PUSH_FP
#undef EA
#undef CASE
#undef DISPATCH
#undef ALU_RR
#undef ALU_RI
#undef FPU
#undef FCMP
#undef LOAD
#undef STORE
#undef BRANCH
}

template void Functional::exec_threaded<false>(std::uint64_t, std::uint64_t,
                                               Trace*);
template void Functional::exec_threaded<true>(std::uint64_t, std::uint64_t,
                                              Trace*);

}  // namespace hidisc::sim
