// Functional simulator driver and reference switch interpreter.
//
// run()/run_trace()/run_streamed() execute through the threaded-code
// interpreter (decoded.hpp + interp.cpp); step() below IS the original
// giant-switch implementation, retained verbatim as the semantic reference
// oracle.  The two must stay byte-identical: HIDISC_FSIM_REF=1
// shadow-replays every run on a deep-copied snapshot through the reference
// path and compares traces (per chunk for streamed runs), register files,
// queues, and the memory digest (docs/FUNCTIONAL.md).

#include "sim/functional.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>

#include "sim/decoded.hpp"

namespace hidisc::sim {

using isa::Opcode;
using isa::RegKind;

Functional::Functional(const isa::Program& prog) : prog_(prog) {
  if (!prog.data.empty())
    mem_.write_bytes(prog.data_base, prog.data.data(), prog.data.size());
  iregs_[isa::kSp.idx] = static_cast<std::int64_t>(isa::kStackTop);
  iregs_[isa::kGp.idx] = static_cast<std::int64_t>(prog.data_base);
  pc_ = prog.entry;
}

bool Functional::ref_shadow_enabled() noexcept {
  // Mirrors lockstep_verify_requested() in machine.cpp.
  static const bool enabled = [] {
    const char* v = std::getenv("HIDISC_FSIM_REF");
    return v != nullptr && v[0] == '1' && v[1] == '\0';
  }();
  return enabled;
}

void Functional::ensure_decoded() {
  if (!decoded_)
    decoded_ = std::make_shared<const std::vector<DecodedOp>>(
        decode_program(prog_));
}

namespace {

// Pre-size a trace buffer from the remaining step budget, capped so small
// kernels with a huge budget only reserve lazily committed address space.
std::size_t trace_reserve_hint(std::uint64_t max_steps, std::uint64_t done) {
  const std::uint64_t remaining = max_steps > done ? max_steps - done : 0;
  return static_cast<std::size_t>(
      std::min<std::uint64_t>(remaining, Functional::kTraceReserveCap));
}

// Reserved-but-never-touched capacity is lazily committed address space, so
// shrinking a pre-sized buffer pays a full copy (plus page faults on the new
// allocation — measured at ~2× the entire emission cost) to release pages
// that were never resident.  Only shrink when the buffer out-grew its
// initial reserve: doubling growth leaves up to size/2 of *touched* slack,
// which a caller holding the whole trace for a machine run would keep.
void finish_trace(Trace& trace, std::size_t reserved) {
  if (trace.capacity() > reserved) trace.shrink_to_fit();
}

}  // namespace

void Functional::run(std::uint64_t max_steps) {
  if (!ref_shadow_enabled()) {
    exec_threaded<false>(max_steps, max_steps, nullptr);
    return;
  }
  Functional ref(*this);
  shadowed_exec(ref, max_steps, max_steps, nullptr);
}

Trace Functional::run_trace(std::uint64_t max_steps) {
  Trace trace;
  const std::size_t reserved = trace_reserve_hint(max_steps, icount_);
  trace.reserve(reserved);
  if (!ref_shadow_enabled()) {
    exec_threaded<true>(max_steps, max_steps, &trace);
  } else {
    Functional ref(*this);
    shadowed_exec(ref, max_steps, max_steps, &trace);
  }
  finish_trace(trace, reserved);
  return trace;
}

void Functional::run_streamed(const ChunkSink& sink, std::uint64_t max_steps,
                              std::size_t chunk) {
  if (chunk == 0)
    throw std::invalid_argument("run_streamed: chunk must be positive");
  std::optional<Functional> ref;
  if (ref_shadow_enabled()) ref.emplace(*this);
  Trace buf;
  while (!halted_) {
    buf.clear();
    stream_chunk(buf, max_steps, chunk, ref ? &*ref : nullptr);
    sink(buf);
  }
}

void Functional::stream_chunk(Trace& out, std::uint64_t max_steps,
                              std::size_t chunk, Functional* ref) {
  // The last chunk stops at max_steps itself, where exec_threaded throws
  // the budget error; every earlier stop is a pause.
  const std::uint64_t left = max_steps > icount_ ? max_steps - icount_ : 0;
  const std::uint64_t stop = icount_ + std::min<std::uint64_t>(left, chunk);
  if (ref)
    shadowed_exec(*ref, max_steps, stop, &out);
  else
    exec_threaded<true>(max_steps, stop, &out);
}

void Functional::ref_run(std::uint64_t max_steps, std::uint64_t stop_at,
                         Trace* out) {
  TraceEntry e;
  while (!halted_) {
    if (icount_ >= stop_at) {
      if (stop_at < max_steps) return;
      throw ExecError("step budget exceeded (" + std::to_string(max_steps) +
                      ")");
    }
    if (step(out ? &e : nullptr) && out) out->push_back(e);
  }
}

void Functional::run_ref(std::uint64_t max_steps) {
  ref_run(max_steps, max_steps, nullptr);
}

Trace Functional::run_trace_ref(std::uint64_t max_steps) {
  Trace trace;
  const std::size_t reserved = trace_reserve_hint(max_steps, icount_);
  trace.reserve(reserved);
  ref_run(max_steps, max_steps, &trace);
  finish_trace(trace, reserved);
  return trace;
}

void Functional::shadowed_exec(Functional& ref, std::uint64_t max_steps,
                               std::uint64_t stop_at, Trace* out) {
  // `out` may already hold entries; only this call's are compared.
  const std::size_t from = out ? out->size() : 0;
  bool got_ok = true;
  std::string got_err;
  try {
    if (out)
      exec_threaded<true>(max_steps, stop_at, out);
    else
      exec_threaded<false>(max_steps, stop_at, nullptr);
  } catch (const ExecError& e) {
    got_ok = false;
    got_err = e.what();
  }
  bool want_ok = true;
  std::string want_err;
  Trace want;
  try {
    ref.ref_run(max_steps, stop_at, out ? &want : nullptr);
  } catch (const ExecError& e) {
    want_ok = false;
    want_err = e.what();
  }
  const auto die = [](const std::string& what) {
    throw ExecError("HIDISC_FSIM_REF divergence: " + what);
  };
  if (got_ok != want_ok)
    die(std::string("threaded ") + (got_ok ? "succeeded" : "failed") +
        " but reference " + (want_ok ? "succeeded" : "failed") +
        (got_ok ? " (\"" + want_err + "\")" : " (\"" + got_err + "\")"));
  if (!got_ok && got_err != want_err)
    die("error mismatch: threaded \"" + got_err + "\" vs reference \"" +
        want_err + "\"");
  if (out) {
    if (out->size() - from != want.size())
      die("trace length " + std::to_string(out->size() - from) +
          " vs reference " + std::to_string(want.size()));
    for (std::size_t i = 0; i < want.size(); ++i) {
      const TraceEntry& g = (*out)[from + i];
      const TraceEntry& w = want[i];
      if (g.static_idx != w.static_idx || g.next != w.next ||
          g.addr != w.addr || g.value != w.value)
        die("trace entry " + std::to_string(i) + " mismatch: got {" +
            std::to_string(g.static_idx) + "," + std::to_string(g.next) +
            "," + std::to_string(g.addr) + "," + std::to_string(g.value) +
            "} want {" + std::to_string(w.static_idx) + "," +
            std::to_string(w.next) + "," + std::to_string(w.addr) + "," +
            std::to_string(w.value) + "}");
    }
  }
  if (pc_ != ref.pc_)
    die("pc " + std::to_string(pc_) + " vs " + std::to_string(ref.pc_));
  if (icount_ != ref.icount_)
    die("icount " + std::to_string(icount_) + " vs " +
        std::to_string(ref.icount_));
  if (halted_ != ref.halted_) die("halted flag mismatch");
  // A pause compares only the cheap state above; the full state (a memory
  // digest) is compared once, when the run ends.
  if (got_ok && !halted_) return;
  if (iregs_ != ref.iregs_) die("int register file mismatch");
  for (int i = 0; i < isa::kNumFpRegs; ++i)
    if (std::bit_cast<std::uint64_t>(fregs_[i]) !=
        std::bit_cast<std::uint64_t>(ref.fregs_[i]))
      die("fp register f" + std::to_string(i) + " mismatch");
  if (ldq_ != ref.ldq_) die("LDQ contents mismatch");
  if (sdq_ != ref.sdq_) die("SDQ contents mismatch");
  if (scq_tokens_ != ref.scq_tokens_) die("SCQ token count mismatch");
  if (mem_.digest() != ref.mem_.digest()) die("memory digest mismatch");
  if (!got_ok) throw ExecError(got_err);
}

Functional::QVal Functional::pop_queue(std::deque<QVal>& q,
                                       const char* name) {
  if (q.empty())
    throw ExecError(std::string("queue underflow on ") + name + " at pc " +
                    std::to_string(pc_));
  QVal v = q.front();
  q.pop_front();
  return v;
}

bool Functional::step(TraceEntry* out) {
  if (halted_) return false;
  if (pc_ < 0 || pc_ >= static_cast<std::int32_t>(prog_.code.size()))
    throw ExecError("pc out of range: " + std::to_string(pc_));

  const isa::Instruction& inst = prog_.code[pc_];
  const std::int32_t this_pc = pc_;
  std::int32_t next = pc_ + 1;
  std::uint64_t addr = 0;
  std::int64_t result = 0;
  bool wrote_int = false, wrote_fp = false;
  double fresult = 0.0;

  const auto rs1 = [&]() -> std::int64_t { return iregs_[inst.src1.idx]; };
  const auto rs2 = [&]() -> std::int64_t { return iregs_[inst.src2.idx]; };
  const auto fs1 = [&]() -> double { return fregs_[inst.src1.idx]; };
  const auto fs2 = [&]() -> double { return fregs_[inst.src2.idx]; };
  const auto wr = [&](std::int64_t v) {
    result = v;
    wrote_int = true;
  };
  const auto wf = [&](double v) {
    fresult = v;
    wrote_fp = true;
  };
  const auto ea = [&]() -> std::uint64_t {
    return static_cast<std::uint64_t>(rs1() + inst.imm);
  };

  // Wrapping arithmetic: HISA integer ops wrap modulo 2^64 (workloads use
  // full-width hash multiplies), so compute in unsigned and cast back.
  const auto wrap_add = [](std::int64_t a, std::int64_t b) {
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                     static_cast<std::uint64_t>(b));
  };
  const auto wrap_sub = [](std::int64_t a, std::int64_t b) {
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) -
                                     static_cast<std::uint64_t>(b));
  };
  const auto wrap_mul = [](std::int64_t a, std::int64_t b) {
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) *
                                     static_cast<std::uint64_t>(b));
  };

  switch (inst.op) {
    case Opcode::ADD: wr(wrap_add(rs1(), rs2())); break;
    case Opcode::SUB: wr(wrap_sub(rs1(), rs2())); break;
    case Opcode::MUL: wr(wrap_mul(rs1(), rs2())); break;
    case Opcode::DIV:
      if (rs2() == 0) throw ExecError("integer divide by zero");
      if (rs1() == INT64_MIN && rs2() == -1) wr(INT64_MIN);
      else wr(rs1() / rs2());
      break;
    case Opcode::REM:
      if (rs2() == 0) throw ExecError("integer remainder by zero");
      if (rs1() == INT64_MIN && rs2() == -1) wr(0);
      else wr(rs1() % rs2());
      break;
    case Opcode::AND: wr(rs1() & rs2()); break;
    case Opcode::OR: wr(rs1() | rs2()); break;
    case Opcode::XOR: wr(rs1() ^ rs2()); break;
    case Opcode::NOR: wr(~(rs1() | rs2())); break;
    case Opcode::SLL:
      wr(static_cast<std::int64_t>(static_cast<std::uint64_t>(rs1())
                                   << (rs2() & 63)));
      break;
    case Opcode::SRL:
      wr(static_cast<std::int64_t>(static_cast<std::uint64_t>(rs1()) >>
                                   (rs2() & 63)));
      break;
    case Opcode::SRA: wr(rs1() >> (rs2() & 63)); break;
    case Opcode::SLT: wr(rs1() < rs2() ? 1 : 0); break;
    case Opcode::SLTU:
      wr(static_cast<std::uint64_t>(rs1()) < static_cast<std::uint64_t>(rs2())
             ? 1 : 0);
      break;
    case Opcode::ADDI: wr(wrap_add(rs1(), inst.imm)); break;
    case Opcode::ANDI: wr(rs1() & inst.imm); break;
    case Opcode::ORI: wr(rs1() | inst.imm); break;
    case Opcode::XORI: wr(rs1() ^ inst.imm); break;
    case Opcode::SLLI:
      wr(static_cast<std::int64_t>(static_cast<std::uint64_t>(rs1())
                                   << (inst.imm & 63)));
      break;
    case Opcode::SRLI:
      wr(static_cast<std::int64_t>(static_cast<std::uint64_t>(rs1()) >>
                                   (inst.imm & 63)));
      break;
    case Opcode::SRAI: wr(rs1() >> (inst.imm & 63)); break;
    case Opcode::SLTI: wr(rs1() < inst.imm ? 1 : 0); break;
    case Opcode::LUI: wr(inst.imm << 16); break;

    case Opcode::FADD: wf(canon_nan(fs1() + fs2())); break;
    case Opcode::FSUB: wf(canon_nan(fs1() - fs2())); break;
    case Opcode::FMUL: wf(canon_nan(fs1() * fs2())); break;
    case Opcode::FDIV: wf(canon_nan(fs1() / fs2())); break;
    case Opcode::FSQRT: wf(canon_nan(std::sqrt(fs1()))); break;
    case Opcode::FMIN: wf(canon_nan(std::fmin(fs1(), fs2()))); break;
    case Opcode::FMAX: wf(canon_nan(std::fmax(fs1(), fs2()))); break;
    case Opcode::FNEG: wf(-fs1()); break;
    case Opcode::FABS: wf(std::fabs(fs1())); break;
    case Opcode::FMOV: wf(fs1()); break;
    case Opcode::CVTIF: wf(static_cast<double>(rs1())); break;
    case Opcode::CVTFI: {
      // Saturating conversion (RISC-V FCVT.L.D semantics): values outside
      // the int64 range clamp, NaN converts to zero.  A plain static_cast
      // is undefined for those inputs (caught by the fuzzer under UBSan).
      const double v = fs1();
      if (std::isnan(v)) wr(0);
      else if (v >= 9223372036854775808.0) wr(INT64_MAX);
      else if (v < -9223372036854775808.0) wr(INT64_MIN);
      else wr(static_cast<std::int64_t>(v));
      break;
    }
    case Opcode::FEQ: wr(fs1() == fs2() ? 1 : 0); break;
    case Opcode::FLT: wr(fs1() < fs2() ? 1 : 0); break;
    case Opcode::FLE: wr(fs1() <= fs2() ? 1 : 0); break;

    case Opcode::LB: addr = ea(); wr(static_cast<std::int8_t>(mem_.read<std::uint8_t>(addr))); break;
    case Opcode::LBU: addr = ea(); wr(mem_.read<std::uint8_t>(addr)); break;
    case Opcode::LH: addr = ea(); wr(static_cast<std::int16_t>(mem_.read<std::uint16_t>(addr))); break;
    case Opcode::LHU: addr = ea(); wr(mem_.read<std::uint16_t>(addr)); break;
    case Opcode::LW: addr = ea(); wr(static_cast<std::int32_t>(mem_.read<std::uint32_t>(addr))); break;
    case Opcode::LWU: addr = ea(); wr(mem_.read<std::uint32_t>(addr)); break;
    case Opcode::LD: addr = ea(); wr(mem_.read<std::int64_t>(addr)); break;
    case Opcode::FLD: addr = ea(); wf(mem_.read<double>(addr)); break;

    case Opcode::SB: addr = ea(); result = rs2(); mem_.write<std::uint8_t>(addr, static_cast<std::uint8_t>(result)); break;
    case Opcode::SH: addr = ea(); result = rs2(); mem_.write<std::uint16_t>(addr, static_cast<std::uint16_t>(result)); break;
    case Opcode::SW: addr = ea(); result = rs2(); mem_.write<std::uint32_t>(addr, static_cast<std::uint32_t>(result)); break;
    case Opcode::SD: addr = ea(); result = rs2(); mem_.write<std::int64_t>(addr, result); break;
    case Opcode::FSD: {
      addr = ea();
      const double v = fregs_[inst.src2.idx];
      mem_.write<double>(addr, v);
      result = std::bit_cast<std::int64_t>(v);
      break;
    }
    case Opcode::PREF: addr = ea(); break;

    case Opcode::BEQ: if (rs1() == rs2()) next = inst.target; break;
    case Opcode::BNE: if (rs1() != rs2()) next = inst.target; break;
    case Opcode::BLT: if (rs1() < rs2()) next = inst.target; break;
    case Opcode::BGE: if (rs1() >= rs2()) next = inst.target; break;
    case Opcode::BLTU:
      if (static_cast<std::uint64_t>(rs1()) <
          static_cast<std::uint64_t>(rs2()))
        next = inst.target;
      break;
    case Opcode::BGEU:
      if (static_cast<std::uint64_t>(rs1()) >=
          static_cast<std::uint64_t>(rs2()))
        next = inst.target;
      break;
    case Opcode::J: next = inst.target; break;
    case Opcode::JAL: wr(this_pc + 1); next = inst.target; break;
    case Opcode::JR: next = static_cast<std::int32_t>(rs1()); break;
    case Opcode::JALR:
      wr(this_pc + 1);
      next = static_cast<std::int32_t>(rs1());
      break;
    case Opcode::HALT: halted_ = true; break;

    case Opcode::PUSHLDQ:
      ldq_.push_back({QVal::Tag::Int, rs1()});
      result = rs1();
      break;
    case Opcode::PUSHLDQF:
      ldq_.push_back({QVal::Tag::Fp, std::bit_cast<std::int64_t>(fs1())});
      result = std::bit_cast<std::int64_t>(fs1());
      break;
    case Opcode::PUSHSDQ:
      sdq_.push_back({QVal::Tag::Int, rs1()});
      result = rs1();
      break;
    case Opcode::PUSHSDQF:
      sdq_.push_back({QVal::Tag::Fp, std::bit_cast<std::int64_t>(fs1())});
      result = std::bit_cast<std::int64_t>(fs1());
      break;
    case Opcode::POPLDQ: {
      const QVal v = pop_queue(ldq_, "LDQ");
      if (v.tag == QVal::Tag::Eod)
        throw ExecError("POPLDQ consumed an EOD token");
      wr(v.bits);
      break;
    }
    case Opcode::POPLDQF: {
      const QVal v = pop_queue(ldq_, "LDQ");
      if (v.tag == QVal::Tag::Eod)
        throw ExecError("POPLDQF consumed an EOD token");
      wf(std::bit_cast<double>(v.bits));
      break;
    }
    case Opcode::POPSDQ: {
      const QVal v = pop_queue(sdq_, "SDQ");
      wr(v.bits);
      break;
    }
    case Opcode::POPSDQF: {
      const QVal v = pop_queue(sdq_, "SDQ");
      wf(std::bit_cast<double>(v.bits));
      break;
    }
    case Opcode::PUTEOD:
      ldq_.push_back({QVal::Tag::Eod, 0});
      break;
    case Opcode::BEOD: {
      const QVal v = pop_queue(ldq_, "LDQ");
      if (v.tag == QVal::Tag::Eod) {
        next = inst.target;
      } else {
        // Not EOD: the token is data for a later pop; put it back.
        ldq_.push_front(v);
      }
      break;
    }
    case Opcode::GETSCQ:
      if (scq_tokens_ <= 0)
        throw ExecError("SCQ underflow (GETSCQ before PUTSCQ)");
      --scq_tokens_;
      break;
    case Opcode::PUTSCQ: ++scq_tokens_; break;

    case Opcode::NOP: break;
    case Opcode::kCount: throw ExecError("invalid opcode");
  }

  // Commit register result (r0 stays zero).
  if (wrote_int && inst.dst.is_int() && inst.dst.idx != 0)
    iregs_[inst.dst.idx] = result;
  if (wrote_fp && inst.dst.is_fp()) fregs_[inst.dst.idx] = fresult;

  // Honour compiler annotation pushes (paper §4.2: values crossing streams).
  if (inst.ann.push_ldq) {
    if (wrote_fp)
      ldq_.push_back({QVal::Tag::Fp, std::bit_cast<std::int64_t>(fresult)});
    else
      ldq_.push_back({QVal::Tag::Int, result});
  }
  if (inst.ann.push_sdq) {
    if (wrote_fp)
      sdq_.push_back({QVal::Tag::Fp, std::bit_cast<std::int64_t>(fresult)});
    else
      sdq_.push_back({QVal::Tag::Int, result});
  }

  if (!halted_) pc_ = next;
  ++icount_;

  if (out) {
    out->static_idx = this_pc;
    out->next = halted_ ? this_pc : next;
    out->addr = addr;
    out->value = wrote_fp ? std::bit_cast<std::int64_t>(fresult) : result;
  }
  return true;
}

std::uint64_t Functional::state_digest() const {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (const auto v : iregs_) mix(static_cast<std::uint64_t>(v));
  for (const auto v : fregs_) mix(std::bit_cast<std::uint64_t>(v));
  return h ^ mem_.digest();
}

}  // namespace hidisc::sim
