#include "fuzz/oracle.hpp"

#include <cstring>
#include <exception>
#include <sstream>
#include <vector>

#include "compiler/compile.hpp"
#include "compiler/verify.hpp"
#include "diag/deadlock.hpp"
#include "isa/assembler.hpp"
#include "machine/machine.hpp"
#include "sim/functional.hpp"

namespace hidisc::fuzz {
namespace {

using isa::Opcode;

// Turns the partially-filled report into a failure, keeping the fields
// already gathered (instruction counts, fault_applied).
OracleReport fail(OracleReport rep, Stage stage, std::string signature,
                  std::string detail) {
  rep.stage = stage;
  rep.signature = std::move(signature);
  rep.detail = std::move(detail);
  return rep;
}

bool is_pop(Opcode op) {
  return op == Opcode::POPLDQ || op == Opcode::POPLDQF ||
         op == Opcode::POPSDQ || op == Opcode::POPSDQF;
}

// Mutates the separated binary; returns false when no injection site
// exists (the shrinker then rejects such candidates).
bool apply_fault(isa::Program& p, Fault fault) {
  switch (fault) {
    case Fault::None:
      return true;
    case Fault::DropPush:
      for (auto& inst : p.code) {
        if (inst.ann.push_ldq) {
          inst.ann.push_ldq = false;
          return true;
        }
      }
      for (auto& inst : p.code) {
        if (inst.ann.push_sdq) {
          inst.ann.push_sdq = false;
          return true;
        }
      }
      return false;
    case Fault::DropPop:
      for (std::int32_t i = 0; i < static_cast<std::int32_t>(p.code.size());
           ++i) {
        if (p.code[i].ann.compiler_inserted && is_pop(p.code[i].op)) {
          p.erase_at(i);
          return true;
        }
      }
      return false;
    case Fault::MisStream:
      // Only flip non-memory, non-control carriers: a memory op routed to
      // the CP (which has no LSU) is outside the machine's contract
      // entirely, while a mis-streamed ALU op is exactly the subtle
      // separator bug class the verifier must catch.
      for (auto& inst : p.code) {
        if (inst.ann.push_ldq && !isa::is_mem(inst.op) &&
            !isa::is_control(inst.op)) {
          inst.ann.stream = isa::Stream::Compute;
          return true;
        }
      }
      for (auto& inst : p.code) {
        if (inst.ann.push_sdq && !isa::is_mem(inst.op) &&
            !isa::is_control(inst.op) && isa::is_fp_compute(inst.op)) {
          inst.ann.stream = isa::Stream::Access;
          return true;
        }
      }
      return false;
  }
  return false;
}

struct MachineVerdict {
  bool deadlock = false;
  std::string deadlock_preset;
  std::string deadlock_cause;  // classified root cause (diag::cause_name)
  std::string deadlock_detail;
  Stage stage = Stage::Ok;  // first non-deadlock machine failure
  std::string signature;
  std::string detail;
  [[nodiscard]] bool clean() const {
    return !deadlock && stage == Stage::Ok;
  }
};

// Runs `preset` under both schedulers and checks every machine-level
// invariant.  `bin`/`tr` must be the preset-appropriate binary and trace.
// `prefetch`, when non-null, arms the hardware prefetcher with that spec —
// the prefetch stream then participates in every scheduler-equivalence and
// queue-balance check, under a signature that names the scheme.
void check_preset(MachineVerdict& v, const isa::Program& bin,
                  const sim::Trace& tr, machine::Preset preset,
                  std::uint64_t watchdog, bool check_balance = true,
                  const char* prefetch = nullptr) {
  if (v.deadlock || v.stage != Stage::Ok) return;
  std::string name = machine::preset_name(preset);
  if (prefetch != nullptr) name += std::string("+pf(") + prefetch + ")";
  machine::MachineConfig cfg;
  cfg.watchdog_cycles = watchdog;
  if (prefetch != nullptr)
    cfg.mem.prefetch = mem::parse_prefetch_spec(prefetch);
  machine::Result es, ls;
  try {
    cfg.scheduler = machine::SchedulerKind::EventSkip;
    es = machine::Machine(bin, tr, preset, cfg).run();
    cfg.scheduler = machine::SchedulerKind::Lockstep;
    ls = machine::Machine(bin, tr, preset, cfg).run();
  } catch (const diag::DeadlockError& e) {
    v.deadlock = true;
    v.deadlock_preset = name;
    v.deadlock_cause = diag::cause_name(e.report().cause);
    v.deadlock_detail = e.what();
    return;
  } catch (const std::exception& e) {
    v.deadlock = true;
    v.deadlock_preset = name;
    v.deadlock_detail = e.what();
    return;
  }
  if (!(es == ls)) {
    v.stage = Stage::SchedulerDivergence;
    v.signature = std::string("sched-div:") + name;
    std::ostringstream os;
    os << "EventSkip and Lockstep Results differ on " << name
       << " (cycles " << es.cycles << " vs " << ls.cycles << ", instructions "
       << es.instructions << " vs " << ls.instructions << ")";
    v.detail = os.str();
    return;
  }
  if (es.instructions != tr.size()) {
    v.stage = Stage::Machine;
    v.signature = std::string("retire-count:") + name;
    v.detail = std::string(name) + " retired " +
               std::to_string(es.instructions) + " of " +
               std::to_string(tr.size()) + " trace entries";
    return;
  }
  if (!check_balance) return;
  if (es.ldq.pushes != es.ldq.pops) {
    v.stage = Stage::Machine;
    v.signature = std::string("ldq-balance:") + name;
    v.detail = std::string(name) + " LDQ pushes " +
               std::to_string(es.ldq.pushes) + " != pops " +
               std::to_string(es.ldq.pops);
    return;
  }
  if (es.sdq.pushes != es.sdq.pops) {
    v.stage = Stage::Machine;
    v.signature = std::string("sdq-balance:") + name;
    v.detail = std::string(name) + " SDQ pushes " +
               std::to_string(es.sdq.pushes) + " != pops " +
               std::to_string(es.sdq.pops);
    return;
  }
  if (es.scq.pops > es.scq.pushes) {
    v.stage = Stage::Machine;
    v.signature = std::string("scq-underflow:") + name;
    v.detail = std::string(name) + " SCQ popped more tokens than were put";
    return;
  }
}

// Dedup key for a deadlock find: preset plus the classified root cause, so
// e.g. a dropped push (cross-stream imbalance) and a queue overflow on the
// same preset shrink and dedupe as distinct bugs.
std::string deadlock_signature(const MachineVerdict& mv) {
  std::string sig = "gap:verify-ok-deadlock:" + mv.deadlock_preset;
  if (!mv.deadlock_cause.empty()) sig += ":" + mv.deadlock_cause;
  return sig;
}

// One functional execution as seen by the downstream oracles: outcome,
// trace, and the state summaries they consume.
struct FsimRun {
  bool ok = true;
  std::string err;
  sim::Trace trace;
  std::uint64_t mem_digest = 0;
  std::uint64_t instructions = 0;
};

// Dual-interpreter differential: executes `bin` through the threaded-code
// interpreter and, independently, the reference switch interpreter, and
// demands byte-identical traces, identical error outcomes and identical
// final architectural state.  Returns a non-empty divergence description on
// mismatch; on agreement `*out` holds the threaded run so callers reuse it
// instead of executing a third time.
std::string fsim_differential(const isa::Program& bin,
                              std::uint64_t max_steps, FsimRun* out) {
  sim::Functional ft(bin);
  bool t_ok = true;
  std::string t_err;
  sim::Trace t_trace;
  try {
    t_trace = ft.run_trace(max_steps);
  } catch (const std::exception& e) {
    t_ok = false;
    t_err = e.what();
  }

  sim::Functional fr(bin);
  bool r_ok = true;
  std::string r_err;
  sim::Trace r_trace;
  try {
    r_trace = fr.run_trace_ref(max_steps);
  } catch (const std::exception& e) {
    r_ok = false;
    r_err = e.what();
  }

  out->ok = t_ok;
  out->err = t_err;
  out->trace = std::move(t_trace);
  out->mem_digest = ft.memory().digest();
  out->instructions = ft.instructions();

  if (t_ok != r_ok)
    return std::string("threaded interpreter ") +
           (t_ok ? "succeeded" : ("failed (\"" + t_err + "\")")) +
           " but reference " + (r_ok ? "succeeded" : ("failed (\"" + r_err + "\")"));
  if (!t_ok && t_err != r_err)
    return "error mismatch: threaded \"" + t_err + "\" vs reference \"" +
           r_err + "\"";
  if (out->trace.size() != r_trace.size())
    return "trace length " + std::to_string(out->trace.size()) +
           " vs reference " + std::to_string(r_trace.size());
  if (!out->trace.empty() &&
      std::memcmp(out->trace.data(), r_trace.data(),
                  out->trace.size() * sizeof(sim::TraceEntry)) != 0) {
    for (std::size_t i = 0; i < r_trace.size(); ++i) {
      const sim::TraceEntry& g = out->trace[i];
      const sim::TraceEntry& w = r_trace[i];
      if (g.static_idx != w.static_idx || g.next != w.next ||
          g.addr != w.addr || g.value != w.value)
        return "trace entry " + std::to_string(i) + " mismatch: threaded {" +
               std::to_string(g.static_idx) + "," + std::to_string(g.next) +
               "," + std::to_string(g.addr) + "," + std::to_string(g.value) +
               "} reference {" + std::to_string(w.static_idx) + "," +
               std::to_string(w.next) + "," + std::to_string(w.addr) + "," +
               std::to_string(w.value) + "}";
    }
    return "trace bytes differ (padding?)";
  }
  if (ft.instructions() != fr.instructions())
    return "instruction count " + std::to_string(ft.instructions()) +
           " vs reference " + std::to_string(fr.instructions());
  if (ft.pc() != fr.pc())
    return "final pc " + std::to_string(ft.pc()) + " vs reference " +
           std::to_string(fr.pc());
  if (ft.halted() != fr.halted()) return "halted flag mismatch";
  if (!ft.same_arch_state(fr)) return "architectural state mismatch";
  return {};
}

std::string first_violations(const compiler::VerifyResult& vr, std::size_t n) {
  std::ostringstream os;
  for (std::size_t i = 0; i < vr.violations.size() && i < n; ++i) {
    if (i) os << "; ";
    os << vr.violations[i];
  }
  if (vr.violations.size() > n)
    os << "; ... (" << vr.violations.size() << " total)";
  return os.str();
}

}  // namespace

const char* fault_name(Fault f) noexcept {
  switch (f) {
    case Fault::None: return "none";
    case Fault::DropPush: return "drop-push";
    case Fault::DropPop: return "drop-pop";
    case Fault::MisStream: return "mis-stream";
  }
  return "?";
}

std::optional<Fault> parse_fault(std::string_view name) {
  if (name == "none") return Fault::None;
  if (name == "drop-push") return Fault::DropPush;
  if (name == "drop-pop") return Fault::DropPop;
  if (name == "mis-stream") return Fault::MisStream;
  return std::nullopt;
}

const char* stage_name(Stage s) noexcept {
  switch (s) {
    case Stage::Ok: return "ok";
    case Stage::Assemble: return "assemble";
    case Stage::FunctionalOriginal: return "functional-original";
    case Stage::Compile: return "compile";
    case Stage::Verify: return "verify";
    case Stage::FunctionalSeparated: return "functional-separated";
    case Stage::FsimDivergence: return "fsim-divergence";
    case Stage::DigestMismatch: return "digest-mismatch";
    case Stage::Machine: return "machine";
    case Stage::SchedulerDivergence: return "scheduler-divergence";
    case Stage::VerifyMachineGap: return "verify-machine-gap";
  }
  return "?";
}

OracleReport run_oracles(const std::string& source, const OracleOptions& opt) {
  OracleReport rep;

  // 1. Assemble.
  isa::Program prog;
  try {
    prog = isa::assemble(source);
  } catch (const std::exception& e) {
    return fail(rep, Stage::Assemble, "assemble", e.what());
  }
  rep.static_instructions = prog.code.size();

  // 2. Functional execution of the raw sequential program, as a
  // dual-interpreter differential (threaded vs reference switch).
  std::uint64_t orig_digest = 0;
  {
    FsimRun f;
    if (auto div = fsim_differential(prog, opt.max_steps, &f); !div.empty())
      return fail(rep, Stage::FsimDivergence, "fsim-div:original", div);
    if (!f.ok)
      return fail(rep, Stage::FunctionalOriginal, "functional-original", f.err);
    orig_digest = f.mem_digest;
    rep.dynamic_instructions = f.instructions;
  }

  // 3. Compile (flow-sensitive separator, CMAS on).
  compiler::Compilation comp;
  try {
    compiler::CompileOptions co;
    co.max_steps = opt.max_steps;
    comp = compiler::compile(prog, co);
  } catch (const std::exception& e) {
    return fail(rep, Stage::Compile, "compile", e.what());
  }

  // 4. Optional fault injection into the separated binary.
  rep.fault_applied = apply_fault(comp.separated, opt.fault);
  if (opt.fault != Fault::None && !rep.fault_applied) {
    rep.detail = "no injection site for the requested fault";
    return rep;  // Ok: nothing to diverge
  }

  // 5. Structural verification of the separated binary.
  const auto vr = compiler::verify_separation(comp.separated);

  // 6. Functional execution of the separated binary (differential again:
  // queue opcodes and EOD protocols only appear post-separation, so this
  // leg covers interpreter paths the raw program cannot reach).
  bool sep_ok = true;
  std::string sep_err;
  std::uint64_t sep_digest = 0;
  sim::Trace sep_trace;
  {
    FsimRun fs;
    if (auto div = fsim_differential(comp.separated, opt.max_steps, &fs);
        !div.empty())
      return fail(rep, Stage::FsimDivergence, "fsim-div:separated", div);
    sep_ok = fs.ok;
    sep_err = fs.err;
    sep_digest = fs.mem_digest;
    sep_trace = std::move(fs.trace);
  }

  // 7. Machines: every preset under both schedulers.  Superscalar and
  // CP+CMP consume the annotated original; CP+AP and HiDISC the separated
  // binary.  Needs the original's trace too.
  MachineVerdict mv;
  bool machines_ran = false;
  if (opt.run_machines && sep_ok) {
    sim::Trace orig_trace;
    {
      FsimRun fo;
      if (auto div = fsim_differential(comp.original, opt.max_steps, &fo);
          !div.empty())
        return fail(rep, Stage::FsimDivergence, "fsim-div:annotated-original",
                    div);
      if (!fo.ok)
        return fail(rep, Stage::FunctionalOriginal,
                    "functional-annotated-original", fo.err);
      orig_trace = std::move(fo.trace);
    }
    machines_ran = true;
    check_preset(mv, comp.original, orig_trace, machine::Preset::Superscalar,
                 opt.watchdog);
    check_preset(mv, comp.original, orig_trace, machine::Preset::CPCMP,
                 opt.watchdog);
    check_preset(mv, comp.separated, sep_trace, machine::Preset::CPAP,
                 opt.watchdog);
    check_preset(mv, comp.separated, sep_trace, machine::Preset::HiDISC,
                 opt.watchdog);
    // Hardware-prefetcher variants: the prefetch stream must preserve
    // scheduler bit-identity and queue balance on both binary shapes.
    check_preset(mv, comp.original, orig_trace, machine::Preset::Superscalar,
                 opt.watchdog, /*check_balance=*/true, "ipstride:deg4");
    check_preset(mv, comp.separated, sep_trace, machine::Preset::CPAP,
                 opt.watchdog, /*check_balance=*/true, "sms:region4");
  }

  // 8. Decide, in severity order, with the verify/machine agreement
  // contract folded in: verify acceptance and machine non-deadlock must
  // never disagree.
  if (!vr.ok()) {
    if (machines_ran && mv.clean())
      return fail(rep, Stage::VerifyMachineGap, "gap:verify-reject-machines-ok",
                  "verifier rejects but all machines ran clean: " +
                      first_violations(vr, 3));
    return fail(rep, Stage::Verify, "verify-reject", first_violations(vr, 3));
  }
  if (!sep_ok)
    return fail(rep, Stage::FunctionalSeparated, "functional-separated", sep_err);
  if (sep_digest != orig_digest)
    return fail(rep, Stage::DigestMismatch, "digest-separated",
                "memory image of the separated binary diverged from the "
                "original");
  if (mv.deadlock)
    return fail(rep, Stage::VerifyMachineGap,
                deadlock_signature(mv),
                "verifier accepted the binary but " + mv.deadlock_preset +
                    " deadlocked: " + mv.deadlock_detail);
  if (mv.stage != Stage::Ok) return fail(rep, mv.stage, mv.signature, mv.detail);

  // 9. Flow-insensitive separator ablation: same functional behaviour,
  // never fewer queue transfers than the flow-sensitive separator.
  if (opt.check_flow_insensitive && opt.fault == Fault::None) {
    compiler::Compilation fi;
    try {
      compiler::CompileOptions co;
      co.max_steps = opt.max_steps;
      co.flow_sensitive_comm = false;
      fi = compiler::compile(prog, co);
    } catch (const std::exception& e) {
      return fail(rep, Stage::Compile, "compile-flow-insensitive", e.what());
    }
    const auto fvr = compiler::verify_separation(fi.separated);
    if (!fvr.ok())
      return fail(rep, Stage::Verify, "verify-reject-flow-insensitive",
                  first_violations(fvr, 3));
    {
      FsimRun ff;
      if (auto div = fsim_differential(fi.separated, opt.max_steps, &ff);
          !div.empty())
        return fail(rep, Stage::FsimDivergence, "fsim-div:flow-insensitive",
                    div);
      if (!ff.ok)
        return fail(rep, Stage::FunctionalSeparated,
                    "functional-flow-insensitive", ff.err);
      if (ff.mem_digest != orig_digest)
        return fail(rep, Stage::DigestMismatch, "digest-flow-insensitive",
                    "flow-insensitive separation changed the memory image");
    }
    if (fi.inserted_pops < comp.inserted_pops)
      return fail(rep, Stage::Compile, "flow-insensitive-fewer-pops",
                  "flow-insensitive separator inserted fewer pops (" +
                      std::to_string(fi.inserted_pops) + ") than the "
                      "flow-sensitive one (" +
                      std::to_string(comp.inserted_pops) + ")");
  }

  return rep;  // Ok
}

OracleReport run_decoupled_oracles(const std::string& source,
                                   const std::string& streams,
                                   const OracleOptions& opt) {
  OracleReport rep;
  isa::Program prog;
  try {
    prog = isa::assemble(source);
  } catch (const std::exception& e) {
    return fail(rep, Stage::Assemble, "assemble", e.what());
  }
  rep.static_instructions = prog.code.size();

  // Apply the stream tags ('A'/'C', whitespace ignored).
  std::vector<isa::Stream> tags;
  for (char ch : streams) {
    if (ch == 'A' || ch == 'a') tags.push_back(isa::Stream::Access);
    else if (ch == 'C' || ch == 'c') tags.push_back(isa::Stream::Compute);
    else if (ch == ' ' || ch == '\t') continue;
    else
      return fail(rep, Stage::Assemble, "streams-bad-char",
                  std::string("unexpected character in streams: ") + ch);
  }
  if (tags.size() != prog.code.size())
    return fail(rep, Stage::Assemble, "streams-length",
                "streams tag count " + std::to_string(tags.size()) +
                    " != instruction count " +
                    std::to_string(prog.code.size()));
  for (std::size_t i = 0; i < tags.size(); ++i)
    prog.code[i].ann.stream = tags[i];

  const auto vr = compiler::verify_separation(prog);

  sim::Trace trace;
  bool func_ok = true;
  std::string func_err;
  {
    FsimRun f;
    if (auto div = fsim_differential(prog, opt.max_steps, &f); !div.empty())
      return fail(rep, Stage::FsimDivergence, "fsim-div:decoupled", div);
    func_ok = f.ok;
    func_err = f.err;
    trace = std::move(f.trace);
    if (func_ok) rep.dynamic_instructions = trace.size();
  }

  MachineVerdict mv;
  bool machines_ran = false;
  const bool has_eod = [&] {
    for (const auto& inst : prog.code)
      if (inst.op == Opcode::PUTEOD || inst.op == Opcode::BEOD) return true;
    return false;
  }();
  if (opt.run_machines && func_ok) {
    machines_ran = true;
    // BEOD's probe-and-requeue makes raw push/pop counts legitimately
    // asymmetric on EOD protocols; the balance oracle only binds without
    // EOD tokens.
    check_preset(mv, prog, trace, machine::Preset::CPAP, opt.watchdog,
                 /*check_balance=*/!has_eod);
    check_preset(mv, prog, trace, machine::Preset::HiDISC, opt.watchdog,
                 /*check_balance=*/!has_eod);
  }

  if (!vr.ok()) {
    if (machines_ran && mv.clean())
      return fail(rep, Stage::VerifyMachineGap, "gap:verify-reject-machines-ok",
                  "verifier rejects but machines ran clean: " +
                      first_violations(vr, 3));
    return fail(rep, Stage::Verify, "verify-reject", first_violations(vr, 3));
  }
  if (!func_ok)
    return fail(rep, Stage::FunctionalOriginal, "functional-original", func_err);
  if (mv.deadlock)
    return fail(rep, Stage::VerifyMachineGap,
                deadlock_signature(mv),
                "verifier accepted the binary but " + mv.deadlock_preset +
                    " deadlocked: " + mv.deadlock_detail);
  if (mv.stage != Stage::Ok) return fail(rep, mv.stage, mv.signature, mv.detail);
  return rep;
}

}  // namespace hidisc::fuzz
