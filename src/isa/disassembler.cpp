#include "isa/disassembler.hpp"

#include <set>
#include <sstream>

namespace hidisc::isa {

std::string reg_name(Reg r) {
  switch (r.kind) {
    // Not `"r" + std::to_string(...)`: GCC 12 flags that with a false
    // -Wrestrict once it is inlined.
    case RegKind::Int:
      return std::string(1, 'r').append(std::to_string(r.idx));
    case RegKind::Fp:
      return std::string(1, 'f').append(std::to_string(r.idx));
    case RegKind::None: return "-";
  }
  return "?";
}

namespace {

std::string ann_comment(const Annotation& a) {
  if (a == Annotation{}) return {};
  std::ostringstream out;
  out << "  # ";
  switch (a.stream) {
    case Stream::Compute: out << "CS"; break;
    case Stream::Access: out << "AS"; break;
    case Stream::None: out << "--"; break;
  }
  if (a.push_ldq) out << " push_ldq";
  if (a.push_sdq) out << " push_sdq";
  if (a.in_cmas) out << " cmas:" << a.cmas_group;
  if (a.is_trigger) out << " trigger:" << a.trigger_group;
  if (a.compiler_inserted) out << " inserted";
  return out.str();
}

}  // namespace

std::string disassemble(const Instruction& inst) {
  const OpInfo& info = inst.info();
  std::ostringstream out;
  out << info.name;
  auto sep = [&out, first = true]() mutable {
    out << (first ? " " : ", ");
    first = false;
  };
  using O = Opcode;
  switch (info.cls) {
    case OpClass::Load:
      sep(); out << reg_name(inst.dst);
      sep(); out << inst.imm << "(" << reg_name(inst.src1) << ")";
      break;
    case OpClass::Store:
      sep(); out << reg_name(inst.src2);
      sep(); out << inst.imm << "(" << reg_name(inst.src1) << ")";
      break;
    case OpClass::Prefetch:
      sep(); out << inst.imm << "(" << reg_name(inst.src1) << ")";
      break;
    case OpClass::Branch:
      sep(); out << reg_name(inst.src1);
      sep(); out << reg_name(inst.src2);
      sep(); out << inst.target;
      break;
    case OpClass::Jump:
      if (inst.op == O::J || inst.op == O::JAL) {
        sep(); out << inst.target;
      } else {
        sep(); out << reg_name(inst.src1);
      }
      break;
    case OpClass::Queue:
      if (info.writes_dst) { sep(); out << reg_name(inst.dst); }
      else if (info.reads_src1) { sep(); out << reg_name(inst.src1); }
      else if (inst.op == O::BEOD) { sep(); out << inst.target; }
      break;
    case OpClass::Halt:
    case OpClass::Nop:
      break;
    default:
      if (info.writes_dst) { sep(); out << reg_name(inst.dst); }
      if (info.reads_src1) { sep(); out << reg_name(inst.src1); }
      if (info.reads_src2) { sep(); out << reg_name(inst.src2); }
      if (info.has_imm) { sep(); out << inst.imm; }
      break;
  }
  out << ann_comment(inst.ann);
  return out.str();
}

std::string disassemble(const Program& prog) {
  std::set<std::int32_t> targets;
  for (const auto& inst : prog.code)
    if (inst.target >= 0) targets.insert(inst.target);
  std::ostringstream out;
  for (std::size_t i = 0; i < prog.code.size(); ++i) {
    const auto idx = static_cast<std::int32_t>(i);
    if (targets.count(idx)) out << "L" << idx << ":\n";
    out << "  [" << idx << "]  " << disassemble(prog.code[i]) << "\n";
  }
  return out.str();
}

}  // namespace hidisc::isa
