#include "uarch/static_op.hpp"

namespace hidisc::uarch {

using isa::OpClass;
using isa::Opcode;

namespace {

PoolKind pool_for(OpClass cls) {
  switch (cls) {
    case OpClass::IntAlu:
    case OpClass::Branch:
    case OpClass::Jump:
      return PoolKind::IntAlu;
    case OpClass::IntMul:
    case OpClass::IntDiv:
      return PoolKind::IntMulDiv;
    case OpClass::FpAlu:
      return PoolKind::FpAlu;
    case OpClass::FpMul:
    case OpClass::FpDiv:
      return PoolKind::FpMulDiv;
    case OpClass::Load:
    case OpClass::Store:
    case OpClass::Prefetch:
      return PoolKind::Mem;
    case OpClass::Queue:
    case OpClass::Halt:
    case OpClass::Nop:
      return PoolKind::None;
  }
  return PoolKind::None;
}

}  // namespace

StaticOp decode_static_op(const isa::Instruction& inst) {
  const isa::OpInfo& info = inst.info();
  StaticOp so;
  so.cls = info.cls;
  so.pool = pool_for(info.cls);
  so.latency = static_cast<std::int16_t>(info.latency);
  const bool unpipelined =
      info.cls == OpClass::IntDiv || info.cls == OpClass::FpDiv;
  so.busy = unpipelined ? so.latency : std::int16_t{1};
  so.cmas_group = inst.ann.cmas_group;

  so.is_load = info.cls == OpClass::Load;
  so.is_store = info.cls == OpClass::Store;
  so.is_prefetch = info.cls == OpClass::Prefetch;
  so.is_mem = so.is_load || so.is_store || so.is_prefetch;
  so.is_beod = inst.op == Opcode::BEOD;
  so.is_control = isa::is_control(inst.op) && inst.op != Opcode::HALT;
  so.fp_routed =
      (info.is_fp_dst || info.is_fp_src) && isa::is_fp_compute(inst.op);
  so.value_live = inst.ann.cmas_value_live;

  // Register dependences.  Only sources that can name an in-flight
  // producer matter; r0 never has one.
  if (info.reads_src1 && inst.src1.valid())
    so.src1 = static_cast<std::int8_t>(inst.src1.flat());
  if (info.reads_src2 && inst.src2.valid())
    so.src2 = static_cast<std::int8_t>(inst.src2.flat());
  if (info.writes_dst && inst.dst.valid() &&
      !(inst.dst.is_int() && inst.dst.idx == 0))
    so.dst = static_cast<std::int8_t>(inst.dst.flat());

  // Queue roles (paper §3.2).
  switch (inst.op) {
    case Opcode::POPLDQ: case Opcode::POPLDQF: case Opcode::BEOD:
      so.pop_role = QueueRole::Ldq;
      break;
    case Opcode::POPSDQ: case Opcode::POPSDQF:
      so.pop_role = QueueRole::Sdq;
      break;
    case Opcode::GETSCQ:
      so.pop_role = QueueRole::Scq;
      break;
    case Opcode::PUSHLDQ: case Opcode::PUSHLDQF:
      so.push_role = QueueRole::Ldq;
      break;
    case Opcode::PUSHSDQ: case Opcode::PUSHSDQF:
      so.push_role = QueueRole::Sdq;
      break;
    case Opcode::PUTEOD:
      so.push_role = QueueRole::Ldq;
      so.push_eod = true;
      break;
    case Opcode::PUTSCQ:
      so.push_role = QueueRole::Scq;
      break;
    default:
      break;
  }
  // Annotation-driven pushes (compiler-separated binaries) override the
  // opcode role, exactly as OoOCore::queue_roles always applied them last.
  if (inst.ann.push_ldq) {
    so.push_role = QueueRole::Ldq;
    so.push_from_ann = true;
  }
  if (inst.ann.push_sdq) {
    so.push_role = QueueRole::Sdq;
    so.push_from_ann = true;
  }
  return so;
}

StaticOpTable::StaticOpTable(const isa::Program& prog) {
  ops_.reserve(prog.code.size());
  for (const auto& inst : prog.code) ops_.push_back(decode_static_op(inst));
}

}  // namespace hidisc::uarch
