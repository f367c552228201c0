// Static pre-decode for the timing cores.
//
// Everything `OoOCore::do_dispatch` and the issue path used to derive per
// dynamic op — operand class, FU pool, latency, unpipelined busy time,
// queue push/pop roles, source/destination flat register ids, routing
// validity — is a pure function of the static instruction.  A
// `StaticOpTable` evaluates that function once per static instruction when
// the machine is built, so the per-dynamic-op cost in the core collapses
// to one table load instead of a switch over opcodes plus `info()`
// lookups.  Every core reads its ops from a table; unit tests that drive a
// bare `OoOCore` build one over their synthetic instructions.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "isa/instruction.hpp"
#include "isa/program.hpp"

namespace hidisc::uarch {

// Functional-unit pool selector (see OoOCore's pool roster).
enum class PoolKind : std::uint8_t {
  None,       // queue ops, halt, nop: no FU needed
  IntAlu,     // also branches and jumps
  IntMulDiv,
  FpAlu,
  FpMulDiv,
  Mem,        // loads, stores, prefetches: memory ports
};
inline constexpr std::size_t kNumPoolKinds =
    static_cast<std::size_t>(PoolKind::Mem) + 1;

// Architectural-queue role selector, resolved against the core's bound
// queues at dispatch (a prefetch-only CMP ignores all roles).
enum class QueueRole : std::uint8_t { None, Ldq, Sdq, Scq };

struct StaticOp {
  isa::OpClass cls = isa::OpClass::Nop;
  PoolKind pool = PoolKind::None;
  QueueRole pop_role = QueueRole::None;
  QueueRole push_role = QueueRole::None;
  std::int16_t latency = 1;     // result latency in cycles
  std::int16_t busy = 1;        // FU occupancy (latency for unpipelined divides)
  std::int16_t cmas_group = -1; // prefetch attribution group (CMP loads)
  std::int8_t src1 = -1;        // flat source register ids; -1 = no
  std::int8_t src2 = -1;        //   in-flight dependence possible
  std::int8_t dst = -1;         // flat destination id; -1 = none (or r0)
  bool push_eod = false;        // push role deposits an EOD token
  bool push_from_ann = false;   // push role came from the annotation field
  bool is_load = false;
  bool is_store = false;
  bool is_prefetch = false;
  bool is_mem = false;          // load | store | prefetch: needs an LSU
  bool is_beod = false;         // BEOD's conditional LDQ consume
  bool is_control = false;      // branch, jump or BEOD (not HALT): predicted
  bool fp_routed = false;       // FP compute: needs FP units
  bool value_live = false;      // CMAS load whose value the slice reads
};

// The decode function the table applies to every instruction.
[[nodiscard]] StaticOp decode_static_op(const isa::Instruction& inst);

// One decoded StaticOp per static instruction of a program.
class StaticOpTable {
 public:
  explicit StaticOpTable(const isa::Program& prog);
  // Already-decoded ops, index = static_idx (tests that hand-edit a decode).
  explicit StaticOpTable(std::vector<StaticOp> ops) : ops_(std::move(ops)) {}

  [[nodiscard]] const StaticOp& operator[](std::int32_t idx) const noexcept {
    return ops_[static_cast<std::size_t>(idx)];
  }
  [[nodiscard]] std::size_t size() const noexcept { return ops_.size(); }

 private:
  std::vector<StaticOp> ops_;
};

}  // namespace hidisc::uarch
