// A HISA program: code, initial data image, and symbol tables.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "isa/instruction.hpp"

namespace hidisc::isa {

// Layout constants.  Memory is a sparse 64-bit byte-addressable space; these
// bases merely keep segments apart.
inline constexpr std::uint64_t kDataBase = 0x1000'0000;
inline constexpr std::uint64_t kStackTop = 0x7fff'ff00;
inline constexpr std::uint64_t kHeapBase = 0x4000'0000;

struct Program {
  std::vector<Instruction> code;
  std::vector<std::uint8_t> data;         // image loaded at `data_base`
  std::uint64_t data_base = kDataBase;
  std::unordered_map<std::string, std::uint64_t> data_labels;  // -> address
  std::unordered_map<std::string, std::int32_t> code_labels;   // -> index
  std::int32_t entry = 0;

  [[nodiscard]] std::size_t size() const noexcept { return code.size(); }

  // Address of a data label; throws std::out_of_range if absent.
  [[nodiscard]] std::uint64_t data_addr(const std::string& label) const;
  // Instruction index of a code label; throws std::out_of_range if absent.
  [[nodiscard]] std::int32_t code_index(const std::string& label) const;

  // Inserts `inst` so that it executes immediately after position `pos`
  // (i.e. at index pos+1), remapping every branch/jump target and code
  // label.  A control transfer to an index > pos keeps pointing at the
  // same original instruction.  Used by the HiDISC compiler to place
  // communication instructions.
  void insert_after(std::int32_t pos, Instruction inst);

  // Inserts `inst` so that it executes immediately before `pos` and is
  // reached by every control transfer that targeted `pos`.
  void insert_before(std::int32_t pos, Instruction inst);

  // Removes the instruction at `pos`, remapping branch/jump targets, code
  // labels, and the entry point.  Transfers that targeted `pos` fall
  // through to its successor.  Used by the fuzz fault injector.
  void erase_at(std::int32_t pos);
};

}  // namespace hidisc::isa
