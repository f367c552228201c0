// Which of a compilation's two binaries a machine preset consumes: the
// original for Superscalar / CP+CMP, the separated (CP/AP-annotated) one
// for CP+AP / HiDISC.  perfbench/layers.cpp indexes its per-compile
// images by it.
#pragma once

#include <cstdint>

#include "machine/config.hpp"

namespace hidisc::pipeline {

enum class Mode : std::uint8_t { Original, Separated };

[[nodiscard]] constexpr Mode mode_for(machine::Preset p) noexcept {
  return machine::uses_separated_binary(p) ? Mode::Separated
                                           : Mode::Original;
}

}  // namespace hidisc::pipeline
