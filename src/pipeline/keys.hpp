// Content keys for lab::run_plan's two task kinds (docs/PIPELINE.md).
//
// Every key is a 32-hex-digit 128-bit FNV-1a hash (the lab::fingerprint
// machinery) over exactly the upstream content that can change a task's
// output, and nothing else.  The hashing rules *are* the invalidation
// semantics:
//
//   compile_key  = H(workload identity, canonical CompileOptions); dedups
//                  the plan's cells into compile tasks
//   sim key      = lab::content_key = H(encoded binary image, preset name,
//                  canonical MachineConfig); addresses the ResultCache
//   trace_key    = H(encoded binary image, step budget) — keys the
//                  TraceStore, which only perfbench/layers.cpp still uses
//
// The image leads the sim key, so a compile task hashes each of its two
// images once (lab::image_key_state) and every cell's sim key continues
// from that state.
//
// Consequences, each guarded by tests/pipeline_test.cpp:
//   * changing kernel text changes the binary image, hence every
//     downstream sim key;
//   * the separator mode selects a different binary image (original vs
//     separated), so the two modes never share a sim key;
//   * changing a machine preset or any MachineConfig field changes only
//     sim keys — compilations stay warm;
//   * the scheduler kind is deliberately excluded from describe(), so
//     event-skip and lockstep share every key (they are bit-identical
//     by the HIDISC_LOCKSTEP oracle).
//
// sim_key below is byte-for-byte lab::content_key, so result cache
// directories stay valid across every change to how a plan runs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "compiler/compile.hpp"
#include "lab/fingerprint.hpp"
#include "lab/plan.hpp"
#include "machine/config.hpp"

namespace hidisc::pipeline {

// Key of a compilation of a registry workload spec.
[[nodiscard]] std::string compile_key(const lab::WorkloadSpec& spec,
                                      const compiler::CompileOptions& opt);

// Key of a stored trace: the exact encoded binary the functional
// simulator executes plus the step budget.  Presets and machine configs
// do not appear, so one trace serves every machine sweep.
[[nodiscard]] std::string trace_key(
    const std::vector<std::uint8_t>& binary_image, std::uint64_t max_steps);

// Key of one simulation; identical to lab::content_key on the decoded
// program, taking the already-encoded image.
[[nodiscard]] std::string sim_key(const std::vector<std::uint8_t>& binary_image,
                                  machine::Preset preset,
                                  const machine::MachineConfig& cfg);

}  // namespace hidisc::pipeline
