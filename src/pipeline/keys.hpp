// Content keys for the artifact DAG's edges (docs/PIPELINE.md).
//
// Every edge in the pipeline graph is content-addressed: a node's key is
// a 32-hex-digit 128-bit FNV-1a hash (the lab::fingerprint machinery)
// over exactly the upstream content that can change its output, and
// nothing else.  The hashing rules *are* the invalidation semantics:
//
//   compile_key  = H(workload identity, canonical CompileOptions)
//   sim_key      = H(encoded binary image, preset name, canonical
//                    MachineConfig)            == lab::content_key
//   trace_key    = H(encoded binary image, step budget) — keys the
//                  TraceStore, which only perfbench/layers.cpp still uses
//
// The image leads the sim key, so a compile node hashes each of its two
// images once (lab::image_key_state) and every cell's sim key continues
// from that state.
//
// Consequences, each guarded by tests/pipeline_test.cpp:
//   * changing kernel text changes the binary image, hence every
//     downstream sim key;
//   * the separator mode selects a different binary image (original vs
//     separated), so the two modes never share sim nodes;
//   * changing a machine preset or any MachineConfig field changes only
//     sim keys — compilations stay warm;
//   * the scheduler kind is deliberately excluded from describe(), so
//     event-skip and lockstep share every node (they are bit-identical
//     by the HIDISC_LOCKSTEP oracle).
//
// sim_key is byte-for-byte the pre-pipeline lab::content_key, so result
// cache directories written before the DAG refactor stay valid.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "compiler/compile.hpp"
#include "lab/fingerprint.hpp"
#include "lab/plan.hpp"
#include "machine/config.hpp"

namespace hidisc::pipeline {

// Key of a compile node fed by a registry workload spec (the identity the
// old prep-memoization layer keyed on, hashed).
[[nodiscard]] std::string compile_key(const lab::WorkloadSpec& spec,
                                      const compiler::CompileOptions& opt);

// Key of a compile node fed a caller-built program (bench/ablation path):
// the program bytes stand in for the spec identity.
[[nodiscard]] std::string compile_key(
    const std::vector<std::uint8_t>& program_image,
    const compiler::CompileOptions& opt);

// Key of a stored trace: the exact encoded binary the functional
// simulator executes plus the step budget.  Presets and machine configs
// do not appear, so one trace serves every machine sweep.
[[nodiscard]] std::string trace_key(
    const std::vector<std::uint8_t>& binary_image, std::uint64_t max_steps);

// Key of a sim node; identical to lab::content_key on the decoded
// program, taking the already-encoded image to avoid re-encoding per
// consumer.
[[nodiscard]] std::string sim_key(const std::vector<std::uint8_t>& binary_image,
                                  machine::Preset preset,
                                  const machine::MachineConfig& cfg);
// The same key continued from the image's hash state, so an image shared
// by many cells is hashed once.
[[nodiscard]] std::string sim_key(const lab::ImageKeyState& image,
                                  machine::Preset preset,
                                  const machine::MachineConfig& cfg);

}  // namespace hidisc::pipeline
