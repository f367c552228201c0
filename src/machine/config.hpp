// Machine configurations for the four architectures the paper evaluates
// (§5.3): baseline superscalar, CP+AP (conventional access/execute
// decoupling), CP+CMP (speculative-precomputation-style prefetching), and
// the complete HiDISC.
//
// The paper evaluates one machine, so Table 1 is constants below (caches
// in mem/memory_system.hpp; bench_table1_params static_asserts them all):
// bimodal 2048-entry predictor, 8-wide issue/commit, scheduling windows of
// 64 (superscalar / AP) and 16 (CP), 4 integer ALUs + 1 MUL/DIV
// everywhere, 4 FP adders + 1 FP MUL/DIV on the superscalar and CP, 2
// memory ports per memory-capable processor, 32-entry load/store queues,
// L1D 256x32Bx4 (1 cycle), unified L2 1024x64Bx4 (12 cycles), 120-cycle
// DRAM.  MachineConfig holds only what a plan, a tool or the oracle sets.
#pragma once

#include <cstddef>
#include <cstdint>

#include "mem/memory_system.hpp"
#include "uarch/branch_predictor.hpp"
#include "uarch/core.hpp"

namespace hidisc::machine {

enum class Preset : std::uint8_t { Superscalar, CPAP, CPCMP, HiDISC };

[[nodiscard]] constexpr const char* preset_name(Preset p) noexcept {
  switch (p) {
    case Preset::Superscalar: return "Superscalar";
    case Preset::CPAP: return "CP+AP";
    case Preset::CPCMP: return "CP+CMP";
    case Preset::HiDISC: return "HiDISC";
  }
  return "?";
}

// How the machine advances simulated time.
//
//   EventSkip — the default: cores report their next self-scheduled event
//     and the machine fast-forwards `now` across provably idle stretches
//     (all cores stalled behind L2/DRAM misses), replaying the skipped
//     per-cycle stall counters exactly.  Results are bit-identical with
//     Lockstep; set HIDISC_LOCKSTEP=1 to run both side by side and assert
//     that on every run.
//   Lockstep — tick every core at every cycle (the seed scheduler);
//     retained as the reference for equivalence checking.
enum class SchedulerKind : std::uint8_t { EventSkip, Lockstep };

// True when the preset consumes the stream-separated binary.
[[nodiscard]] constexpr bool uses_separated_binary(Preset p) noexcept {
  return p == Preset::CPAP || p == Preset::HiDISC;
}
[[nodiscard]] constexpr bool uses_cmp(Preset p) noexcept {
  return p == Preset::CPCMP || p == Preset::HiDISC;
}

// Parameters no configuration varies.  lab::describe() keys each one, so
// changing a value here re-keys the result cache.
//
// Front end (Table 1): cycles from branch resolution to refetch, and the
// predictor and BTB sizes (defined with the predictor).
inline constexpr int kRedirectPenalty = 3;
inline constexpr int kPredictorTable = uarch::kPredictorTable;
inline constexpr int kBtbSize = uarch::kBtbSize;
// Slice-control queue entries (MachineConfig::queue_capacity sizes LDQ/SDQ).
inline constexpr std::size_t kScqCapacity = 16;
// CMP fork engine: concurrent slice contexts.
inline constexpr int kCmpContexts = 4;
// Adaptive range (MachineConfig::cmp_adaptive_range): installs judged
// before a group may be suppressed, the used/installed share that keeps it
// active, and 1 in N suppressed forks let through as a re-probe.
inline constexpr std::uint64_t kCmpRangeMinSamples = 64;
inline constexpr double kCmpRangeMinUse = 0.25;
inline constexpr int kCmpRangeReprobe = 16;
// Dynamic distance (MachineConfig::cmp_dynamic_distance): the fork
// lookahead's clamp and the cycles between adjustments.
inline constexpr std::int64_t kCmpLookaheadMin = 64;
inline constexpr std::int64_t kCmpLookaheadMax = 4096;
inline constexpr std::uint64_t kCmpAdaptInterval = 4096;
// Slip-control bound (the paper's SCQ): how far, in trace entries, a CMP
// context may scan ahead of fetch.  Too small and prefetches are late; too
// large and the CMP's own prefetches evict each other from L1 before the
// AP arrives.  Below kCmpLookaheadMax, so a machine's trace window spans
// max(cmp_fork_lookahead, kCmpLookaheadMax) entries past fetch.
inline constexpr std::int64_t kCmpMaxRunahead = 1024;

// Table 1 gives "issue/commit width 8" for the machine; each HiDISC
// processor keeps the full width (they are separate pipelines with their
// own Table-1 functional units).  The CMP's prefetch buffer is a field.
inline constexpr uarch::CoreConfig kSuperscalarCore{
    .name = "SS", .window = 64, .issue_width = 8, .commit_width = 8,
    .dispatch_width = 8, .input_queue = 32, .lsq = 32,
    .int_alu = 4, .int_muldiv = 1, .fp_alu = 4, .fp_muldiv = 1,
    .mem_ports = 2, .has_lsu = true, .prefetch_only = false};
inline constexpr uarch::CoreConfig kCpCore{
    .name = "CP", .window = 16, .issue_width = 8, .commit_width = 8,
    .dispatch_width = 8, .input_queue = 64, .lsq = 0,
    .int_alu = 4, .int_muldiv = 1, .fp_alu = 4, .fp_muldiv = 1,
    .mem_ports = 0, .has_lsu = false, .prefetch_only = false};
inline constexpr uarch::CoreConfig kApCore{
    .name = "AP", .window = 64, .issue_width = 8, .commit_width = 8,
    .dispatch_width = 8, .input_queue = 64, .lsq = 32,
    .int_alu = 4, .int_muldiv = 1, .fp_alu = 0, .fp_muldiv = 0,
    .mem_ports = 2, .has_lsu = true, .prefetch_only = false};
inline constexpr uarch::CoreConfig kCmpCore{
    .name = "CMP", .window = 32, .issue_width = 4, .commit_width = 4,
    .dispatch_width = 4, .input_queue = 64, .lsq = 16,
    .int_alu = 4, .int_muldiv = 1, .fp_alu = 0, .fp_muldiv = 0,
    .mem_ports = 2, .has_lsu = true, .prefetch_only = true};

struct MachineConfig {
  mem::MemConfig mem{};

  // Front end.
  int fetch_width = 8;
  // Predictor flavour: the paper's Table 1 uses bimodal; gshare is an
  // ablation (`hilab --plan ablation-predictor`).
  uarch::PredictorKind predictor_kind = uarch::PredictorKind::Bimodal;

  // LDQ and SDQ entries (paper: "32 entries load store queues").
  std::size_t queue_capacity = 32;

  // CMP fork engine.  The prefetch buffer caps its concurrent fire-and-
  // forget fills (cf. DGP), bounding the miss bandwidth it can sustain.
  int cmp_prefetch_buffer = 8;
  int cmp_targets_per_fork = 4;  // slice instance length, in load micro-ops
  // Where a fork starts hunting for its slice instance: the paper forks
  // the slice for the miss ~512 dynamic instructions ahead of the trigger,
  // so the scan begins this far beyond the current fetch position.  When
  // the CMP falls behind, the next fork jumps forward and the skipped
  // instances stay uncovered — the partial miss coverage of Figure 9.
  std::int64_t cmp_fork_lookahead = 384;
  // Future-work mode (paper §6, "chaining trigger" of Collins et al.):
  // each fork resumes exactly where the previous instance ended, giving
  // gap-free coverage.  Quantified by `hilab --plan ablation-queues`,
  // Ablation D.
  bool cmp_chaining = false;
  // Future-work mode (paper §6: "the prefetching distance should be
  // selected dynamically"): hill-climb cmp_fork_lookahead at runtime from
  // the timely-vs-late prefetch balance.  Quantified by
  // `hilab --plan ablation-trigger`.
  bool cmp_dynamic_distance = false;
  // Future-work mode (paper §6: "not every probable cache miss instruction
  // would be triggered as CMAS ... depending on the previous prefetching
  // history, we can choose only the necessary prefetching"): suppress
  // forks for groups whose prefetched lines mostly go unused, re-probing
  // occasionally.
  bool cmp_adaptive_range = false;

  // Abort threshold for a machine making no forward progress (model bug).
  // Counted over stalled *event steps*, not raw cycle deltas, so a legal
  // multi-thousand-cycle fast-forward never trips it.
  std::uint64_t watchdog_cycles = 1'000'000;

  // Time-advance strategy; excluded from lab content keys because both
  // schedulers produce bit-identical results.
  SchedulerKind scheduler = SchedulerKind::EventSkip;
};

}  // namespace hidisc::machine
