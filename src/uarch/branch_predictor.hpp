// Branch predictor with BTB and return-address stack.
//
// Table 1 of the paper: "Branch predict mode: Bimodal, Branch table size:
// 2048".  Two-bit saturating counters indexed by instruction index
// (bimodal) or by index XOR global history (gshare, an ablation mode); a
// BTB provides targets for predicted-taken branches and jumps, and a small
// RAS handles jr-returns.
#pragma once

#include <cstdint>
#include <vector>

namespace hidisc::uarch {

struct BranchStats {
  std::uint64_t lookups = 0;
  std::uint64_t mispredicts = 0;

  [[nodiscard]] double mispredict_rate() const noexcept {
    return lookups == 0
               ? 0.0
               : static_cast<double>(mispredicts) /
                     static_cast<double>(lookups);
  }

  friend bool operator==(const BranchStats&, const BranchStats&) = default;
};

enum class PredictorKind : std::uint8_t { Bimodal, GShare };

// The machine's predictor geometry (Table 1's 2048-entry table), its BTB
// and its return-address stack depth.
inline constexpr int kPredictorTable = 2048;
inline constexpr int kBtbSize = 512;
inline constexpr int kRasDepth = 8;

class BranchPredictor {
 public:
  explicit BranchPredictor(int table_size = kPredictorTable,
                           int btb_size = kBtbSize, int ras_size = kRasDepth,
                           PredictorKind kind = PredictorKind::Bimodal);

  struct Prediction {
    bool taken = false;
    std::int32_t target = -1;  // -1: no BTB entry (treat as fall-through)
  };

  // Predicts the outcome of the branch at static index `pc`.
  [[nodiscard]] Prediction predict(std::int32_t pc) const;

  // Trains with the actual outcome and reports whether the *direction or
  // target* was mispredicted (callers charge the redirect penalty).
  bool update(std::int32_t pc, bool taken, std::int32_t target);

  // Call/return hints for jal/jr modelling.
  void push_ras(std::int32_t return_pc);
  [[nodiscard]] std::int32_t pop_ras();

  [[nodiscard]] const BranchStats& stats() const noexcept { return stats_; }
  void reset();

 private:
  [[nodiscard]] std::size_t index(std::int32_t pc) const noexcept {
    const auto base = static_cast<std::size_t>(pc);
    const auto h = kind_ == PredictorKind::GShare
                       ? base ^ static_cast<std::size_t>(history_)
                       : base;
    return h & (counters_.size() - 1);
  }
  [[nodiscard]] std::size_t btb_index(std::int32_t pc) const noexcept {
    return static_cast<std::size_t>(pc) & (btb_.size() - 1);
  }

  struct BtbEntry {
    std::int32_t pc = -1;
    std::int32_t target = -1;
  };

  std::vector<std::uint8_t> counters_;  // 2-bit saturating, init weakly taken
  std::vector<BtbEntry> btb_;
  std::vector<std::int32_t> ras_;
  std::size_t ras_top_ = 0;
  PredictorKind kind_ = PredictorKind::Bimodal;
  std::uint32_t history_ = 0;  // global taken/not-taken shift register
  BranchStats stats_;
};

// Historical alias: the paper's configuration is bimodal.
using BimodalPredictor = BranchPredictor;

}  // namespace hidisc::uarch
