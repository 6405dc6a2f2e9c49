// Per-burst oracle for the DRAM model.  dram::DramModel::transfer
// computes a transfer's row hits, misses, busy cycles and energy in
// closed form per (channel, bank); this oracle walks the same transfer
// one 64-byte burst at a time, updating each bank's open row as it
// goes — the direct reading of the open-page timing rules, sharing no
// code with the production arithmetic.
#pragma once

#include <cstdint>
#include <vector>

// drift-lint: allow(oracle-include) — type-only include: DramConfig,
// DramStats and TransferResult are plain data structs, so the oracle
// and the model report through the same vocabulary; no implementation
// logic is shared.
#include "dram/dram.hpp"

namespace drift::ref {

/// The burst-by-burst DRAM model: same geometry, timing, energy and
/// address mapping as dram::DramModel, with bank row-buffer state that
/// persists across calls.
class BurstDramModel {
 public:
  explicit BurstDramModel(const dram::DramConfig& config);

  /// Streams `bytes` sequentially from `address`, one burst per loop
  /// step.  Same contract as dram::DramModel::transfer.
  dram::TransferResult transfer(std::int64_t address, std::int64_t bytes,
                                bool is_write);

  const dram::DramStats& stats() const { return stats_; }

  /// Row currently open in (channel, bank); -1 when the bank is closed.
  std::int64_t open_row(std::int64_t channel, std::int64_t bank) const;

 private:
  struct Bank {
    std::int64_t open_row = -1;
  };

  dram::DramConfig config_;
  dram::DramStats stats_;
  std::vector<Bank> banks_;  ///< channels x banks
};

}  // namespace drift::ref
