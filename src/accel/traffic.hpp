// Shared traffic and energy accounting for the accelerator models.
//
// Given one layer's GEMM, its operand widths, and the tiling the
// dataflow implies, computes DRAM bytes, buffer traffic and the
// resulting energy components.  Accelerator::run applies it to every
// design (Eyeriss, BitFusion, DRQ, Drift), so their energy differences
// come from data width, tile counts and occupancy — not from bespoke
// bookkeeping.
#pragma once

#include <cstdint>

#include "accel/accelerator.hpp"

namespace drift::accel {

/// Traffic description of one layer execution.
struct LayerTraffic {
  std::int64_t act_dram_bytes = 0;
  std::int64_t weight_dram_bytes = 0;
  std::int64_t out_dram_bytes = 0;
  std::int64_t buffer_read_bytes = 0;
  std::int64_t buffer_write_bytes = 0;

  std::int64_t dram_bytes() const {
    return act_dram_bytes + weight_dram_bytes + out_dram_bytes;
  }
};

/// Computes the mix-weighted operand widths.
OperandBits operand_bits_from_work(const core::LayerWork& work);

/// Computes the traffic of one GEMM execution.
///  - `n_tiles`: how many weight-column tiles the dataflow iterates
///    (activations are re-streamed once per tile unless the activation
///    matrix fits in the global buffer);
///  - `k_tiles`: reduction tiles (psum spill traffic beyond the first).
LayerTraffic compute_traffic(const core::GemmDims& dims,
                             const OperandBits& bits, std::int64_t n_tiles,
                             std::int64_t k_tiles,
                             const AccelConfig& config);

/// Buffer energy of a traffic record.
double buffer_energy_pj(const LayerTraffic& traffic,
                        const energy::EnergyConstants& constants);

/// DRAM occupancy + energy for a traffic record, using (and mutating)
/// the shared DRAM model.
struct DramOutcome {
  std::int64_t core_cycles = 0;
  double energy_pj = 0.0;
};
DramOutcome dram_outcome(const LayerTraffic& traffic, dram::DramModel& model);

/// Core (MAC) energy of a mix-split GEMM on a BitBrick substrate.
double core_energy_pj(const core::LayerWork& work,
                      const energy::EnergyConstants& constants);

/// Total BitBrick operations of a mix-split GEMM (the numerator of the
/// utilization metric: each unit supplies 16 BB ops per cycle).
double total_bitbrick_ops(const core::LayerWork& work);

}  // namespace drift::accel
