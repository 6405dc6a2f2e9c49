// Accelerator system models.
//
// Each model turns a workload (full-size layer shapes + per-layer
// precision mixes) into cycles and an energy breakdown:
//
//   Eyeriss   — FP32 row-stationary baseline, 224 PEs (14 x 16)
//   BitFusion — static INT8 on a 792-unit fused-BitBrick systolic array
//   DRQ       — dynamic 4/8-bit activations on one variable-speed
//               array (run-switching stall model with high fallback)
//   Drift     — four split systolic arrays + balanced online scheduler
//
// All four run through one per-layer loop, Accelerator::run, which
// owns the DRAM model, buffer traffic accounting, energy constants,
// obs records and run totals; a design supplies only its dataflow (one
// LayerCost per layer), so differences come only from that.
//
// `stall_cycles` has one name and a per-design meaning, per layer
// instance in LayerResult and summed over instances in RunResult:
//
//   Eyeriss   — exposed DRAM: max(dram_cycles - compute_cycles, 0)
//   BitFusion — always 0 (static INT8, no precision switches)
//   DRQ       — precision-switch bubbles of the single array
//   Drift     — load imbalance of the four sub-arrays (makespan minus
//               the work-proportional bound), reconfiguration included
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/analytical_model.hpp"
#include "dram/dram.hpp"
#include "energy/constants.hpp"
#include "nn/precision_mix.hpp"
#include "nn/workload.hpp"

namespace drift::accel {

/// Shared hardware configuration (Section 5.1: 792 units for the
/// precision-flexible designs, 224 PEs for Eyeriss).
struct AccelConfig {
  core::ArrayDims array{24, 33};          ///< BG / fusion-unit grid (792)
  std::int64_t global_buffer_bytes = 512 * 1024;
  std::int64_t weight_buffer_bytes = 512 * 1024;
  dram::DramConfig dram{};
  energy::EnergyConstants energy = energy::default_constants();
  /// Static power of one FP32 PE relative to one BitGroup (Eyeriss's
  /// PEs carry FP32 datapaths and large register files).
  double fp32_unit_static_multiplier = 4.0;
};

/// Average operand widths (in bits) a layer's traffic is computed from.
struct OperandBits {
  double act_bits = 8.0;     ///< row-weighted activation width
  double weight_bits = 8.0;  ///< channel-weighted weight width
  int out_bits = 8;          ///< outputs are re-quantized on write-back
};

/// One instance of a layer under a design's dataflow: everything the
/// shared run loop cannot derive itself.
struct LayerCost {
  std::int64_t compute_cycles = 0;  ///< array occupancy (incl. stalls)
  std::int64_t stall_cycles = 0;    ///< the design's stall (see above)
  double utilization = 0.0;         ///< MAC throughput / peak
  OperandBits bits;                 ///< stored operand widths
  std::int64_t n_tiles = 1;         ///< weight-column tiles (act re-streams)
  std::int64_t k_tiles = 1;         ///< reduction tiles (psum spills)
  double core_pj = 0.0;             ///< MAC energy
};

/// Per-layer outcome.  Cycle and byte fields are per instance except
/// `cycles` and the energy, which cover all `repeat` instances.
struct LayerResult {
  std::string layer;
  std::int64_t compute_cycles = 0;  ///< array occupancy (incl. stalls)
  std::int64_t dram_cycles = 0;     ///< memory occupancy
  std::int64_t cycles = 0;          ///< max of the two, times repeat
  std::int64_t stall_cycles = 0;    ///< the design's stall (see above)
  std::int64_t dram_bytes = 0;
  double utilization = 0.0;         ///< MAC throughput / peak
  energy::EnergyBreakdown energy;
};

/// Whole-model outcome.
struct RunResult {
  std::string accelerator;
  std::string model;
  std::int64_t cycles = 0;
  std::int64_t stall_cycles = 0;
  std::int64_t dram_bytes = 0;
  energy::EnergyBreakdown energy;
  std::vector<LayerResult> layers;

  double seconds(double clock_hz) const {
    return static_cast<double>(cycles) / clock_hz;
  }
};

/// An accelerator design: a dataflow plugged into the shared run loop.
class Accelerator {
 public:
  explicit Accelerator(AccelConfig config) : config_(std::move(config)) {}
  virtual ~Accelerator() = default;

  virtual std::string name() const = 0;

  /// Runs a workload.  `mixes` must contain one entry per layer of
  /// `spec`, produced by the algorithm this accelerator executes
  /// (BitFusion: kStaticInt8; DRQ: kDrq; Drift: kDrift; Eyeriss
  /// ignores the mix and runs FP32).  The one per-layer loop of every
  /// design: each layer runs inside its obs layer scope and an
  /// `accel.layer` span, and fills that record's compute/stall cycles
  /// and DRAM bytes.
  RunResult run(const nn::WorkloadSpec& spec,
                const std::vector<nn::LayerMix>& mixes);

  const AccelConfig& config() const { return config_; }

 protected:
  /// Resets per-run dataflow state before the first layer.
  virtual void begin_run() {}

  /// The dataflow's cost of one instance of `mix`'s layer.
  virtual LayerCost layer_cost(const nn::LayerMix& mix) = 0;

  /// Stall cycles of one instance once its DRAM cycles are known; the
  /// dataflow's own `cost.stall_cycles` unless a design stalls on DRAM.
  virtual std::int64_t stall_cycles(const LayerCost& cost,
                                    std::int64_t dram_cycles) const;

  /// Units the design's static power scales with (one BitGroup each).
  virtual double static_units() const;

  AccelConfig config_;
};

}  // namespace drift::accel
