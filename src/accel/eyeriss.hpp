// Eyeriss baseline (Chen et al., ISSCC/ISCA 2016): a 14 x 16
// row-stationary PE array executing the uncompressed FP32 model
// (Section 5.1 normalizes all results to this design).
//
// The row-stationary mapping assigns filter rows to PE rows and output
// rows to PE columns; when the kernel is shorter than 14 rows, filter
// sets are replicated vertically.  Utilization therefore depends on
// how (kernel, output height) fit the 14 x 16 grid — full-size convs
// map well, pointwise/FC layers less so.
#pragma once

#include "accel/accelerator.hpp"

namespace drift::accel {

class EyerissModel : public Accelerator {
 public:
  explicit EyerissModel(AccelConfig config) : Accelerator(std::move(config)) {}

  std::string name() const override { return "Eyeriss"; }

  static constexpr std::int64_t kPeRows = 14;
  static constexpr std::int64_t kPeCols = 16;
  static constexpr std::int64_t kPeCount = kPeRows * kPeCols;  // 224

  /// Active PEs for a layer under the row-stationary mapping.
  static std::int64_t mapped_pes(const nn::LayerGemm& layer);

 protected:
  LayerCost layer_cost(const nn::LayerMix& mix) override;
  /// Exposed DRAM: the cycles memory occupancy outlasts compute.
  std::int64_t stall_cycles(const LayerCost& cost,
                            std::int64_t dram_cycles) const override;
  /// FP32 PEs: kPeCount x fp32_unit_static_multiplier BitGroups.
  double static_units() const override;
};

}  // namespace drift::accel
