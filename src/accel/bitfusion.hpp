// BitFusion baseline (Sharma et al., ISCA 2018): a systolic array of
// fusion units whose BitBricks are *spatially* fused before runtime.
// Because fusion is pre-configured, the array cannot react to per-
// sub-tensor precision; it executes statically quantized INT8 models
// (Section 5.1 pairs BitFusion with INT8).
#pragma once

#include "accel/accelerator.hpp"

namespace drift::accel {

class BitFusionModel : public Accelerator {
 public:
  explicit BitFusionModel(AccelConfig config)
      : Accelerator(std::move(config)) {}

  std::string name() const override { return "BitFusion"; }

 protected:
  LayerCost layer_cost(const nn::LayerMix& mix) override;
};

}  // namespace drift::accel
