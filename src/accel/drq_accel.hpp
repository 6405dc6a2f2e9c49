// DRQ accelerator baseline (Song et al., ISCA 2020): one variable-
// speed systolic array executing dynamic 4/8-bit activations against
// static 8-bit weights.
//
// The whole array runs in one precision mode at a time; switching
// modes requires draining the pipeline, so finely interleaved
// precision patterns force either massive switch bubbles or a
// fallback to uniform 8-bit execution (the controller picks the
// cheaper, per layer).  This is the data-flow-stall limitation Drift's
// split arrays remove (Sections 2.3 and 5.3).
#pragma once

#include "accel/accelerator.hpp"

namespace drift::accel {

class DrqAccelModel : public Accelerator {
 public:
  explicit DrqAccelModel(AccelConfig config)
      : Accelerator(std::move(config)) {}

  std::string name() const override { return "DRQ"; }

 protected:
  LayerCost layer_cost(const nn::LayerMix& mix) override;
};

}  // namespace drift::accel
