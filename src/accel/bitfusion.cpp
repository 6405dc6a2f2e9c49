#include "accel/bitfusion.hpp"

#include "accel/traffic.hpp"

namespace drift::accel {

LayerCost BitFusionModel::layer_cost(const nn::LayerMix& mix) {
  const core::GemmDims& dims = mix.layer.dims;
  const auto& array = config_.array;
  LayerCost cost;

  // Static INT8 everywhere, regardless of what the mix says.
  core::LayerWork work;
  work.m_high = dims.M;
  work.n_high = dims.N;
  work.k = dims.K;

  cost.compute_cycles = core::ws_latency_cycles(dims, 8, 8, array);
  cost.utilization = static_cast<double>(dims.macs()) /
                     (static_cast<double>(cost.compute_cycles) *
                      static_cast<double>(array.units()));
  cost.bits = {8.0, 8.0, 8};
  cost.k_tiles = core::ws_tile_repetitions({dims.M, dims.K, 1}, 8, 8, array);
  cost.n_tiles = core::ws_tile_repetitions({dims.M, 1, dims.N}, 8, 8, array);
  cost.core_pj = core_energy_pj(work, config_.energy);
  return cost;
}

}  // namespace drift::accel
