#include "accel/eyeriss.hpp"

#include <algorithm>
#include <cmath>


namespace drift::accel {

std::int64_t EyerissModel::mapped_pes(const nn::LayerGemm& layer) {
  // Filter rows map to PE rows; replicate filter sets when the kernel
  // is short.  Output rows strip across PE columns.
  const std::int64_t kh = std::clamp<std::int64_t>(layer.kernel, 1, kPeRows);
  const std::int64_t groups = kPeRows / kh;
  const std::int64_t rows_used = groups * kh;
  // Output height: sqrt of M for square conv maps, M itself for
  // token/row streams.
  const std::int64_t oh =
      layer.kind == nn::LayerKind::kConv
          ? static_cast<std::int64_t>(std::llround(
                std::sqrt(static_cast<double>(layer.dims.M))))
          : layer.dims.M;
  const std::int64_t cols_used = std::clamp<std::int64_t>(oh, 1, kPeCols);
  return rows_used * cols_used;
}

LayerCost EyerissModel::layer_cost(const nn::LayerMix& mix) {
  const core::GemmDims& dims = mix.layer.dims;
  LayerCost cost;
  const std::int64_t pes = mapped_pes(mix.layer);
  cost.compute_cycles = (dims.macs() + pes - 1) / pes;
  cost.utilization = static_cast<double>(dims.macs()) /
                     (static_cast<double>(cost.compute_cycles) *
                      static_cast<double>(kPeCount));

  // FP32 operands: 32-bit everything; the ifmap is re-read once per
  // 16-output-channel pass when it does not fit on chip.  Psums stay
  // in PE register files (one reduction tile).
  cost.bits = {32.0, 32.0, 32};
  cost.n_tiles = std::max<std::int64_t>((dims.N + kPeCols - 1) / kPeCols, 1);
  cost.core_pj =
      static_cast<double>(dims.macs()) * config_.energy.e_fp32_mac_pj;
  return cost;
}

std::int64_t EyerissModel::stall_cycles(const LayerCost& cost,
                                        std::int64_t dram_cycles) const {
  return std::max<std::int64_t>(dram_cycles - cost.compute_cycles, 0);
}

double EyerissModel::static_units() const {
  return config_.fp32_unit_static_multiplier * static_cast<double>(kPeCount);
}

}  // namespace drift::accel
