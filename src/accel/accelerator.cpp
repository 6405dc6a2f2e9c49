#include "accel/accelerator.hpp"

#include <algorithm>

#include "accel/traffic.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"

namespace drift::accel {

RunResult Accelerator::run(const nn::WorkloadSpec& spec,
                           const std::vector<nn::LayerMix>& mixes) {
  DRIFT_CHECK(mixes.size() == spec.layers.size(), "mix/layer mismatch");
  RunResult result;
  result.accelerator = name();
  result.model = spec.model;
  dram::DramModel dram(config_.dram);
  const auto& ec = config_.energy;
  begin_run();

  for (const nn::LayerMix& mix : mixes) {
    DRIFT_OBS_LAYER_SCOPE(mix.layer.name);
    DRIFT_OBS_SPAN("accel.layer");
    const std::int64_t repeat = mix.layer.repeat;
    const LayerCost cost = layer_cost(mix);
    const LayerTraffic traffic = compute_traffic(
        mix.layer.dims, cost.bits, cost.n_tiles, cost.k_tiles, config_);
    const DramOutcome mem = dram_outcome(traffic, dram);

    LayerResult lr;
    lr.layer = mix.layer.name;
    lr.compute_cycles = cost.compute_cycles;
    lr.dram_cycles = mem.core_cycles;
    lr.cycles = std::max(lr.compute_cycles, lr.dram_cycles) * repeat;
    lr.stall_cycles = stall_cycles(cost, lr.dram_cycles);
    lr.dram_bytes = traffic.dram_bytes();
    lr.utilization = cost.utilization;
    lr.energy.core_pj = cost.core_pj * repeat;
    lr.energy.buffer_pj = buffer_energy_pj(traffic, ec) * repeat;
    lr.energy.dram_pj = mem.energy_pj * repeat;

    DRIFT_OBS_COUNT("accel.layers", 1);
    DRIFT_OBS_COUNT("accel.compute_cycles", lr.compute_cycles);
    DRIFT_OBS_COUNT("accel.stall_cycles", lr.stall_cycles);
    DRIFT_OBS_LAYER(rec, rec->compute_cycles += lr.compute_cycles;
                    rec->stall_cycles += lr.stall_cycles);

    result.cycles += lr.cycles;
    result.stall_cycles += lr.stall_cycles * repeat;
    result.dram_bytes += lr.dram_bytes * repeat;
    result.energy += lr.energy;
    result.layers.push_back(std::move(lr));
  }

  result.energy.static_pj = ec.static_pj_per_unit_cycle * static_units() *
                            static_cast<double>(result.cycles);
  return result;
}

std::int64_t Accelerator::stall_cycles(const LayerCost& cost,
                                       std::int64_t /*dram_cycles*/) const {
  return cost.stall_cycles;
}

double Accelerator::static_units() const {
  return static_cast<double>(config_.array.units());
}

}  // namespace drift::accel
