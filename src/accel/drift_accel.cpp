#include "accel/drift_accel.hpp"

#include <algorithm>
#include <cmath>

#include "accel/fabric.hpp"
#include "accel/traffic.hpp"
#include "core/analytical_model.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"

namespace drift::accel {

std::string to_string(SchedulerPolicy policy) {
  switch (policy) {
    case SchedulerPolicy::kGreedy: return "greedy";
    case SchedulerPolicy::kExhaustive: return "exhaustive";
    case SchedulerPolicy::kFixed: return "fixed";
  }
  return "?";
}

std::optional<SchedulerPolicy> policy_from_string(const std::string& name) {
  for (const SchedulerPolicy policy :
       {SchedulerPolicy::kGreedy, SchedulerPolicy::kExhaustive,
        SchedulerPolicy::kFixed}) {
    if (name == to_string(policy)) return policy;
  }
  return std::nullopt;
}

std::string DriftAccelModel::name() const {
  return policy_ == SchedulerPolicy::kGreedy
             ? "Drift"
             : "Drift(" + to_string(policy_) + ")";
}

core::SplitDecision DriftAccelModel::schedule(
    const core::LayerWork& work) const {
  switch (policy_) {
    case SchedulerPolicy::kGreedy:
      return core::schedule_greedy(work, config_.array);
    case SchedulerPolicy::kExhaustive:
      return core::schedule_exhaustive(work, config_.array);
    case SchedulerPolicy::kFixed:
      return core::schedule_fixed_quarters(work, config_.array);
  }
  DRIFT_CHECK(false, "unreachable policy");
  return {};
}

RunResult DriftAccelModel::run(const nn::WorkloadSpec& spec,
                               const std::vector<nn::LayerMix>& mixes) {
  DRIFT_CHECK(mixes.size() == spec.layers.size(), "mix/layer mismatch");
  RunResult result;
  result.accelerator = name();
  result.model = spec.model;
  dram::DramModel dram(config_.dram);
  const auto& ec = config_.energy;
  const auto& array = config_.array;
  BitGroupFabric fabric(array);

  for (const nn::LayerMix& mix : mixes) {
    DRIFT_OBS_LAYER_SCOPE(mix.layer.name);
    DRIFT_OBS_SPAN("drift_accel.layer");
    const core::GemmDims& dims = mix.layer.dims;
    LayerResult lr;
    lr.layer = mix.layer.name;

    const core::LayerWork& work = mix.work;
    const core::SplitDecision split = schedule(work);
    // Reprogram the BG link directions for this layer's split: the
    // in-flight wavefronts drain and the changed link rows rewrite
    // (accel/fabric.hpp models the exact cost).
    const std::int64_t reconfigure =
        fabric.reconfigure_cycles(split.r, split.c);
    DRIFT_CHECK(fabric.validate().empty(),
                "fabric configuration must form four systolic arrays");
    lr.compute_cycles = split.makespan + reconfigure;

    // Stalls for Drift are load imbalance: makespan minus the
    // work-proportional lower bound on this many units.
    const double total_bb_ops = total_bitbrick_ops(work);
    const double ideal_cycles =
        total_bb_ops / (static_cast<double>(array.units()) * 16.0);
    lr.stall_cycles = std::max<std::int64_t>(
        lr.compute_cycles - static_cast<std::int64_t>(std::ceil(ideal_cycles)),
        0);

    // Tiling for psum/act re-stream traffic: mix-weighted widths on the
    // full grid (each quadrant tiles its own share; the aggregate is
    // the same to first order).
    const OperandBits bits = operand_bits_from_work(work);
    const std::int64_t k_tiles =
        core::ws_k_tiles(dims.K, bits.act_bits, array.rows);
    const std::int64_t n_tiles =
        core::ws_n_tiles(dims.N, bits.weight_bits, array.cols);
    const LayerTraffic traffic =
        compute_traffic(dims, bits, n_tiles, k_tiles, config_);
    const DramOutcome mem = dram_outcome(traffic, dram);

    lr.dram_cycles = mem.core_cycles;
    lr.dram_bytes = traffic.dram_bytes();
    lr.cycles = std::max(lr.compute_cycles, lr.dram_cycles) *
                mix.layer.repeat;

    // Utilization in BitBrick-op terms (16 BB ops per unit-cycle).
    lr.utilization =
        total_bb_ops / (static_cast<double>(lr.compute_cycles) *
                        static_cast<double>(array.units()) * 16.0);

    lr.energy.core_pj = core_energy_pj(work, ec) * mix.layer.repeat;
    lr.energy.buffer_pj = buffer_energy_pj(traffic, ec) * mix.layer.repeat;
    lr.energy.dram_pj = mem.energy_pj * mix.layer.repeat;

    DRIFT_OBS_COUNT("accel.layers", 1);
    DRIFT_OBS_COUNT("accel.compute_cycles", lr.compute_cycles);
    DRIFT_OBS_COUNT("accel.stall_cycles", lr.stall_cycles);
    DRIFT_OBS_LAYER(rec, rec->compute_cycles += lr.compute_cycles;
                    rec->stall_cycles += lr.stall_cycles);

    result.cycles += lr.cycles;
    result.stall_cycles += lr.stall_cycles * mix.layer.repeat;
    result.dram_bytes += lr.dram_bytes * mix.layer.repeat;
    result.energy += lr.energy;
    result.layers.push_back(std::move(lr));
  }

  result.energy.static_pj = ec.static_pj_per_unit_cycle *
                            static_cast<double>(config_.array.units()) *
                            static_cast<double>(result.cycles);
  return result;
}

}  // namespace drift::accel
