#include "accel/drift_accel.hpp"

#include <algorithm>
#include <cmath>

#include "accel/fabric.hpp"
#include "accel/traffic.hpp"
#include "core/analytical_model.hpp"
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

void DriftAccelModel::begin_run() { fabric_ = BitGroupFabric(config_.array); }

LayerCost DriftAccelModel::layer_cost(const nn::LayerMix& mix) {
  const core::GemmDims& dims = mix.layer.dims;
  const auto& array = config_.array;
  const core::LayerWork& work = mix.work;
  LayerCost cost;

  const core::SplitDecision split = schedule(work);
  // Reprogram the BG link directions for this layer's split: the
  // in-flight wavefronts drain and the changed link rows rewrite
  // (accel/fabric.hpp models the exact cost).
  const std::int64_t reconfigure = fabric_.reconfigure_cycles(split.r, split.c);
  DRIFT_CHECK(fabric_.validate().empty(),
              "fabric configuration must form four systolic arrays");
  cost.compute_cycles = split.makespan + reconfigure;

  // Stalls for Drift are load imbalance: makespan minus the
  // work-proportional lower bound on this many units.
  const double total_bb_ops = total_bitbrick_ops(work);
  const double peak_bb_ops = static_cast<double>(array.units()) * 16.0;
  cost.stall_cycles = std::max<std::int64_t>(
      cost.compute_cycles -
          static_cast<std::int64_t>(std::ceil(total_bb_ops / peak_bb_ops)),
      0);
  // Utilization in BitBrick-op terms (16 BB ops per unit-cycle).
  cost.utilization =
      total_bb_ops / (static_cast<double>(cost.compute_cycles) * peak_bb_ops);

  // Tiling for psum/act re-stream traffic: mix-weighted widths on the
  // full grid (each quadrant tiles its own share; the aggregate is
  // the same to first order).
  cost.bits = operand_bits_from_work(work);
  cost.k_tiles = core::ws_k_tiles(dims.K, cost.bits.act_bits, array.rows);
  cost.n_tiles = core::ws_n_tiles(dims.N, cost.bits.weight_bits, array.cols);
  cost.core_pj = core_energy_pj(work, config_.energy);
  return cost;
}

}  // namespace drift::accel
