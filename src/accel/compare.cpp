#include "accel/compare.hpp"

#include "accel/bitfusion.hpp"
#include "accel/drq_accel.hpp"
#include "accel/eyeriss.hpp"
#include "util/assert.hpp"

namespace drift::accel {

double Comparison::speedup_bitfusion() const {
  return static_cast<double>(eyeriss.cycles) /
         static_cast<double>(bitfusion.cycles);
}
double Comparison::speedup_drq() const {
  return static_cast<double>(eyeriss.cycles) /
         static_cast<double>(drq.cycles);
}
double Comparison::speedup_drift() const {
  return static_cast<double>(eyeriss.cycles) /
         static_cast<double>(drift.cycles);
}

double Comparison::energy_bitfusion() const {
  return bitfusion.energy.total_pj() / eyeriss.energy.total_pj();
}
double Comparison::energy_drq() const {
  return drq.energy.total_pj() / eyeriss.energy.total_pj();
}
double Comparison::energy_drift() const {
  return drift.energy.total_pj() / eyeriss.energy.total_pj();
}

nn::MixConfig mix_config(Design design, const CompareConfig& config) {
  nn::MixConfig mix;
  mix.seed = config.seed;
  switch (design) {
    case Design::kEyeriss:
    case Design::kBitFusion:
      mix.algo = nn::MixAlgorithm::kStaticInt8;
      break;
    case Design::kDrq:
      mix.algo = nn::MixAlgorithm::kDrq;
      mix.drq = config.drq_config;
      break;
    case Design::kDrift:
      mix.algo = nn::MixAlgorithm::kDrift;
      mix.drift = config.drift_selector;
      mix.dynamic_weights = config.drift_dynamic_weights;
      mix.auto_threshold = config.auto_threshold;
      mix.noise_budget = config.noise_budget;
      break;
  }
  return mix;
}

namespace {

RunResult run_model(Design design, const nn::WorkloadSpec& spec,
                    const std::vector<nn::LayerMix>& mixes,
                    const CompareConfig& config) {
  switch (design) {
    case Design::kEyeriss:
      return EyerissModel(config.hw).run(spec, mixes);
    case Design::kBitFusion:
      return BitFusionModel(config.hw).run(spec, mixes);
    case Design::kDrq:
      return DrqAccelModel(config.hw).run(spec, mixes);
    case Design::kDrift:
      return DriftAccelModel(config.hw, config.drift_policy).run(spec, mixes);
  }
  DRIFT_CHECK(false, "unknown design");
  return {};
}

}  // namespace

Comparison compare_workload(const nn::WorkloadSpec& spec,
                            const CompareConfig& config) {
  Comparison cmp;
  cmp.model = spec.model;

  // Per-design precision mixes, from the matching algorithm; Eyeriss
  // and BitFusion share the static INT8 mixes.
  const auto int8_mixes =
      nn::build_mixes(spec, mix_config(Design::kBitFusion, config));
  const auto drq_mixes =
      nn::build_mixes(spec, mix_config(Design::kDrq, config));
  const auto drift_mixes =
      nn::build_mixes(spec, mix_config(Design::kDrift, config));

  cmp.eyeriss = run_model(Design::kEyeriss, spec, int8_mixes, config);
  cmp.bitfusion = run_model(Design::kBitFusion, spec, int8_mixes, config);
  cmp.drq = run_model(Design::kDrq, spec, drq_mixes, config);
  cmp.drift = run_model(Design::kDrift, spec, drift_mixes, config);
  return cmp;
}

RunResult run_design(Design design, const nn::WorkloadSpec& spec,
                     const CompareConfig& config) {
  return run_model(design, spec,
                   nn::build_mixes(spec, mix_config(design, config)), config);
}

}  // namespace drift::accel
