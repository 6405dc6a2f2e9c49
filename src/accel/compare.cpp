#include "accel/compare.hpp"

#include "accel/bitfusion.hpp"
#include "accel/drq_accel.hpp"
#include "accel/eyeriss.hpp"
#include "obs/metrics.hpp"
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

std::optional<Design> design_from_name(const std::string& name) {
  if (name == "eyeriss") return Design::kEyeriss;
  if (name == "bitfusion") return Design::kBitFusion;
  if (name == "drq") return Design::kDrq;
  if (name == "drift") return Design::kDrift;
  return std::nullopt;
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

std::unique_ptr<Accelerator> make_model(Design design,
                                        const CompareConfig& config) {
  switch (design) {
    case Design::kEyeriss:
      return std::make_unique<EyerissModel>(config.hw);
    case Design::kBitFusion:
      return std::make_unique<BitFusionModel>(config.hw);
    case Design::kDrq:
      return std::make_unique<DrqAccelModel>(config.hw);
    case Design::kDrift:
      return std::make_unique<DriftAccelModel>(config.hw, config.drift_policy);
  }
  DRIFT_CHECK(false, "unknown design");
  return nullptr;
}

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

  cmp.eyeriss = make_model(Design::kEyeriss, config)->run(spec, int8_mixes);
  cmp.bitfusion =
      make_model(Design::kBitFusion, config)->run(spec, int8_mixes);
  cmp.drq = make_model(Design::kDrq, config)->run(spec, drq_mixes);
  cmp.drift = make_model(Design::kDrift, config)->run(spec, drift_mixes);
  return cmp;
}

RunResult run_design(Design design, const nn::WorkloadSpec& spec,
                     const CompareConfig& config) {
  const auto mixes = nn::build_mixes(spec, mix_config(design, config));
  // Attributed here rather than in build_mixes: compare_workload builds
  // three mix sets under the same layer names, which would count each
  // layer's rows three times.
  for ([[maybe_unused]] const nn::LayerMix& mix : mixes) {
    DRIFT_OBS_LAYER_SCOPE(mix.layer.name);
    DRIFT_OBS_LAYER(
        rec, rec->subtensors_total += mix.work.m_high + mix.work.m_low;
        rec->subtensors_low += mix.work.m_low;
        rec->elements_total += (mix.work.m_high + mix.work.m_low) * mix.work.k;
        rec->elements_low += mix.work.m_low * mix.work.k);
  }
  return make_model(design, config)->run(spec, mixes);
}

}  // namespace drift::accel
