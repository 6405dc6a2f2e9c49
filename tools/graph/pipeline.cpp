#include "pipeline.hpp"

#include <fstream>
#include <sstream>
#include <utility>

#include "accel/bitfusion.hpp"
#include "accel/drq_accel.hpp"
#include "graph/ops.hpp"
#include "graph/workload_export.hpp"
#include "obs/metrics.hpp"
#include "util/assert.hpp"

namespace drift::graphcli {

drift::graph::TopologyParseResult load_topology_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    drift::graph::TopologyParseResult result;
    result.errors.push_back("cannot open '" + path + "'");
    return result;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return drift::graph::parse_topology(buffer.str());
}

GraphPipelineResult run_graph_pipeline(const drift::graph::Graph& g,
                                       const GraphPipelineConfig& config) {
  const auto structural = drift::graph::validate(g);
  if (!structural.empty()) {
    throw check_error("invalid graph: " + structural.front());
  }
  const auto shapes = drift::graph::infer_shapes(g);
  if (!shapes.ok()) {
    throw check_error("shape inference failed: " + shapes.errors.front());
  }

  GraphPipelineResult result;
  drift::graph::WorkloadExportOptions export_options;
  export_options.prefix = config.prefix;
  result.workload = drift::graph::to_workload(g, shapes, export_options);

  nn::MixConfig mix_config;
  mix_config.algo = config.algo;
  mix_config.dynamic_weights = config.dynamic_weights;
  mix_config.auto_threshold = config.auto_threshold;
  mix_config.noise_budget = config.noise_budget;
  mix_config.seed = config.seed;

  // Mirrors nn::build_mixes' per-layer rng fork order exactly (one
  // fork per layer, activation pattern before weight pattern), but
  // opens the per-layer obs scope around the classification and
  // attributes the mix's Eq. 5/6 outcome (row classes and the
  // element-weighted 4-bit coverage) into the same record the
  // scheduler / cycle / DRAM stages fill — one artifact per GEMM.
  Rng base_rng(config.seed);
  std::uint64_t stream = 0;
  result.mixes.reserve(result.workload.layers.size());
  for (const nn::LayerGemm& layer : result.workload.layers) {
    DRIFT_OBS_LAYER_SCOPE(layer.name);
    Rng rng = base_rng.fork(stream++);
    auto rows = nn::build_act_pattern(layer, rng, result.workload.act_profile,
                                      mix_config);
    const auto cols =
        nn::build_weight_pattern(layer, rng, result.workload, mix_config);
    result.mixes.push_back(
        nn::assemble_mix(layer, std::move(rows), cols, mix_config));
    [[maybe_unused]] const nn::LayerMix& mix = result.mixes.back();
    DRIFT_OBS_LAYER(
        rec, rec->subtensors_total += mix.work.m_high + mix.work.m_low;
        rec->subtensors_low += mix.work.m_low;
        rec->elements_total += (mix.work.m_high + mix.work.m_low) * mix.work.k;
        rec->elements_low += mix.work.m_low * mix.work.k);
  }

  switch (config.algo) {
    case nn::MixAlgorithm::kStaticInt8: {
      accel::BitFusionModel model(config.hw);
      result.run = model.run(result.workload, result.mixes);
      break;
    }
    case nn::MixAlgorithm::kDrq: {
      accel::DrqAccelModel model(config.hw);
      result.run = model.run(result.workload, result.mixes);
      break;
    }
    case nn::MixAlgorithm::kDrift: {
      accel::DriftAccelModel model(config.hw, config.policy);
      result.run = model.run(result.workload, result.mixes);
      break;
    }
  }
  return result;
}

}  // namespace drift::graphcli
