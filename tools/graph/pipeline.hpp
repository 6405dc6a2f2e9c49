// Graph -> hardware pipeline glue.
//
// Exports a validated graph's GEMMs (graph/workload_export.hpp) and
// routes them through the existing selector -> scheduler -> cycle
// model, with one obs layer record per GEMM: the precision-mix loop
// here opens DRIFT_OBS_LAYER_SCOPE(layer.name) around operand
// classification, so the selector's coverage counters land in the same
// record the scheduler (Eq. 8 split, Eq. 7 latencies) and the
// accelerator's cycle/stall/DRAM accounting fill during the run — one
// per-layer artifact for a whole model in a single pass.
//
// Lives in tools/ (not src/graph) because the lint layer DAG places
// graph below accel: the graph library cannot depend on the
// accelerator models, so the composition happens here.  The topology
// file loader lives here too: src/ parses text and does no file I/O.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "accel/accelerator.hpp"
#include "accel/drift_accel.hpp"
#include "graph/graph.hpp"
#include "graph/json_topology.hpp"
#include "nn/precision_mix.hpp"

namespace drift::graphcli {

/// Pipeline knobs — a subset of accel::CompareConfig plus the mix
/// algorithm (which also selects the accelerator model to run).
struct GraphPipelineConfig {
  nn::MixAlgorithm algo = nn::MixAlgorithm::kDrift;
  accel::AccelConfig hw{};
  accel::SchedulerPolicy policy = accel::SchedulerPolicy::kGreedy;
  bool dynamic_weights = true;
  bool auto_threshold = true;
  double noise_budget = 0.05;
  std::uint64_t seed = 17;
  /// Prepended to every exported GEMM name (and so to every obs layer
  /// record name).
  std::string prefix;
};

/// Everything the run produced, for printing and for tests.
struct GraphPipelineResult {
  nn::WorkloadSpec workload;
  std::vector<nn::LayerMix> mixes;
  accel::RunResult run;
};

/// Reads and parses a topology file (examples/model_zoo/*.json or a
/// user model).  An unreadable file yields the single error
/// "cannot open 'PATH'"; parse and schema errors are parse_topology's.
drift::graph::TopologyParseResult load_topology_file(const std::string& path);

/// Validates + shape-infers `g` (throws check_error naming the first
/// offending node on failure), exports the workload, builds the
/// per-layer precision mixes under per-layer obs scopes, and runs the
/// accelerator model matching `config.algo` (INT8 -> BitFusion,
/// DRQ -> DRQ, Drift -> Drift with `config.policy`).
GraphPipelineResult run_graph_pipeline(const drift::graph::Graph& g,
                                       const GraphPipelineConfig& config);

}  // namespace drift::graphcli
