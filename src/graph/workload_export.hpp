// Graph -> hardware workload export.
//
// Walks the graph in topological order and asks each GEMM-bearing op
// (conv2d, depthwise_conv2d, linear, attention) for its LayerGemm
// entries, producing the same nn::WorkloadSpec the hand-written
// make_resnet18()-style builders emit — so a whole topology flows
// through the existing selector -> scheduler -> cycle-sim pipeline
// unchanged, one per-layer Eq. 7/8 + stall + DRAM artifact per node.
#pragma once

#include "graph/graph.hpp"
#include "graph/ops.hpp"
#include "nn/workload.hpp"

namespace drift::graph {

/// Maps the graph's family tag to the model family + distribution
/// profiles ("cnn" | "vit" | "bert" | "llm"; anything else throws).
nn::ModelFamily family_from_string(const std::string& family);

/// Validates and shape-infers `g` (checked_shapes: an invalid graph
/// throws check_error naming the first offending node), then exports
/// every GEMM-bearing node.
nn::WorkloadSpec to_workload(const Graph& g);

}  // namespace drift::graph
