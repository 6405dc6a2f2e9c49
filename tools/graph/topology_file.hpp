// Topology-file loader for the graph tools.
//
// Lives in tools/ because src/ parses text and does no file I/O; the
// drift_graph CLI, the graph tests and micro_benchmarks share it.
#pragma once

#include <string>

#include "graph/json_topology.hpp"

namespace drift::graphcli {

/// Reads and parses a topology file (examples/model_zoo/*.json or a
/// user model).  An unreadable file yields the single error
/// "cannot open 'PATH'"; parse and schema errors are parse_topology's.
drift::graph::TopologyParseResult load_topology_file(const std::string& path);

}  // namespace drift::graphcli
