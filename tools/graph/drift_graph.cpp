// drift_graph — operator-graph front end for the Drift stack.
//
//   drift_graph validate examples/model_zoo/*.json
//   drift_graph shapes examples/model_zoo/resnet18.json
//   drift_graph run examples/model_zoo/resnet18.json --metrics-out=run.json
//   drift_graph run my_model.json --policy=exhaustive --budget=0.02
//   drift_graph emit my_model.json > my_model.canonical.json
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "accel/compare.hpp"
#include "graph/graph.hpp"
#include "graph/json_topology.hpp"
#include "graph/ops.hpp"
#include "graph/workload_export.hpp"
#include "obs/report.hpp"
#include "topology_file.hpp"
#include "usage_error.hpp"
#include "util/args.hpp"
#include "util/assert.hpp"

using namespace drift;
using namespace drift::graphcli;

namespace {

constexpr const char* kUsage = R"(drift_graph — operator-graph runner

usage: drift_graph <command> [args] [flags]

commands:
  validate FILE...  structural + shape validation; prints every error
                    ("node 'x': ..."), exit 1 if any file fails
  shapes FILE       print the inferred shape of every value, in
                    topological order
  run FILE          route every GEMM-bearing node through the selector
                    -> scheduler -> cycle model and print the per-model
                    summary
  emit FILE         print the canonical form of a topology file (the
                    committed examples/model_zoo/*.json are fixed points)

The model zoo is examples/model_zoo/*.json: resnet18, vit_b16, deit_s,
bert_base, gpt2_layer.

run flags:
  --algo=NAME       int8|drq|drift  (default: drift)
  --policy=NAME     drift scheduler: greedy|exhaustive|fixed
                    (default: greedy)
  --budget=F        excess-noise budget (default 0.05)
  --rows=N --cols=N BitGroup grid geometry (default 24x33)
  --seed=N          mix sampling seed (default 17)
  --no-dynamic-weights  keep weights static INT8 under Drift
  --layers          print per-layer detail
  --metrics-out=P   write the canonical metrics JSON artifact
  --trace-out=P     write the Chrome trace artifact
)";

/// Loads a graph from a topology file; prints every error (prefixed
/// with the path) and returns false on failure.
bool load_graph(const std::string& path, drift::graph::Graph& g) {
  auto parsed = load_topology_file(path);
  if (!parsed.ok()) {
    for (const std::string& err : parsed.errors) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(), err.c_str());
    }
    return false;
  }
  g = std::move(parsed.graph);
  return true;
}

int cmd_validate(const std::vector<std::string>& files) {
  if (files.empty()) {
    std::fprintf(stderr, "drift_graph validate: no files given\n");
    return 2;
  }
  int failures = 0;
  for (const std::string& path : files) {
    drift::graph::Graph g;
    if (!load_graph(path, g)) {
      ++failures;
      continue;
    }
    const auto shapes = drift::graph::infer_shapes(g);
    if (!shapes.ok()) {
      for (const std::string& err : shapes.errors) {
        std::fprintf(stderr, "%s: %s\n", path.c_str(), err.c_str());
      }
      ++failures;
      continue;
    }
    std::printf("%s: OK (%s: %zu nodes, %zu values)\n", path.c_str(),
                g.name.c_str(), g.nodes.size(), shapes.by_name.size());
  }
  return failures == 0 ? 0 : 1;
}

int cmd_shapes(const std::vector<std::string>& files) {
  if (files.size() != 1) {
    std::fprintf(stderr, "drift_graph shapes: exactly one file expected\n");
    return 2;
  }
  drift::graph::Graph g;
  if (!load_graph(files[0], g)) return 1;
  const auto shapes = drift::graph::infer_shapes(g);
  if (!shapes.ok()) {
    for (const std::string& err : shapes.errors) {
      std::fprintf(stderr, "%s\n", err.c_str());
    }
    return 1;
  }
  for (const auto& in : g.inputs) {
    std::printf("%-32s %-18s %s\n", in.name.c_str(), "(input)",
                drift::graph::dims_to_string(in.dims).c_str());
  }
  for (const int idx : drift::graph::topological_order(g)) {
    const auto& node = g.nodes[static_cast<std::size_t>(idx)];
    std::printf("%-32s %-18s %s\n", node.name.c_str(), node.op.c_str(),
                drift::graph::dims_to_string(
                    shapes.by_name.at(node.name)).c_str());
  }
  return 0;
}

accel::Design pick_design(const std::string& algo) {
  if (const auto design = accel::design_from_algo(algo)) return *design;
  cli::unknown_choice("drift_graph run", "algo", algo, "int8|drq|drift");
}

accel::SchedulerPolicy pick_policy(const std::string& policy) {
  if (const auto parsed = accel::policy_from_string(policy)) return *parsed;
  cli::unknown_choice("drift_graph run", "policy", policy,
                      "greedy|exhaustive|fixed");
}

int cmd_run(const Args& args, const std::vector<std::string>& files) {
  if (files.size() != 1) {
    std::fprintf(stderr, "drift_graph run: exactly one file expected\n");
    return 2;
  }
  const accel::Design design = pick_design(args.get_string("algo", "drift"));
  accel::CompareConfig config;
  config.drift_policy = pick_policy(args.get_string("policy", "greedy"));
  config.noise_budget = args.get_double("budget", 0.05);
  config.drift_dynamic_weights = !args.get_bool("no-dynamic-weights");
  config.seed = static_cast<std::uint64_t>(args.get_int("seed", 17));
  config.hw.array.rows = args.get_int("rows", 24);
  config.hw.array.cols = args.get_int("cols", 33);

  drift::graph::Graph g;
  if (!load_graph(files[0], g)) return 1;

  const auto artifacts = obs::ReportOptions::from_args(args);
  const bool layers = args.get_bool("layers");
  const nn::WorkloadSpec workload = drift::graph::to_workload(g);
  const accel::RunResult r = accel::run_design(design, workload, config);
  std::printf("%s on %s: %zu GEMMs, %.2f GMACs\n", g.name.c_str(),
              r.accelerator.c_str(), workload.layers.size(),
              static_cast<double>(workload.total_macs()) / 1e9);
  std::printf("cycles=%lld stalls=%lld dram=%.1f MB energy=%.3f mJ\n",
              static_cast<long long>(r.cycles),
              static_cast<long long>(r.stall_cycles),
              static_cast<double>(r.dram_bytes) / 1e6,
              r.energy.total_pj() / 1e9);
  if (layers) {
    for (const auto& l : r.layers) {
      std::printf("  %-32s compute=%-10lld dram=%-10lld cycles=%-10lld "
                  "util=%.1f%%\n",
                  l.layer.c_str(), static_cast<long long>(l.compute_cycles),
                  static_cast<long long>(l.dram_cycles),
                  static_cast<long long>(l.cycles), 100.0 * l.utilization);
    }
  }
  return artifacts.write() ? 0 : 1;
}

int cmd_emit(const std::vector<std::string>& files) {
  if (files.size() != 1) {
    std::fprintf(stderr, "drift_graph emit: exactly one file expected\n");
    return 2;
  }
  drift::graph::Graph g;
  if (!load_graph(files[0], g)) return 1;
  std::printf("%s", drift::graph::to_topology_json(g).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = Args::parse(argc, argv);
  const auto& positional = args.positional();
  if (args.get_bool("help") || positional.empty()) {
    std::printf("%s", kUsage);
    return positional.empty() && !args.get_bool("help") ? 2 : 0;
  }
  const std::string command = positional.front();
  const std::vector<std::string> rest(positional.begin() + 1,
                                      positional.end());
  try {
    if (command == "validate") return cmd_validate(rest);
    if (command == "shapes") return cmd_shapes(rest);
    if (command == "run") return cmd_run(args, rest);
    if (command == "emit") return cmd_emit(rest);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "drift_graph: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "drift_graph: unknown command '%s'\n%s",
               command.c_str(), kUsage);
  return 2;
}
