// drift_graph — operator-graph front end and accelerator simulator of
// the Drift stack.
//
//   drift_graph validate examples/model_zoo/*.json
//   drift_graph shapes examples/model_zoo/resnet18.json
//   drift_graph run examples/model_zoo/resnet18.json --metrics-out=run.json
//   drift_graph run my_model.json --policy=exhaustive --budget=0.02
//   drift_graph run --model=BERT --accel=all --controller
//   drift_graph run --gemm=1024x768x3072 --budget=0.02 --layers
//   drift_graph emit my_model.json > my_model.canonical.json
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "accel/compare.hpp"
#include "accel/controller.hpp"
#include "accel/timeline.hpp"
#include "graph/graph.hpp"
#include "graph/json_topology.hpp"
#include "graph/ops.hpp"
#include "graph/workload_export.hpp"
#include "obs/report.hpp"
#include "topology_file.hpp"
#include "usage_error.hpp"
#include "util/args.hpp"
#include "util/assert.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

using namespace drift;
using namespace drift::graphcli;

namespace {

constexpr const char* kUsage = R"(drift_graph — operator-graph runner and accelerator simulator

usage: drift_graph <command> [args] [flags]

commands:
  validate FILE...  structural + shape validation; prints every error
                    ("node 'x': ..."), exit 1 if any file fails
  shapes FILE       print the inferred shape of every value, in
                    topological order
  run TARGET        route every GEMM of the target through the selector
                    -> scheduler -> cycle model of one design (or all
                    four) and print each design's summary line
  emit FILE         print the canonical form of a topology file (the
                    committed examples/model_zoo/*.json are fixed points)

The model zoo is examples/model_zoo/*.json: resnet18, vit_b16, deit_s,
bert_base, gpt2_layer.

run takes exactly one TARGET:
  FILE              a topology file
  --model=NAME      a full-size paper model: ResNet18|ResNet50|ViT-B|
                    DeiT-S|BERT|GPT2-XL|BLOOM-7B1|OPT-6.7B
  --gemm=MxKxN      a single custom GEMM

run flags:
  --accel=NAME      eyeriss|bitfusion|drq|drift|all  (default: drift); a
                    single design builds only its own mixes
  --policy=NAME     drift scheduler: greedy|exhaustive|fixed
                    (default: greedy)
  --budget=F        excess-noise budget for the Drift selector
                    (default 0.05)
  --rows=N --cols=N BitGroup grid geometry (default 24x33)
  --seed=N          mix sampling seed (default 17)
  --no-dynamic-weights  keep weights static INT8 under Drift
  --layers          print per-layer detail
  --controller      print the controller (index buffer / overlap) report
  --timeline        print Drift's double-buffered timeline (Gantt)
  --csv=PATH        also write per-layer results as CSV
  --metrics-out=P   write the canonical metrics JSON artifact (one
                    design per artifact: not with --accel=all)
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

/// The design `--accel` selects; nullopt selects all four.
std::optional<accel::Design> pick_design(const std::string& name) {
  if (name == "all") return std::nullopt;
  if (const auto design = accel::design_from_name(name)) return *design;
  cli::unknown_choice("drift_graph run", "accel", name,
                      std::string(accel::kDesignNames) + "|all");
}

accel::SchedulerPolicy pick_policy(const std::string& policy) {
  if (const auto parsed = accel::policy_from_string(policy)) return *parsed;
  cli::unknown_choice("drift_graph run", "policy", policy,
                      "greedy|exhaustive|fixed");
}

nn::WorkloadSpec custom_gemm(const std::string& spec_str) {
  long long m = 0, k = 0, n = 0;
  if (std::sscanf(spec_str.c_str(), "%lldx%lldx%lld", &m, &k, &n) != 3 ||
      m <= 0 || k <= 0 || n <= 0) {
    std::fprintf(stderr, "drift_graph run: bad --gemm spec '%s' "
                 "(want MxKxN)\n", spec_str.c_str());
    std::exit(2);
  }
  nn::WorkloadSpec spec;
  spec.model = "custom-" + spec_str;
  spec.family = nn::ModelFamily::kBert;
  spec.act_profile = nn::bert_profile();
  spec.weight_profile = nn::weight_profile();
  spec.layers.push_back(
      nn::LayerGemm{"gemm", nn::LayerKind::kFc, core::GemmDims{m, k, n}});
  return spec;
}

/// The workload of run's one target: a topology FILE, --model=NAME or
/// --gemm=MxKxN.  Exits 2 unless exactly one is given; nullopt when the
/// file fails to load (its errors printed).
std::optional<nn::WorkloadSpec> run_target(
    const Args& args, const std::vector<std::string>& files) {
  const bool model = args.has("model");
  const bool gemm = args.has("gemm");
  if (files.size() + (model ? 1 : 0) + (gemm ? 1 : 0) != 1) {
    std::fprintf(stderr, "drift_graph run: exactly one target expected "
                 "(FILE, --model=NAME or --gemm=MxKxN)\n");
    std::exit(2);
  }
  if (model) {
    const std::string name = args.get_string("model", "");
    if (auto spec = nn::workload_by_name(name)) return std::move(*spec);
    cli::unknown_choice("drift_graph run", "model", name,
                        nn::workload_names());
  }
  if (gemm) return custom_gemm(args.get_string("gemm", ""));
  drift::graph::Graph g;
  if (!load_graph(files[0], g)) return std::nullopt;
  return drift::graph::to_workload(g);
}

void print_run(const accel::RunResult& r, bool layers) {
  std::printf("%-10s cycles=%-12lld stalls=%-10lld dram=%.1f MB "
              "energy=%.3f mJ (static %.1f%% dram %.1f%% buffer %.1f%% "
              "core %.1f%%)\n",
              r.accelerator.c_str(), static_cast<long long>(r.cycles),
              static_cast<long long>(r.stall_cycles),
              static_cast<double>(r.dram_bytes) / 1e6,
              r.energy.total_pj() / 1e9,
              100.0 * r.energy.static_pj / r.energy.total_pj(),
              100.0 * r.energy.dram_pj / r.energy.total_pj(),
              100.0 * r.energy.buffer_pj / r.energy.total_pj(),
              100.0 * r.energy.core_pj / r.energy.total_pj());
  if (!layers) return;
  TextTable t({"layer", "compute", "dram", "cycles", "util"});
  for (const auto& l : r.layers) {
    t.add_row({l.layer, std::to_string(l.compute_cycles),
               std::to_string(l.dram_cycles), std::to_string(l.cycles),
               TextTable::pct(l.utilization)});
  }
  std::printf("%s", t.to_string().c_str());
}

void print_timeline(const accel::RunResult& drift_run) {
  std::vector<accel::TimelineLayer> tl;
  for (const auto& l : drift_run.layers) {
    tl.push_back({l.layer, l.compute_cycles, l.dram_cycles});
  }
  const auto timeline = accel::build_timeline(tl);
  std::printf("\nDrift double-buffered timeline (unique layers, repeats "
              "collapsed): %lld cycles, %.1f%% of DRAM hidden under "
              "compute\n",
              static_cast<long long>(timeline.total_cycles),
              100.0 * timeline.overlap_fraction);
  if (timeline.entries.size() <= 24) {
    std::printf("%s", timeline.gantt().c_str());
  }
}

int cmd_run(const Args& args, const std::vector<std::string>& files) {
  const std::optional<accel::Design> design =
      pick_design(args.get_string("accel", "drift"));
  accel::CompareConfig config;
  config.drift_policy = pick_policy(args.get_string("policy", "greedy"));
  config.noise_budget = args.get_double("budget", 0.05);
  config.drift_dynamic_weights = !args.get_bool("no-dynamic-weights");
  config.seed = static_cast<std::uint64_t>(args.get_int("seed", 17));
  config.hw.array.rows = args.get_int("rows", 24);
  config.hw.array.cols = args.get_int("cols", 33);
  const bool layers = args.get_bool("layers");
  const bool controller = args.get_bool("controller");
  const bool timeline = args.get_bool("timeline");
  const auto csv_path = args.get("csv");

  const std::optional<nn::WorkloadSpec> target = run_target(args, files);
  if (!target) return 1;
  const nn::WorkloadSpec& spec = *target;

  // Usage errors exit before from_args arms its exit-time flush, which
  // would write the artifacts of a refused run.
  if (!design && args.has("metrics-out")) {
    std::fprintf(stderr, "drift_graph run: --accel=all would sum the four "
                 "designs' per-layer records into one --metrics-out "
                 "artifact; run one --accel per artifact\n");
    std::exit(2);
  }
  cli::reject_unknown_flags("drift_graph run", args,
                            {"metrics-out", "trace-out"});
  const auto artifacts = obs::ReportOptions::from_args(args);

  std::printf("workload %s: %lld GEMMs, %.2f GMACs, array %lldx%lld "
              "(%lld units), budget %.3f\n\n",
              spec.model.c_str(),
              static_cast<long long>(spec.total_gemms()),
              static_cast<double>(spec.total_macs()) / 1e9,
              static_cast<long long>(config.hw.array.rows),
              static_cast<long long>(config.hw.array.cols),
              static_cast<long long>(config.hw.array.units()),
              config.noise_budget);

  // All four designs go through compare_workload; a single design
  // builds only its own mixes and runs only its own model.
  accel::Comparison cmp;
  accel::RunResult single;
  std::vector<const accel::RunResult*> runs;
  if (design) {
    single = accel::run_design(*design, spec, config);
    runs = {&single};
  } else {
    cmp = accel::compare_workload(spec, config);
    runs = {&cmp.eyeriss, &cmp.bitfusion, &cmp.drq, &cmp.drift};
  }
  for (const accel::RunResult* r : runs) print_run(*r, layers);
  if (!design) {
    std::printf("\nspeedup over Eyeriss: BitFusion %.2fx, DRQ %.2fx, "
                "Drift %.2fx\n",
                cmp.speedup_bitfusion(), cmp.speedup_drq(),
                cmp.speedup_drift());
  }

  if (timeline) {
    // The timeline is Drift's, whichever design --accel printed.
    print_timeline(!design ? cmp.drift
                   : *design == accel::Design::kDrift
                       ? single
                       : accel::run_design(accel::Design::kDrift, spec,
                                           config));
  }

  if (controller) {
    // The Drift run's own mixes (same seed and selector settings).
    const auto mixes = nn::build_mixes(
        spec, accel::mix_config(accel::Design::kDrift, config));
    const auto report = accel::evaluate_controller(mixes, config.hw.array);
    std::printf("\ncontroller: peak index buffer %lld bytes (%s), "
                "control work hidden under compute for %.1f%% of layers\n",
                static_cast<long long>(report.peak_index_bytes),
                report.fits_index_buffer ? "fits" : "OVERFLOWS",
                100.0 * report.overlapped_fraction);
  }

  if (csv_path) {
    CsvWriter csv(*csv_path, {"design", "layer", "compute_cycles",
                              "dram_cycles", "cycles", "utilization"});
    for (const accel::RunResult* r : runs) {
      for (const auto& l : r->layers) {
        csv.row_values(r->accelerator, l.layer, l.compute_cycles,
                       l.dram_cycles, l.cycles, l.utilization);
      }
    }
    std::printf("\nper-layer CSV written to %s\n", csv_path->c_str());
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
