// drift_graph CLI contract tests (label: graph): the binary is spawned
// as a user would run it, and the exit code and messages are pinned.
//   - an unknown --accel, --model or --policy is a usage error (exit 2)
//     that lists the valid names;
//   - `run` takes exactly one target (FILE, --model or --gemm);
//   - --accel=drift runs Drift alone and prints the same line as the
//     Drift row of --accel=all;
//   - --model=ResNet18 and the resnet18 zoo file print the same design
//     lines, and every design's lines on the eight paper models match
//     a golden (golden/four_designs.txt);
//   - every documented run flag is recognized, an unknown one is a
//     usage error (exit 2), and --timeline shows Drift's timeline
//     whichever design ran;
//   - every design fills the per-layer metrics records, so --accel=all
//     (four designs under the same layer names) refuses --metrics-out;
//   - `validate` on a pathologically deep file exits 1 with a located
//     error instead of crashing;
//   - `emit FILE` prints the file's canonical form, which for the
//     committed zoo files is the file itself.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "test_support.hpp"
#include "util/json.hpp"

namespace {

using drift::test_support::CliResult;

CliResult run_cli(const std::string& args, bool merge_stderr) {
  return drift::test_support::run_cli(DRIFT_GRAPH_BIN, args, merge_stderr);
}

std::string zoo_path(const std::string& name) {
  return std::string(DRIFT_MODEL_ZOO_DIR) + "/" + name + ".json";
}

/// The output line starting with `prefix`, or "" when there is none.
std::string line_starting_with(const std::string& text,
                               const std::string& prefix) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) return line;
  }
  return "";
}

TEST(DriftGraphCli, UnknownPolicyExitsTwoAndListsChoices) {
  drift::test_support::expect_usage_error(
      run_cli("run '" + zoo_path("resnet18") + "' --policy=bogus", true),
      "policy", "bogus", "greedy|exhaustive|fixed");
}

TEST(DriftGraphCli, UnknownAccelExitsTwoAndListsChoices) {
  drift::test_support::expect_usage_error(
      run_cli("run '" + zoo_path("resnet18") + "' --accel=tpu", true),
      "accel", "tpu", "eyeriss|bitfusion|drq|drift|all");
}

TEST(DriftGraphCli, UnknownModelExitsTwoAndListsChoices) {
  drift::test_support::expect_usage_error(
      run_cli("run --model=alexnet", true), "model", "alexnet",
      "ResNet18|ResNet50|ViT-B|DeiT-S|BERT|GPT2-XL|BLOOM-7B1|OPT-6.7B");
}

// The same usage errors when the target is a --model name, not a file.
TEST(DriftGraphCli, UnknownAccelForAModelExitsTwoAndListsChoices) {
  drift::test_support::expect_usage_error(
      run_cli("run --model=ResNet18 --accel=tpu", true), "accel", "tpu",
      "eyeriss|bitfusion|drq|drift|all");
}

TEST(DriftGraphCli, UnknownPolicyForAModelExitsTwoAndListsChoices) {
  drift::test_support::expect_usage_error(
      run_cli("run --model=ResNet18 --policy=bogus", true), "policy",
      "bogus", "greedy|exhaustive|fixed");
}

TEST(DriftGraphCli, RunNeedsExactlyOneTarget) {
  const std::string file = zoo_path("resnet18");
  for (const std::string& args :
       {std::string("run"), "run '" + file + "' --model=ResNet18",
        "run '" + file + "' --gemm=8x8x8",
        std::string("run --model=BERT --gemm=8x8x8")}) {
    const CliResult r = run_cli(args, true);
    EXPECT_EQ(r.exit_code, 2) << args << "\n" << r.output;
    EXPECT_NE(r.output.find("exactly one target"), std::string::npos)
        << args << "\n" << r.output;
  }
}

TEST(DriftGraphCli, SingleDesignMatchesItsRowOfAll) {
  const CliResult all = run_cli("run --model=ResNet18 --accel=all", false);
  const CliResult drift = run_cli("run --model=ResNet18 --accel=drift", false);
  ASSERT_EQ(all.exit_code, 0) << all.output;
  ASSERT_EQ(drift.exit_code, 0) << drift.output;

  const std::string want = line_starting_with(all.output, "Drift ");
  ASSERT_FALSE(want.empty()) << all.output;
  EXPECT_EQ(line_starting_with(drift.output, "Drift "), want)
      << drift.output;
  // Only the selected design runs.
  EXPECT_EQ(line_starting_with(drift.output, "Eyeriss "), "")
      << drift.output;
  EXPECT_EQ(drift.output.find("speedup over Eyeriss"), std::string::npos)
      << drift.output;
}

// The absolute cycles, stalls, DRAM and energy of every design on the
// eight paper models, and the per-layer tables of ResNet18 and BERT.
// The fig7/fig8 CSVs store only ratios to Eyeriss, so this is the one
// pin of each design's own numbers.  Regenerate after an intentional
// change with DRIFT_OBS_UPDATE_GOLDEN=1.
TEST(DriftGraphCli, FourDesignRunsMatchGolden) {
  std::string produced;
  const auto add = [&](const std::string& args) {
    const CliResult r = run_cli(args, false);
    EXPECT_EQ(r.exit_code, 0) << args << "\n" << r.output;
    produced += "$ drift_graph " + args + "\n" + r.output + "\n";
  };
  for (const char* model : {"ResNet18", "ResNet50", "ViT-B", "DeiT-S", "BERT",
                            "GPT2-XL", "BLOOM-7B1", "OPT-6.7B"}) {
    add(std::string("run --model=") + model + " --accel=all");
  }
  add("run --model=ResNet18 --accel=all --layers");
  add("run --model=BERT --accel=all --layers");
  drift::test_support::expect_matches_golden(
      produced, std::string(DRIFT_GRAPH_GOLDEN_DIR) + "/four_designs.txt",
      "DRIFT_OBS_UPDATE_GOLDEN");
}

TEST(DriftGraphCli, ModelNameAndZooFilePrintTheSameDesignLines) {
  // The zoo file exports make_resnet18()'s GEMMs one for one
  // (GraphExport.Resnet18MatchesHandWrittenWorkload), so every design
  // line matches; only the workload header names the model differently.
  const CliResult model = run_cli("run --model=ResNet18 --accel=all", false);
  const CliResult file =
      run_cli("run '" + zoo_path("resnet18") + "' --accel=all", false);
  ASSERT_EQ(model.exit_code, 0) << model.output;
  ASSERT_EQ(file.exit_code, 0) << file.output;
  for (const char* prefix :
       {"Eyeriss ", "BitFusion ", "DRQ ", "Drift ", "speedup over"}) {
    const std::string want = line_starting_with(model.output, prefix);
    ASSERT_FALSE(want.empty()) << prefix << "\n" << model.output;
    EXPECT_EQ(line_starting_with(file.output, prefix), want) << file.output;
  }
}

TEST(DriftGraphCli, DocumentedFlagsAreRecognized) {
  const std::string csv = "drift_graph_cli_flags.csv";
  const std::string metrics = "drift_graph_cli_flags.metrics.json";
  const std::string trace = "drift_graph_cli_flags.trace.json";
  const CliResult r = run_cli(
      "run --model=ResNet18 --accel=eyeriss --policy=fixed --budget=0.05 "
      "--rows=24 --cols=33 --seed=17 --no-dynamic-weights --layers "
      "--controller --timeline --csv=" + csv + " --metrics-out=" + metrics +
          " --trace-out=" + trace,
      true);
  std::remove(csv.c_str());
  std::remove(metrics.c_str());
  std::remove(trace.c_str());
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(r.output.find("unknown flag"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("controller: peak index buffer"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("per-layer CSV written"), std::string::npos)
      << r.output;
}

TEST(DriftGraphCli, TimelineIsDriftsWhicheverDesignRan) {
  const CliResult eyeriss =
      run_cli("run --model=ResNet18 --accel=eyeriss --timeline", false);
  const CliResult drift =
      run_cli("run --model=ResNet18 --accel=drift --timeline", false);
  ASSERT_EQ(eyeriss.exit_code, 0) << eyeriss.output;
  ASSERT_EQ(drift.exit_code, 0) << drift.output;
  const std::string want =
      line_starting_with(drift.output, "Drift double-buffered timeline");
  ASSERT_FALSE(want.empty()) << drift.output;
  EXPECT_EQ(line_starting_with(eyeriss.output,
                               "Drift double-buffered timeline"),
            want)
      << eyeriss.output;
}

TEST(DriftGraphCli, ModelRunWritesAParsableMetricsArtifact) {
  const std::string path = "drift_graph_cli_bert.metrics.json";
  const CliResult r = run_cli("run --model=BERT --metrics-out=" + path, true);
  const std::string text = drift::test_support::read_file_or_empty(path);
  std::remove(path.c_str());
  ASSERT_EQ(r.exit_code, 0) << r.output;
  std::string error;
  EXPECT_TRUE(drift::util::parse_json(text, error).has_value()) << error;
  EXPECT_FALSE(drift::test_support::layer_record_names(text).empty())
      << text;
}

TEST(DriftGraphCli, NonDriftDesignFillsEveryLayerRecord) {
  const std::string path = "drift_graph_cli_drq.metrics.json";
  const CliResult r =
      run_cli("run --model=ResNet18 --accel=drq --metrics-out=" + path, true);
  const std::string text = drift::test_support::read_file_or_empty(path);
  std::remove(path.c_str());
  ASSERT_EQ(r.exit_code, 0) << r.output;
  std::string error;
  const auto doc = drift::util::parse_json(text, error);
  ASSERT_TRUE(doc.has_value()) << error;
  const drift::util::JsonValue* layers = doc->get("layers");
  ASSERT_NE(layers, nullptr) << text;
  EXPECT_EQ(layers->as_array().size(), 21u);
  std::int64_t dram_bytes = 0;
  for (const drift::util::JsonValue& rec : layers->as_array()) {
    const std::string name = rec.get("layer")->as_string();
    EXPECT_GT(rec.get("compute_cycles")->as_int(), 0) << name;
    EXPECT_GT(rec.get("dram_bytes")->as_int(), 0) << name;
    dram_bytes += rec.get("dram_bytes")->as_int();
  }
  const drift::util::JsonValue* counter =
      doc->get_path({"counters", "traffic.dram_bytes"});
  ASSERT_NE(counter, nullptr) << text;
  EXPECT_EQ(dram_bytes, counter->as_int());
}

TEST(DriftGraphCli, AllDesignsRefuseOneMetricsArtifact) {
  const std::string path = "drift_graph_cli_all.metrics.json";
  const CliResult r =
      run_cli("run --model=ResNet18 --accel=all --metrics-out=" + path, true);
  const bool written = !drift::test_support::read_file_or_empty(path).empty();
  std::remove(path.c_str());
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("one --accel per artifact"), std::string::npos)
      << r.output;
  EXPECT_FALSE(written);
}

TEST(DriftGraphCli, UnknownFlagExitsTwo) {
  const CliResult r = run_cli("run --model=ResNet18 --bogus", true);
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("unknown flag --bogus"), std::string::npos)
      << r.output;
  EXPECT_EQ(r.output.find("cycles="), std::string::npos) << r.output;
}

TEST(DriftGraphCli, ValidateDeepNestingExitsOneWithALocatedError) {
  const std::string path = "drift_graph_cli_deep_nesting.json";
  {
    std::ofstream out(path, std::ios::binary);
    out << R"({"name": "deep", "inputs": )" << std::string(100000, '[')
        << std::string(100000, ']') << R"(, "nodes": [], "outputs": []})";
  }
  const CliResult r = run_cli("validate " + path, true);
  std::remove(path.c_str());
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_EQ(r.output.rfind(path + ": line 1, col ", 0), 0u) << r.output;
  EXPECT_NE(r.output.find("nesting too deep"), std::string::npos)
      << r.output;
}

TEST(DriftGraphCli, EmitPrintsTheCanonicalForm) {
  const std::string path = zoo_path("gpt2_layer");
  const CliResult r = run_cli("emit '" + path + "'", false);
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(r.output, drift::test_support::read_file_or_empty(path));
}

}  // namespace
