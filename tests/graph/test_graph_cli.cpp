// drift_graph CLI contract tests (label: graph): the binary is spawned
// as a user would run it, and the exit code and messages are pinned.
//   - an unknown --algo or --policy is a usage error (exit 2) that
//     lists the valid names;
//   - `validate` on a pathologically deep file exits 1 with a located
//     error instead of crashing;
//   - `emit FILE` prints the file's canonical form, which for the
//     committed zoo files is the file itself.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "test_support.hpp"


namespace {

using drift::test_support::CliResult;

CliResult run_cli(const std::string& args, bool merge_stderr) {
  return drift::test_support::run_cli(DRIFT_GRAPH_BIN, args, merge_stderr);
}

std::string zoo_path(const std::string& name) {
  return std::string(DRIFT_MODEL_ZOO_DIR) + "/" + name + ".json";
}

TEST(DriftGraphCli, UnknownPolicyExitsTwoAndListsChoices) {
  drift::test_support::expect_usage_error(
      run_cli("run '" + zoo_path("resnet18") + "' --policy=bogus", true),
      "policy", "bogus", "greedy|exhaustive|fixed");
}

TEST(DriftGraphCli, UnknownAlgoExitsTwoAndListsChoices) {
  drift::test_support::expect_usage_error(
      run_cli("run '" + zoo_path("resnet18") + "' --algo=fp16", true),
      "algo", "fp16", "int8|drq|drift");
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
