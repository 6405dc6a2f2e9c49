// drift_graph CLI contract tests (label: graph): the binary is spawned
// as a user would run it, and the exit code and messages are pinned.
//   - an unknown --policy is a usage error (exit 2) that lists the
//     valid policies, like an unknown --algo;
//   - `validate` on a pathologically deep file exits 1 with a located
//     error instead of crashing;
//   - `emit FILE` prints the file's canonical form, which for the
//     committed zoo files is the file itself.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

namespace {

struct RunResult {
  int exit_code = -1;
  std::string output;
};

/// Runs drift_graph with `args`; `merge_stderr` folds stderr into the
/// captured output.
RunResult run_cli(const std::string& args, bool merge_stderr) {
  const std::string cmd = std::string("'") + DRIFT_GRAPH_BIN + "' " + args +
                          (merge_stderr ? " 2>&1" : "");
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << "failed to spawn: " << cmd;
  RunResult result;
  if (!pipe) return result;
  char buf[4096];
  while (std::size_t n = fread(buf, 1, sizeof buf, pipe)) {
    result.output.append(buf, n);
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

std::string zoo_path(const std::string& name) {
  return std::string(DRIFT_MODEL_ZOO_DIR) + "/" + name + ".json";
}

TEST(DriftGraphCli, UnknownPolicyExitsTwoAndListsChoices) {
  const RunResult r =
      run_cli("run '" + zoo_path("resnet18") + "' --policy=bogus", true);
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("unknown --policy 'bogus'"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("greedy|exhaustive|fixed"), std::string::npos)
      << r.output;
}

TEST(DriftGraphCli, ValidateDeepNestingExitsOneWithALocatedError) {
  const std::string path = "drift_graph_cli_deep_nesting.json";
  {
    std::ofstream out(path, std::ios::binary);
    out << R"({"name": "deep", "inputs": )" << std::string(100000, '[')
        << std::string(100000, ']') << R"(, "nodes": [], "outputs": []})";
  }
  const RunResult r = run_cli("validate " + path, true);
  std::remove(path.c_str());
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_EQ(r.output.rfind(path + ": line 1, col ", 0), 0u) << r.output;
  EXPECT_NE(r.output.find("nesting too deep"), std::string::npos)
      << r.output;
}

TEST(DriftGraphCli, EmitPrintsTheCanonicalForm) {
  const std::string path = zoo_path("gpt2_layer");
  std::ifstream in(path, std::ios::binary);
  std::ostringstream committed;
  committed << in.rdbuf();
  const RunResult r = run_cli("emit '" + path + "'", false);
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(r.output, committed.str());
}

}  // namespace
