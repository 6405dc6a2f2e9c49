// driftsim CLI contract tests (label: integration): the binary is
// spawned as a user would run it, and the exit codes are pinned.
//   - an unknown --accel, --policy or --model is a usage error (exit 2)
//     that lists the valid names;
//   - --accel=drift runs Drift alone and prints the same line as the
//     Drift row of --accel=all;
//   - every documented flag is recognized (no "unknown flag" warning).
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "test_support.hpp"

namespace {

using drift::test_support::CliResult;

CliResult run_cli(const std::string& args) {
  return drift::test_support::run_cli(DRIFT_DRIFTSIM_BIN, args);
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

void expect_usage_error(const std::string& args, const std::string& flag,
                        const std::string& value, const std::string& names) {
  drift::test_support::expect_usage_error(run_cli(args), flag, value, names);
}

TEST(DriftsimCli, UnknownAccelExitsTwoAndListsChoices) {
  expect_usage_error("--accel=tpu", "accel", "tpu",
                     "eyeriss|bitfusion|drq|drift|all");
}

TEST(DriftsimCli, UnknownPolicyExitsTwoAndListsChoices) {
  expect_usage_error("--policy=bogus", "policy", "bogus",
                     "greedy|exhaustive|fixed");
}

TEST(DriftsimCli, UnknownModelExitsTwoAndListsChoices) {
  expect_usage_error("--model=alexnet", "model", "alexnet",
                     "resnet18|resnet50|vit_b|deit_s|bert|gpt2_xl|"
                     "bloom_7b1|opt_6p7b");
}

TEST(DriftsimCli, SingleDesignMatchesItsRowOfAll) {
  const CliResult all = run_cli("--model=resnet18 --accel=all");
  const CliResult drift = run_cli("--model=resnet18 --accel=drift");
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

TEST(DriftsimCli, DocumentedFlagsAreRecognized) {
  const CliResult r = run_cli(
      "--model=resnet18 --accel=eyeriss --policy=fixed --budget=0.05 "
      "--rows=24 --cols=33 --no-dynamic-weights --layers --controller "
      "--timeline");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(r.output.find("unknown flag"), std::string::npos) << r.output;
  // --timeline shows Drift's timeline whichever design ran.
  EXPECT_NE(r.output.find("Drift double-buffered timeline"),
            std::string::npos)
      << r.output;
}

}  // namespace
