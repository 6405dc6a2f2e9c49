// drift_serve CLI contract tests (label: serve): the binary is spawned
// as a user would run it, and the exit codes are pinned.
//   - an unknown --accel, --arrival or --workloads name is a usage error
//     (exit 2) that lists the valid names;
//   - an unknown flag is a usage error (exit 2);
//   - a valid run exits 0 and recognizes every flag it is given.
#include <gtest/gtest.h>

#include <string>

#include "test_support.hpp"

namespace {

using drift::test_support::CliResult;

CliResult run_cli(const std::string& args) {
  return drift::test_support::run_cli(DRIFT_SERVE_BIN, args);
}

void expect_usage_error(const std::string& args, const std::string& flag,
                        const std::string& value, const std::string& names) {
  drift::test_support::expect_usage_error(run_cli(args), flag, value, names);
}

TEST(DriftServeCli, UnknownNamesExitTwoAndListChoices) {
  expect_usage_error("--accel=bogus --requests=4", "accel", "bogus",
                     "eyeriss|bitfusion|drq|drift");
  expect_usage_error("--arrival=weird --requests=4", "arrival", "weird",
                     "poisson|bursty|diurnal");
  expect_usage_error("--workloads=tiny-cnn,nosuch --requests=4", "workloads",
                     "nosuch", "tiny-bert|tiny-cnn|ResNet18|");
}

TEST(DriftServeCli, EveryUnknownNameTogetherStillExitsTwo) {
  const CliResult r = run_cli(
      "--workloads=nosuch --accel=bogus --arrival=weird --requests=4");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_EQ(r.output.find("serving,"), std::string::npos) << r.output;
}

TEST(DriftServeCli, UnknownFlagExitsTwo) {
  // --algo was the design flag before --accel replaced it.
  const CliResult r = run_cli("--algo=int8 --requests=4");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("unknown flag --algo"), std::string::npos)
      << r.output;
  EXPECT_EQ(r.output.find("serving,"), std::string::npos) << r.output;
}

TEST(DriftServeCli, ValidRunExitsZero) {
  const CliResult r = run_cli(
      "--workloads=tiny-cnn --accel=drq --arrival=bursty --requests=4 "
      "--max-batch=2 --threads=1");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(r.output.find("unknown"), std::string::npos) << r.output;
  EXPECT_EQ(r.output.rfind("DRQ serving, 1 tenant(s), arrival bursty", 0), 0u)
      << r.output;
}

}  // namespace
