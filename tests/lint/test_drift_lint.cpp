// Tests for tools/lint/drift_lint against the fixture corpus in
// tests/lint/fixtures (one file per rule with known violation lines, a
// clean file, a fully suppressed file, and suppression-hygiene cases).
//
// The linter's JSON output is asserted byte-for-byte against
// expected.json: any rule change that shifts a line number, message, or
// ordering must update the golden file consciously.
//
// Paths are injected by tests/lint/CMakeLists.txt:
//   DRIFT_LINT_BIN             built drift_lint binary
//   DRIFT_LINT_FIXTURES        fixture corpus root
//   DRIFT_LINT_EXPECTED        golden JSON for the full corpus
//   DRIFT_LINT_EXPECTED_SARIF  golden SARIF 2.1.0 for the full corpus
//   DRIFT_LINT_RATCHET_FIXTURE per-rule budgets equal to the corpus counts
//   DRIFT_LINT_RATCHET_ZERO    the committed all-zero repo baseline
//   DRIFT_LINT_REPO_ROOT       the real repository root (self-analysis)
#include <gtest/gtest.h>

#include <string>

#include "test_support.hpp"

namespace {

using drift::test_support::CliResult;
using drift::test_support::read_file_or_empty;

/// stdout only; stderr goes to the test log.
CliResult run_lint(const std::string& args) {
  return drift::test_support::run_cli(DRIFT_LINT_BIN, args, false);
}

std::string fixtures_root() { return DRIFT_LINT_FIXTURES; }

TEST(DriftLint, JsonOutputMatchesGoldenFileExactly) {
  const CliResult r =
      run_lint("--root " + fixtures_root() + " --format=json src tools tests");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_EQ(r.output, read_file_or_empty(DRIFT_LINT_EXPECTED));
}

TEST(DriftLint, SarifOutputMatchesGoldenFileExactly) {
  const CliResult r =
      run_lint("--root " + fixtures_root() + " --format=sarif src tools tests");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_EQ(r.output, read_file_or_empty(DRIFT_LINT_EXPECTED_SARIF));
}

TEST(DriftLint, RatchetWithinBudgetExitsZero) {
  // The fixture ratchet grants exactly the corpus's per-rule counts, so
  // the run reports violations but the gate passes.
  const CliResult r = run_lint("--root " + fixtures_root() +
                               " --format=json --ratchet " +
                               DRIFT_LINT_RATCHET_FIXTURE +
                               " src tools tests 2>/dev/null");
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(DriftLint, RatchetExceededExitsOne) {
  // The committed repo baseline is all zeros; the fixture corpus blows
  // through every budget.
  const CliResult r = run_lint("--root " + fixtures_root() +
                               " --format=json --ratchet " +
                               DRIFT_LINT_RATCHET_ZERO +
                               " src tools tests 2>/dev/null");
  EXPECT_EQ(r.exit_code, 1) << r.output;
}

TEST(DriftLint, MissingRatchetFileExitsTwo) {
  const CliResult r =
      run_lint("--root " + fixtures_root() +
               " --ratchet /nonexistent/ratchet.json src 2>/dev/null");
  EXPECT_EQ(r.exit_code, 2);
}

TEST(DriftLint, SelfAnalysisIsClean) {
  // The analyzer must hold itself to its own rules.
  const CliResult r =
      run_lint(std::string("--root ") + DRIFT_LINT_REPO_ROOT + " tools/lint");
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(DriftLint, CleanDirectoryExitsZero) {
  // fixtures/tests holds only a clean header.
  const CliResult r =
      run_lint("--root " + fixtures_root() + " --format=json tests");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("\"violation_count\": 0"), std::string::npos)
      << r.output;
}

TEST(DriftLint, TextFormatReportsFileLineAndRule) {
  const CliResult r = run_lint("--root " + fixtures_root() + " src");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("src/core/narrow_viol.cpp:5: [narrow]"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("src/thread_viol.cpp:6: [thread]"),
            std::string::npos)
      << r.output;
}

TEST(DriftLint, CleanAndSuppressedFilesProduceNoFindings) {
  const CliResult r = run_lint("--root " + fixtures_root() + " src");
  EXPECT_EQ(r.output.find("clean.cpp"), std::string::npos) << r.output;
  EXPECT_EQ(r.output.find("suppressed.cpp"), std::string::npos) << r.output;
}

TEST(DriftLint, UnknownFlagExitsWithUsageError) {
  const CliResult r = run_lint("--definitely-not-a-flag 2>/dev/null");
  EXPECT_EQ(r.exit_code, 2);
}

}  // namespace
