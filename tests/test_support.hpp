// Helpers shared by the test suites: files, messages and CLI runs.
#pragma once

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace drift::test_support {

/// The bytes of `path`, or "" when it cannot be opened.
inline std::string read_file_or_empty(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return "";
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Byte-compares `produced` with the golden file at `path`.  With the
/// environment variable `update_env` set it rewrites the golden instead
/// and skips the test.
inline void expect_matches_golden(const std::string& produced,
                                  const std::string& path,
                                  const std::string& update_env) {
  if (std::getenv(update_env.c_str()) != nullptr) {
    std::ofstream out(path, std::ios::binary);
    out << produced;
    ASSERT_TRUE(static_cast<bool>(out)) << "cannot write " << path;
    GTEST_SKIP() << "golden regenerated at " << path;
  }
  const std::string golden = read_file_or_empty(path);
  ASSERT_FALSE(golden.empty())
      << "missing golden " << path << " — regenerate with " << update_env
      << "=1";
  EXPECT_EQ(produced, golden)
      << path << " drifted from the output; if the change is intentional, "
      << "regenerate with " << update_env << "=1";
}

/// Every *.json directly under `dir`, sorted by path.
inline std::vector<std::string> json_files(const std::string& dir) {
  std::vector<std::string> paths;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".json") {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

/// One line per message, for failure output.
inline std::string join(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& line : lines) out += line + "\n";
  return out;
}

/// The names of the per-layer records in a canonical metrics scrape.
inline std::set<std::string> layer_record_names(const std::string& scrape) {
  std::set<std::string> names;
  std::istringstream lines(scrape);
  const std::string marker = "\"layer\": \"";
  for (std::string line; std::getline(lines, line);) {
    const std::size_t pos = line.find(marker);
    if (pos == std::string::npos) continue;
    const std::size_t start = pos + marker.size();
    names.insert(line.substr(start, line.find('"', start) - start));
  }
  return names;
}

/// The integer value of `"key": <n>` in one serialized trace event
/// line; `fallback` when the key is absent.
inline std::int64_t event_field(const std::string& line,
                                const std::string& key,
                                std::int64_t fallback = -1) {
  const std::string marker = "\"" + key + "\": ";
  const std::size_t pos = line.find(marker);
  if (pos == std::string::npos) return fallback;
  return std::atoll(line.c_str() + pos + marker.size());
}

struct CliResult {
  int exit_code = -1;  ///< -1 when the command did not exit normally
  std::string output;  ///< stdout (stderr too if the command folds it)
};

/// Runs `binary args` through the shell as a user would; with
/// `merge_stderr` stderr is folded into the captured output, otherwise
/// it goes to the test log.
inline CliResult run_cli(const std::string& binary, const std::string& args,
                         bool merge_stderr = true) {
  const std::string cmd = "'" + binary + "' " + args +
                          (merge_stderr ? " 2>&1" : "");
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << "failed to spawn: " << cmd;
  CliResult result;
  if (!pipe) return result;
  char buf[4096];
  while (std::size_t n = fread(buf, 1, sizeof buf, pipe)) {
    result.output.append(buf, n);
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

/// A usage error: exit 2, naming the bad `--flag 'value'` and listing
/// the valid `names`.
inline void expect_usage_error(const CliResult& r, const std::string& flag,
                               const std::string& value,
                               const std::string& names) {
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("unknown --" + flag + " '" + value + "'"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find(names), std::string::npos) << r.output;
}

}  // namespace drift::test_support
