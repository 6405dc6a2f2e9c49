// Golden end-to-end artifacts for whole-model graph runs (label:
// graph):
//
// A fixed-seed model-zoo topology (loaded from examples/model_zoo/)
// flows through the real pipeline —
// workload export -> selector -> scheduler -> cycle model -> traffic —
// and the canonicalized metrics JSON (schema v2, deterministic metric
// prefixes plus all per-layer records) is byte-compared against a
// checked-in golden.  Two topologies are pinned: resnet18 (the CNN
// path: conv GEMMs, projection shortcuts) and gpt2_layer (the LLM
// path: giant QKV / FFN GEMMs).  Regenerate after an intentional
// change with:
//   DRIFT_OBS_UPDATE_GOLDEN=1 ./build/tests/graph/drift_graph_tests
//
// The artifact must also be byte-identical whatever the thread-pool
// size — counters merge commutatively and every histogram observation
// happens on the submitting thread — and the Chrome trace must be
// structurally sound (every B closed by its E, one accel span per
// GEMM layer).  Under -DDRIFT_OBS_OFF the whole suite GTEST_SKIPs.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "nn/workload.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pipeline.hpp"
#include "util/thread_pool.hpp"

namespace drift {
namespace {

#ifndef DRIFT_OBS_OFF

/// Metric prefixes the pipeline itself creates, deterministically (no
/// wall clock, no pool size).  Registry::reset() zeroes counters but
/// keeps their names registered, so the scrape is restricted to
/// prefixes no *other* test in this binary touches — a key merely
/// created by an earlier test would otherwise appear (as zero) and
/// break byte-exactness.  Per-layer coverage lives in the layer
/// records, which reset() does drop and which are always emitted.
std::vector<std::string> deterministic_prefixes() {
  return {"accel.", "scheduler.", "traffic."};
}

/// Runs `zoo_name` through the full pipeline from a clean registry and
/// tracer.  Everything recorded is a deterministic function of the
/// topology and the default GraphPipelineConfig seed.
graphcli::GraphPipelineResult run_fixed_pipeline(
    const std::string& zoo_name) {
  const auto loaded = graphcli::load_topology_file(
      std::string(DRIFT_MODEL_ZOO_DIR) + "/" + zoo_name + ".json");
  EXPECT_TRUE(loaded.ok()) << zoo_name;
  obs::Registry::global().reset();
  obs::Tracer::global().reset();
  obs::Tracer::global().set_enabled(true);
  graphcli::GraphPipelineConfig config;  // kDrift, greedy, seed 17
  graphcli::GraphPipelineResult result =
      graphcli::run_graph_pipeline(loaded.graph, config);
  obs::Tracer::global().set_enabled(false);
  return result;
}

std::string golden_path(const std::string& zoo_name) {
  return std::string(DRIFT_GRAPH_GOLDEN_DIR) + "/" + zoo_name + ".json";
}

std::string read_file_or_empty(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return "";
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void check_against_golden(const std::string& zoo_name) {
  run_fixed_pipeline(zoo_name);
  const std::string scrape =
      obs::Registry::global().to_json(deterministic_prefixes());
  if (std::getenv("DRIFT_OBS_UPDATE_GOLDEN") != nullptr) {
    ASSERT_TRUE(obs::write_file(golden_path(zoo_name), scrape));
    GTEST_SKIP() << "golden regenerated at " << golden_path(zoo_name);
  }
  const std::string golden = read_file_or_empty(golden_path(zoo_name));
  ASSERT_FALSE(golden.empty())
      << "missing golden " << golden_path(zoo_name)
      << " — regenerate with DRIFT_OBS_UPDATE_GOLDEN=1";
  EXPECT_EQ(scrape, golden)
      << zoo_name
      << " artifact drifted from the golden; if the change is "
         "intentional, regenerate with DRIFT_OBS_UPDATE_GOLDEN=1";
}

TEST(GraphGolden, Resnet18ArtifactMatchesGolden) {
  check_against_golden("resnet18");
}

TEST(GraphGolden, Gpt2LayerArtifactMatchesGolden) {
  check_against_golden("gpt2_layer");
}

TEST(GraphGolden, ArtifactIsByteIdenticalAcrossThreadCounts) {
  std::map<int, std::string> scrapes;
  for (const int threads : {1, 2, 8}) {
    util::ThreadPool::instance().resize(threads);
    run_fixed_pipeline("resnet18");
    scrapes[threads] =
        obs::Registry::global().to_json(deterministic_prefixes());
  }
  util::ThreadPool::instance().resize(0);
  EXPECT_EQ(scrapes[1], scrapes[2]);
  EXPECT_EQ(scrapes[1], scrapes[8]);
}

TEST(GraphGolden, EveryGemmLayerHasARecordAndAnAccelSpan) {
  const graphcli::GraphPipelineResult result =
      run_fixed_pipeline("resnet18");

  // Per-node records: one for every exported GEMM layer, none extra
  // within the run (the scrape always carries the layer records).
  std::set<std::string> want_layers;
  for (const nn::LayerGemm& layer : result.workload.layers) {
    want_layers.insert(layer.name);
  }
  std::set<std::string> got_layers;
  const std::string json = obs::Registry::global().to_json({"none."});
  std::istringstream lines(json);
  std::string line;
  while (std::getline(lines, line)) {
    const std::string marker = "\"layer\": \"";
    const std::size_t pos = line.find(marker);
    if (pos == std::string::npos) continue;
    const std::size_t start = pos + marker.size();
    got_layers.insert(line.substr(start, line.find('"', start) - start));
  }
  EXPECT_EQ(got_layers, want_layers);

  // Per-node trace spans: every B has a matching E on its thread and
  // the accel model opened exactly one layer span per mix.
  const std::string trace = obs::Tracer::global().to_chrome_json();
  ASSERT_EQ(trace.rfind("{\"traceEvents\": [", 0), 0u);
  const auto event_field = [](const std::string& event,
                              const std::string& key) -> std::int64_t {
    const std::string marker = "\"" + key + "\": ";
    const std::size_t pos = event.find(marker);
    if (pos == std::string::npos) return -1;
    return std::atoll(event.c_str() + pos + marker.size());
  };
  std::map<std::pair<std::int64_t, std::int64_t>,
           std::vector<std::string>>
      open_spans;  // by (pid, tid)
  int accel_spans = 0, begins = 0, ends = 0;
  std::istringstream trace_lines(trace);
  while (std::getline(trace_lines, line)) {
    if (line.rfind("{\"name\": ", 0) != 0) continue;
    const std::size_t name_end = line.find('"', 10);
    ASSERT_NE(name_end, std::string::npos) << line;
    const std::string name = line.substr(10, name_end - 10);
    const std::size_t ph_pos = line.find("\"ph\": \"");
    ASSERT_NE(ph_pos, std::string::npos) << line;
    const char ph = line[ph_pos + 7];
    const auto tid = std::make_pair(event_field(line, "pid"),
                                    event_field(line, "tid"));
    if (ph == 'B') {
      ++begins;
      if (name == "drift_accel.layer") ++accel_spans;
      open_spans[tid].push_back(name);
    } else if (ph == 'E') {
      ++ends;
      auto& stack = open_spans[tid];
      ASSERT_FALSE(stack.empty()) << "unmatched E for " << name;
      EXPECT_EQ(stack.back(), name);
      stack.pop_back();
    }
  }
  for (const auto& [track, stack] : open_spans) {
    EXPECT_TRUE(stack.empty())
        << stack.size() << " unclosed span(s) on pid " << track.first
        << " tid " << track.second;
  }
  EXPECT_EQ(begins, ends);
  EXPECT_EQ(accel_spans,
            static_cast<int>(result.mixes.size()));
}

#else  // DRIFT_OBS_OFF

TEST(GraphGolden, SkippedWithoutObservability) {
  GTEST_SKIP() << "DRIFT_OBS_OFF build: no metrics artifact to pin";
}

#endif

}  // namespace
}  // namespace drift
