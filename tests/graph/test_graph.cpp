// Graph-runtime structural tests (label: graph):
//   - every malformed-graph class fails validation with the offending
//     node named in the message (the CLI surfaces these verbatim);
//   - every committed examples/model_zoo/*.json file validates and is
//     a fixed point of emit ∘ parse (the files are the only description
//     of the zoo graphs, so they must already be in canonical form);
//   - malformed topology text fails with one located error, never a
//     crash (a 100 000-deep `[` nest included);
//   - the resnet18 zoo file exports exactly the GEMM list the
//     hand-written nn::make_resnet18() emits, index for index;
//   - composite nn blocks (ResidualBlock / TransformerBlock) and their
//     graph-runtime equivalents produce bitwise-identical outputs and
//     the same per-node obs record set (the latent-inconsistency fix);
//   - executor lifetime tracking frees intermediates in-flight.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "graph/builder.hpp"
#include "graph/executor.hpp"
#include "graph/graph.hpp"
#include "graph/json_topology.hpp"
#include "graph/ops.hpp"
#include "graph/workload_export.hpp"
#include "nn/model.hpp"
#include "nn/quant_engine.hpp"
#include "nn/workload.hpp"
#include "obs/metrics.hpp"
#include "pipeline.hpp"
#include "util/rng.hpp"

namespace drift {
namespace {

using graph::AttrMap;
using graph::Attr;
using graph::Graph;
using graph::GraphBuilder;
using graph::GraphExecutor;

/// True when some validation error mentions both fragments (the node
/// name and the reason) — the tests pin that failures are actionable.
bool has_error_mentioning(const std::vector<std::string>& errors,
                          const std::string& node,
                          const std::string& reason) {
  return std::any_of(errors.begin(), errors.end(),
                     [&](const std::string& e) {
                       return e.find("'" + node + "'") != std::string::npos &&
                              e.find(reason) != std::string::npos;
                     });
}

std::string join(const std::vector<std::string>& v) {
  std::string out;
  for (const auto& s : v) out += s + "\n";
  return out;
}

// --------------------------------------------------------------------
// Negative validation: each malformed-graph class names its node.
// --------------------------------------------------------------------

TEST(GraphValidate, DuplicateNodeNameIsNamed) {
  Graph g = GraphBuilder("dup")
                .input("x", {4, 4})
                .then("a", "relu")
                .then("a", "relu")
                .build();
  const auto errors = graph::validate(g);
  EXPECT_TRUE(has_error_mentioning(errors, "a", "duplicate name"))
      << join(errors);
}

TEST(GraphValidate, UnknownOpIsNamedAndListsKnownOps) {
  Graph g = GraphBuilder("unknown")
                .input("x", {4, 4})
                .then("a", "conv3d")
                .build();
  const auto errors = graph::validate(g);
  EXPECT_TRUE(has_error_mentioning(errors, "a", "unknown op 'conv3d'"))
      << join(errors);
  // The message enumerates the registry so typos are self-correcting.
  EXPECT_TRUE(has_error_mentioning(errors, "a", "conv2d")) << join(errors);
  EXPECT_TRUE(has_error_mentioning(errors, "a", "softmax")) << join(errors);
}

TEST(GraphValidate, DanglingInputIsNamed) {
  Graph g = GraphBuilder("dangling")
                .input("x", {4, 4})
                .node("a", "add", {"x", "ghost"})
                .build();
  const auto errors = graph::validate(g);
  EXPECT_TRUE(has_error_mentioning(
      errors, "a", "input 'ghost' is neither a graph input nor a node"))
      << join(errors);
}

TEST(GraphValidate, CycleIsNamed) {
  Graph g = GraphBuilder("cycle")
                .input("x", {4, 4})
                .node("a", "add", {"x", "b"})
                .node("b", "relu", {"a"})
                .build();
  const auto errors = graph::validate(g);
  EXPECT_TRUE(has_error_mentioning(errors, "a", "dependency cycle"))
      << join(errors);
}

TEST(GraphValidate, ArityMismatchIsNamed) {
  Graph g = GraphBuilder("arity")
                .input("x", {4, 4})
                .node("a", "add", {"x"})
                .build();
  const auto errors = graph::validate(g);
  EXPECT_TRUE(has_error_mentioning(errors, "a", "expects 2 input(s), got 1"))
      << join(errors);
}

TEST(GraphValidate, UndefinedOutputIsNamed) {
  Graph g = GraphBuilder("badout")
                .input("x", {4, 4})
                .then("a", "relu")
                .output("nowhere")
                .build();
  const auto errors = graph::validate(g);
  EXPECT_TRUE(has_error_mentioning(
      errors, "nowhere", "declared as graph output but never defined"))
      << join(errors);
}

TEST(GraphValidate, ShapeMismatchIsNamedByInference) {
  // Structurally valid, shape-invalid: conv2d needs a rank-3 [C, H, W]
  // input but gets the rank-2 matrix.
  Graph g = GraphBuilder("badshape")
                .input("x", {4, 4})
                .then("a", "conv2d",
                      AttrMap{{"out_channels", Attr::of_int(8)},
                              {"kernel", Attr::of_int(3)}})
                .build();
  ASSERT_TRUE(graph::validate(g).empty());
  const auto shapes = graph::infer_shapes(g);
  ASSERT_FALSE(shapes.ok());
  EXPECT_TRUE(has_error_mentioning(shapes.errors, "a", "")) <<
      join(shapes.errors);
}

// --------------------------------------------------------------------
// Model zoo: the committed topology files.
// --------------------------------------------------------------------

/// Every examples/model_zoo/*.json, sorted by path.
std::vector<std::string> zoo_files() {
  std::vector<std::string> paths;
  for (const auto& entry :
       std::filesystem::directory_iterator(DRIFT_MODEL_ZOO_DIR)) {
    if (entry.path().extension() == ".json") {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

Graph load_zoo_graph(const std::string& name) {
  auto loaded = graphcli::load_topology_file(std::string(DRIFT_MODEL_ZOO_DIR) +
                                             "/" + name + ".json");
  EXPECT_TRUE(loaded.ok()) << name << ": " << join(loaded.errors);
  return std::move(loaded.graph);
}

TEST(GraphValidate, ZooGraphsAreClean) {
  const std::vector<std::string> paths = zoo_files();
  EXPECT_EQ(paths.size(), 5u);
  for (const std::string& path : paths) {
    const auto loaded = graphcli::load_topology_file(path);
    ASSERT_TRUE(loaded.ok()) << path << ": " << join(loaded.errors);
    EXPECT_TRUE(graph::validate(loaded.graph).empty()) << path;
    EXPECT_TRUE(graph::infer_shapes(loaded.graph).ok()) << path;
  }
}

// --------------------------------------------------------------------
// JSON topology: canonical serialization and located parse errors.
// --------------------------------------------------------------------

std::string read_file_or_empty(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return "";
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(GraphJson, EmitParseEmitIsAFixedPoint) {
  // The committed files are the canonical emit of themselves; after
  // editing one by hand, replace it with the output of
  // `drift_graph emit FILE` (written to another file first: the shell
  // truncates a redirect target before the tool reads it).
  for (const std::string& path : zoo_files()) {
    const std::string committed = read_file_or_empty(path);
    ASSERT_FALSE(committed.empty()) << "missing " << path;
    const auto parsed = graph::parse_topology(committed);
    ASSERT_TRUE(parsed.ok()) << path << ": " << join(parsed.errors);
    const std::string emitted = graph::to_topology_json(parsed.graph);
    EXPECT_EQ(emitted, committed)
        << path << " is not in canonical form; replace it with the "
        << "output of drift_graph emit " << path;
    const auto reparsed = graph::parse_topology(emitted);
    ASSERT_TRUE(reparsed.ok()) << path << ": " << join(reparsed.errors);
    EXPECT_EQ(graph::to_topology_json(reparsed.graph), emitted) << path;
  }
}

TEST(GraphJson, DeepNestingIsOneLocatedError) {
  // Before the shared depth-limited reader, a nest this deep overflowed
  // the parser's stack.
  const std::string text = R"({"name": "t", "inputs": )" +
                           std::string(100000, '[') +
                           std::string(100000, ']') +
                           R"(, "nodes": [], "outputs": []})";
  const auto parsed = graph::parse_topology(text);
  ASSERT_EQ(parsed.errors.size(), 1u) << join(parsed.errors);
  EXPECT_EQ(parsed.errors.front().rfind("line 1, col ", 0), 0u)
      << parsed.errors.front();
  EXPECT_NE(parsed.errors.front().find(": nesting too deep"),
            std::string::npos)
      << parsed.errors.front();
}

TEST(GraphJson, DuplicateKeyIsOneLocatedError) {
  const auto parsed = graph::parse_topology(
      "{\"name\": \"t\",\n \"name\": \"u\", \"inputs\": [], "
      "\"nodes\": [], \"outputs\": []}");
  ASSERT_EQ(parsed.errors.size(), 1u) << join(parsed.errors);
  EXPECT_EQ(parsed.errors.front(), "line 2, col 2: duplicate key 'name'");
}

TEST(GraphJson, ParseErrorsNameTheNode) {
  const auto parsed = graph::parse_topology(
      R"({"name": "t", "family": "cnn",
          "inputs": [{"name": "x", "shape": [4, 4]}],
          "nodes": [{"name": "a", "op": "relu", "inputs": 3}],
          "outputs": ["a"]})");
  // Schema errors are node-named.
  ASSERT_FALSE(parsed.ok());
  EXPECT_TRUE(has_error_mentioning(parsed.errors, "a",
                                   "'inputs' must be an array"))
      << join(parsed.errors);
}

// --------------------------------------------------------------------
// Workload export: the zoo resnet18 file reproduces make_resnet18().
// --------------------------------------------------------------------

TEST(GraphExport, Resnet18MatchesHandWrittenWorkload) {
  const Graph g = load_zoo_graph("resnet18");
  const auto shapes = graph::infer_shapes(g);
  ASSERT_TRUE(shapes.ok());
  const nn::WorkloadSpec got = graph::to_workload(g, shapes);
  const nn::WorkloadSpec want = nn::make_resnet18();

  EXPECT_EQ(got.family, want.family);
  ASSERT_EQ(got.layers.size(), want.layers.size());
  for (std::size_t i = 0; i < got.layers.size(); ++i) {
    const nn::LayerGemm& a = got.layers[i];
    const nn::LayerGemm& b = want.layers[i];
    EXPECT_EQ(a.name, b.name) << "layer " << i;
    EXPECT_EQ(a.kind, b.kind) << a.name;
    EXPECT_EQ(a.dims.M, b.dims.M) << a.name;
    EXPECT_EQ(a.dims.K, b.dims.K) << a.name;
    EXPECT_EQ(a.dims.N, b.dims.N) << a.name;
    EXPECT_EQ(a.repeat, b.repeat) << a.name;
    EXPECT_EQ(a.kernel, b.kernel) << a.name;
  }
  EXPECT_EQ(got.total_macs(), want.total_macs());
}

// --------------------------------------------------------------------
// Composite blocks vs. graph execution: bitwise outputs and identical
// per-node obs record sets (satellite 4's pin).
// --------------------------------------------------------------------

/// Names of the layer records currently in the registry (obs builds).
std::set<std::string> scrape_record_names() {
  std::set<std::string> names;
#ifndef DRIFT_OBS_OFF
  // The canonical scrape always includes layer records; pulling names
  // via layer_record would create them, so parse the JSON lines.
  const std::string json = obs::Registry::global().to_json({"none."});
  std::istringstream lines(json);
  std::string line;
  while (std::getline(lines, line)) {
    const std::string marker = "\"layer\": \"";
    const std::size_t pos = line.find(marker);
    if (pos == std::string::npos) continue;
    const std::size_t start = pos + marker.size();
    const std::size_t end = line.find('"', start);
    names.insert(line.substr(start, end - start));
  }
#endif
  return names;
}

TensorF fill_normal(Shape shape, std::uint64_t seed) {
  TensorF t(std::move(shape));
  Rng rng(seed);
  for (auto& v : t.data()) v = static_cast<float>(rng.normal());
  return t;
}

void expect_bitwise_equal(const TensorF& a, const TensorF& b) {
  ASSERT_EQ(a.shape(), b.shape());
  const auto ad = a.data();
  const auto bd = b.data();
  for (std::size_t i = 0; i < ad.size(); ++i) {
    ASSERT_EQ(ad[i], bd[i]) << "element " << i;
  }
}

TEST(GraphComposite, ResidualBlockMatchesGraphBitwiseAndInObsRecords) {
  const std::int64_t in_ch = 4, out_ch = 8, stride = 2;
  const TensorF input = fill_normal(Shape{in_ch, 10, 10}, 33);
  nn::QuantEngine::Config cfg;
  cfg.mode = nn::QuantMode::kDrift;

  // Composite arm.  Same rng seed as the graph arm; the block's ctor
  // draws conv1, conv2, projection in that order.
#ifndef DRIFT_OBS_OFF
  obs::Registry::global().reset();
#endif
  Rng block_rng(5);
  nn::ResidualBlock block("b", in_ch, out_ch, stride, block_rng);
  nn::QuantEngine block_engine(cfg);
  const TensorF block_out = block.forward(input, block_engine);
  const std::set<std::string> block_records = scrape_record_names();

  // Graph arm.  Insertion order fixes the rng bind order: the three
  // conv nodes must bind conv1, conv2, proj exactly like the ctor
  // (bn/relu binders draw nothing, and `add` is a graph-level op).
  Graph g = GraphBuilder("resblock")
                .input("x", {in_ch, 10, 10})
                .then("b.conv1", "conv2d",
                      AttrMap{{"out_channels", Attr::of_int(out_ch)},
                              {"kernel", Attr::of_int(3)},
                              {"stride", Attr::of_int(stride)},
                              {"pad", Attr::of_int(1)}})
                .then("b.bn1", "batchnorm2d")
                .then("b.relu1", "relu")
                .then("b.conv2", "conv2d",
                      AttrMap{{"out_channels", Attr::of_int(out_ch)},
                              {"kernel", Attr::of_int(3)},
                              {"pad", Attr::of_int(1)}})
                .then("b.bn2", "batchnorm2d")
                .node("b.proj", "conv2d", {"x"},
                      AttrMap{{"out_channels", Attr::of_int(out_ch)},
                              {"kernel", Attr::of_int(1)},
                              {"stride", Attr::of_int(stride)}})
                .node("b.add", "add", {"b.bn2", "b.proj"})
                .then("b.relu2", "relu")
                .build();
#ifndef DRIFT_OBS_OFF
  obs::Registry::global().reset();
#endif
  Rng graph_rng(5);
  GraphExecutor executor(std::move(g), graph_rng);
  nn::QuantEngine graph_engine(cfg);
  const TensorF graph_out = executor.run({input}, graph_engine).front();
  const std::set<std::string> graph_records = scrape_record_names();

  expect_bitwise_equal(block_out, graph_out);
#ifndef DRIFT_OBS_OFF
  // The latent-inconsistency fix: the composite forward now reports
  // relu stages through the same primitive layers the graph binds, so
  // both paths attribute work to the identical node set.
  EXPECT_EQ(block_records, graph_records);
  EXPECT_TRUE(graph_records.count("b.relu1") == 1 &&
              graph_records.count("b.relu2") == 1)
      << "relu stages missing from the per-node records";
#endif
}

TEST(GraphComposite, TransformerBlockMatchesGraphBitwiseAndInObsRecords) {
  const std::int64_t tokens = 6, dim = 16, heads = 4, ffn = 32;
  const TensorF input = fill_normal(Shape{tokens, dim}, 44);
  nn::QuantEngine::Config cfg;
  cfg.mode = nn::QuantMode::kDrift;

#ifndef DRIFT_OBS_OFF
  obs::Registry::global().reset();
#endif
  Rng block_rng(9);
  nn::TransformerBlock block("t", dim, heads, ffn, block_rng);
  nn::QuantEngine block_engine(cfg);
  const TensorF block_out = block.forward(input, block_engine);
  const std::set<std::string> block_records = scrape_record_names();

  // rng bind order attn, ffn1, ffn2 — the ctor's member order.
  Graph g = GraphBuilder("xblock", "vit")
                .input("x", {tokens, dim})
                .then("t.ln1", "layernorm")
                .then("t.attn", "attention",
                      AttrMap{{"heads", Attr::of_int(heads)}})
                .node("t.add1", "add", {"t.attn", "x"})
                .then("t.ln2", "layernorm")
                .then("t.ffn1", "linear",
                      AttrMap{{"out_features", Attr::of_int(ffn)},
                              {"kind", Attr::of_string("ffn")}})
                .then("t.gelu", "gelu")
                .then("t.ffn2", "linear",
                      AttrMap{{"out_features", Attr::of_int(dim)},
                              {"kind", Attr::of_string("ffn")}})
                .node("t.add2", "add", {"t.ffn2", "t.add1"})
                .build();
#ifndef DRIFT_OBS_OFF
  obs::Registry::global().reset();
#endif
  Rng graph_rng(9);
  GraphExecutor executor(std::move(g), graph_rng);
  nn::QuantEngine graph_engine(cfg);
  const TensorF graph_out = executor.run({input}, graph_engine).front();
  const std::set<std::string> graph_records = scrape_record_names();

  expect_bitwise_equal(block_out, graph_out);
#ifndef DRIFT_OBS_OFF
  EXPECT_EQ(block_records, graph_records);
  EXPECT_EQ(graph_records.count("t.gelu"), 1u)
      << "gelu stage missing from the per-node records";
#endif
}

// --------------------------------------------------------------------
// Lifetime tracking: intermediates are freed in-flight.
// --------------------------------------------------------------------

TEST(GraphLifetime, ChainFreesIntermediatesAndBoundsResidency) {
  // A 6-stage elementwise chain over a [64, 64] tensor: at any moment
  // at most producer + consumer are resident, so the peak must stay
  // far below the sum of all values while every non-output dies.
  GraphBuilder b("chain");
  b.input("x", {64, 64});
  const int stages = 6;
  for (int i = 0; i < stages; ++i) {
    std::string stage_name = "n";
    stage_name += std::to_string(i);
    b.then(std::move(stage_name), i % 2 == 0 ? "relu" : "gelu");
  }
  Rng rng(3);
  GraphExecutor executor(b.build(), rng);
  nn::QuantEngine engine(nn::QuantEngine::Config{});
  const TensorF input = fill_normal(Shape{64, 64}, 7);
  const auto outputs = executor.run({input}, engine);
  ASSERT_EQ(outputs.size(), 1u);

  const std::int64_t tensor_bytes = 64 * 64 * sizeof(float);
  // input + stages values exist over the run; output survives.
  EXPECT_EQ(executor.tensors_freed(), stages);  // input + intermediates
  EXPECT_GE(executor.peak_resident_bytes(), 2 * tensor_bytes);
  EXPECT_LE(executor.peak_resident_bytes(), 3 * tensor_bytes);
}

TEST(GraphLifetime, FanOutKeepsValueAliveUntilLastConsumer) {
  // x feeds both branches and the final add; it must survive until the
  // add runs even though the first consumer fires immediately.
  Graph g = GraphBuilder("fan")
                .input("x", {32, 32})
                .then("a", "relu")
                .node("b", "gelu", {"x"})
                .node("sum", "add", {"a", "b"})
                .build();
  Rng rng(4);
  GraphExecutor executor(std::move(g), rng);
  nn::QuantEngine engine(nn::QuantEngine::Config{});
  const TensorF input = fill_normal(Shape{32, 32}, 8);
  const auto outputs = executor.run({input}, engine);
  ASSERT_EQ(outputs.size(), 1u);

  // x, a, b all die; sum is the retained output.
  EXPECT_EQ(executor.tensors_freed(), 3);
  const std::int64_t tensor_bytes = 32 * 32 * sizeof(float);
  // x + a + b resident together just before the add consumes them.
  EXPECT_GE(executor.peak_resident_bytes(), 3 * tensor_bytes);
}

}  // namespace
}  // namespace drift
