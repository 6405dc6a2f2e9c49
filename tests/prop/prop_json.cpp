// Property suite for the shared JSON reader/writer (src/util/json) and
// the topology format built on it (src/graph/json_topology):
//
//   1. Random documents round-trip: parse(write_canonical(v)) == v.
//   2. Every committed examples/model_zoo/*.json is a fixed point of
//      emit ∘ parse, whatever layout the JSON arrives in.
//   3. Random truncations and byte flips of the zoo files and the
//      drift_report fixtures never crash the reader, every rejection
//      is one message starting "line L, col C: " that points inside
//      the text, and every accepted mutant's canonical text is a fixed
//      point of write_canonical ∘ parse.  Under
//      CI's ASan+UBSan prop pass this is the reader's fuzzer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "graph/json_topology.hpp"
#include "proptest/proptest_gtest.hpp"
#include "test_support.hpp"
#include "util/json.hpp"

namespace drift {
namespace {

using util::JsonArray;
using util::JsonObject;
using util::JsonValue;

std::string gen_string(Rng& rng, int size) {
  // Any byte may appear: control bytes go out as \u00XX, bytes >= 0x80
  // are copied through, quotes and backslashes are escaped.
  static const char kInteresting[] = {'"', '\\', '/', '\n', '\t', '\r',
                                      '\0', '\x1f', '\x7f', 'u'};
  const std::int64_t len = rng.uniform_int(0, 2 + size);
  std::string s;
  for (std::int64_t i = 0; i < len; ++i) {
    s += rng.bernoulli(0.3)
             ? kInteresting[rng.uniform_int(0, sizeof kInteresting - 1)]
             : static_cast<char>(rng.uniform_int(0, 255));
  }
  return s;
}

/// A double whose canonical text keeps it a double on the way back: an
/// integral double prints without '.' or 'e' and reads back as an int
/// (the writer's documented int/double contract), so it is skipped.
double gen_double(Rng& rng) {
  while (true) {
    double d = 0.0;
    switch (rng.uniform_int(0, 3)) {
      case 0: d = rng.uniform(-1e6, 1e6); break;
      case 1: d = std::ldexp(rng.uniform(-1.0, 1.0),
                             static_cast<int>(rng.uniform_int(-1070, 1023)));
              break;
      case 2: d = static_cast<double>(rng.uniform_int(-1000, 1000)) / 8.0;
              break;
      default: d = rng.bernoulli(0.5) ? std::numeric_limits<double>::max()
                                      : std::numeric_limits<double>::min();
    }
    const std::string text = util::format_double(d);
    if (text.find_first_of(".e") != std::string::npos) return d;
  }
}

/// Random document at most `depth` levels deep (the reader's limit is
/// 64; the generator stays well inside it).
JsonValue gen_value(Rng& rng, int size, int depth) {
  const std::int64_t kind = rng.uniform_int(0, depth > 1 ? 6 : 4);
  switch (kind) {
    case 0: return JsonValue();
    case 1: return JsonValue(rng.bernoulli(0.5));
    case 2: {
      if (rng.bernoulli(0.2)) {
        return JsonValue(rng.bernoulli(0.5)
                             ? std::numeric_limits<std::int64_t>::max()
                             : std::numeric_limits<std::int64_t>::min());
      }
      return JsonValue(rng.uniform_int(-1000000, 1000000));
    }
    case 3: return JsonValue(gen_double(rng));
    case 4: return JsonValue(gen_string(rng, size));
    case 5: {
      JsonArray arr;
      const std::int64_t n = rng.uniform_int(0, 1 + size / 2);
      for (std::int64_t i = 0; i < n; ++i) {
        arr.push_back(gen_value(rng, size, depth - 1));
      }
      return JsonValue(std::move(arr));
    }
    default: {
      JsonObject obj;
      const std::int64_t n = rng.uniform_int(0, 1 + size / 2);
      for (std::int64_t i = 0; i < n; ++i) {
        obj[gen_string(rng, size)] = gen_value(rng, size, depth - 1);
      }
      return JsonValue(std::move(obj));
    }
  }
}

TEST(PropJson, RandomDocumentsRoundTrip) {
  proptest::gtest_check([](Rng& rng, int size) -> proptest::Result {
    const JsonValue doc = gen_value(rng, size, 2 + size / 2);
    const std::string text = util::write_canonical(doc);
    std::string error;
    const auto parsed = util::parse_json(text, error);
    if (!parsed) return proptest::fail("canonical text rejected: ", error);
    if (!(*parsed == doc)) {
      return proptest::fail("round trip changed the document:\n", text,
                            "read back as\n", util::write_canonical(*parsed));
    }
    if (util::write_canonical(*parsed) != text) {
      return proptest::fail("canonical text is not a fixed point:\n", text);
    }
    return proptest::pass();
  });
}

using test_support::join;
using test_support::json_files;

TEST(PropJson, ZooFilesAreEmitParseFixedPoints) {
  const std::vector<std::string> zoo = json_files(DRIFT_MODEL_ZOO_DIR);
  ASSERT_EQ(zoo.size(), 5u);
  for (const std::string& path : zoo) {
    const std::string text = test_support::read_file_or_empty(path);
    const auto parsed = graph::parse_topology(text);
    ASSERT_TRUE(parsed.ok()) << path << ": " << join(parsed.errors);
    EXPECT_EQ(graph::to_topology_json(parsed.graph), text) << path;

    // The same document in the reader's own layout (keys sorted, one
    // value per line) describes the same graph.
    std::string error;
    const auto doc = util::parse_json(text, error);
    ASSERT_TRUE(doc.has_value()) << path << ": " << error;
    const auto relaid = graph::parse_topology(util::write_canonical(*doc));
    ASSERT_TRUE(relaid.ok()) << path << ": " << join(relaid.errors);
    EXPECT_EQ(graph::to_topology_json(relaid.graph), text) << path;
  }
}

/// Checks that `error` is "line L, col C: <what>" with (L, C) naming a
/// byte of `text` or the position just past its end.
proptest::Result check_located(const std::string& text,
                               const std::string& error) {
  std::size_t line = 0, col = 0;
  int consumed = 0;
  if (std::sscanf(error.c_str(), "line %zu, col %zu: %n", &line, &col,
                  &consumed) != 2 ||
      consumed == 0 || error.rfind("line ", 0) != 0) {
    return proptest::fail("unlocated error '", error, "'");
  }
  std::size_t offset = 0;
  for (std::size_t l = 1; l < line; ++l) {
    offset = text.find('\n', offset);
    if (offset == std::string::npos) {
      return proptest::fail("error line past the text: '", error, "'");
    }
    ++offset;
  }
  if (col < 1 || offset + col - 1 > text.size()) {
    return proptest::fail("error column past the text: '", error, "'");
  }
  return proptest::pass();
}

TEST(PropJson, MutatedArtifactsNeverCrashAndRejectionsAreLocated) {
  std::vector<std::string> paths = json_files(DRIFT_MODEL_ZOO_DIR);
  const std::size_t zoo_count = paths.size();
  for (const std::string& p : json_files(DRIFT_REPORT_FIXTURE_DIR)) {
    paths.push_back(p);
  }
  ASSERT_GT(zoo_count, 0u);
  ASSERT_GT(paths.size(), zoo_count);
  std::vector<std::string> corpus;
  for (const std::string& p : paths) {
    corpus.push_back(test_support::read_file_or_empty(p));
  }

  proptest::gtest_check([&](Rng& rng, int size) -> proptest::Result {
    const std::size_t pick = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(corpus.size()) - 1));
    std::string text = corpus[pick];
    if (text.empty() || rng.bernoulli(0.3)) {
      text.resize(static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(text.size()))));
    }
    static const char kStructural[] = "[]{}\",:\\-.e0 \n";
    const std::int64_t flips = text.empty() ? 0 : rng.uniform_int(0, size);
    for (std::int64_t i = 0; i < flips; ++i) {
      const auto at = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(text.size()) - 1));
      text[at] = rng.bernoulli(0.5)
                     ? kStructural[rng.uniform_int(0, sizeof kStructural - 2)]
                     : static_cast<char>(rng.uniform_int(0, 255));
    }

    std::string error;
    const auto doc = util::parse_json(text, error);
    if (!doc) {
      if (auto bad = check_located(text, error)) {
        return proptest::fail(paths[pick], ": ", *bad);
      }
    } else {
      // An integral double ("2.0") reads back as an int, so the first
      // canonical text is the fixed point, not the mutant's document.
      const std::string canonical = util::write_canonical(*doc);
      std::string reread_error;
      const auto reread = util::parse_json(canonical, reread_error);
      if (!reread || util::write_canonical(*reread) != canonical) {
        return proptest::fail(paths[pick],
                              ": accepted mutant's canonical text is not a "
                              "fixed point: ", reread_error, "\n", canonical);
      }
    }

    if (pick < zoo_count) {
      // The topology loader reports the reader's error verbatim, and a
      // graph it accepts emits to a fixed point.
      const auto parsed = graph::parse_topology(text);
      if (!doc) {
        if (parsed.errors != std::vector<std::string>{error}) {
          return proptest::fail(paths[pick], ": topology errors differ "
                                "from the reader's: ", join(parsed.errors));
        }
      } else if (parsed.ok()) {
        const std::string emitted = graph::to_topology_json(parsed.graph);
        const auto again = graph::parse_topology(emitted);
        if (!again.ok() || graph::to_topology_json(again.graph) != emitted) {
          return proptest::fail(paths[pick],
                                ": accepted mutant's emit is not a fixed "
                                "point:\n", emitted);
        }
      }
    }
    return proptest::pass();
  });
}

}  // namespace
}  // namespace drift
