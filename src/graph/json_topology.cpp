#include "graph/json_topology.hpp"

#include <utility>

#include "util/json.hpp"

namespace drift::graph {

namespace {

using util::JsonValue;

// ---------------------------------------------------------------------
// Document -> Graph conversion with schema errors.
// ---------------------------------------------------------------------

void convert_attrs(const JsonValue& attrs, Node& node,
                   std::vector<std::string>& errors) {
  for (const auto& [key, value] : attrs.as_object()) {
    switch (value.kind()) {
      case JsonValue::Kind::kInt:
        node.attrs[key] = Attr::of_int(value.as_int());
        break;
      case JsonValue::Kind::kDouble:
        node.attrs[key] = Attr::of_double(value.as_double());
        break;
      case JsonValue::Kind::kString:
        node.attrs[key] = Attr::of_string(value.as_string());
        break;
      default:
        errors.push_back("node '" + node.name + "': attribute '" + key +
                         "' must be a number or string");
        break;
    }
  }
}

void convert_graph(const JsonValue& doc, TopologyParseResult& result) {
  if (!doc.is_object()) {
    result.errors.push_back("topology document must be a JSON object");
    return;
  }
  const auto string_field = [&](const char* key, std::string& out,
                                bool required) {
    const JsonValue* v = doc.get(key);
    if (v == nullptr) {
      if (required) {
        result.errors.push_back(std::string("missing field '") + key + "'");
      }
      return;
    }
    if (!v->is_string()) {
      result.errors.push_back(std::string("field '") + key +
                              "' must be a string");
      return;
    }
    out = v->as_string();
  };
  string_field("name", result.graph.name, /*required=*/true);
  string_field("family", result.graph.family, /*required=*/false);

  if (const JsonValue* inputs = doc.get("inputs")) {
    if (!inputs->is_array()) {
      result.errors.push_back("field 'inputs' must be an array");
    } else {
      for (const JsonValue& item : inputs->as_array()) {
        GraphInput in;
        const JsonValue* name = item.get("name");
        const JsonValue* shape = item.get("shape");
        if (name == nullptr || !name->is_string() || shape == nullptr ||
            !shape->is_array()) {
          result.errors.push_back(
              "each input must be {\"name\": ..., \"shape\": [...]}");
          continue;
        }
        in.name = name->as_string();
        for (const JsonValue& dim : shape->as_array()) {
          if (dim.kind() != JsonValue::Kind::kInt) {
            result.errors.push_back("node '" + in.name +
                                    "': shape entries must be integers");
            break;
          }
          in.dims.push_back(dim.as_int());
        }
        result.graph.inputs.push_back(std::move(in));
      }
    }
  } else {
    result.errors.push_back("missing field 'inputs'");
  }

  if (const JsonValue* nodes = doc.get("nodes")) {
    if (!nodes->is_array()) {
      result.errors.push_back("field 'nodes' must be an array");
    } else {
      for (const JsonValue& item : nodes->as_array()) {
        Node node;
        const JsonValue* name = item.get("name");
        const JsonValue* op = item.get("op");
        if (name == nullptr || !name->is_string() || op == nullptr ||
            !op->is_string()) {
          result.errors.push_back(
              "each node must carry string fields 'name' and 'op'");
          continue;
        }
        node.name = name->as_string();
        node.op = op->as_string();
        if (const JsonValue* node_inputs = item.get("inputs")) {
          if (!node_inputs->is_array()) {
            result.errors.push_back("node '" + node.name +
                                    "': 'inputs' must be an array");
          } else {
            for (const JsonValue& in_name : node_inputs->as_array()) {
              if (!in_name.is_string()) {
                result.errors.push_back("node '" + node.name +
                                        "': inputs must be strings");
                break;
              }
              node.inputs.push_back(in_name.as_string());
            }
          }
        }
        if (const JsonValue* attrs = item.get("attrs")) {
          if (!attrs->is_object()) {
            result.errors.push_back("node '" + node.name +
                                    "': 'attrs' must be an object");
          } else {
            convert_attrs(*attrs, node, result.errors);
          }
        }
        result.graph.nodes.push_back(std::move(node));
      }
    }
  } else {
    result.errors.push_back("missing field 'nodes'");
  }

  if (const JsonValue* outputs = doc.get("outputs")) {
    if (!outputs->is_array()) {
      result.errors.push_back("field 'outputs' must be an array");
    } else {
      for (const JsonValue& out_name : outputs->as_array()) {
        if (!out_name.is_string()) {
          result.errors.push_back("outputs must be strings");
          break;
        }
        result.graph.outputs.push_back(out_name.as_string());
      }
    }
  } else {
    result.errors.push_back("missing field 'outputs'");
  }
}

// ---------------------------------------------------------------------
// Canonical emission: the committed zoo files' byte layout (one input
// or node per line), with strings and doubles rendered by util/json.
// ---------------------------------------------------------------------

std::string quoted(const std::string& s) {
  std::string out;
  util::append_json_string(out, s);
  return out;
}

/// format_double plus a ".0" on integral values, so doubles stay
/// visibly doubles and parse(emit(g)) preserves the attribute's tag.
std::string double_to_string(double v) {
  std::string out = util::format_double(v);
  if (out.find('.') == std::string::npos &&
      out.find('e') == std::string::npos) {
    out += ".0";
  }
  return out;
}

std::string attr_to_string(const Attr& attr) {
  switch (attr.kind) {
    case Attr::Kind::kInt: return std::to_string(attr.i);
    case Attr::Kind::kDouble: return double_to_string(attr.d);
    case Attr::Kind::kString: return quoted(attr.s);
  }
  return "null";
}

std::string dims_json(const std::vector<std::int64_t>& dims) {
  std::string out = "[";
  for (std::size_t i = 0; i < dims.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(dims[i]);
  }
  out += "]";
  return out;
}

std::string names_json(const std::vector<std::string>& names) {
  std::string out = "[";
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (i > 0) out += ", ";
    out += quoted(names[i]);
  }
  out += "]";
  return out;
}

}  // namespace

TopologyParseResult parse_topology(const std::string& text) {
  TopologyParseResult result;
  std::string error;
  const auto doc = util::parse_json(text, error);
  if (!doc) {
    result.errors.push_back(error);
    return result;
  }
  convert_graph(*doc, result);
  return result;
}

std::string to_topology_json(const Graph& g) {
  std::string out;
  out += "{\n";
  out += "  \"name\": " + quoted(g.name) + ",\n";
  out += "  \"family\": " + quoted(g.family) + ",\n";
  out += "  \"inputs\": [\n";
  for (std::size_t i = 0; i < g.inputs.size(); ++i) {
    out += "    {\"name\": " + quoted(g.inputs[i].name) +
           ", \"shape\": " + dims_json(g.inputs[i].dims) + "}";
    out += i + 1 < g.inputs.size() ? ",\n" : "\n";
  }
  out += "  ],\n";
  out += "  \"nodes\": [\n";
  for (std::size_t i = 0; i < g.nodes.size(); ++i) {
    const Node& node = g.nodes[i];
    out += "    {\"name\": " + quoted(node.name) + ", \"op\": " +
           quoted(node.op) + ", \"inputs\": " + names_json(node.inputs);
    if (!node.attrs.empty()) {
      out += ", \"attrs\": {";
      bool first = true;
      for (const auto& [key, attr] : node.attrs) {
        if (!first) out += ", ";
        first = false;
        out += quoted(key) + ": " + attr_to_string(attr);
      }
      out += "}";
    }
    out += "}";
    out += i + 1 < g.nodes.size() ? ",\n" : "\n";
  }
  out += "  ],\n";
  out += "  \"outputs\": " + names_json(g.outputs) + "\n";
  out += "}\n";
  return out;
}

}  // namespace drift::graph
