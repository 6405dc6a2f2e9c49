#include "analysis.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <limits>

namespace drift::report {

using util::JsonArray;
using util::JsonObject;
using util::JsonValue;
using util::format_double;

namespace {

constexpr const char* kQuadrantNames[4] = {"hh", "hl", "lh", "ll"};

double num_or(const JsonValue* v, double fallback) {
  return v != nullptr && v->is_number() ? v->as_double() : fallback;
}

std::int64_t int_or(const JsonValue* v, std::int64_t fallback) {
  return v != nullptr && v->is_number() ? v->as_int() : fallback;
}

/// Counter lookup: metrics["counters"][name], 0 when absent.
std::int64_t counter(const JsonValue& metrics, const char* name) {
  return int_or(metrics.get_path({"counters", name}), 0);
}

std::string fixed(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", digits, v);
  return buf;
}

// -------------------------------------------------------------------
// summarize
// -------------------------------------------------------------------

JsonValue stall_attribution(const JsonArray& layers) {
  std::int64_t total_stalls = 0;
  for (const JsonValue& layer : layers) {
    total_stalls += int_or(layer.get("stall_cycles"), 0);
  }
  JsonArray rows;
  for (const JsonValue& layer : layers) {
    const std::int64_t stalls = int_or(layer.get("stall_cycles"), 0);
    const std::int64_t compute = int_or(layer.get("compute_cycles"), 0);
    JsonObject row;
    const JsonValue* name = layer.get("layer");
    row["layer"] = JsonValue(name != nullptr ? name->as_string() : "?");
    row["compute_cycles"] = JsonValue(compute);
    row["stall_cycles"] = JsonValue(stalls);
    const std::int64_t busy = compute + stalls;
    row["stall_fraction"] = JsonValue(
        busy > 0 ? static_cast<double>(stalls) / static_cast<double>(busy)
                 : 0.0);
    row["share_of_total_stalls"] = JsonValue(
        total_stalls > 0
            ? static_cast<double>(stalls) / static_cast<double>(total_stalls)
            : 0.0);
    rows.push_back(JsonValue(std::move(row)));
  }
  return JsonValue(std::move(rows));
}

JsonValue quadrant_breakdown(const JsonArray& layers) {
  // Eq. 7 evaluates per (activation, weight) precision class; the
  // scheduler records the four class latencies as hh/hl/lh/ll.
  std::array<std::int64_t, 4> totals{};
  JsonArray per_layer;
  for (const JsonValue& layer : layers) {
    const JsonValue* lat = layer.get("sched_latency");
    if (lat == nullptr || !lat->is_array() || lat->as_array().size() != 4) {
      continue;
    }
    JsonObject latencies;
    std::int64_t sum = 0, peak = 0;
    for (int q = 0; q < 4; ++q) {
      const std::int64_t v =
          lat->as_array()[static_cast<std::size_t>(q)].as_int();
      totals[static_cast<std::size_t>(q)] += v;
      latencies[kQuadrantNames[q]] = JsonValue(v);
      sum += v;
      peak = std::max(peak, v);
    }
    JsonObject row;
    const JsonValue* name = layer.get("layer");
    row["layer"] = JsonValue(name != nullptr ? name->as_string() : "?");
    row["latency"] = JsonValue(std::move(latencies));
    row["makespan"] = JsonValue(int_or(layer.get("sched_makespan"), peak));
    // How lopsided the four class queues are: max over mean.  1.0 is a
    // perfectly balanced schedule; 4.0 means one class does all work.
    row["imbalance"] = JsonValue(
        sum > 0 ? static_cast<double>(4 * peak) / static_cast<double>(sum)
                : 1.0);
    per_layer.push_back(JsonValue(std::move(row)));
  }
  if (per_layer.empty()) return JsonValue();

  std::int64_t grand = 0;
  for (const std::int64_t v : totals) grand += v;
  JsonObject total_obj, fraction_obj;
  for (int q = 0; q < 4; ++q) {
    const std::int64_t v = totals[static_cast<std::size_t>(q)];
    total_obj[kQuadrantNames[q]] = JsonValue(v);
    fraction_obj[kQuadrantNames[q]] = JsonValue(
        grand > 0 ? static_cast<double>(v) / static_cast<double>(grand)
                  : 0.0);
  }
  JsonObject out;
  out["totals"] = JsonValue(std::move(total_obj));
  out["fractions"] = JsonValue(std::move(fraction_obj));
  out["per_layer"] = JsonValue(std::move(per_layer));
  return JsonValue(std::move(out));
}

JsonValue coverage_distribution(const JsonValue& metrics,
                                const JsonArray& layers) {
  JsonArray per_layer;
  double min_cov = 1.0, max_cov = 0.0, sum_cov = 0.0;
  for (const JsonValue& layer : layers) {
    const double cov = num_or(layer.get("coverage"), 0.0);
    JsonObject row;
    const JsonValue* name = layer.get("layer");
    row["layer"] = JsonValue(name != nullptr ? name->as_string() : "?");
    row["coverage"] = JsonValue(cov);
    row["elements_low"] = JsonValue(int_or(layer.get("elements_low"), 0));
    row["elements_total"] = JsonValue(int_or(layer.get("elements_total"), 0));
    per_layer.push_back(JsonValue(std::move(row)));
    min_cov = std::min(min_cov, cov);
    max_cov = std::max(max_cov, cov);
    sum_cov += cov;
  }
  const std::int64_t elements_low = counter(metrics, "selector.elements_low");
  const std::int64_t elements_total =
      counter(metrics, "selector.elements_total");
  if (per_layer.empty() && elements_total == 0) return JsonValue();

  JsonObject out;
  out["elements_low"] = JsonValue(elements_low);
  out["elements_total"] = JsonValue(elements_total);
  out["element_coverage"] = JsonValue(
      elements_total > 0 ? static_cast<double>(elements_low) /
                               static_cast<double>(elements_total)
                         : 0.0);
  if (!per_layer.empty()) {
    out["layer_min"] = JsonValue(min_cov);
    out["layer_mean"] =
        JsonValue(sum_cov / static_cast<double>(per_layer.size()));
    out["layer_max"] = JsonValue(max_cov);
    out["per_layer"] = JsonValue(std::move(per_layer));
  }
  return JsonValue(std::move(out));
}

JsonValue roofline(const JsonValue& metrics, const SummarizeOptions& options) {
  const std::int64_t dram = counter(metrics, "traffic.dram_bytes");
  const std::int64_t cycles = counter(metrics, "sim.cycles");
  if (cycles == 0) return JsonValue();
  const double bpc = static_cast<double>(dram) / static_cast<double>(cycles);
  JsonObject out;
  out["dram_bytes"] = JsonValue(dram);
  out["cycles"] = JsonValue(cycles);
  out["bytes_per_cycle"] = JsonValue(bpc);
  out["peak_bytes_per_cycle"] = JsonValue(options.peak_bytes_per_cycle);
  out["bandwidth_utilization"] = JsonValue(
      options.peak_bytes_per_cycle > 0 ? bpc / options.peak_bytes_per_cycle
                                       : 0.0);
  // Above ~1.0 the run is bandwidth-bound: the modeled DRAM could not
  // actually sustain the simulated traffic and stalls would grow.
  return JsonValue(std::move(out));
}

JsonValue histogram_summaries(const JsonValue& metrics) {
  const JsonValue* histograms = metrics.get("histograms");
  if (histograms == nullptr || !histograms->is_object()) return JsonValue();
  JsonObject out;
  for (const auto& [name, h] : histograms->as_object()) {
    const std::int64_t total = int_or(h.get("total"), 0);
    if (total == 0) continue;
    JsonObject row;
    row["total"] = JsonValue(total);
    row["min"] = JsonValue(int_or(h.get("min"), 0));
    row["max"] = JsonValue(int_or(h.get("max"), 0));
    if (const JsonValue* q = h.get("quantiles"); q != nullptr) {
      row["quantiles"] = *q;
    }
    if (const JsonValue* exact = h.get("exact"); exact != nullptr) {
      row["exact"] = *exact;
    }
    out[name] = JsonValue(std::move(row));
  }
  if (out.empty()) return JsonValue();
  return JsonValue(std::move(out));
}

/// Pulls {p50, p99, p99.9, max} out of one obs histogram object.
JsonValue latency_quantiles(const JsonValue& hist) {
  JsonObject out;
  const JsonValue* q = hist.get("quantiles");
  out["p50"] = JsonValue(q != nullptr ? num_or(q->get("p50"), 0.0) : 0.0);
  out["p99"] = JsonValue(q != nullptr ? num_or(q->get("p99"), 0.0) : 0.0);
  out["p99.9"] =
      JsonValue(q != nullptr ? num_or(q->get("p99.9"), 0.0) : 0.0);
  out["max"] = JsonValue(int_or(hist.get("max"), 0));
  return JsonValue(std::move(out));
}

/// Per-request serving section: SLO quantiles, batching efficiency and
/// energy per request, scraped from the serve.* metrics the simulator
/// records (src/serve/simulator.cpp).  Null when the artifact holds no
/// serving run.
JsonValue serving_summary(const JsonValue& metrics) {
  const std::int64_t requests = counter(metrics, "serve.requests");
  if (requests == 0) return JsonValue();
  const std::int64_t batches = counter(metrics, "serve.batches");
  JsonObject out;
  out["requests"] = JsonValue(requests);
  out["arrivals"] = JsonValue(counter(metrics, "serve.arrivals"));
  out["batches"] = JsonValue(batches);
  out["mean_batch_size"] = JsonValue(
      batches > 0
          ? static_cast<double>(requests) / static_cast<double>(batches)
          : 0.0);
  out["utilization"] =
      JsonValue(num_or(metrics.get_path({"gauges", "serve.utilization"}), 0.0));
  out["energy_per_request_pj"] =
      JsonValue(static_cast<double>(counter(metrics, "serve.energy_pj")) /
                static_cast<double>(requests));

  const JsonValue* hists = metrics.get("histograms");
  if (hists != nullptr && hists->is_object()) {
    static constexpr const char* kSloHists[][2] = {
        {"serve.latency_cycles", "latency_cycles"},
        {"serve.wait_cycles", "wait_cycles"},
        {"serve.service_cycles", "service_cycles"}};
    for (const auto& [metric, key] : kSloHists) {
      if (const JsonValue* h = hists->get(metric); h != nullptr) {
        out[key] = latency_quantiles(*h);
      }
    }
    // Per-tenant latency histograms: serve.latency_cycles.<tenant>.
    const std::string prefix = "serve.latency_cycles.";
    JsonArray tenants;
    for (const auto& [name, h] : hists->as_object()) {
      if (name.rfind(prefix, 0) != 0) continue;
      JsonObject row;
      row["tenant"] = JsonValue(name.substr(prefix.size()));
      row["requests"] = JsonValue(int_or(h.get("total"), 0));
      row["latency_cycles"] = latency_quantiles(h);
      tenants.push_back(JsonValue(std::move(row)));
    }
    if (!tenants.empty()) out["per_tenant"] = JsonValue(std::move(tenants));
  }
  return JsonValue(std::move(out));
}

JsonValue trace_summary(const JsonValue& trace) {
  const JsonValue* events = trace.get("traceEvents");
  if (events == nullptr || !events->is_array()) return JsonValue();
  struct NameStats {
    std::int64_t count = 0;
    std::int64_t total_us = 0;
  };
  std::map<std::string, NameStats> by_name;
  std::int64_t spans = 0, ts_min = 0, ts_max = 0;
  bool any = false;
  for (const JsonValue& e : events->as_array()) {
    const JsonValue* ph = e.get("ph");
    if (ph == nullptr || !ph->is_string() || ph->as_string() != "X") continue;
    const std::int64_t ts = int_or(e.get("ts"), 0);
    const std::int64_t dur = int_or(e.get("dur"), 0);
    const JsonValue* name = e.get("name");
    NameStats& stats = by_name[name != nullptr ? name->as_string() : "?"];
    ++stats.count;
    stats.total_us += dur;
    ++spans;
    if (!any) {
      ts_min = ts;
      ts_max = ts + dur;
      any = true;
    } else {
      ts_min = std::min(ts_min, ts);
      ts_max = std::max(ts_max, ts + dur);
    }
  }
  if (!any) return JsonValue();
  JsonObject out;
  out["spans"] = JsonValue(spans);
  out["wall_us"] = JsonValue(ts_max - ts_min);
  JsonArray rows;
  for (const auto& [name, stats] : by_name) {
    JsonObject row;
    row["name"] = JsonValue(name);
    row["count"] = JsonValue(stats.count);
    row["total_us"] = JsonValue(stats.total_us);
    rows.push_back(JsonValue(std::move(row)));
  }
  // Heaviest first; ties stay in name order from the map walk.
  std::stable_sort(rows.begin(), rows.end(),
                   [](const JsonValue& a, const JsonValue& b) {
                     return int_or(a.get("total_us"), 0) >
                            int_or(b.get("total_us"), 0);
                   });
  if (rows.size() > 10) rows.resize(10);
  out["by_name"] = JsonValue(std::move(rows));
  return JsonValue(std::move(out));
}

// -------------------------------------------------------------------
// diff
// -------------------------------------------------------------------

/// One leaf of a flattened artifact: numeric or string.
struct Leaf {
  bool numeric = false;
  double number = 0.0;
  std::string text;
};

std::string render_leaf(const Leaf& leaf) {
  return leaf.numeric ? format_double(leaf.number) : leaf.text;
}

void flatten(const JsonValue& v, const std::string& path,
             std::map<std::string, Leaf>& out) {
  switch (v.kind()) {
    case JsonValue::Kind::kNull:
      break;
    case JsonValue::Kind::kBool:
      out[path] = {false, 0.0, v.as_bool() ? "true" : "false"};
      break;
    case JsonValue::Kind::kInt:
    case JsonValue::Kind::kDouble:
      out[path] = {true, v.as_double(), ""};
      break;
    case JsonValue::Kind::kString:
      out[path] = {false, 0.0, v.as_string()};
      break;
    case JsonValue::Kind::kArray: {
      const JsonArray& arr = v.as_array();
      // The layers array is keyed by layer name so two runs line up
      // even if layer order ever changed; other arrays key by index.
      for (std::size_t i = 0; i < arr.size(); ++i) {
        std::string key;
        if (const JsonValue* name = arr[i].get("layer");
            name != nullptr && name->is_string()) {
          key = path + "." + name->as_string();
        } else {
          key = path + "[" + std::to_string(i) + "]";
        }
        flatten(arr[i], key, out);
      }
      break;
    }
    case JsonValue::Kind::kObject:
      for (const auto& [key, value] : v.as_object()) {
        flatten(value, path.empty() ? key : path + "." + key, out);
      }
      break;
  }
}

struct ToleranceRule {
  std::string prefix;    ///< empty = no prefix constraint
  std::string contains;  ///< empty = no substring constraint
  bool ignore = false;
  double rel_tol = 0.0;
  double abs_tol = 0.0;

  bool matches(const std::string& path) const {
    if (!prefix.empty() && path.rfind(prefix, 0) != 0) return false;
    if (!contains.empty() && path.find(contains) == std::string::npos) {
      return false;
    }
    return true;
  }
};

bool parse_tolerances(const JsonValue* doc, std::vector<ToleranceRule>& rules,
                      double& default_rel_tol, std::string& error) {
  default_rel_tol = 0.0;
  if (doc != nullptr) {
    if (!doc->is_object()) {
      error = "tolerance file must be a JSON object";
      return false;
    }
    default_rel_tol = num_or(doc->get("default_rel_tol"), 0.0);
    if (const JsonValue* list = doc->get("rules"); list != nullptr) {
      if (!list->is_array()) {
        error = "tolerance 'rules' must be an array";
        return false;
      }
      for (const JsonValue& r : list->as_array()) {
        if (!r.is_object()) {
          error = "each tolerance rule must be an object";
          return false;
        }
        ToleranceRule rule;
        if (const JsonValue* p = r.get("prefix"); p != nullptr) {
          rule.prefix = p->as_string();
        }
        if (const JsonValue* c = r.get("contains"); c != nullptr) {
          rule.contains = c->as_string();
        }
        if (rule.prefix.empty() && rule.contains.empty()) {
          error = "tolerance rule needs a 'prefix' or 'contains' matcher";
          return false;
        }
        if (const JsonValue* ig = r.get("ignore");
            ig != nullptr && ig->kind() == JsonValue::Kind::kBool) {
          rule.ignore = ig->as_bool();
        }
        rule.rel_tol = num_or(r.get("rel_tol"), 0.0);
        rule.abs_tol = num_or(r.get("abs_tol"), 0.0);
        rules.push_back(std::move(rule));
      }
    }
  }
  // Built-in noise rules run after user rules so a tolerance file can
  // still opt into comparing these paths with an earlier match.
  rules.push_back({"meta.", "", true, 0.0, 0.0});
  rules.push_back({"", "_us", true, 0.0, 0.0});
  return true;
}

// -------------------------------------------------------------------
// ratchet
// -------------------------------------------------------------------

std::map<std::string, double> kernel_ops(const JsonValue& bench) {
  std::map<std::string, double> out;
  const JsonValue* kernels = bench.get("kernels");
  if (kernels == nullptr || !kernels->is_array()) return out;
  for (const JsonValue& k : kernels->as_array()) {
    const JsonValue* name = k.get("name");
    const JsonValue* shape = k.get("shape");
    const JsonValue* backend = k.get("backend");
    std::string key = (name != nullptr ? name->as_string() : "?") + "|" +
                      (shape != nullptr ? shape->as_string() : "?") + "|" +
                      std::to_string(int_or(k.get("threads"), 0)) + "|" +
                      (backend != nullptr ? backend->as_string() : "?");
    out[std::move(key)] = num_or(k.get("ops_per_s"), 0.0);
  }
  return out;
}

}  // namespace

JsonValue summarize(const JsonValue& metrics, const JsonValue* trace,
                    const SummarizeOptions& options) {
  JsonObject report;
  report["schema_version"] =
      JsonValue(int_or(metrics.get("schema_version"), 1));
  if (const JsonValue* meta = metrics.get("meta"); meta != nullptr) {
    report["meta"] = *meta;
  }

  JsonObject totals;
  static constexpr const char* kTotalCounters[] = {
      "sim.cycles", "sim.stall_cycles", "sim.gemms", "sim.tiles",
      "traffic.dram_bytes", "timeline.total_cycles", "scheduler.decisions"};
  for (const char* name : kTotalCounters) {
    if (const std::int64_t v = counter(metrics, name); v != 0) {
      totals[name] = JsonValue(v);
    }
  }
  if (!totals.empty()) report["totals"] = JsonValue(std::move(totals));

  static const JsonArray kNoLayers;
  const JsonValue* layers_v = metrics.get("layers");
  const JsonArray& layers =
      layers_v != nullptr && layers_v->is_array() ? layers_v->as_array()
                                                  : kNoLayers;
  if (!layers.empty()) {
    report["stall_attribution"] = stall_attribution(layers);
  }
  if (JsonValue q = quadrant_breakdown(layers); !q.is_null()) {
    report["quadrants"] = std::move(q);
  }
  if (JsonValue c = coverage_distribution(metrics, layers); !c.is_null()) {
    report["coverage"] = std::move(c);
  }
  if (JsonValue r = roofline(metrics, options); !r.is_null()) {
    report["roofline"] = std::move(r);
  }
  if (JsonValue h = histogram_summaries(metrics); !h.is_null()) {
    report["histograms"] = std::move(h);
  }
  if (JsonValue s = serving_summary(metrics); !s.is_null()) {
    report["serving"] = std::move(s);
  }
  if (const JsonValue* sweep = metrics.get("serving_sweep");
      sweep != nullptr && sweep->is_array() && !sweep->as_array().empty()) {
    report["serving_sweep"] = *sweep;
  }
  if (trace != nullptr) {
    if (JsonValue t = trace_summary(*trace); !t.is_null()) {
      report["trace"] = std::move(t);
    }
  }
  return JsonValue(std::move(report));
}

std::string summary_text(const JsonValue& report) {
  std::string out;
  out += "== drift_report summary ==\n";
  if (const JsonValue* meta = report.get("meta");
      meta != nullptr && meta->is_object() && !meta->as_object().empty()) {
    out += "meta:";
    for (const auto& [key, value] : meta->as_object()) {
      out += " " + key + "=" +
             (value.is_string() ? value.as_string() : render_leaf({true, value.as_double(), ""}));
    }
    out += "\n";
  }
  const JsonValue* totals = report.get("totals");
  if (totals != nullptr && totals->is_object()) {
    out += "\n-- totals --\n";
    for (const auto& [key, value] : totals->as_object()) {
      out += "  " + key + " = " + std::to_string(value.as_int()) + "\n";
    }
  }
  if (const JsonValue* rows = report.get("stall_attribution");
      rows != nullptr && rows->is_array() && !rows->as_array().empty()) {
    out += "\n-- stall attribution --\n";
    out += "  layer              compute     stalls  stall%  share%\n";
    for (const JsonValue& row : rows->as_array()) {
      char line[160];
      std::snprintf(line, sizeof line, "  %-16s %10lld %10lld  %5.1f%%  %5.1f%%\n",
                    row.get("layer")->as_string().c_str(),
                    static_cast<long long>(int_or(row.get("compute_cycles"), 0)),
                    static_cast<long long>(int_or(row.get("stall_cycles"), 0)),
                    100.0 * num_or(row.get("stall_fraction"), 0.0),
                    100.0 * num_or(row.get("share_of_total_stalls"), 0.0));
      out += line;
    }
  }
  if (const JsonValue* quad = report.get("quadrants");
      quad != nullptr && quad->is_object()) {
    out += "\n-- Eq. 7 quadrant latency (hh/hl/lh/ll) --\n";
    const JsonValue* t = quad->get("totals");
    const JsonValue* f = quad->get("fractions");
    if (t != nullptr && f != nullptr) {
      for (const char* q : kQuadrantNames) {
        out += "  " + std::string(q) + " = " +
               std::to_string(int_or(t->get(q), 0)) + " cycles (" +
               fixed(100.0 * num_or(f->get(q), 0.0), 1) + "%)\n";
      }
    }
    if (const JsonValue* rows = quad->get("per_layer");
        rows != nullptr && rows->is_array()) {
      out += "  layer              makespan  imbalance\n";
      for (const JsonValue& row : rows->as_array()) {
        char line[160];
        std::snprintf(line, sizeof line, "  %-16s %9lld      %.3f\n",
                      row.get("layer")->as_string().c_str(),
                      static_cast<long long>(int_or(row.get("makespan"), 0)),
                      num_or(row.get("imbalance"), 0.0));
        out += line;
      }
    }
  }
  if (const JsonValue* cov = report.get("coverage");
      cov != nullptr && cov->is_object()) {
    out += "\n-- selector coverage --\n";
    out += "  elements low/total = " +
           std::to_string(int_or(cov->get("elements_low"), 0)) + "/" +
           std::to_string(int_or(cov->get("elements_total"), 0)) + " (" +
           fixed(100.0 * num_or(cov->get("element_coverage"), 0.0), 1) +
           "%)\n";
    if (cov->get("layer_mean") != nullptr) {
      out += "  per-layer coverage min/mean/max = " +
             fixed(num_or(cov->get("layer_min"), 0.0), 4) + " / " +
             fixed(num_or(cov->get("layer_mean"), 0.0), 4) + " / " +
             fixed(num_or(cov->get("layer_max"), 0.0), 4) + "\n";
    }
  }
  if (const JsonValue* roof = report.get("roofline");
      roof != nullptr && roof->is_object()) {
    out += "\n-- roofline --\n";
    out += "  DRAM bytes/cycle = " +
           fixed(num_or(roof->get("bytes_per_cycle"), 0.0), 4) + " (peak " +
           fixed(num_or(roof->get("peak_bytes_per_cycle"), 0.0), 1) + ", " +
           fixed(100.0 * num_or(roof->get("bandwidth_utilization"), 0.0), 1) +
           "% of peak)\n";
  }
  if (const JsonValue* hists = report.get("histograms");
      hists != nullptr && hists->is_object()) {
    out += "\n-- histogram quantiles --\n";
    out += "  name                           n      min      p50      p99      max\n";
    for (const auto& [name, h] : hists->as_object()) {
      const JsonValue* q = h.get("quantiles");
      char line[200];
      std::snprintf(
          line, sizeof line, "  %-28s %5lld %8lld %8.1f %8.1f %8lld%s\n",
          name.c_str(), static_cast<long long>(int_or(h.get("total"), 0)),
          static_cast<long long>(int_or(h.get("min"), 0)),
          q != nullptr ? num_or(q->get("p50"), 0.0) : 0.0,
          q != nullptr ? num_or(q->get("p99"), 0.0) : 0.0,
          static_cast<long long>(int_or(h.get("max"), 0)),
          h.get("exact") != nullptr && h.get("exact")->as_bool()
              ? ""
              : " (approx)");
      out += line;
    }
  }
  if (const JsonValue* serving = report.get("serving");
      serving != nullptr && serving->is_object()) {
    out += "\n-- serving (per-request SLO) --\n";
    char line[200];
    std::snprintf(line, sizeof line,
                  "  %lld requests in %lld batches (mean batch %.2f), "
                  "utilization %.1f%%\n",
                  static_cast<long long>(int_or(serving->get("requests"), 0)),
                  static_cast<long long>(int_or(serving->get("batches"), 0)),
                  num_or(serving->get("mean_batch_size"), 0.0),
                  100.0 * num_or(serving->get("utilization"), 0.0));
    out += line;
    std::snprintf(line, sizeof line, "  energy/request = %.1f pJ\n",
                  num_or(serving->get("energy_per_request_pj"), 0.0));
    out += line;
    static constexpr const char* kSloRows[][2] = {
        {"latency_cycles", "latency"},
        {"wait_cycles", "wait"},
        {"service_cycles", "service"}};
    for (const auto& [key, label] : kSloRows) {
      const JsonValue* q = serving->get(key);
      if (q == nullptr || !q->is_object()) continue;
      std::snprintf(line, sizeof line,
                    "  %-7s cycles p50/p99/p99.9/max = %.1f / %.1f / %.1f "
                    "/ %lld\n",
                    label, num_or(q->get("p50"), 0.0),
                    num_or(q->get("p99"), 0.0), num_or(q->get("p99.9"), 0.0),
                    static_cast<long long>(int_or(q->get("max"), 0)));
      out += line;
    }
    if (const JsonValue* tenants = serving->get("per_tenant");
        tenants != nullptr && tenants->is_array()) {
      out += "  tenant                 n      p50      p99    p99.9      max\n";
      for (const JsonValue& row : tenants->as_array()) {
        const JsonValue* q = row.get("latency_cycles");
        std::snprintf(
            line, sizeof line, "  %-18s %5lld %8.1f %8.1f %8.1f %8lld\n",
            row.get("tenant")->as_string().c_str(),
            static_cast<long long>(int_or(row.get("requests"), 0)),
            q != nullptr ? num_or(q->get("p50"), 0.0) : 0.0,
            q != nullptr ? num_or(q->get("p99"), 0.0) : 0.0,
            q != nullptr ? num_or(q->get("p99.9"), 0.0) : 0.0,
            q != nullptr ? static_cast<long long>(int_or(q->get("max"), 0))
                         : 0);
        out += line;
      }
    }
  }
  if (const JsonValue* sweep = report.get("serving_sweep");
      sweep != nullptr && sweep->is_array() && !sweep->as_array().empty()) {
    out += "\n-- serving sweep (load vs tail latency) --\n";
    out += "  design     load   p50_us   p99_us  p99.9_us  energy/req_uJ"
           "   util\n";
    for (const JsonValue& row : sweep->as_array()) {
      const JsonValue* design = row.get("design");
      char line[200];
      std::snprintf(line, sizeof line,
                    "  %-8s %6.2f %8.2f %8.2f %9.2f %14.4f %6.2f\n",
                    design != nullptr ? design->as_string().c_str() : "?",
                    num_or(row.get("load"), 0.0),
                    num_or(row.get("p50_us"), 0.0),
                    num_or(row.get("p99_us"), 0.0),
                    num_or(row.get("p999_us"), 0.0),
                    num_or(row.get("energy_per_request_uj"), 0.0),
                    num_or(row.get("utilization"), 0.0));
      out += line;
    }
  }
  if (const JsonValue* trace = report.get("trace");
      trace != nullptr && trace->is_object()) {
    out += "\n-- trace --\n";
    out += "  " + std::to_string(int_or(trace->get("spans"), 0)) +
           " spans over " + std::to_string(int_or(trace->get("wall_us"), 0)) +
           " us\n";
    if (const JsonValue* rows = trace->get("by_name");
        rows != nullptr && rows->is_array()) {
      for (const JsonValue& row : rows->as_array()) {
        char line[200];
        std::snprintf(line, sizeof line, "  %-28s x%-6lld %10lld us\n",
                      row.get("name")->as_string().c_str(),
                      static_cast<long long>(int_or(row.get("count"), 0)),
                      static_cast<long long>(int_or(row.get("total_us"), 0)));
        out += line;
      }
    }
  }
  if (report.get("totals") == nullptr && report.get("coverage") == nullptr &&
      report.get("histograms") == nullptr &&
      report.get("serving_sweep") == nullptr) {
    out += "(no run data in artifact — empty scrape, e.g. a "
           "DRIFT_OBS_OFF build)\n";
  }
  return out;
}

bool diff_runs(const JsonValue& a, const JsonValue& b,
               const JsonValue* tolerances, DiffResult& result,
               std::string& error) {
  std::vector<ToleranceRule> rules;
  double default_rel_tol = 0.0;
  if (!parse_tolerances(tolerances, rules, default_rel_tol, error)) {
    return false;
  }

  std::map<std::string, Leaf> flat_a, flat_b;
  flatten(a, "", flat_a);
  flatten(b, "", flat_b);

  const auto rule_for = [&rules](const std::string& path) -> const ToleranceRule* {
    for (const ToleranceRule& rule : rules) {
      if (rule.matches(path)) return &rule;
    }
    return nullptr;
  };

  // One pass over the union of paths, in sorted order.
  auto it_a = flat_a.begin();
  auto it_b = flat_b.begin();
  while (it_a != flat_a.end() || it_b != flat_b.end()) {
    const bool only_a =
        it_b == flat_b.end() ||
        (it_a != flat_a.end() && it_a->first < it_b->first);
    const bool only_b =
        it_a == flat_a.end() ||
        (it_b != flat_b.end() && it_b->first < it_a->first);
    const std::string& path =
        only_b ? it_b->first : it_a->first;
    const ToleranceRule* rule = rule_for(path);
    if (rule != nullptr && rule->ignore) {
      ++result.ignored;
      if (!only_b) ++it_a;
      if (!only_a) ++it_b;
      continue;
    }
    if (only_a || only_b) {
      result.failures.push_back({path, only_b ? "(absent)" : render_leaf(it_a->second),
                                 only_a ? "(absent)" : render_leaf(it_b->second),
                                 0.0, "present in only one run"});
      if (!only_b) ++it_a;
      if (!only_a) ++it_b;
      continue;
    }
    const Leaf& la = it_a->second;
    const Leaf& lb = it_b->second;
    ++result.compared;
    if (la.numeric != lb.numeric) {
      result.failures.push_back(
          {path, render_leaf(la), render_leaf(lb), 0.0, "type mismatch"});
    } else if (!la.numeric) {
      if (la.text != lb.text) {
        result.failures.push_back(
            {path, la.text, lb.text, 0.0, "string mismatch"});
      }
    } else {
      const double rel_tol =
          rule != nullptr ? rule->rel_tol : default_rel_tol;
      const double abs_tol = rule != nullptr ? rule->abs_tol : 0.0;
      const double mag = std::max(std::fabs(la.number), std::fabs(lb.number));
      const double delta = std::fabs(la.number - lb.number);
      if (delta > abs_tol + rel_tol * mag) {
        DiffEntry entry{path, render_leaf(la), render_leaf(lb),
                        mag > 0 ? delta / mag : 0.0, ""};
        entry.note = "rel delta " + format_double(entry.rel_delta) +
                     " exceeds tolerance";
        result.failures.push_back(std::move(entry));
      }
    }
    ++it_a;
    ++it_b;
  }
  return true;
}

RatchetResult ratchet(const JsonValue& current, const JsonValue& baseline,
                      double max_slowdown) {
  RatchetResult result;
  const std::map<std::string, double> base = kernel_ops(baseline);
  const std::map<std::string, double> cur = kernel_ops(current);
  for (const auto& [key, base_ops] : base) {
    const auto it = cur.find(key);
    if (it == cur.end()) {
      result.missing.push_back(key);
      continue;
    }
    RatchetEntry entry{key, base_ops, it->second, 0.0};
    entry.slowdown = it->second > 0
                         ? base_ops / it->second
                         : std::numeric_limits<double>::infinity();
    if (entry.slowdown > max_slowdown) result.failures.push_back(entry);
    result.checked.push_back(std::move(entry));
  }
  for (const auto& [key, ops] : cur) {
    (void)ops;
    if (!base.count(key)) result.untracked.push_back(key);
  }
  if (const JsonValue* corpus = current.get("proptest_corpus");
      corpus != nullptr && corpus->is_array()) {
    for (const JsonValue& entry : corpus->as_array()) {
      if (int_or(entry.get("mismatches"), 0) != 0) {
        const JsonValue* name = entry.get("name");
        result.mismatches.push_back(name != nullptr ? name->as_string()
                                                    : "?");
      }
    }
  }
  return result;
}

}  // namespace drift::report
