// proxy_forward: the Figure 6 proxies (bench/fig6_accuracy's configs
// and seeds), each evaluated once under FP32, INT8, DRQ and Drift.
// Drift runs at the per-model noise budget fig6_accuracy.csv records,
// so there is no budget search.  All host time is the nn quantized
// forward: QuantEngine rendering, matmul_nt and the thread pool.
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <tuple>

#include "bench.hpp"
#include "nn/gemm.hpp"
#include "nn/int_gemm.hpp"
#include "nn/proxy.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace e2e {
namespace {

constexpr nn::QuantMode kModes[] = {nn::QuantMode::kFloat32,
                                    nn::QuantMode::kStaticInt8,
                                    nn::QuantMode::kDrq, nn::QuantMode::kDrift};
constexpr const char* kModeNames[] = {"fp32", "int8", "drq", "drift"};
constexpr std::int64_t kSamples = 96;  // per proxy, as fig6_accuracy

struct Proxy {
  std::string name;
  bool cnn = false;
  double budget = 0.0;  ///< Drift noise budget from fig6_accuracy.csv
  std::function<nn::ProxyResult(nn::QuantEngine&)> evaluate;
};

/// fig6_accuracy's seven proxies; `shift` offsets every model seed so
/// each benchmark seed draws fresh networks and data (0 reproduces
/// fig6 exactly).
std::vector<Proxy> make_proxies(std::uint64_t shift) {
  std::vector<Proxy> proxies;
  const auto cnn = [&](const std::string& name, std::uint64_t seed) {
    nn::CnnProxy::Config cfg;
    cfg.seed = seed + shift;
    cfg.samples = kSamples;
    auto p = std::make_shared<nn::CnnProxy>(cfg);
    proxies.push_back(
        {name, true, 0.0, [p](nn::QuantEngine& e) { return p->evaluate(e); }});
  };
  const auto transformer = [&](const std::string& name,
                               nn::TransformerProxy::Config cfg,
                               std::uint64_t seed) {
    cfg.seed = seed + shift;
    cfg.samples = kSamples;
    auto p = std::make_shared<nn::TransformerProxy>(cfg);
    proxies.push_back(
        {name, false, 0.0, [p](nn::QuantEngine& e) { return p->evaluate(e); }});
  };
  const auto vit = [](std::int64_t dim) {
    nn::TransformerProxy::Config cfg;
    cfg.model_dim = dim;
    cfg.ffn_dim = 2 * dim;
    return cfg;
  };
  nn::TransformerProxy::Config bert;
  bert.classes = 2;
  cnn("ResNet18", 18);
  cnn("ResNet50", 50);
  transformer("ViT-B", vit(32), 7);
  transformer("DeiT-S", vit(24), 8);
  transformer("BERT-CoLA", bert, 21);
  transformer("BERT-SST2", bert, 22);
  transformer("BERT-MRPC", bert, 23);
  return proxies;
}

/// One evaluation's outputs and the engine's GEMM log.
struct Eval {
  nn::ProxyResult result;
  std::vector<nn::GemmRecord> records;
  double act_low = 0.0;  ///< QuantEngine::overall_act_low_fraction
};

Eval evaluate(const Proxy& proxy, int mode) {
  nn::QuantEngine::Config cfg;
  cfg.mode = kModes[mode];
  cfg.noise_budget = kModes[mode] == nn::QuantMode::kDrift ? proxy.budget : 0;
  // fig6: the CNN proxies run Drift with static weights.
  cfg.dynamic_weights = !proxy.cnn;
  nn::QuantEngine engine(cfg);
  Eval eval;
  eval.result = proxy.evaluate(engine);
  eval.records = engine.records();
  eval.act_low = engine.overall_act_low_fraction();
  return eval;
}

using Pass = std::vector<std::array<Eval, 4>>;  // [proxy][mode]

/// Evaluates every proxy under every mode, adding each evaluation's
/// seconds to `mode_s[mode]` and ticking `setup` (when given) before
/// each proxy.
Pass run_pass(const std::vector<Proxy>& proxies, double* mode_s,
              SetupTimer* setup = nullptr) {
  Pass pass(proxies.size());
  for (std::size_t p = 0; p < proxies.size(); ++p) {
    if (setup) setup->tick();
    for (int m = 0; m < 4; ++m) {
      const double t =
          time_s([&] { pass[p][static_cast<std::size_t>(m)] =
                           evaluate(proxies[p], m); });
      mode_s[m] += t;
    }
  }
  return pass;
}

bool same_outputs(const Pass& a, const Pass& b) {
  for (std::size_t p = 0; p < a.size(); ++p) {
    for (std::size_t m = 0; m < 4; ++m) {
      if (a[p][m].result.metric != b[p][m].result.metric ||
          a[p][m].result.act_low_fraction != b[p][m].result.act_low_fraction) {
        return false;
      }
    }
  }
  return a.size() == b.size();
}

double record_macs(const std::vector<nn::GemmRecord>& records) {
  double macs = 0.0;
  for (const auto& r : records) {
    macs += static_cast<double>(r.m) * static_cast<double>(r.k) *
            static_cast<double>(r.n);
  }
  return macs;
}

TensorF random_matrix(std::int64_t rows, std::int64_t cols, Rng& rng) {
  TensorF t(Shape{rows, cols});
  for (float& v : t.data()) v = static_cast<float>(rng.normal());
  return t;
}

}  // namespace

Report proxy_forward(const Options& options) {
  Report report;
  const std::uint64_t shift = options.seed - kDefaultSeed;
  std::vector<Proxy> built;
  const auto fig6 = read_csv(options.root + "/fig6_accuracy.csv");
  std::map<std::string, double> budgets;
  for (const auto& row : fig6) {
    if (row.size() == 8) budgets[row[0]] = std::stod(row[7]);
  }
  SetupTimer setup([&] {
    built = make_proxies(shift);
    for (auto& proxy : built) {
      const auto it = budgets.find(proxy.name);
      proxy.budget = it == budgets.end()
                         ? std::numeric_limits<double>::quiet_NaN()
                         : it->second;
    }
  });
  // The passes read a copy: `setup` rebuilds the original between
  // their calls.
  const std::vector<Proxy> proxies = built;
  for (const auto& proxy : proxies) {
    report.check(std::isfinite(proxy.budget),
                 "fig6_accuracy.csv budget of " + proxy.name);
  }

  Pass pass;  // the first pass's outputs
  const auto timed_pass = [&](int i) {
    double mode_s[4] = {0.0, 0.0, 0.0, 0.0};
    Pass out = run_pass(proxies, mode_s, &setup);
    const double t = mode_s[0] + mode_s[1] + mode_s[2] + mode_s[3];
    if (i == 0) {
      pass = std::move(out);
    } else {
      report.check(same_outputs(pass, out), "passes differ");
    }
    return t;
  };
  const double wall = run_passes(options.seconds, setup, timed_pass, report);

  double macs = 0.0, drift_macs = 0.0, drift_low = 0.0, drift_acc = 0.0;
  std::int64_t gemms = 0;
  for (std::size_t p = 0; p < proxies.size(); ++p) {
    for (const Eval& eval : pass[p]) {
      macs += record_macs(eval.records);
      gemms += static_cast<std::int64_t>(eval.records.size());
      report.check(eval.result.metric >= 0.0 && eval.result.metric <= 1.0,
                   proxies[p].name + ": accuracy outside [0, 1]");
    }
    const Eval& drift = pass[p][3];
    const double m = record_macs(drift.records);
    drift_macs += m;
    drift_low += m * drift.act_low;
    drift_acc += drift.result.metric;
    if (options.seed == kDefaultSeed) {
      const std::vector<std::string> expected = {
          proxies[p].name,
          csv_cell(pass[p][0].result.metric),
          csv_cell(pass[p][1].result.metric),
          csv_cell(pass[p][2].result.metric),
          csv_cell(drift.result.metric),
          csv_cell(drift.result.act_low_fraction),
          csv_cell(pass[p][2].result.act_low_fraction),
          csv_cell(proxies[p].budget)};
      bool found = false;
      for (const auto& row : fig6) found = found || row == expected;
      report.check(found, "fig6_accuracy.csv row of " + proxies[p].name);
    }
  }
  const double samples = 4.0 * kSamples * static_cast<double>(proxies.size());
  report.detail("drift_acc_mean",
                drift_acc / static_cast<double>(proxies.size()), "fraction");
  report.detail("fwd_samples_per_s", samples / wall, "1/s");

  if (!options.trace) {
    report.metric("wall_s", wall);
    report.metric("setup_s", setup.median_s());
    report.metric("peak_rss_mb", peak_rss_mb());
    report.metric("gmac_per_s", macs / 1e9 / wall);
    report.metric("act_low_fraction", drift_low / drift_macs);
    return report;
  }

  // Traced pass: every evaluate timed on its own.
  double mode_s[4] = {0.0, 0.0, 0.0, 0.0};
  Pass traced;
  const double traced_wall =
      time_s([&] { traced = run_pass(proxies, mode_s); });
  report.check(same_outputs(pass, traced), "traced pass differs");

  // Replay every GEMM shape one forward sweep records (the Drift
  // engines') through the float kernel and the integer path.
  std::map<std::tuple<std::int64_t, std::int64_t, std::int64_t>,
           std::pair<TensorF, TensorF>>
      operands;
  Rng rng(options.seed);
  double f32_s = 0.0, int_s = 0.0;
  for (const auto& row : traced) {
    for (const auto& r : row[3].records) {
      auto [it, fresh] = operands.try_emplace({r.m, r.k, r.n});
      if (fresh) {
        it->second = {random_matrix(r.m, r.k, rng),
                      random_matrix(r.n, r.k, rng)};
      }
      const auto& [a, w] = it->second;
      f32_s += time_s([&] { nn::matmul_nt(a, w); });
      int_s += time_s([&] {
        const core::SelectorConfig selector;
        nn::int_gemm_nt(nn::quantize_rows(a, selector, 0.05),
                        nn::quantize_rows(w, selector, 0.05));
      });
    }
  }

  // The same pass at one worker thread: its speedup, and the
  // determinism contract (outputs equal at any pool size).
  util::ThreadPool& pool = util::ThreadPool::instance();
  pool.resize(1);
  Pass serial;
  double serial_mode_s[4] = {0.0, 0.0, 0.0, 0.0};
  const double serial_wall =
      time_s([&] { serial = run_pass(proxies, serial_mode_s); });
  pool.resize(kPoolThreads);
  report.check(same_outputs(pass, serial), "1-thread pass differs");

  for (int m = 0; m < 4; ++m) {
    report.metric(std::string("fwd.") + kModeNames[m] + ".s", mode_s[m]);
  }
  report.metric("quant.gemms", static_cast<double>(gemms));
  report.metric("quant.gmacs", macs / 1e9);
  report.metric("gemm.f32.s", f32_s);
  report.metric("gemm.int.s", int_s);
  report.metric("pool.threads", kPoolThreads);
  report.metric("pool.speedup_vs_1t", serial_wall / wall);
  report.metric("trace.overhead_s", traced_wall - wall);
  return report;
}

}  // namespace e2e
