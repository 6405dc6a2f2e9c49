#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <fstream>
#include <sstream>

#include "accel/eyeriss.hpp"
#include "core/analytical_model.hpp"

namespace e2e {

void Report::check(bool ok, const std::string& what) {
  ++checks;
  if (ok) return;
  ++failed;
  // Keep the log short: the count is what the result carries.
  if (failures.size() < 20) failures.push_back(what);
}

double time_s(const std::function<void()>& fn) {
  const double start = now_s();
  fn();
  return now_s() - start;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid]
                           : 0.5 * (values[mid - 1] + values[mid]);
}

SetupTimer::SetupTimer(std::function<void()> setup)
    : setup_(std::move(setup)) {
  while (time_s([&] {
           for (std::int64_t i = 0; i < calls_; ++i) setup_();
         }) < 1e-3) {
    calls_ *= 2;
  }
}

void SetupTimer::tick() {
  pass_s_ += time_s([&] {
    for (std::int64_t i = 0; i < calls_; ++i) setup_();
  });
  pass_calls_ += calls_;
}

void SetupTimer::close_sample() {
  if (pass_calls_ == 0) return;
  samples_.push_back(pass_s_ / static_cast<double>(pass_calls_));
  pass_s_ = 0.0;
  pass_calls_ = 0;
}

double run_passes(double seconds, SetupTimer& setup,
                  const std::function<double(int)>& pass, Report& report) {
  double elapsed = pass(0);  // warm-up
  setup.close_sample();
  std::vector<double> times;
  while (times.size() < 2 || elapsed + median(times) <= seconds) {
    times.push_back(pass(static_cast<int>(times.size()) + 1));
    setup.close_sample();
    elapsed += times.back();
  }
  report.detail("passes", static_cast<double>(times.size()), "count");
  const auto [min, max] = std::minmax_element(times.begin(), times.end());
  report.detail("pass_min_s", *min, "s");
  report.detail("pass_median_s", median(times), "s");
  report.detail("pass_max_s", *max, "s");
  return *max;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string csv_cell(double value) {
  std::ostringstream os;
  os << value;
  return os.str();
}

std::vector<std::vector<std::string>> read_csv(const std::string& path) {
  std::vector<std::vector<std::string>> rows;
  std::ifstream in(path);
  std::string line;
  bool header = true;
  while (std::getline(in, line)) {
    if (header) {
      header = false;
      continue;
    }
    std::vector<std::string> cells;
    std::stringstream ss(line);
    std::string cell;
    while (std::getline(ss, cell, ',')) cells.push_back(cell);
    rows.push_back(cells);
  }
  return rows;
}

nn::MixConfig mix_config(nn::MixAlgorithm algo,
                         const accel::CompareConfig& config) {
  nn::MixConfig cfg;
  cfg.algo = algo;
  cfg.seed = config.seed;
  if (algo == nn::MixAlgorithm::kDrq) cfg.drq = config.drq_config;
  if (algo == nn::MixAlgorithm::kDrift) {
    cfg.drift = config.drift_selector;
    cfg.dynamic_weights = config.drift_dynamic_weights;
    cfg.auto_threshold = config.auto_threshold;
    cfg.noise_budget = config.noise_budget;
  }
  return cfg;
}

std::int64_t mix_subtensors(const std::vector<nn::LayerMix>& mixes) {
  std::int64_t n = 0;
  for (const auto& mix : mixes) {
    n += static_cast<std::int64_t>(mix.row_is_low.size()) + mix.layer.dims.N;
  }
  return n;
}

accel::LayerTraffic eyeriss_traffic(const nn::LayerGemm& layer,
                                    const accel::AccelConfig& hw) {
  const std::int64_t cols = accel::EyerissModel::kPeCols;
  const std::int64_t n_tiles =
      std::max<std::int64_t>((layer.dims.N + cols - 1) / cols, 1);
  return accel::compute_traffic(layer.dims, {32.0, 32.0, 32}, n_tiles, 1, hw);
}

accel::LayerTraffic bitfusion_traffic(const nn::LayerGemm& layer,
                                      const accel::AccelConfig& hw) {
  const core::GemmDims& d = layer.dims;
  const std::int64_t k_tiles =
      core::ws_tile_repetitions({d.M, d.K, 1}, 8, 8, hw.array);
  const std::int64_t n_tiles =
      core::ws_tile_repetitions({d.M, 1, d.N}, 8, 8, hw.array);
  return accel::compute_traffic(d, {8.0, 8.0, 8}, n_tiles, k_tiles, hw);
}

accel::LayerTraffic drq_traffic(const nn::LayerMix& mix,
                                const accel::AccelConfig& hw) {
  const core::GemmDims& d = mix.layer.dims;
  core::LayerWork stored = mix.work;  // weights stay static 8-bit
  stored.n_high = d.N;
  stored.n_low = 0;
  return accel::compute_traffic(d, accel::operand_bits_from_work(stored),
                                core::ws_n_tiles(d.N, 8.0, hw.array.cols),
                                core::ws_k_tiles(d.K, 4.0, hw.array.rows), hw);
}

accel::LayerTraffic drift_traffic(const core::GemmDims& dims,
                                  const core::LayerWork& work,
                                  const accel::AccelConfig& hw) {
  const accel::OperandBits bits = accel::operand_bits_from_work(work);
  return accel::compute_traffic(
      dims, bits, core::ws_n_tiles(dims.N, bits.weight_bits, hw.array.cols),
      core::ws_k_tiles(dims.K, bits.act_bits, hw.array.rows), hw);
}

void DramReplay::replay(const std::vector<accel::LayerTraffic>& traffic,
                        const nn::WorkloadSpec& spec,
                        const accel::RunResult& run,
                        const accel::AccelConfig& hw, Report& report) {
  dram::DramModel model(hw.dram);
  bool exact = traffic.size() == run.layers.size() &&
               traffic.size() == spec.layers.size();
  for (std::size_t i = 0; exact && i < traffic.size(); ++i) {
    const double start = now_s();
    const accel::DramOutcome out = accel::dram_outcome(traffic[i], model);
    seconds += now_s() - start;
    const accel::LayerResult& layer = run.layers[i];
    // The models scale the per-instance outcome by the layer's repeat
    // count; the same product must reproduce the recorded energy.
    exact = out.core_cycles == layer.dram_cycles &&
            out.energy_pj * static_cast<double>(spec.layers[i].repeat) ==
                layer.energy.dram_pj &&
            traffic[i].dram_bytes() == layer.dram_bytes;
  }
  report.check(exact, "dram replay differs from " + run.accelerator + " on " +
                          run.model);
  bursts += model.stats().row_hits + model.stats().row_misses;
  row_hits += model.stats().row_hits;
}

void check_run_identities(const accel::RunResult& run, Report& report) {
  std::int64_t cycles = 0;
  energy::EnergyBreakdown layers;
  for (const auto& layer : run.layers) {
    cycles += layer.cycles;
    layers += layer.energy;
  }
  report.check(cycles == run.cycles,
               run.accelerator + " " + run.model + ": layer cycles sum");
  report.check(layers.dram_pj == run.energy.dram_pj &&
                   layers.buffer_pj == run.energy.buffer_pj &&
                   layers.core_pj == run.energy.core_pj &&
                   run.energy.static_pj > 0.0,
               run.accelerator + " " + run.model + ": layer energy sum");
}

}  // namespace e2e
