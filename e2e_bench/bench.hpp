// Shared plumbing of the end-to-end host benchmark: run options, the
// correctness ledger, metric emission, timing helpers, and the traffic
// reconstruction the traced runs replay through the DRAM model.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "accel/accelerator.hpp"
#include "accel/compare.hpp"
#include "accel/traffic.hpp"
#include "nn/precision_mix.hpp"

namespace e2e {

using namespace drift;

/// The seed every workload's correctness references were generated at
/// (CompareConfig::seed's default).
inline constexpr std::uint64_t kDefaultSeed = 17;

/// Worker threads the process-wide pool is pinned to: at 4 threads the
/// proxy forward's run-to-run spread exceeded 2x on a shared 4-core
/// host, while 1-2 threads stayed within 10%.
inline constexpr int kPoolThreads = 2;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 0.0;
  bool trace = false;
  std::string root;  ///< repository checkout (holds the reference CSVs)
};

struct Detail {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports.  `metrics` are the contract metrics
/// (end-to-end untraced, per-layer traced; BENCHMARK.json holds their
/// units); `details` are the workload's simulated outputs and pass
/// statistics, printed but not gated.
struct Report {
  std::int64_t checks = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;
  std::vector<std::pair<std::string, double>> metrics;
  std::vector<Detail> details;

  /// Records one correctness check.
  void check(bool ok, const std::string& what);
  void metric(const std::string& name, double value) {
    metrics.emplace_back(name, value);
  }
  void detail(const std::string& name, double value, const std::string& unit) {
    details.push_back({name, value, unit});
  }
};

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Seconds `fn` takes.
double time_s(const std::function<void()>& fn);

double median(std::vector<double> values);

/// Times a workload's set-up.  A single set-up call can take under
/// 10 us, which one clock read cannot time, so calls are timed in
/// batches of at least 1 ms.  On a shared host the same batch runs at
/// one of two speeds about 1.5x apart, switching every few seconds, so
/// the median of batches jumps between the two; a pass therefore times
/// one batch between each of its timed calls, a sample is the mean time
/// per call over one pass's batches, and the result is the median
/// sample.
class SetupTimer {
 public:
  /// Runs `setup` (so its outputs exist) while sizing the batches.
  explicit SetupTimer(std::function<void()> setup);

  /// Times one batch into the current pass's sample.
  void tick();
  /// Ends the current pass's sample.
  void close_sample();
  /// Median over the samples so far of one set-up call's seconds.
  double median_s() const { return median(samples_); }

 private:
  std::function<void()> setup_;
  std::int64_t calls_ = 1;  ///< per batch
  double pass_s_ = 0.0;     ///< the current sample's batches so far
  std::int64_t pass_calls_ = 0;
  std::vector<double> samples_;
};

/// Runs `pass` (which returns the host seconds of its timed calls, and
/// ticks `setup` between them) back to back until the next pass would
/// end past `seconds`.  Pass 0 warms caches, the heap and the pool's
/// threads: it counts against `seconds` and its outputs are what later
/// passes are checked against, but its time is not reported.  At least
/// two passes follow it.  Returns the seconds of the slowest of those,
/// and records their count, median and range as details.
///
/// The slowest pass, not the median: on a shared 4-core Xeon VM the
/// memory-heavy passes run at a steady contended speed broken by
/// stretches of up to ~1.5x faster ones, lasting seconds to a minute.
/// The median of a 30 s run moves with how much of it such a stretch
/// covered; the slowest pass repeats across runs (quartile spread over
/// 8-pass windows of four long serve_poisson runs: 1.6-4.3 % for the
/// slowest pass, 3.6-13 % for the median).
double run_passes(double seconds, SetupTimer& setup,
                  const std::function<double(int)>& pass, Report& report);

/// Peak resident set of this process, MiB.
double peak_rss_mb();

/// A float printed the way util/csv.hpp prints it (ostream defaults),
/// so a recomputed value compares equal to a committed CSV cell exactly
/// when it matches to the precision the file carries.
std::string csv_cell(double value);

/// Rows of a committed result CSV (header dropped), each split on ','.
std::vector<std::vector<std::string>> read_csv(const std::string& path);

/// The mix configuration accel::compare_workload builds for the design
/// that `algo` serves, reproduced field for field so a run can rebuild
/// (and a traced run time) build_mixes on its own.
nn::MixConfig mix_config(nn::MixAlgorithm algo,
                         const accel::CompareConfig& config);

/// Sub-tensors a mix classified: activation rows plus weight channels.
std::int64_t mix_subtensors(const std::vector<nn::LayerMix>& mixes);

/// The DRAM traffic each accelerator model computes for one layer,
/// rebuilt from public tiling helpers (see the model sources).
accel::LayerTraffic eyeriss_traffic(const nn::LayerGemm& layer,
                                    const accel::AccelConfig& hw);
accel::LayerTraffic bitfusion_traffic(const nn::LayerGemm& layer,
                                      const accel::AccelConfig& hw);
accel::LayerTraffic drq_traffic(const nn::LayerMix& mix,
                                const accel::AccelConfig& hw);
accel::LayerTraffic drift_traffic(const core::GemmDims& dims,
                                  const core::LayerWork& work,
                                  const accel::AccelConfig& hw);

/// Host time and event counts of replayed accel::dram_outcome calls.
struct DramReplay {
  double seconds = 0.0;
  std::int64_t bursts = 0;
  std::int64_t row_hits = 0;

  /// Replays one accelerator run's transfers (`traffic[i]` is layer i
  /// of `spec`) on a fresh DRAM model, as the accelerator models do, and
  /// checks each replayed outcome against the run's layer record exactly.
  void replay(const std::vector<accel::LayerTraffic>& traffic,
              const nn::WorkloadSpec& spec, const accel::RunResult& run,
              const accel::AccelConfig& hw, Report& report);
};

/// Checks the run's accounting identities: per-layer cycles sum to the
/// run's cycles and per-layer energy components sum to its totals.
void check_run_identities(const accel::RunResult& run, Report& report);

/// Workload entry points.
Report paper_sim(const Options& options);
Report proxy_forward(const Options& options);
Report serve_poisson(const Options& options);

}  // namespace e2e
