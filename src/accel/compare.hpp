// How a design runs: each accelerator model executes the precision
// mixes of its own quantization algorithm (Eyeriss FP32, BitFusion
// static INT8, DRQ, Drift's Eq. 5/6 selector + Eq. 8 scheduler).  This
// is the one place that rule lives: compare_workload runs all four
// designs (normalized to Eyeriss, the convention of Figures 7 and 8),
// run_design runs one, and make_model is the single design -> model
// switch the serving executor shares.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "accel/accelerator.hpp"
#include "accel/drift_accel.hpp"

namespace drift::accel {

/// One workload's results across the four designs.
struct Comparison {
  std::string model;
  RunResult eyeriss;
  RunResult bitfusion;
  RunResult drq;
  RunResult drift;

  /// Latency speedups over Eyeriss (Figure 7's y-axis).
  double speedup_bitfusion() const;
  double speedup_drq() const;
  double speedup_drift() const;

  /// Normalized energy (Eyeriss = 1; Figure 8's y-axis).
  double energy_bitfusion() const;
  double energy_drq() const;
  double energy_drift() const;
};

/// Mix-generation + comparison settings.
struct CompareConfig {
  AccelConfig hw{};
  core::SelectorConfig drift_selector{};  ///< hp/lp (δ when fixed mode)
  core::DrqConfig drq_config{};
  bool drift_dynamic_weights = true;
  bool auto_threshold = true;   ///< per-operand minimum-δ selection
  double noise_budget = 0.05;   ///< excess-noise budget for auto mode
  SchedulerPolicy drift_policy = SchedulerPolicy::kGreedy;
  std::uint64_t seed = 17;
};

/// The four designs of Figures 7 and 8.
enum class Design { kEyeriss, kBitFusion, kDrq, kDrift };

/// The names design_from_name accepts, joined by '|'.
inline constexpr const char* kDesignNames = "eyeriss|bitfusion|drq|drift";

/// The design named `name` (one of kDesignNames); nullopt for any other
/// name.  The one design-name parser of the CLIs' `--accel` flag.
std::optional<Design> design_from_name(const std::string& name);

/// Mix settings of the quantization algorithm `design` executes.
/// Eyeriss ignores its mix (FP32) and takes the static INT8 one.
nn::MixConfig mix_config(Design design, const CompareConfig& config);

/// The accelerator model of `design` under `config` (Drift runs
/// `config.drift_policy`).
std::unique_ptr<Accelerator> make_model(Design design,
                                        const CompareConfig& config);

/// Runs the four designs on `spec`.
Comparison compare_workload(const nn::WorkloadSpec& spec,
                            const CompareConfig& config);

/// Runs one design on `spec`, building only that design's mixes.  The
/// result equals the matching member of compare_workload(spec, config).
/// Each layer's mix class split (rows and element-weighted 4-bit
/// coverage) is attributed to that layer's obs record, which the
/// model's scheduler, cycle and DRAM stages then fill: one record per
/// GEMM for the whole run.
RunResult run_design(Design design, const nn::WorkloadSpec& spec,
                     const CompareConfig& config);

}  // namespace drift::accel
