// Batch executor: turns an admitted batch into one accelerator run.
//
// Each tenant has a canonical precision mix (the offline build_mixes
// result, which fixes the weight-channel pattern — weights are shared
// across a tenant's requests) and, when unique_mix_per_request is set,
// every request carries its own activation-row pattern sampled from the
// tenant's distribution profile.  A batch concatenates the member
// requests' row patterns in admission order into one shared layer, so
// the Eq. 5/6 class counts — and therefore the Eq. 8 (r, c) split the
// scheduler picks — are a function of batch *composition*, not just
// size.  With batch size 1 the packed layer degenerates to the request
// alone, which is what the batch-vs-serial differential test pins.
//
// Caller owns the pool (NNPACK style): the constructor takes the
// ThreadPool used to precompute per-request patterns; the fixed chunk
// decomposition plus disjoint output slots keep the result bit-identical
// at any thread count.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "accel/compare.hpp"
#include "nn/precision_mix.hpp"
#include "serve/tenant.hpp"
#include "util/thread_pool.hpp"

namespace drift::serve {

/// One batch's accelerator outcome.
struct BatchResult {
  std::int64_t cycles = 0;
  double energy_pj = 0.0;
  accel::RunResult run;
};

class BatchExecutor {
 public:
  /// Serves `design` (accel::make_model, with accel::mix_config's mix
  /// settings) under `exec`.  Precomputes every tenant's canonical mix
  /// and (when unique_mix_per_request) each request's activation
  /// patterns on `pool`.
  BatchExecutor(accel::Design design, const accel::CompareConfig& exec,
                std::vector<TenantSpec> tenants, util::ThreadPool& pool);

  const std::vector<TenantSpec>& tenants() const { return tenants_; }

  /// The tenant's workload with layer names prefixed by the tenant name
  /// (keeps obs layer records separate between tenants).
  const nn::WorkloadSpec& tenant_spec(int tenant) const;

  /// The mix request `local` of `tenant` runs when served alone.  The
  /// differential test recomputes this independently and pins the
  /// batch=1 serving results against the offline pipeline.
  const std::vector<nn::LayerMix>& request_mixes(int tenant,
                                                 std::int64_t local) const;

  /// The MixConfig a tenant's mixes are built with: the design's
  /// accel::mix_config, seeded from TenantSpec::seed — exposed so tests
  /// can reproduce canonical mixes via nn::build_mixes.
  nn::MixConfig mix_config(const TenantSpec& tenant) const;

  /// Runs one batch (same-tenant request indices, admission order):
  /// packs the member mixes into shared layers and runs the configured
  /// accelerator model on the batched workload.
  BatchResult execute(int tenant, const std::vector<std::int64_t>& locals);

  /// Service time of a canonical single-request batch — the calibration
  /// point drivers use to convert a target utilization into an arrival
  /// rate.
  BatchResult execute_canonical(int tenant);

 private:
  struct TenantState {
    nn::WorkloadSpec spec;                       ///< prefixed layer names
    std::vector<nn::LayerMix> canonical;
    std::vector<std::vector<bool>> col_patterns;  ///< per layer
    /// Per request, per layer activation mixes (empty when requests
    /// share the canonical mix).
    std::vector<std::vector<nn::LayerMix>> per_request;
  };

  const TenantState& state(int tenant) const;

  nn::MixConfig mix_;  ///< the design's mix settings; seed per tenant
  std::vector<TenantSpec> tenants_;
  std::vector<TenantState> states_;
  std::unique_ptr<accel::Accelerator> model_;
};

/// Stream id offset separating per-request activation sampling from the
/// canonical per-layer streams build_mixes consumes (streams 0..L-1 on
/// the same base rng).
inline constexpr std::uint64_t kRequestStreamBase = 1ull << 32;

}  // namespace drift::serve
