// The Drift accelerator (Section 4): a BitGroup grid with
// bidirectional inter-BG links that is split, per layer, into four
// independent weight-stationary systolic arrays — one per precision
// class (hh / hl / lh / ll) — sized by the balanced online scheduler
// (Equation 8).  Steering each class to its own array removes the
// data-flow stalls that throttle single-array designs.
#pragma once

#include <optional>

#include "accel/accelerator.hpp"
#include "accel/fabric.hpp"
#include "core/scheduler.hpp"

namespace drift::accel {

/// Which split policy the controller uses (ablation A).
enum class SchedulerPolicy {
  kGreedy,      ///< the paper's O(R + C) alternating sweep
  kExhaustive,  ///< oracle over all (r, c)
  kFixed,       ///< static quarter split (no load balancing)
};

std::string to_string(SchedulerPolicy policy);

/// Inverse of to_string ("greedy" | "exhaustive" | "fixed"); nullopt
/// for any other name.
std::optional<SchedulerPolicy> policy_from_string(const std::string& name);

class DriftAccelModel : public Accelerator {
 public:
  DriftAccelModel(AccelConfig config,
                  SchedulerPolicy policy = SchedulerPolicy::kGreedy)
      : Accelerator(std::move(config)), policy_(policy) {}

  std::string name() const override;

  SchedulerPolicy policy() const { return policy_; }

 protected:
  /// Every run starts from a fresh fabric (a serving executor reuses
  /// one model across batches).
  void begin_run() override;
  LayerCost layer_cost(const nn::LayerMix& mix) override;

 private:
  core::SplitDecision schedule(const core::LayerWork& work) const;

  SchedulerPolicy policy_;
  BitGroupFabric fabric_{config_.array};
};

}  // namespace drift::accel
