// Invariants of the four-way comparison harness across the full
// workload set (complements the targeted tests in test_accel.cpp).
#include <gtest/gtest.h>

#include <tuple>
#include <utility>

#include "accel/compare.hpp"
#include "accel/timeline.hpp"

namespace drift::accel {
namespace {

CompareConfig quick_config() {
  CompareConfig cfg;
  cfg.noise_budget = 0.05;
  return cfg;
}

/// Every field of a run and of a layer, for exact comparison.
auto fields(const RunResult& r) {
  return std::tie(r.accelerator, r.model, r.cycles, r.stall_cycles,
                  r.dram_bytes, r.energy.static_pj, r.energy.dram_pj,
                  r.energy.buffer_pj, r.energy.core_pj);
}
auto fields(const LayerResult& l) {
  return std::tie(l.layer, l.compute_cycles, l.dram_cycles, l.cycles,
                  l.stall_cycles, l.dram_bytes, l.utilization,
                  l.energy.static_pj, l.energy.dram_pj, l.energy.buffer_pj,
                  l.energy.core_pj);
}

TEST(Compare, DesignNamesParseToTheirDesigns) {
  EXPECT_STREQ(kDesignNames, "eyeriss|bitfusion|drq|drift");
  EXPECT_EQ(design_from_name("eyeriss"), Design::kEyeriss);
  EXPECT_EQ(design_from_name("bitfusion"), Design::kBitFusion);
  EXPECT_EQ(design_from_name("drq"), Design::kDrq);
  EXPECT_EQ(design_from_name("drift"), Design::kDrift);
  for (const char* bad : {"int8", "all", "Drift", ""}) {
    EXPECT_FALSE(design_from_name(bad).has_value()) << bad;
  }
}

TEST(Compare, RunDesignEqualsItsMemberOfCompareWorkload) {
  const CompareConfig cfg = quick_config();
  for (const nn::WorkloadSpec& spec :
       {nn::make_resnet18(), nn::make_bert_base()}) {
    const Comparison cmp = compare_workload(spec, cfg);
    const std::pair<Design, const RunResult*> members[] = {
        {Design::kEyeriss, &cmp.eyeriss},
        {Design::kBitFusion, &cmp.bitfusion},
        {Design::kDrq, &cmp.drq},
        {Design::kDrift, &cmp.drift}};
    for (const auto& [design, want] : members) {
      SCOPED_TRACE(spec.model + " " + want->accelerator);
      const RunResult got = run_design(design, spec, cfg);
      EXPECT_EQ(fields(got), fields(*want));
      ASSERT_EQ(got.layers.size(), want->layers.size());
      for (std::size_t i = 0; i < got.layers.size(); ++i) {
        EXPECT_EQ(fields(got.layers[i]), fields(want->layers[i]));
      }
    }
  }
}

TEST(Compare, UtilizationStaysInUnitInterval) {
  const auto cmp =
      compare_workload(nn::make_resnet18(), quick_config());
  for (const RunResult* r :
       {&cmp.eyeriss, &cmp.bitfusion, &cmp.drq, &cmp.drift}) {
    for (const auto& l : r->layers) {
      EXPECT_GE(l.utilization, 0.0) << r->accelerator << " " << l.layer;
      EXPECT_LE(l.utilization, 1.0 + 1e-9)
          << r->accelerator << " " << l.layer;
    }
  }
}

TEST(Compare, EnergyComponentsNonNegative) {
  const auto cmp = compare_workload(nn::make_deit_s(), quick_config());
  for (const RunResult* r :
       {&cmp.eyeriss, &cmp.bitfusion, &cmp.drq, &cmp.drift}) {
    EXPECT_GE(r->energy.static_pj, 0.0);
    EXPECT_GE(r->energy.dram_pj, 0.0);
    EXPECT_GE(r->energy.buffer_pj, 0.0);
    EXPECT_GE(r->energy.core_pj, 0.0);
  }
}

TEST(Compare, DramBytesOrdering) {
  // FP32 Eyeriss moves by far the most data; the dynamic designs move
  // no more than static INT8.
  const auto cmp = compare_workload(nn::make_bert_base(), quick_config());
  EXPECT_GT(cmp.eyeriss.dram_bytes, cmp.bitfusion.dram_bytes);
  EXPECT_LE(cmp.drq.dram_bytes, cmp.bitfusion.dram_bytes);
  EXPECT_LE(cmp.drift.dram_bytes, cmp.bitfusion.dram_bytes);
}

TEST(Compare, LayerCountsMatchWorkload) {
  const auto spec = nn::make_resnet50();
  const auto cmp = compare_workload(spec, quick_config());
  EXPECT_EQ(cmp.drift.layers.size(), spec.layers.size());
  EXPECT_EQ(cmp.drq.layers.size(), spec.layers.size());
}

TEST(Compare, SeedChangesMixNotOrdering) {
  CompareConfig a = quick_config();
  CompareConfig b = quick_config();
  b.seed = 12345;
  const auto ca = compare_workload(nn::make_deit_s(), a);
  const auto cb = compare_workload(nn::make_deit_s(), b);
  // Different statistical draws give different cycles but the same
  // qualitative ordering.
  EXPECT_NE(ca.drift.cycles, cb.drift.cycles);
  EXPECT_GT(ca.speedup_drift(), ca.speedup_bitfusion());
  EXPECT_GT(cb.speedup_drift(), cb.speedup_bitfusion());
}

TEST(Compare, TimelineConsistentWithSumOfMax) {
  // The double-buffered timeline can exceed the per-layer
  // max(compute, dram) sum only by exposed DRAM, and never undercut
  // the pure compute sum.
  const auto cmp = compare_workload(nn::make_resnet18(), quick_config());
  std::vector<TimelineLayer> tl;
  std::int64_t compute_sum = 0, summax = 0;
  for (const auto& l : cmp.drift.layers) {
    tl.push_back({l.layer, l.compute_cycles, l.dram_cycles});
    compute_sum += l.compute_cycles;
    summax += std::max(l.compute_cycles, l.dram_cycles);
  }
  const auto timeline = build_timeline(tl);
  EXPECT_GE(timeline.total_cycles, compute_sum);
  EXPECT_LE(timeline.total_cycles,
            summax + tl.front().dram_cycles + tl.back().dram_cycles +
                timeline.total_cycles / 10);
  EXPECT_GT(timeline.overlap_fraction, 0.5);
}

TEST(Compare, CustomArrayGeometryRespected) {
  CompareConfig cfg = quick_config();
  cfg.hw.array = {16, 16};
  const auto cmp = compare_workload(nn::make_deit_s(), cfg);
  // A 256-unit grid must be slower than the default 792-unit grid for
  // the INT designs.
  const auto big = compare_workload(nn::make_deit_s(), quick_config());
  EXPECT_GT(cmp.bitfusion.cycles, big.bitfusion.cycles);
  EXPECT_GT(cmp.drift.cycles, big.drift.cycles);
}

}  // namespace
}  // namespace drift::accel
