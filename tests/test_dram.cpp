// Tests for the DRAM model.
#include <gtest/gtest.h>

#include "dram/dram.hpp"
#include "util/assert.hpp"

namespace drift::dram {
namespace {

TEST(Dram, SingleBurstPaysActivation) {
  DramModel model;
  const auto r = model.transfer(0, 64, false);
  EXPECT_EQ(model.stats().reads, 1);
  EXPECT_EQ(model.stats().row_misses, 1);
  EXPECT_EQ(model.stats().row_hits, 0);
  EXPECT_GT(r.core_cycles, 0);
  EXPECT_GT(r.energy_pj, 0.0);
}

TEST(Dram, SequentialStreamIsMostlyRowHits) {
  DramModel model;
  model.transfer(0, 1 << 20, false);  // 1 MiB sequential
  EXPECT_GT(model.stats().row_hit_rate(), 0.9);
}

// Exact figures of the default device, pinned from the burst-by-burst
// model (src/ref/ref_dram.hpp) the closed form replaced.
TEST(Dram, OneMebibyteStreamExactFigures) {
  DramModel model;
  const auto r = model.transfer(0, 1 << 20, false);
  EXPECT_EQ(r.core_cycles, 18667);
  EXPECT_EQ(r.energy_pj, 6950440.0);
  EXPECT_EQ(model.stats().reads, 16384);
  EXPECT_EQ(model.stats().row_misses, 512);
  EXPECT_EQ(model.stats().row_hits, 15872);
  EXPECT_EQ(model.stats().busy_mem_cycles, 44800);

  // Again: every bank holds the last of its 16 rows open, so each first
  // visit is a precharged miss.
  const auto again = model.transfer(0, 1 << 20, false);
  EXPECT_EQ(again.core_cycles, 18774);
  EXPECT_EQ(again.energy_pj, 6963280.0);
  EXPECT_EQ(model.stats().energy_pj, r.energy_pj + again.energy_pj);
}

TEST(Dram, TransferAcrossRowBoundaryExactFigures) {
  // Bursts 63 and 64: the last burst of row 0 on channel 1 and the
  // first burst of row 1 on channel 0 — one activation per channel.
  DramModel model;
  const auto r = model.transfer(4032, 128, false);
  EXPECT_EQ(model.stats().row_misses, 2);
  EXPECT_EQ(model.stats().row_hits, 0);
  EXPECT_EQ(r.core_cycles, 15);
  EXPECT_EQ(r.energy_pj, 4700.0);
}

TEST(Dram, RevisitingOpenRowHits) {
  DramModel model;
  model.transfer(0, 64, false);
  const auto before = model.stats().row_hits;
  model.transfer(0, 64, false);  // same row, still open
  EXPECT_EQ(model.stats().row_hits, before + 1);
}

TEST(Dram, HitsAreCheaperThanMisses) {
  DramModel model;
  const auto miss = model.transfer(0, 64, false);
  const auto hit = model.transfer(0, 64, false);
  EXPECT_LT(hit.core_cycles, miss.core_cycles + 1);
  EXPECT_LT(hit.energy_pj, miss.energy_pj);
}

TEST(Dram, BandwidthScalesWithChannels) {
  DramConfig one;
  one.channels = 1;
  DramConfig four;
  four.channels = 4;
  EXPECT_NEAR(DramModel(four).peak_bytes_per_core_cycle(),
              4.0 * DramModel(one).peak_bytes_per_core_cycle(), 1e-9);
}

TEST(Dram, LargeStreamApproachesPeakBandwidth) {
  DramModel model;
  const std::int64_t bytes = 8 << 20;
  const auto r = model.transfer(0, bytes, false);
  const double achieved =
      static_cast<double>(bytes) / static_cast<double>(r.core_cycles);
  EXPECT_GT(achieved, 0.7 * model.peak_bytes_per_core_cycle());
  EXPECT_LE(achieved, 1.05 * model.peak_bytes_per_core_cycle());
}

TEST(Dram, StreamAdvancesToFreshRows) {
  DramModel model;
  model.stream(64, false);
  const auto misses_before = model.stats().row_misses;
  model.stream(64, false);  // new region: must be a fresh row
  EXPECT_GT(model.stats().row_misses, misses_before);
}

TEST(Dram, ZeroByteTransferIsFree) {
  DramModel model;
  const auto r = model.transfer(0, 0, false);
  EXPECT_EQ(r.core_cycles, 0);
  EXPECT_DOUBLE_EQ(r.energy_pj, 0.0);
}

TEST(Dram, WritesCounted) {
  DramModel model;
  model.transfer(0, 256, true);
  EXPECT_EQ(model.stats().writes, 4);
  EXPECT_EQ(model.stats().reads, 0);
}

TEST(Dram, EnergyAccumulatesInStats) {
  DramModel model;
  const auto a = model.transfer(0, 1024, false);
  const auto b = model.transfer(1 << 16, 1024, true);
  EXPECT_EQ(model.stats().energy_pj, a.energy_pj + b.energy_pj);
}

TEST(Dram, InvalidGeometryThrows) {
  DramConfig bad;
  bad.row_bytes = 100;  // not a multiple of burst
  EXPECT_THROW(DramModel{bad}, drift::check_error);
}

TEST(Dram, ResetStatsClears) {
  DramModel model;
  model.transfer(0, 4096, false);
  model.reset_stats();
  EXPECT_EQ(model.stats().reads, 0);
  EXPECT_DOUBLE_EQ(model.stats().energy_pj, 0.0);
}

}  // namespace
}  // namespace drift::dram
