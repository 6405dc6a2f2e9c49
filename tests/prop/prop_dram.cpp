// Differential suite: the closed-form DRAM model vs. the burst-by-burst
// oracle in src/ref.
//
// Both models replay the same address sequence over the same random
// geometry.  After every call the TransferResult, every DramStats field
// and the open row of every (channel, bank) must agree bitwise.  The
// sequences mix unaligned starts and ends, sub-burst and zero-byte
// transfers, reads and writes, streams longer than a full bank sweep,
// and revisits of earlier addresses (so carried-over row state is hit).
// Event energies are integer-valued, the condition under which the
// closed form's single rounding equals the oracle's running sum.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <sstream>
#include <vector>

#include "dram/dram.hpp"
#include "proptest/proptest_gtest.hpp"
#include "ref/ref_dram.hpp"

namespace drift {
namespace {

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

dram::DramConfig gen_config(Rng& rng) {
  dram::DramConfig c;
  c.channels = rng.uniform_int(1, 4);
  c.banks_per_channel = rng.uniform_int(1, 16);
  static constexpr std::int64_t kBursts[] = {1, 8, 32, 64, 128};
  c.burst_bytes = kBursts[rng.uniform_int(0, 4)];
  c.row_bytes = c.burst_bytes * rng.uniform_int(1, 64);
  c.t_rcd = rng.uniform_int(0, 24);
  c.t_cl = rng.uniform_int(0, 24);
  c.t_rp = rng.uniform_int(0, 24);
  c.t_bl = rng.uniform_int(1, 8);
  static constexpr double kRatios[] = {1.0, 2.4, 0.75, 3.0};
  c.mem_cycles_per_core_cycle = kRatios[rng.uniform_int(0, 3)];
  c.e_activate_pj = static_cast<double>(rng.uniform_int(0, 2000));
  c.e_burst_pj = static_cast<double>(rng.uniform_int(0, 500));
  c.e_background_pj_per_core_cycle =
      static_cast<double>(rng.uniform_int(0, 200));
  return c;
}

struct Transfer {
  std::int64_t address = 0;
  std::int64_t bytes = 0;
  bool is_write = false;
};

/// Next transfer of a sequence.  Addresses stay inside a window of a
/// few full bank sweeps so later transfers land on rows earlier ones
/// opened (or closed by a conflicting row in the same bank).
Transfer gen_transfer(Rng& rng, int size, const dram::DramConfig& c,
                      const std::vector<Transfer>& history) {
  const std::int64_t sweep = c.row_bytes * c.channels * c.banks_per_channel;
  Transfer t;
  t.is_write = rng.bernoulli(0.3);
  const double kind = rng.uniform();
  if (kind < 0.25 && !history.empty()) {
    // Revisit: restart near an earlier transfer.
    const Transfer& prev =
        history[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(history.size()) - 1))];
    t.address = std::max<std::int64_t>(
        0, prev.address + rng.uniform_int(-c.row_bytes, c.row_bytes));
  } else {
    t.address = rng.uniform_int(0, 4 * sweep);
  }
  if (rng.bernoulli(0.3)) t.address -= t.address % c.burst_bytes;

  const double len = rng.uniform();
  if (len < 0.1) {
    t.bytes = 0;
  } else if (len < 0.3) {
    t.bytes = rng.uniform_int(1, c.burst_bytes);  // at most one burst
  } else if (len < 0.7) {
    t.bytes = rng.uniform_int(1, 2 * c.row_bytes * c.channels);
  } else {
    // Long streams: up to (1 + size/4) full bank sweeps, so banks are
    // revisited inside a single transfer.
    t.bytes = rng.uniform_int(1, sweep * (1 + size / 4) + c.row_bytes);
  }
  return t;
}

proptest::Result compare(const dram::DramModel& model,
                         const ref::BurstDramModel& oracle,
                         const dram::TransferResult& got,
                         const dram::TransferResult& want,
                         const Transfer& t, std::size_t step) {
  const auto where = [&] {
    std::ostringstream os;
    os << "call " << step << " transfer(" << t.address << ", " << t.bytes
       << ", " << (t.is_write ? "write" : "read") << "): ";
    return os.str();
  };
  if (got.core_cycles != want.core_cycles ||
      !same_bits(got.energy_pj, want.energy_pj)) {
    return proptest::fail(where(), "result {", got.core_cycles, " cycles, ",
                          got.energy_pj, " pJ} vs oracle {",
                          want.core_cycles, " cycles, ", want.energy_pj,
                          " pJ}");
  }
  const dram::DramStats& s = model.stats();
  const dram::DramStats& r = oracle.stats();
  if (s.reads != r.reads || s.writes != r.writes ||
      s.row_hits != r.row_hits || s.row_misses != r.row_misses ||
      s.busy_mem_cycles != r.busy_mem_cycles ||
      !same_bits(s.energy_pj, r.energy_pj)) {
    return proptest::fail(
        where(), "stats {reads ", s.reads, ", writes ", s.writes, ", hits ",
        s.row_hits, ", misses ", s.row_misses, ", busy ", s.busy_mem_cycles,
        ", ", s.energy_pj, " pJ} vs oracle {reads ", r.reads, ", writes ",
        r.writes, ", hits ", r.row_hits, ", misses ", r.row_misses,
        ", busy ", r.busy_mem_cycles, ", ", r.energy_pj, " pJ}");
  }
  const dram::DramConfig& c = model.config();
  for (std::int64_t ch = 0; ch < c.channels; ++ch) {
    for (std::int64_t b = 0; b < c.banks_per_channel; ++b) {
      if (model.open_row(ch, b) != oracle.open_row(ch, b)) {
        return proptest::fail(where(), "bank (", ch, ", ", b,
                              ") has row ", model.open_row(ch, b),
                              " open vs oracle row ", oracle.open_row(ch, b));
      }
    }
  }
  return proptest::pass();
}

TEST(PropDram, ClosedFormMatchesBurstOracleOnRandomSequences) {
  proptest::gtest_check([](Rng& rng, int size) -> proptest::Result {
    const dram::DramConfig config = gen_config(rng);
    dram::DramModel model(config);
    ref::BurstDramModel oracle(config);
    std::vector<Transfer> history;
    const std::int64_t calls = 1 + rng.uniform_int(0, 2 + 2 * size);
    for (std::int64_t i = 0; i < calls; ++i) {
      const Transfer t = gen_transfer(rng, size, config, history);
      const auto got = model.transfer(t.address, t.bytes, t.is_write);
      const auto want = oracle.transfer(t.address, t.bytes, t.is_write);
      if (auto r = compare(model, oracle, got, want, t,
                           static_cast<std::size_t>(i))) {
        return r;
      }
      history.push_back(t);
    }
    return proptest::pass();
  });
}

TEST(PropDram, DefaultDeviceMatchesBurstOracleOnLayerSizedStreams) {
  // The geometry and energies every accelerator model uses, with
  // transfers of up to 256 KiB from anywhere in a 16 MiB window.
  proptest::gtest_check([](Rng& rng, int size) -> proptest::Result {
    const dram::DramConfig config;
    dram::DramModel model(config);
    ref::BurstDramModel oracle(config);
    std::vector<Transfer> history;
    for (int i = 0; i < 4; ++i) {
      Transfer t;
      t.is_write = rng.bernoulli(0.3);
      t.address = i > 0 && rng.bernoulli(0.3)
                      ? history.back().address
                      : rng.uniform_int(0, std::int64_t{1} << 24);
      t.bytes = rng.uniform_int(1, std::int64_t{1} << (14 + size / 4));
      const auto got = model.transfer(t.address, t.bytes, t.is_write);
      const auto want = oracle.transfer(t.address, t.bytes, t.is_write);
      if (auto r = compare(model, oracle, got, want, t,
                           static_cast<std::size_t>(i))) {
        return r;
      }
      history.push_back(t);
    }
    return proptest::pass();
  });
}

}  // namespace
}  // namespace drift
