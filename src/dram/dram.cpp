#include "dram/dram.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace drift::dram {

DramModel::DramModel(const DramConfig& config) : config_(config) {
  DRIFT_CHECK(config.channels > 0 && config.banks_per_channel > 0,
              "invalid DRAM geometry");
  DRIFT_CHECK(config.row_bytes > 0 && config.burst_bytes > 0 &&
                  config.row_bytes % config.burst_bytes == 0,
              "row size must be a multiple of the burst size");
  DRIFT_CHECK(config.mem_cycles_per_core_cycle > 0.0, "invalid clock ratio");
  banks_.resize(
      static_cast<std::size_t>(config.channels * config.banks_per_channel));
}

std::int64_t DramModel::open_row(std::int64_t channel,
                                std::int64_t bank) const {
  DRIFT_CHECK(channel >= 0 && channel < config_.channels && bank >= 0 &&
                  bank < config_.banks_per_channel,
              "bank out of range");
  return banks_[static_cast<std::size_t>(
                    channel * config_.banks_per_channel + bank)]
      .open_row;
}

TransferResult DramModel::transfer(std::int64_t address, std::int64_t bytes,
                                   bool is_write) {
  DRIFT_CHECK(address >= 0 && bytes >= 0, "invalid transfer");
  TransferResult result;
  if (bytes == 0) return result;

  // Address mapping: bursts interleave across channels, then rows map
  // onto banks round-robin — the streaming-friendly mapping DNN
  // accelerators use.  Global row r holds bursts_per_row bursts on
  // every channel and lives in bank r % banks of each channel.
  const std::int64_t channels = config_.channels;
  const std::int64_t banks = config_.banks_per_channel;
  const std::int64_t first_burst = address / config_.burst_bytes;
  const std::int64_t last_burst =
      (address + bytes - 1) / config_.burst_bytes;
  const std::int64_t bursts_per_global_row =
      config_.row_bytes / config_.burst_bytes * channels;

  // Each channel streams its bursts in address order, so it visits the
  // global rows [row_first, row_last] once each, in order.  Bank k sees
  // rows r, r + banks, r + 2*banks, ... of that range: its first visit
  // hits only if r is already open, and every later visit is a miss
  // that precharges the row the previous visit opened.
  std::int64_t busy = 0;     // slowest channel, in memory cycles
  std::int64_t misses = 0;
  for (std::int64_t c = 0; c < channels; ++c) {
    const std::int64_t first =
        first_burst + (c - first_burst % channels + channels) % channels;
    const std::int64_t last =
        last_burst - (last_burst % channels - c + channels) % channels;
    if (first > last) continue;  // transfer shorter than the interleave

    const std::int64_t row_first = first / bursts_per_global_row;
    const std::int64_t row_last = last / bursts_per_global_row;
    const std::int64_t first_rows =
        std::min(row_last - row_first + 1, banks);
    std::int64_t channel_misses = 0;
    std::int64_t precharges = 0;
    for (std::int64_t r = row_first; r < row_first + first_rows; ++r) {
      Bank& bank = banks_[static_cast<std::size_t>(c * banks + r % banks)];
      const std::int64_t revisits = (row_last - r) / banks;
      if (bank.open_row != r) {
        ++channel_misses;
        if (bank.open_row >= 0) ++precharges;
      }
      channel_misses += revisits;
      precharges += revisits;
      bank.open_row = r + revisits * banks;
    }

    const std::int64_t channel_bursts = (last - first) / channels + 1;
    stats_.row_hits += channel_bursts - channel_misses;
    misses += channel_misses;
    busy = std::max(busy, channel_bursts * config_.t_bl +
                              channel_misses * (config_.t_rcd + config_.t_cl) +
                              precharges * config_.t_rp);
  }

  const std::int64_t bursts = last_burst - first_burst + 1;
  stats_.row_misses += misses;
  (is_write ? stats_.writes : stats_.reads) += bursts;
  stats_.busy_mem_cycles += busy;

  result.core_cycles = static_cast<std::int64_t>(std::ceil(
      static_cast<double>(busy) / config_.mem_cycles_per_core_cycle));
  // Event energy, then background energy for the occupancy window.
  // With integer-valued event energies every partial sum is an exact
  // integer below 2^53, so this equals summing the events burst by
  // burst; fractional energies round once here instead.
  const double events =
      static_cast<double>(misses) * config_.e_activate_pj +
      static_cast<double>(bursts) * config_.e_burst_pj;
  const double background =
      config_.e_background_pj_per_core_cycle *
      static_cast<double>(result.core_cycles);
  result.energy_pj = events + background;
  stats_.energy_pj += events;
  stats_.energy_pj += background;
  return result;
}

TransferResult DramModel::stream(std::int64_t bytes, bool is_write) {
  const TransferResult r = transfer(bump_address_, bytes, is_write);
  // Advance to a fresh row boundary so independent tensors do not
  // accidentally share rows.
  bump_address_ +=
      ((bytes + config_.row_bytes - 1) / config_.row_bytes + 1) *
      config_.row_bytes;
  return r;
}

double DramModel::peak_bytes_per_core_cycle() const {
  // Row-hit steady state: one burst per t_bl per channel.
  const double bytes_per_mem_cycle =
      static_cast<double>(config_.burst_bytes * config_.channels) /
      static_cast<double>(config_.t_bl);
  return bytes_per_mem_cycle * config_.mem_cycles_per_core_cycle;
}

}  // namespace drift::dram
