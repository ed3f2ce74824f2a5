#include "serving/interconnect.hpp"

#include <algorithm>
#include <cassert>

namespace speedllm::serving {

// ---------------------------------------------------------- Interconnect

Interconnect::Interconnect(const hw::MultiCardConfig& cards)
    : config_(cards.interconnect) {
  const std::size_t n = cards.cards.size();
  assert(n > 0 && "interconnect needs at least one card");
  hbm_.reserve(n);
  stacks_.reserve(n);
  local_dma_bytes_.assign(n, 0);
  link_bytes_.assign(n * n, 0);
  for (std::size_t c = 0; c < n; ++c) {
    // Descriptor setup serializes with the move on the real DMA engine,
    // so fold it into the stack's start latency: every queued transfer
    // then costs setup + latency + streaming end to end, which keeps the
    // uncontended (and back-to-back) cost bit-identical to the PR-5
    // additive ChargeDma model.
    hw::HbmConfig cfg = cards.cards[c].hbm;
    cfg.latency_cycles += cfg.dma_setup_cycles;
    hbm_.push_back(cfg);
    stacks_.push_back(std::make_unique<hw::HbmStack>(cfg));
  }
  links_.reserve(n * n);
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t d = 0; d < n; ++d) {
      links_.emplace_back("ic.s" + std::to_string(s) + ".d" +
                          std::to_string(d));
    }
  }
}

sim::Cycles Interconnect::LinkCycles(std::uint64_t bytes) const {
  const std::uint64_t per_cycle =
      std::max<std::uint64_t>(1, config_.link_bytes_per_cycle);
  return config_.link_latency_cycles + (bytes + per_cycle - 1) / per_cycle;
}

hw::TransferTiming Interconnect::LocalDma(sim::Cycles ready,
                                          std::uint64_t bytes,
                                          std::int32_t card) {
  const std::size_t c = static_cast<std::size_t>(card);
  assert(c < stacks_.size());
  local_dma_bytes_[c] += static_cast<std::int64_t>(bytes);
  const hw::TransferTiming window = stacks_[c]->Transfer(
      ready, bytes, 0, hbm_[c].num_channels, /*is_read=*/false);
  return hw::TransferTiming{ready, window.end};
}

hw::TransferTiming Interconnect::Transfer(sim::Cycles ready,
                                          std::uint64_t bytes,
                                          std::int32_t src,
                                          std::int32_t dst) {
  const std::size_t s = static_cast<std::size_t>(src);
  const std::size_t d = static_cast<std::size_t>(dst);
  assert(s < stacks_.size() && d < stacks_.size() && s != d);
  link_bytes_[LinkIndex(src, dst)] += static_cast<std::int64_t>(bytes);
  ++num_transfers_;
  const hw::TransferTiming read = stacks_[s]->Transfer(
      ready, bytes, 0, hbm_[s].num_channels, /*is_read=*/true);
  const sim::Cycles link_start =
      links_[LinkIndex(src, dst)].Acquire(read.end, LinkCycles(bytes));
  const sim::Cycles link_end = link_start + LinkCycles(bytes);
  const hw::TransferTiming write = stacks_[d]->Transfer(
      link_end, bytes, 0, hbm_[d].num_channels, /*is_read=*/false);
  return hw::TransferTiming{ready, write.end};
}

sim::Cycles Interconnect::EstimateTransferEnd(sim::Cycles ready,
                                              std::uint64_t bytes,
                                              std::int32_t src,
                                              std::int32_t dst) const {
  const std::size_t s = static_cast<std::size_t>(src);
  const std::size_t d = static_cast<std::size_t>(dst);
  assert(s < stacks_.size() && d < stacks_.size() && s != d);
  auto group_start = [](const hw::HbmStack& stack, sim::Cycles at) {
    sim::Cycles start = at;
    for (int c = 0; c < stack.num_channels(); ++c) {
      start = std::max(start, stack.channel(c).EarliestStart(at));
    }
    return start;
  };
  const sim::Cycles read_start = group_start(*stacks_[s], ready);
  const sim::Cycles read_end =
      read_start + stacks_[s]->TransferCycles(bytes, hbm_[s].num_channels);
  const sim::Cycles link_start =
      links_[LinkIndex(src, dst)].EarliestStart(read_end);
  const sim::Cycles link_end = link_start + LinkCycles(bytes);
  const sim::Cycles write_start = group_start(*stacks_[d], link_end);
  return write_start + stacks_[d]->TransferCycles(bytes, hbm_[d].num_channels);
}

std::int64_t Interconnect::transfer_out_bytes(std::int32_t card) const {
  std::int64_t total = 0;
  for (std::int32_t d = 0; d < num_cards(); ++d) {
    if (d != card) total += link_bytes(card, d);
  }
  return total;
}

std::int64_t Interconnect::transfer_in_bytes(std::int32_t card) const {
  std::int64_t total = 0;
  for (std::int32_t s = 0; s < num_cards(); ++s) {
    if (s != card) total += link_bytes(s, card);
  }
  return total;
}

std::int64_t Interconnect::total_transfer_bytes() const {
  std::int64_t total = 0;
  for (std::int64_t b : link_bytes_) total += b;
  return total;
}

}  // namespace speedllm::serving
