// SpeedLLM -- multi-card platform description.
//
// A serving cluster is N U280 cards behind one host scheduler (see
// serving/cluster.hpp). Cards may differ in HBM capacity (mixed board
// revisions, or capacity partitioned between tenants), but they must
// share one kernel clock: the cluster drives every card off a single
// discrete-event engine whose time unit is the kernel-clock cycle, so a
// heterogeneous clock would make "cycle" ambiguous across consumers.
#pragma once

#include <cstdint>
#include <vector>

#include "common/status.hpp"
#include "hw/u280_config.hpp"

namespace speedllm::hw {

/// Card-to-card interconnect link model (PCIe peer-to-peer or a NIC
/// bounce, abstracted as a serial pipe per directed card pair). A KV
/// transfer is store-and-forward: read out of the source card's HBM DMA
/// channel group, cross the link, write into the destination's group;
/// each leg queues on its own station, so transfers contend honestly
/// with COW/restore/swap DMA sharing the same HBM stations.
struct InterconnectConfig {
  /// Payload bytes the link moves per kernel-clock cycle once streaming.
  /// 32 B/cycle at 300 MHz is ~9.6 GB/s, i.e. a PCIe4 x8-class path.
  std::uint32_t link_bytes_per_cycle = 32;
  /// One-way link latency in kernel-clock cycles (DMA doorbell + wire +
  /// completion). 600 cycles at 300 MHz is ~2 us.
  std::uint32_t link_latency_cycles = 600;

  /// Positive bandwidth; latency may be zero.
  Status Validate() const;
};

struct MultiCardConfig {
  std::vector<U280Config> cards;
  /// Per-card KV-cache storage dtype. Empty means every card uses the
  /// scheduler's default (SchedulerConfig::kv_cache_dtype); otherwise one
  /// entry per card. Cards may mix fp16 and int8 pools -- placement is
  /// unchanged (policies bid in blocks, and each card's block already
  /// reflects its own bytes-per-token), and the per-pool cache-index hash
  /// seed is dtype-aware so fp16 and int8 blocks can never alias.
  std::vector<KvCacheDtype> kv_dtype_per_card;
  /// Card-to-card link model used for KV handoffs and remote prefix
  /// fetches. Ignored by single-card engines.
  InterconnectConfig interconnect;

  int num_cards() const { return static_cast<int>(cards.size()); }

  /// N identical copies of `card` -- the common deployment.
  static MultiCardConfig Homogeneous(const U280Config& card, int num_cards);

  /// Non-empty, clock-uniform (see file comment), and
  /// `kv_dtype_per_card` either empty or one entry per card.
  Status Validate() const;
};

}  // namespace speedllm::hw
