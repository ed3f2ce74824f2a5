// SpeedLLM -- multi-card platform description.
//
// A serving cluster is N U280 cards behind one host scheduler (see
// serving/cluster.hpp). Cards may differ in HBM capacity (mixed board
// revisions, or capacity partitioned between tenants), which sizes each
// card's KV pool, but they must share one kernel clock: the cluster
// drives every card off a single discrete-event engine whose time unit
// is the kernel-clock cycle, so a heterogeneous clock would make "cycle"
// ambiguous across consumers.
#pragma once

#include <cstdint>
#include <vector>

#include "common/status.hpp"
#include "hw/u280_config.hpp"

namespace speedllm::hw {

/// Most cards one cluster may have. Per-card state, and a link station
/// per directed card pair, grow with the count, so a larger count is a
/// setup error rather than an allocation that cannot succeed.
inline constexpr int kMaxCards = 256;

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
  /// Card-to-card link model used for KV handoffs and remote prefix
  /// fetches. Ignored by single-card engines.
  InterconnectConfig interconnect;

  int num_cards() const { return static_cast<int>(cards.size()); }

  /// N identical copies of `card` -- the common deployment. A count past
  /// kMaxCards keeps kMaxCards + 1 copies, which Validate rejects.
  static MultiCardConfig Homogeneous(const U280Config& card, int num_cards);

  /// Non-empty, at most kMaxCards cards, clock-uniform (see file
  /// comment), with a valid interconnect.
  Status Validate() const;
};

}  // namespace speedllm::hw
