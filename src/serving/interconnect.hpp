// SpeedLLM -- simulated card-to-card interconnect (the disaggregation
// layer).
//
// serving::Interconnect queues every KV byte that moves -- card-local
// COW/restore/swap DMA and cross-card KV transfers -- on per-card
// hw::HbmStack stations plus one serial link station per directed card
// pair, so concurrent moves serialize honestly instead of being charged
// additively (the PR-5 model). A cross-card transfer is
// store-and-forward: read out of the source card's HBM channel group,
// cross the link, write into the destination's group. KV traffic rides
// the KV channel group of each stack; weight streams occupy disjoint
// groups per the U280 HBM switch model (hw/hbm.hpp), so the contention
// that matters -- KV transfer vs. KV DMA on one card -- is modeled
// station-accurately while uncontended moves keep the exact PR-5 cost.
// serving::KvHandoff is the payload a prefill card ships to a decode
// card. Admission arbitration (remote-fetch vs. local-recompute) lives
// in api::Engine, which probes each other card's pool for the longest
// cached prefix; this file supplies the transfer mechanism.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "hw/cluster.hpp"
#include "hw/hbm.hpp"
#include "llama/sampler.hpp"
#include "serving/request.hpp"
#include "sim/station.hpp"

namespace speedllm::serving {

/// Queues KV byte movement on shared per-card HBM stations and per-link
/// stations. All timing is in kernel-clock cycles on the cluster's
/// shared discrete-event clock; callers convert to seconds via
/// hw::U280Config::cycles_to_seconds.
class Interconnect {
 public:
  /// Builds one HBM channel-group station set per card and one serial
  /// link station per directed card pair from `cards` (which must
  /// validate). The config must outlive nothing -- it is copied.
  explicit Interconnect(const hw::MultiCardConfig& cards);

  /// Queues a card-local DMA move of `bytes` (COW / restore / swap) on
  /// `card`'s HBM channel group, starting no earlier than `ready`.
  /// Uncontended, the window ends exactly `dma_setup + hbm latency +
  /// ceil(bytes / aggregate bandwidth)` cycles after `ready` -- the
  /// PR-5 additive cost -- but a busy channel pushes the start out.
  hw::TransferTiming LocalDma(sim::Cycles ready, std::uint64_t bytes,
                              std::int32_t card);

  /// Queues a cross-card KV transfer of `bytes` from `src` to `dst`:
  /// source HBM read, link crossing, destination HBM write, each leg
  /// waiting for its station. Returns the full window (start = source
  /// read start, end = destination write end).
  hw::TransferTiming Transfer(sim::Cycles ready, std::uint64_t bytes,
                              std::int32_t src, std::int32_t dst);

  /// Non-mutating estimate of Transfer's completion cycle given current
  /// station occupancy -- the fetch side of the admission arbiter's
  /// remote-fetch vs. local-recompute comparison.
  sim::Cycles EstimateTransferEnd(sim::Cycles ready, std::uint64_t bytes,
                                  std::int32_t src, std::int32_t dst) const;

  /// Cards this interconnect spans.
  std::int32_t num_cards() const {
    return static_cast<std::int32_t>(stacks_.size());
  }
  /// Cumulative card-local DMA bytes queued through `card`'s stations --
  /// reconciles against that card's KvPoolStats::dma_bytes_moved.
  std::int64_t local_dma_bytes(std::int32_t card) const {
    return local_dma_bytes_[static_cast<std::size_t>(card)];
  }
  /// Cumulative bytes shipped over the directed link `src` -> `dst`.
  std::int64_t link_bytes(std::int32_t src, std::int32_t dst) const {
    return link_bytes_[LinkIndex(src, dst)];
  }
  /// Cumulative bytes shipped out of `card` over any link.
  std::int64_t transfer_out_bytes(std::int32_t card) const;
  /// Cumulative bytes shipped into `card` over any link.
  std::int64_t transfer_in_bytes(std::int32_t card) const;
  /// Total cross-card bytes over all links.
  std::int64_t total_transfer_bytes() const;
  /// Number of cross-card transfers completed or scheduled.
  std::int64_t num_transfers() const { return num_transfers_; }

 private:
  std::size_t LinkIndex(std::int32_t src, std::int32_t dst) const {
    return static_cast<std::size_t>(src) * stacks_.size() +
           static_cast<std::size_t>(dst);
  }
  sim::Cycles LinkCycles(std::uint64_t bytes) const;

  hw::InterconnectConfig config_;
  std::vector<hw::HbmConfig> hbm_;                    // per card
  std::vector<std::unique_ptr<hw::HbmStack>> stacks_; // per card
  std::vector<sim::Station> links_;                   // src * n + dst
  std::vector<std::int64_t> local_dma_bytes_;
  std::vector<std::int64_t> link_bytes_;
  std::int64_t num_transfers_ = 0;
};

/// A prefill-complete sequence in flight between a prefill shard and a
/// decode shard: everything the destination needs to continue decoding
/// with a byte-identical token stream. The sampler travels by value so
/// its RNG stream continues exactly where the prefill shard left it.
/// The K/V pages travel only as simulated bytes (`kv_bytes`): no host
/// rows ship, and the decode shard recomputes the rows of every `fed`
/// token it does not find cached when it lands the handoff.
struct KvHandoff {
  /// The original request (owned by the cluster; outlives the handoff).
  const ServingRequest* request = nullptr;
  /// Global request stream index.
  std::size_t stream_index = 0;
  /// Mid-stream sampler state (already consumed the first token's draw).
  llama::Sampler sampler{llama::SamplerConfig{}};
  /// Prompt tokens already forwarded on the prefill shard.
  std::vector<std::int32_t> fed;
  /// First sampled token, not yet committed or emitted.
  std::int32_t pending_token = -1;
  /// Outcome accumulated so far (arrival/admission/TTFT stamped on the
  /// prefill shard; completion is stamped where decoding finishes).
  RequestOutcome outcome;
  /// Physical KV payload shipped, dtype-aware: whole blocks at the
  /// pool's block_bytes() (int8 pools ship roughly half of fp16's).
  std::int64_t kv_bytes = 0;
};

}  // namespace speedllm::serving
