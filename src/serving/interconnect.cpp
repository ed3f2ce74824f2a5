#include "serving/interconnect.hpp"

#include <algorithm>
#include <cassert>
#include <map>
#include <unordered_map>

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

// ------------------------------------------------------- PrefixDirectory

struct PrefixDirectory::CardListener : KvCacheListener {
  PrefixDirectory* owner = nullptr;
  std::int32_t card = 0;
  KvBlockPool* pool = nullptr;

  void OnCacheInsert(std::uint64_t chain_hash, std::uint64_t parent_hash,
                     std::span<const std::int32_t> block_tokens) override {
    owner->OnInsert(card, chain_hash, parent_hash, block_tokens);
  }
  void OnCacheEvict(std::uint64_t chain_hash) override {
    owner->OnEvict(card, chain_hash);
  }
};

struct PrefixDirectory::Impl {
  struct Entry {
    std::vector<std::int32_t> tokens;  // this block's content
    std::uint64_t parent = 0;          // chain hash before this block
    bool root = false;                 // parent is a pool chain seed
    std::uint64_t cards = 0;           // bitmask of holders
  };
  std::vector<std::unique_ptr<CardListener>> listeners;
  std::unordered_map<std::uint64_t, Entry> entries;
  std::vector<std::uint64_t> seeds;  // chain seeds of attached pools
  std::uint64_t attached_mask = 0;
};

PrefixDirectory::PrefixDirectory() : impl_(std::make_unique<Impl>()) {}

PrefixDirectory::~PrefixDirectory() {
  for (const auto& l : impl_->listeners) {
    if (l->pool != nullptr) l->pool->set_cache_listener(nullptr);
  }
}

void PrefixDirectory::Attach(std::int32_t card, KvBlockPool* pool) {
  assert(card >= 0 && card < kMaxCards && "directory card masks are 64-bit");
  auto listener = std::make_unique<CardListener>();
  listener->owner = this;
  listener->card = card;
  listener->pool = pool;
  pool->set_cache_listener(listener.get());
  const std::uint64_t seed = KvChainSeed(pool->config().dtype);
  if (std::find(impl_->seeds.begin(), impl_->seeds.end(), seed) ==
      impl_->seeds.end()) {
    impl_->seeds.push_back(seed);
  }
  impl_->attached_mask |= 1ull << card;
  impl_->listeners.push_back(std::move(listener));
}

void PrefixDirectory::OnInsert(std::int32_t card, std::uint64_t chain_hash,
                               std::uint64_t parent_hash,
                               std::span<const std::int32_t> block_tokens) {
  Impl::Entry& e = impl_->entries[chain_hash];
  if (e.cards == 0) {
    e.tokens.assign(block_tokens.begin(), block_tokens.end());
    e.parent = parent_hash;
    e.root = std::find(impl_->seeds.begin(), impl_->seeds.end(),
                       parent_hash) != impl_->seeds.end();
  }
  e.cards |= 1ull << card;
}

void PrefixDirectory::OnEvict(std::int32_t card, std::uint64_t chain_hash) {
  auto it = impl_->entries.find(chain_hash);
  if (it == impl_->entries.end()) return;
  it->second.cards &= ~(1ull << card);
  if (it->second.cards == 0) impl_->entries.erase(it);
}

PrefixDirectory::Location PrefixDirectory::Locate(
    std::span<const std::int32_t> tokens, std::int64_t max_tokens,
    std::uint64_t chain_seed, std::uint32_t block_size_tokens,
    std::uint64_t exclude_mask) const {
  Location loc;
  const std::int64_t bs = block_size_tokens;
  if (bs <= 0 || max_tokens <= 0) return loc;
  const std::int64_t len = static_cast<std::int64_t>(tokens.size());
  std::uint64_t h = chain_seed;
  std::uint64_t live = impl_->attached_mask & ~exclude_mask;
  std::int64_t full = 0;
  while (live != 0 && (full + 1) * bs <= len && full * bs < max_tokens) {
    const std::uint64_t next = KvChainAdvance(
        h, tokens.subspan(static_cast<std::size_t>(full * bs),
                          static_cast<std::size_t>(bs)));
    auto it = impl_->entries.find(next);
    if (it == impl_->entries.end()) break;
    const std::uint64_t holders = live & it->second.cards;
    if (holders == 0) break;
    live = holders;
    h = next;
    ++full;
    loc.matched_blocks = full;
    loc.card_mask = holders;
  }
  loc.matched_tokens = std::min(full * bs, max_tokens);
  return loc;
}

PrefixDirectorySnapshot PrefixDirectory::Export() const {
  // Resolve each entry's full token prefix by walking parents; entries
  // whose ancestry was evicted everywhere are unreconstructible orphans
  // and are skipped. Only per-card maximal chains (leaves) are emitted:
  // installing a chain re-creates every ancestor block.
  std::unordered_map<std::uint64_t, std::vector<std::int32_t>> resolved;
  std::unordered_map<std::uint64_t, bool> resolvable;
  auto resolve = [&](auto&& self, std::uint64_t hash)
      -> const std::vector<std::int32_t>* {
    auto done = resolvable.find(hash);
    if (done != resolvable.end()) {
      return done->second ? &resolved[hash] : nullptr;
    }
    resolvable[hash] = false;  // breaks (impossible) cycles
    auto it = impl_->entries.find(hash);
    if (it == impl_->entries.end()) return nullptr;
    std::vector<std::int32_t> full;
    if (!it->second.root) {
      const std::vector<std::int32_t>* parent =
          self(self, it->second.parent);
      if (parent == nullptr) return nullptr;
      full = *parent;
    }
    full.insert(full.end(), it->second.tokens.begin(),
                it->second.tokens.end());
    resolved[hash] = std::move(full);
    resolvable[hash] = true;
    return &resolved[hash];
  };

  // A hash is a leaf for card c unless some entry held by c names it as
  // parent.
  std::unordered_map<std::uint64_t, std::uint64_t> child_mask;
  for (const auto& [hash, e] : impl_->entries) {
    (void)hash;
    if (!e.root) child_mask[e.parent] |= e.cards;
  }

  PrefixDirectorySnapshot snapshot;
  for (const auto& [hash, e] : impl_->entries) {
    const std::vector<std::int32_t>* full = resolve(resolve, hash);
    if (full == nullptr) continue;
    const auto kids = child_mask.find(hash);
    const std::uint64_t covered =
        kids == child_mask.end() ? 0 : kids->second;
    for (std::int32_t card = 0; card < 64; ++card) {
      const std::uint64_t bit = 1ull << card;
      if ((e.cards & bit) == 0) continue;
      if ((covered & bit) != 0) continue;  // a longer chain covers this
      snapshot.chains.push_back({card, *full});
    }
  }
  std::sort(snapshot.chains.begin(), snapshot.chains.end(),
            [](const PrefixDirectorySnapshot::Chain& a,
               const PrefixDirectorySnapshot::Chain& b) {
              if (a.card != b.card) return a.card < b.card;
              return a.tokens < b.tokens;
            });
  return snapshot;
}

std::int64_t PrefixDirectory::entries() const {
  return static_cast<std::int64_t>(impl_->entries.size());
}

}  // namespace speedllm::serving
