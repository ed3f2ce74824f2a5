#include "serving/kv_pool.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace speedllm::serving {

namespace {

/// FNV-1a offset basis; the chain starts here for every sequence so equal
/// token prefixes hash equally regardless of which sequence wrote them.
/// KvChainSeed folds the dtype in on top, so fp16 and int8 content can
/// never collide in a cache index.
constexpr std::uint64_t kChainSeed = 0xcbf29ce484222325ull;

/// Folds one token into the running chain hash (boost-style combine with
/// an FNV-prime multiply). 64-bit collisions would alias two different
/// prefixes; at simulation scale that is as improbable as in vLLM's
/// hash-addressed prefix cache, and the stress test's no-false-sharing
/// invariant would catch a bad mix.
std::uint64_t MixToken(std::uint64_t h, std::int32_t token) {
  h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(token)) +
       0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h * 0x100000001b3ull;
}

std::uint64_t MixBlock(std::uint64_t h,
                       std::span<const std::int32_t> tokens) {
  for (std::int32_t t : tokens) h = MixToken(h, t);
  return h;
}

}  // namespace

std::uint64_t KvChainAdvance(std::uint64_t h,
                             std::span<const std::int32_t> block_tokens) {
  return MixBlock(h, block_tokens);
}

std::string_view KvCacheDtypeName(KvCacheDtype dtype) {
  switch (dtype) {
    case KvCacheDtype::kFp16: return "fp16";
    case KvCacheDtype::kInt8: return "int8";
  }
  return "unknown";
}

std::uint32_t KvBytesPerToken(const llama::ModelConfig& config,
                              KvCacheDtype dtype) {
  // K and V vectors of kv_dim elements per layer, at the dtype's width.
  const std::int64_t elems = 2ll * config.n_layers * config.kv_dim();
  switch (dtype) {
    case KvCacheDtype::kFp16:
      return static_cast<std::uint32_t>(elems * 2);
    case KvCacheDtype::kInt8:
      return static_cast<std::uint32_t>(elems);
  }
  return 0;
}

std::uint32_t KvQuantMetadataBytesPerBlock(const llama::ModelConfig& config,
                                           KvCacheDtype dtype) {
  if (dtype != KvCacheDtype::kInt8) return 0;
  // One fp32 scale per (layer, K|V) per block: quant::QuantizedTensor's
  // symmetric (zero-point-free) per-group scale bookkeeping with the
  // group spanning one block's tokens. Amortized over the block, so
  // int8 stays close to half of fp16's bytes-per-token.
  return static_cast<std::uint32_t>(2ll * config.n_layers * sizeof(float));
}

std::uint64_t KvChainSeed(KvCacheDtype dtype) {
  // Advance the FNV basis by one dtype-tagged mix step; distinct dtypes
  // start their chains from distinct, fixed seeds.
  return MixToken(kChainSeed,
                  static_cast<std::int32_t>(dtype) + 0x5eed);
}

KvPoolConfig MakeKvPoolConfig(const llama::ModelConfig& model,
                              KvCacheDtype dtype, std::uint64_t pool_bytes,
                              std::uint32_t block_size_tokens,
                              bool enable_prefix_cache) {
  KvPoolConfig config;
  config.pool_bytes = pool_bytes;
  config.block_size_tokens = block_size_tokens;
  config.bytes_per_token = KvBytesPerToken(model, dtype);
  config.dtype = dtype;
  config.quant_metadata_bytes = KvQuantMetadataBytesPerBlock(model, dtype);
  config.enable_prefix_cache = enable_prefix_cache;
  config.payload_layers = model.n_layers;
  config.payload_kv_dim = model.kv_dim();
  return config;
}

// ------------------------------------------------------------ row arena

namespace {

/// Arena chunk bounds, each at least one slot. A chunk is as large as the
/// slots carved before it, within these, so a large arena needs few
/// chunks. The floor keeps chunks out of the allocator's small-object
/// heap: a chunk's pages then stay untouched until carved, and no other
/// allocation shares them.
constexpr std::int64_t kMinArenaChunkBytes = 256 * 1024;
constexpr std::int64_t kMaxArenaChunkBytes = 16ll << 20;

/// Whole slots of `block_floats` floats in `bytes`, at least one.
std::int64_t SlotsIn(std::int64_t bytes, std::int64_t block_floats) {
  return std::max<std::int64_t>(
      1, bytes / (block_floats * static_cast<std::int64_t>(sizeof(float))));
}

}  // namespace

KvRowArena::KvRowArena(std::int64_t block_floats)
    : block_floats_(block_floats),
      min_chunk_slots_(SlotsIn(kMinArenaChunkBytes, block_floats)),
      max_chunk_slots_(SlotsIn(kMaxArenaChunkBytes, block_floats)) {
  assert(block_floats_ > 0 && "slot geometry must be set");
}

float* KvRowArena::AcquireSlot() {
  if (!free_slots_.empty()) {
    float* slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  if (carved_in_chunk_ == chunk_slots_) {
    // A new chunk; the old ones never move, so no slot address changes
    // and nothing is copied. Its pages stay untouched until carved.
    chunk_slots_ =
        std::clamp<std::int64_t>(slots_, min_chunk_slots_, max_chunk_slots_);
    chunks_.push_back(std::make_unique_for_overwrite<float[]>(
        static_cast<std::size_t>(chunk_slots_ * block_floats_)));
    carved_in_chunk_ = 0;
  }
  ++slots_;
  float* slot = chunks_.back().get() + carved_in_chunk_++ * block_floats_;
  std::fill_n(slot, block_floats_, 0.0f);  // never read uninitialized
  return slot;
}

std::int32_t KvRowArena::Park(KvBlockPool* pool, std::int32_t block,
                              std::int32_t tokens) {
  std::int32_t entry = static_cast<std::int32_t>(entries_.size());
  if (free_entries_.empty()) {
    entries_.emplace_back();
  } else {
    entry = free_entries_.back();
    free_entries_.pop_back();
  }
  entries_[static_cast<std::size_t>(entry)] =
      Entry{pool, block, tokens, warmest_, -1};
  (warmest_ < 0 ? coldest_
                : entries_[static_cast<std::size_t>(warmest_)].warmer) = entry;
  warmest_ = entry;
  cached_tokens_ += tokens;
  while (cached_tokens_ > kHostCachedKvTokens) {
    // The list's head is the coldest cached block of every sharing pool.
    const Entry victim = entries_[static_cast<std::size_t>(coldest_)];
    Unpark(coldest_);
    victim.pool->DropRows(victim.block);
  }
  return entry;
}

void KvRowArena::Unpark(std::int32_t entry) {
  const Entry& e = entries_[static_cast<std::size_t>(entry)];
  (e.colder < 0 ? coldest_
                : entries_[static_cast<std::size_t>(e.colder)].warmer) =
      e.warmer;
  (e.warmer < 0 ? warmest_
                : entries_[static_cast<std::size_t>(e.warmer)].colder) =
      e.colder;
  cached_tokens_ -= e.tokens;
  free_entries_.push_back(entry);
}

// ----------------------------------------------------------------- pool

KvBlockPool::KvBlockPool(const KvPoolConfig& config, KvRowArena* arena)
    : config_(config),
      chain_seed_(KvChainSeed(config.dtype)),
      block_floats_(config.payload_layout().block_floats()) {
  assert(config_.bytes_per_token > 0 && "bytes_per_token must be set");
  assert(config_.block_size_tokens > 0 && "block_size_tokens must be set");
  assert(block_floats_ > 0 && "payload geometry must be set");
  if (arena == nullptr) {
    own_arena_ = std::make_unique<KvRowArena>(block_floats_);
    arena = own_arena_.get();
  }
  arena_ = arena;
  assert(arena_->block_floats() == block_floats_ &&
         "pools sharing an arena must share the payload geometry");
  const std::uint64_t block_bytes = config_.block_bytes();
  num_blocks_ =
      block_bytes == 0
          ? 0
          : static_cast<std::int64_t>(config_.pool_bytes / block_bytes);
  // Metadata materializes lazily in AllocateBlock, rows with the slots
  // the blocks take.
}

KvBlockPool::~KvBlockPool() {
  if (own_arena_ != nullptr) return;  // the rows die with the pool
  for (BlockMeta& m : meta_) {
    if (m.rows == nullptr) continue;
    if (m.refcount == 0 && m.cached) arena_->Unpark(m.arena_entry);
    arena_->ReleaseSlot(m.rows);
  }
}

std::int64_t KvBlockPool::BlocksForTokens(std::int64_t tokens) const {
  if (tokens <= 0) return 0;
  const std::int64_t bs = config_.block_size_tokens;
  return (tokens + bs - 1) / bs;
}

std::int64_t KvBlockPool::WalkCachedPrefix(
    std::span<const std::int32_t> tokens, std::int64_t max_tokens,
    std::vector<std::int32_t>* blocks,
    std::vector<std::uint64_t>* chain_before) const {
  if (!config_.enable_prefix_cache || cache_.empty()) return 0;
  const std::int64_t bs = config_.block_size_tokens;
  const std::int64_t len = static_cast<std::int64_t>(tokens.size());
  std::uint64_t h = chain_seed_;
  std::int64_t full = 0;
  // Only whole blocks are content-addressed, and a block starting at or
  // past the cap cannot contribute any usable token.
  while ((full + 1) * bs <= len && full * bs < max_tokens) {
    const std::uint64_t next = MixBlock(
        h, tokens.subspan(static_cast<std::size_t>(full * bs),
                          static_cast<std::size_t>(bs)));
    auto it = cache_.find(next);
    if (it == cache_.end()) break;
    if (blocks != nullptr) blocks->push_back(it->second);
    if (chain_before != nullptr) chain_before->push_back(h);
    h = next;
    ++full;
  }
  return full;
}

PrefixMatch KvBlockPool::MatchCachedPrefix(
    std::span<const std::int32_t> tokens, std::int64_t max_tokens) const {
  PrefixMatch match;
  std::vector<std::int32_t> blocks;
  const std::int64_t full = WalkCachedPrefix(tokens, max_tokens, &blocks,
                                             nullptr);
  if (full == 0 || max_tokens <= 0) return match;
  const std::int64_t bs = config_.block_size_tokens;
  match.matched_tokens = std::min(full * bs, max_tokens);
  match.matched_blocks = (match.matched_tokens + bs - 1) / bs;
  for (std::int64_t k = 0; k < match.matched_blocks; ++k) {
    if (meta_[static_cast<std::size_t>(blocks[static_cast<std::size_t>(k)])]
            .refcount > 0) {
      ++match.live_shared_blocks;
    }
  }
  return match;
}

std::int64_t KvBlockPool::InstallCachedPrefix(
    std::span<const std::int32_t> tokens, std::int64_t max_tokens) {
  if (!config_.enable_prefix_cache) return 0;
  const std::int64_t bs = config_.block_size_tokens;
  const std::int64_t limit =
      std::min(static_cast<std::int64_t>(tokens.size()), max_tokens);
  std::uint64_t h = chain_seed_;
  std::int64_t full = 0;
  while ((full + 1) * bs <= limit) {
    const std::uint64_t next = MixBlock(
        h, tokens.subspan(static_cast<std::size_t>(full * bs),
                          static_cast<std::size_t>(bs)));
    if (cache_.find(next) == cache_.end()) {
      const std::int32_t block = AllocateBlock();
      if (block < 0) break;  // pool saturated with live owners
      BlockMeta& m = meta_[static_cast<std::size_t>(block)];
      m.cold = true;  // no host rows travel: the first hit recomputes them
      m.refcount = 0;
      m.cached = true;
      m.hash = next;
      cache_.emplace(next, block);
      ParkBlock(block);
      ++stats_.cache_insertions;
      ++stats_.remote_install_blocks;
    }
    h = next;
    ++full;
  }
  return full * bs;
}

Status KvBlockPool::Register(std::uint64_t seq) {
  if (seqs_.count(seq)) {
    return FailedPrecondition("sequence " + std::to_string(seq) +
                              " already registered in KV pool");
  }
  SeqState state;
  state.chain_hash = chain_seed_;
  seqs_.emplace(seq, std::move(state));
  ++stats_.sequence_registers;
  return Status::Ok();
}

StatusOr<PrefixMatch> KvBlockPool::AcquireCachedPrefix(
    std::uint64_t seq, std::span<const std::int32_t> tokens,
    std::int64_t max_tokens) {
  auto it = seqs_.find(seq);
  if (it == seqs_.end()) {
    return NotFound("sequence " + std::to_string(seq) +
                    " not registered in KV pool");
  }
  SeqState& state = it->second;
  if (state.tokens != 0 || !state.blocks.empty()) {
    return FailedPrecondition("AcquireCachedPrefix must run before Append");
  }
  PrefixMatch match;
  if (!config_.enable_prefix_cache) return match;
  ++stats_.prefix_queries;
  stats_.prefix_lookup_tokens +=
      std::max<std::int64_t>(0,
                             std::min(static_cast<std::int64_t>(tokens.size()),
                                      max_tokens));
  std::vector<std::int32_t> blocks;
  std::vector<std::uint64_t> chain_before;
  const std::int64_t full =
      WalkCachedPrefix(tokens, max_tokens, &blocks, &chain_before);
  if (full == 0 || max_tokens <= 0) return match;

  const std::int64_t bs = config_.block_size_tokens;
  match.matched_tokens = std::min(full * bs, max_tokens);
  match.matched_blocks = (match.matched_tokens + bs - 1) / bs;
  std::int64_t first_cold = -1;
  std::int64_t last_cold = -1;
  for (std::int64_t k = 0; k < match.matched_blocks; ++k) {
    const std::int32_t b = blocks[static_cast<std::size_t>(k)];
    BlockMeta& m = meta_[static_cast<std::size_t>(b)];
    if (m.refcount == 0) {
      // Revive off the LRU list: the block was free capacity until now.
      // A live block always holds a slot; a cold one's rows are owed.
      UnparkBlock(b);
      if (m.rows == nullptr) m.rows = arena_->AcquireSlot();
      ++used_blocks_;
      ++stats_.cache_block_reacquires;
      stats_.peak_used_blocks = std::max(stats_.peak_used_blocks,
                                         used_blocks_);
    } else {
      ++match.live_shared_blocks;
      ++stats_.shared_block_acquires;
    }
    ++m.refcount;
    state.blocks.push_back(b);
    state.rows.push_back(m.rows);
    if (m.cold) {
      if (first_cold < 0) first_cold = k;
      last_cold = k;
    }
  }
  if (first_cold >= 0) {
    match.recompute_begin = first_cold * bs;
    match.recompute_end = (last_cold + 1) * bs;
  }
  state.tokens = match.matched_tokens;
  // The chain covers only fully consumed blocks; a partially consumed
  // last block contributes its consumed tokens to the tail so a later
  // seal recomputes the same content hash.
  const std::int64_t sealed = match.matched_tokens / bs;
  state.chain_hash = sealed < full
                         ? chain_before[static_cast<std::size_t>(sealed)]
                         : MixBlock(chain_before.back(),
                                    tokens.subspan(static_cast<std::size_t>(
                                                       (full - 1) * bs),
                                                   static_cast<std::size_t>(bs)));
  const std::int64_t rem = match.matched_tokens % bs;
  if (rem > 0) {
    state.tail.assign(tokens.begin() + sealed * bs,
                      tokens.begin() + match.matched_tokens);
  }
  ++stats_.prefix_hits;
  stats_.prefix_hit_tokens += match.matched_tokens;
  // Attending over the mapped blocks is an on-device HBM read of every
  // one of them.
  const std::int64_t restore_bytes =
      match.matched_blocks * static_cast<std::int64_t>(config_.block_bytes());
  stats_.restore_dma_bytes += restore_bytes;
  stats_.dma_bytes_moved += restore_bytes;
  assert(bytes_in_use() <= config_.pool_bytes &&
         "KV pool exceeded its HBM budget");
  return match;
}

Status KvBlockPool::MarkRecomputed(std::uint64_t seq, std::int64_t begin,
                                   std::int64_t end) {
  auto it = seqs_.find(seq);
  if (it == seqs_.end()) {
    return NotFound("sequence " + std::to_string(seq) +
                    " not registered in KV pool");
  }
  const SeqState& state = it->second;
  const std::int64_t bs = config_.block_size_tokens;
  if (begin < 0 || begin > end ||
      end > static_cast<std::int64_t>(state.blocks.size()) * bs) {
    return OutOfRange("recomputed rows [" + std::to_string(begin) + ", " +
                      std::to_string(end) + ") lie outside sequence " +
                      std::to_string(seq) + "'s blocks");
  }
  for (std::int64_t k = (begin + bs - 1) / bs; (k + 1) * bs <= end; ++k) {
    meta_[static_cast<std::size_t>(state.blocks[static_cast<std::size_t>(k)])]
        .cold = false;
  }
  stats_.host_recomputed_rows += end - begin;
  return Status::Ok();
}

std::int32_t KvBlockPool::AllocateBlock() {
  std::int32_t b = -1;
  if (!free_list_.empty()) {
    b = free_list_.back();
    free_list_.pop_back();
  } else if (materialized_blocks() < num_blocks_) {
    // Fresh ids ascend after every returned id is reused: the order an
    // eagerly filled LIFO free list (pushed descending) would give.
    b = static_cast<std::int32_t>(meta_.size());
    meta_.emplace_back();
    ++stats_.materialized_blocks;
  } else if (!lru_.empty()) {
    // Evict the coldest cached block: its content is discarded and the
    // hash entry removed, but no live owner is ever touched.
    b = lru_.begin()->second;
    UnparkBlock(b);
    BlockMeta& m = meta_[static_cast<std::size_t>(b)];
    assert(m.refcount == 0 && m.cached && "LRU held a live block");
    cache_.erase(m.hash);
    m.cached = false;
    m.hash = 0;
    ++stats_.cache_evictions;
  } else {
    return -1;
  }
  BlockMeta& m = meta_[static_cast<std::size_t>(b)];
  if (m.rows == nullptr) m.rows = arena_->AcquireSlot();
  m.cold = false;
  return b;
}

void KvBlockPool::ParkBlock(std::int32_t block) {
  BlockMeta& m = meta_[static_cast<std::size_t>(block)];
  m.lru_stamp = lru_tick_++;
  lru_.emplace(m.lru_stamp, block);
  if (m.cold) {
    ReleaseRows(m);  // nothing worth keeping until a hit recomputes it
  } else {
    // May drop this pool's or another pool's coldest cached rows.
    m.arena_entry = arena_->Park(
        this, block, static_cast<std::int32_t>(config_.block_size_tokens));
  }
}

void KvBlockPool::UnparkBlock(std::int32_t block) {
  const BlockMeta& m = meta_[static_cast<std::size_t>(block)];
  lru_.erase(m.lru_stamp);
  if (m.rows != nullptr) arena_->Unpark(m.arena_entry);
}

void KvBlockPool::ReleaseRows(BlockMeta& m) {
  if (m.rows == nullptr) return;
  arena_->ReleaseSlot(m.rows);
  m.rows = nullptr;
}

void KvBlockPool::DropRows(std::int32_t block) {
  BlockMeta& m = meta_[static_cast<std::size_t>(block)];
  assert(m.refcount == 0 && m.cached && "the arena dropped a live block");
  ReleaseRows(m);
  m.cold = true;
  ++stats_.host_dropped_blocks;
}

void KvBlockPool::AdoptBlock(SeqState& state, std::int32_t block,
                             bool replace_tail) {
  BlockMeta& m = meta_[static_cast<std::size_t>(block)];
  m.refcount = 1;
  m.cached = false;
  m.hash = 0;
  if (replace_tail) {
    state.blocks.back() = block;
    state.rows.back() = m.rows;
  } else {
    state.blocks.push_back(block);
    state.rows.push_back(m.rows);
  }
  ++used_blocks_;
  ++stats_.block_allocs;
  stats_.peak_used_blocks = std::max(stats_.peak_used_blocks, used_blocks_);
  assert(bytes_in_use() <= config_.pool_bytes &&
         "KV pool exceeded its HBM budget");
}

void KvBlockPool::DropBlockRef(std::int32_t block) {
  BlockMeta& m = meta_[static_cast<std::size_t>(block)];
  assert(m.refcount > 0 && "dropping a reference nobody holds");
  if (--m.refcount > 0) return;
  --used_blocks_;
  ++stats_.block_frees;
  if (m.cached) {
    ParkBlock(block);
  } else {
    ReleaseRows(m);
    free_list_.push_back(block);
  }
}

void KvBlockPool::SealTailBlock(SeqState& state) {
  state.chain_hash = MixBlock(state.chain_hash, state.tail);
  if (!config_.enable_prefix_cache) {
    state.tail.clear();
    return;
  }
  const std::int32_t block = state.blocks.back();
  BlockMeta& m = meta_[static_cast<std::size_t>(block)];
  assert(!m.cached && m.refcount == 1 && "sealing a non-private tail");
  const auto [it, inserted] = cache_.try_emplace(state.chain_hash, block);
  (void)it;
  if (inserted) {
    // First block with this content: future prompts match it.
    m.cached = true;
    m.hash = state.chain_hash;
    ++stats_.cache_insertions;
  }
  // Equal content already cached (e.g. the source of a copy-on-write):
  // this physical copy stays private and is simply freed on release.
  state.tail.clear();
}

Status KvBlockPool::Append(std::uint64_t seq, std::int32_t token) {
  auto it = seqs_.find(seq);
  if (it == seqs_.end()) {
    return NotFound("sequence " + std::to_string(seq) +
                    " not registered in KV pool");
  }
  SeqState& state = it->second;
  const std::int64_t bs = config_.block_size_tokens;
  const std::int64_t offset = state.tokens % bs;
  if (offset == 0) {
    const std::int32_t block = AllocateBlock();
    if (block < 0) {
      return ResourceExhausted("KV pool out of blocks (" +
                               std::to_string(num_blocks_) + " total)");
    }
    AdoptBlock(state, block, /*replace_tail=*/false);
  } else {
    const std::int32_t tail = state.blocks.back();
    const BlockMeta& m = meta_[static_cast<std::size_t>(tail)];
    if (m.cached || m.refcount > 1) {
      // Copy-on-write: the KV write would land inside a block that other
      // owners (or the cache index) rely on staying immutable. Allocate
      // first so failure leaves the sequence untouched.
      const std::int32_t copy = AllocateBlock();
      if (copy < 0) {
        return ResourceExhausted("KV pool out of blocks for COW (" +
                                 std::to_string(num_blocks_) + " total)");
      }
      // (AllocateBlock may have grown meta_: index it afresh.)
      std::memcpy(meta_[static_cast<std::size_t>(copy)].rows,
                  meta_[static_cast<std::size_t>(tail)].rows,
                  static_cast<std::size_t>(block_floats_) * sizeof(float));
      DropBlockRef(tail);
      AdoptBlock(state, copy, /*replace_tail=*/true);
      ++stats_.cow_copies;
      // The private copy rewrites one block's payload through HBM.
      const std::int64_t cow_bytes =
          static_cast<std::int64_t>(config_.block_bytes());
      stats_.cow_dma_bytes += cow_bytes;
      stats_.dma_bytes_moved += cow_bytes;
    }
  }
  state.tail.push_back(token);
  ++state.tokens;
  if (state.speculating) ++stats_.spec_draft_tokens;
  if (state.tokens % bs == 0) {
    if (state.speculating) {
      // Draft content must never enter the content-address index: the
      // tokens are a draft model's guesses, not committed stream
      // content. Advance the chain shape (rollback restores it) but
      // skip the cache insert and its listener.
      state.chain_hash = MixBlock(state.chain_hash, state.tail);
      state.tail.clear();
    } else {
      SealTailBlock(state);
    }
  }
  return Status::Ok();
}

bool KvBlockPool::AppendIsLocal(std::uint64_t seq) const {
  auto it = seqs_.find(seq);
  if (it == seqs_.end()) return false;
  const SeqState& state = it->second;
  const std::int64_t bs = config_.block_size_tokens;
  const std::int64_t offset = state.tokens % bs;
  if (state.speculating || offset == 0 || offset + 1 == bs) return false;
  const BlockMeta& m = meta_[static_cast<std::size_t>(state.blocks.back())];
  return m.refcount == 1 && !m.cached;
}

Status KvBlockPool::BeginSpeculation(std::uint64_t seq) {
  auto it = seqs_.find(seq);
  if (it == seqs_.end()) {
    return NotFound("sequence " + std::to_string(seq) +
                    " not registered in KV pool");
  }
  SeqState& state = it->second;
  if (state.speculating) {
    return FailedPrecondition("sequence " + std::to_string(seq) +
                              " already has an open draft phase");
  }
  state.speculating = true;
  state.spec_tokens = state.tokens;
  state.spec_num_blocks = state.blocks.size();
  state.spec_chain_hash = state.chain_hash;
  state.spec_tail = state.tail;
  ++stats_.spec_phases;
  return Status::Ok();
}

Status KvBlockPool::RollbackSpeculation(std::uint64_t seq) {
  auto it = seqs_.find(seq);
  if (it == seqs_.end()) {
    return NotFound("sequence " + std::to_string(seq) +
                    " not registered in KV pool");
  }
  SeqState& state = it->second;
  if (!state.speculating) {
    return FailedPrecondition("sequence " + std::to_string(seq) +
                              " has no open draft phase");
  }
  // Draft-only blocks past the snapshot were allocated with sealing
  // suppressed, so nobody else could ever have acquired them: refcount
  // is exactly one and they are not cached, which makes DropBlockRef
  // return them straight to the free list.
  while (state.blocks.size() > state.spec_num_blocks) {
    const std::int32_t block = state.blocks.back();
    assert(meta_[static_cast<std::size_t>(block)].refcount == 1 &&
           !meta_[static_cast<std::size_t>(block)].cached &&
           "draft-only block leaked a reference or a cache entry");
    DropBlockRef(block);
    state.blocks.pop_back();
    state.rows.pop_back();
    ++stats_.spec_rollback_blocks;
  }
  // If a copy-on-write replaced the snapshot's tail block mid-phase, the
  // private copy stays: it holds the committed prefix content, exactly
  // the after-COW state a non-speculative write would have left.
  state.tokens = state.spec_tokens;
  state.chain_hash = state.spec_chain_hash;
  state.tail = std::move(state.spec_tail);
  state.spec_tail.clear();
  state.speculating = false;
  return Status::Ok();
}

bool KvBlockPool::InSpeculation(std::uint64_t seq) const {
  auto it = seqs_.find(seq);
  return it != seqs_.end() && it->second.speculating;
}

Status KvBlockPool::Release(std::uint64_t seq, bool preempted) {
  auto it = seqs_.find(seq);
  if (it == seqs_.end()) {
    return NotFound("sequence " + std::to_string(seq) +
                    " not registered in KV pool");
  }
  if (preempted) {
    // A swap-out drains the victim's privately-owned, non-cached KV back
    // through the HBM staging buffers (the write-out a swap preemption
    // pays). Blocks with a co-owner stay resident for the co-owner, and
    // cache-indexed blocks park on the LRU list *in place* -- neither
    // moves a byte. Readmission recomputes instead of restoring, so no
    // swap-in is charged; if the cached blocks survive until then, the
    // readmission's AcquireCachedPrefix charges a restore instead.
    std::int64_t swap_bytes = 0;
    for (std::int32_t b : it->second.blocks) {
      const BlockMeta& m = meta_[static_cast<std::size_t>(b)];
      if (m.refcount == 1 && !m.cached) {
        swap_bytes += static_cast<std::int64_t>(config_.block_bytes());
      }
    }
    stats_.swap_dma_bytes += swap_bytes;
    stats_.dma_bytes_moved += swap_bytes;
  }
  for (std::int32_t b : it->second.blocks) {
    DropBlockRef(b);
  }
  seqs_.erase(it);
  ++stats_.sequence_releases;
  if (preempted) ++stats_.preemption_releases;
  return Status::Ok();
}

std::int64_t KvBlockPool::SequenceTokens(std::uint64_t seq) const {
  auto it = seqs_.find(seq);
  return it == seqs_.end() ? 0 : it->second.tokens;
}

const std::vector<std::int32_t>& KvBlockPool::BlockTable(
    std::uint64_t seq) const {
  auto it = seqs_.find(seq);
  assert(it != seqs_.end() && "BlockTable of unregistered sequence");
  return it->second.blocks;
}

accel::KvPages KvBlockPool::Pages(std::uint64_t seq) {
  auto it = seqs_.find(seq);
  assert(it != seqs_.end() && "Pages of unregistered sequence");
  return accel::KvPages{config_.payload_layout(), it->second.rows};
}

std::span<const float> KvBlockPool::BlockPayload(std::int32_t block) const {
  assert(block >= 0 && block < materialized_blocks());
  const float* rows = meta_[static_cast<std::size_t>(block)].rows;
  if (rows == nullptr) return {};
  return {rows, static_cast<std::size_t>(block_floats_)};
}

bool KvBlockPool::BlockIsCold(std::int32_t block) const {
  return block < materialized_blocks() &&
         meta_[static_cast<std::size_t>(block)].cold;
}

// Ids past materialized_blocks() were never handed out: free, uncached.
std::int32_t KvBlockPool::BlockRefCount(std::int32_t block) const {
  return block < materialized_blocks()
             ? meta_[static_cast<std::size_t>(block)].refcount
             : 0;
}

bool KvBlockPool::BlockIsCached(std::int32_t block) const {
  return block < materialized_blocks() &&
         meta_[static_cast<std::size_t>(block)].cached;
}

std::uint64_t KvBlockPool::BlockChainHash(std::int32_t block) const {
  return BlockIsCached(block) ? meta_[static_cast<std::size_t>(block)].hash
                              : 0;
}

std::uint64_t KvBlockPool::fragmentation_bytes() const {
  // Only a private partial tail wastes slots: shared and cached blocks
  // are always full, and a shared partial tail (a mapped block awaiting
  // copy-on-write) holds live co-owned content, not slack.
  const std::int64_t bs = config_.block_size_tokens;
  std::uint64_t wasted_tokens = 0;
  for (const auto& [seq, state] : seqs_) {
    (void)seq;
    const std::int64_t rem = state.tokens % bs;
    if (rem == 0 || state.blocks.empty()) continue;
    const BlockMeta& m =
        meta_[static_cast<std::size_t>(state.blocks.back())];
    if (!m.cached && m.refcount == 1) {
      wasted_tokens += static_cast<std::uint64_t>(bs - rem);
    }
  }
  return wasted_tokens * config_.bytes_per_token;
}

}  // namespace speedllm::serving
