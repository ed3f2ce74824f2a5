// SpeedLLM -- paged KV-cache block manager with prefix caching.
//
// Carves a slice of U280 HBM (hw::HbmConfig::capacity_bytes minus the
// resident-weight / scratch reservation) into fixed-size token blocks, in
// the style of vLLM's PagedAttention block allocator. Each resident
// sequence owns a block table (ordered list of physical block ids); a
// block holds `block_size_tokens` consecutive KV entries, so internal
// fragmentation is bounded by one block per sequence.
//
// The pool is the one KV store. Besides deciding who fits, who must be
// preempted, and what the HBM footprint is, it owns the functional fp32
// K/V rows of its blocks, laid out [layer][K|V][block_tokens][kv_dim]
// (accel/kv_pages.hpp), in slots of a KvRowArena that every pool of an
// api::Engine shares (a standalone pool makes its own). The executor
// reads and writes a sequence's K/V through Pages(seq), so a live
// block's rows [0, tokens) always hold the K/V of the content it is
// accounted for: a copy-on-write copies the rows, and a cache hit maps
// blocks whose rows are already computed. The row geometry comes from
// the model (MakeKvPoolConfig). Block metadata grows with the blocks
// actually touched, not with the HBM budget: fresh ids are handed out
// 0, 1, 2, ... after every returned id is reused, exactly the order an
// eagerly filled LIFO free list gives.
//
// Host memory bound: that id order evicts a cached block only once every
// id exists, so a session that keeps sealing new content would keep the
// rows of every block it ever cached -- up to num_blocks() blocks of
// fp32 rows, about 16 GiB for a full-HBM Tiny card. The arena bounds
// them instead, the way vLLM recomputes KV it cannot keep. Live blocks
// always hold a slot. An ownerless cached block keeps its slot while it
// is among the engine-wide warmest kHostCachedKvTokens cached tokens;
// past that the coldest one across all pools loses its rows and becomes
// *cold*. Its simulated state -- metadata, hash entry, LRU place -- does
// not change, so the simulation cannot tell. A hit on a cold block
// (AcquireCachedPrefix, also on readmission and on a handoff's landing)
// reports the prompt range to recompute, and ShardScheduler
// recomputes it with one Forward before the sequence attends over it.
// The rows come back bit-identical, because a position's K/V depends
// only on the tokens up to it, never on how the forwards were split
// (MatMulTest.PackedRowsAreBitIdenticalToASequentialLoop and the
// executor's chunked-forward tests pin that). Recompute is the only way
// rows the host lacks come back: no host rows travel between pools, so
// a remote prefix fetch installs every block cold, and a handoff's
// landing recomputes the rows it does not find cached. Freed uncached
// blocks give their slot back at once. So an engine's host rows stay
// within its live blocks plus one shared cache budget, and the arena
// grows in chunks that never move, so growth copies nothing.
//
// Prefix caching (PR 4): blocks are reference-counted and full blocks
// are content-addressed by a hash chain over (prefix hash, block
// tokens). When a new sequence's prompt starts with a cached prefix,
// AcquireCachedPrefix maps the matching blocks into its table (refcounts
// bumped) so prefill skips those tokens entirely; a write into a
// shared/immutable block copies it first (copy-on-write). Cached blocks
// whose refcount drops to zero park on an LRU list and still count as
// free capacity -- they are evicted on demand, so caching never reduces
// schedulable capacity. A block is writable iff it has exactly one owner
// and is not in the cache index.
//
// KV dtype (PR 5): the byte geometry follows hw::KvCacheDtype. kFp16
// stores 2 bytes per KV element; kInt8 stores 1 byte per element plus a
// per-block fp32 scale per (layer, K|V) -- the same symmetric
// bookkeeping shape as quant::QuantizedTensor's per-group fp32 scales,
// with the group being one block's tokens. Int8 roughly halves
// bytes-per-token, so the same HBM budget holds ~2x the resident
// sequences. The cache-index hash seed mixes the dtype in, so an fp16
// block and an int8 block can never alias even if their token content is
// equal. The pool also counts simulated DMA traffic (bytes moved by
// copy-on-write, cache restore, and preemption swap-out); the scheduler
// turns those bytes into simulated time against the HBM bandwidth.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "accel/kv_pages.hpp"
#include "common/status.hpp"
#include "hw/u280_config.hpp"
#include "llama/config.hpp"

/// \namespace speedllm
/// Root namespace of the SpeedLLM accelerator simulation and its
/// serving stack.

/// Serving stack: paged KV pool, continuous-batching scheduler, cluster
/// router, and the request/report vocabulary they share.
namespace speedllm::serving {

/// On-device KV-block storage format (re-exported from hw so serving
/// call sites can say serving::KvCacheDtype).
using KvCacheDtype = hw::KvCacheDtype;

/// Tokens of ownerless cached blocks whose fp32 rows a KvRowArena keeps:
/// the engine-wide warmest ones. 1,024 Tiny blocks (6 MiB) at 16 tokens
/// a block.
inline constexpr std::int64_t kHostCachedKvTokens = 16384;

/// Human-readable dtype name ("fp16" / "int8") for tables and logs.
std::string_view KvCacheDtypeName(KvCacheDtype dtype);

/// Bytes one token's K+V vectors occupy across all layers when stored as
/// `dtype` (payload only; int8's per-block scale metadata is
/// accounted separately by KvQuantMetadataBytesPerBlock). Defaults to
/// fp16, the on-device layout the serving stack models.
std::uint32_t KvBytesPerToken(const llama::ModelConfig& config,
                              KvCacheDtype dtype = KvCacheDtype::kFp16);

/// Per-block quantization metadata bytes for `dtype`: zero for fp16; for
/// int8 one fp32 scale per (layer, K|V) -- quant::QuantizedTensor's
/// symmetric (zero-point-free) per-group scale bookkeeping with one
/// group per block. Amortized over a whole block, so int8's
/// bytes-per-token stays close to half of fp16's.
std::uint32_t KvQuantMetadataBytesPerBlock(const llama::ModelConfig& config,
                                           KvCacheDtype dtype);

/// Cache-index hash-chain seed for `dtype`. Seeds differ per dtype, so
/// equal token content stored as fp16 and as int8 produces different
/// chain hashes -- the two representations are not interchangeable and
/// must never alias in a cache index.
std::uint64_t KvChainSeed(KvCacheDtype dtype);

/// Advances a chain hash by one full block of token content -- the same
/// mix every KvBlockPool uses for its content-address index. Exposed so
/// tests can recompute a pool's chain hashes without a pool instance.
std::uint64_t KvChainAdvance(std::uint64_t h,
                             std::span<const std::int32_t> block_tokens);

/// Geometry and feature switches of one KvBlockPool.
struct KvPoolConfig {
  /// Total budget carved from HBM for this pool, bytes.
  std::uint64_t pool_bytes = 0;
  /// Tokens per physical block (vLLM-style fixed-size paging).
  std::uint32_t block_size_tokens = 16;
  /// KV payload bytes per token; see KvBytesPerToken.
  std::uint32_t bytes_per_token = 0;
  /// Storage format the byte geometry models; see KvCacheDtype.
  KvCacheDtype dtype = KvCacheDtype::kFp16;
  /// Per-block quantization metadata bytes (per-group scales);
  /// see KvQuantMetadataBytesPerBlock. Zero for fp16.
  std::uint32_t quant_metadata_bytes = 0;
  /// Content-address full blocks and share them across sequences with a
  /// common prefix. Off restores the PR-1 private-blocks-only behavior;
  /// token streams are byte-identical either way.
  bool enable_prefix_cache = true;
  /// Functional payload geometry: layers and K (or V) row width of the
  /// fp32 K/V each block stores. MakeKvPoolConfig derives both from the
  /// model; the defaults give a hand-built pool a one-float row.
  std::int32_t payload_layers = 1;
  /// See payload_layers.
  std::int32_t payload_kv_dim = 1;

  /// Bytes one physical block occupies: payload plus quant metadata.
  std::uint64_t block_bytes() const {
    return static_cast<std::uint64_t>(block_size_tokens) * bytes_per_token +
           quant_metadata_bytes;
  }
  /// Block geometry of the functional payload.
  accel::KvBlockLayout payload_layout() const {
    return accel::KvBlockLayout{payload_layers, payload_kv_dim,
                                block_size_tokens};
  }
};

/// Builds a pool config whose byte geometry (bytes_per_token and
/// quant_metadata_bytes) follows `dtype` for `model`, with `model`'s
/// fp32 K/V payload geometry.
KvPoolConfig MakeKvPoolConfig(const llama::ModelConfig& model,
                              KvCacheDtype dtype, std::uint64_t pool_bytes,
                              std::uint32_t block_size_tokens,
                              bool enable_prefix_cache);

/// Monotonic counters the pool maintains; every field only grows.
struct KvPoolStats {
  /// Fresh physical allocations (block boundaries + copy-on-write).
  std::int64_t block_allocs = 0;
  /// Blocks whose last owner released them (to the LRU list when cached,
  /// to the free list otherwise).
  std::int64_t block_frees = 0;
  /// Peak simultaneously-owned *physical* blocks. A block shared by N
  /// block tables counts once, not N times. Multiply by
  /// KvBlockPool::bytes_per_block() for the byte-level peak the HBM
  /// budget invariant is stated in.
  std::int64_t peak_used_blocks = 0;
  /// KvBlockPool::Register calls that succeeded.
  std::int64_t sequence_registers = 0;
  /// KvBlockPool::Release calls that succeeded.
  std::int64_t sequence_releases = 0;
  /// Releases flagged as scheduler swap-outs.
  std::int64_t preemption_releases = 0;

  // ----- prefix cache -----
  std::int64_t prefix_queries = 0;       ///< AcquireCachedPrefix calls
  std::int64_t prefix_hits = 0;          ///< queries matching >= 1 block
  std::int64_t prefix_hit_tokens = 0;    ///< tokens restored from cache
  std::int64_t prefix_lookup_tokens = 0; ///< tokens offered for matching
  std::int64_t shared_block_acquires = 0;  ///< refcount bumps on live blocks
  std::int64_t cache_block_reacquires = 0; ///< evictable blocks revived
  std::int64_t cow_copies = 0;           ///< copy-on-write block copies
  std::int64_t cache_insertions = 0;     ///< full blocks content-addressed
  std::int64_t cache_evictions = 0;      ///< LRU entries discarded for reuse
  std::int64_t remote_install_blocks = 0; ///< blocks installed by remote fetch

  // ----- simulated DMA traffic -----
  // Bytes the pool's bookkeeping implies actually move through HBM.
  // The pool is the byte authority; the scheduler converts deltas of
  // these counters into simulated seconds against hw::HbmConfig
  // bandwidth (ShardScheduler::ChargeDma).
  /// Total DMA bytes moved: cow + restore + swap.
  std::int64_t dma_bytes_moved = 0;
  /// Bytes copied by copy-on-write (one block payload per copy).
  std::int64_t cow_dma_bytes = 0;
  /// Bytes read from cached blocks mapped at admission.
  std::int64_t restore_dma_bytes = 0;
  /// Bytes of privately-owned KV written out by preemption swap-outs.
  std::int64_t swap_dma_bytes = 0;

  // ----- speculative decoding (draft phases) -----
  std::int64_t spec_phases = 0;          ///< BeginSpeculation calls
  std::int64_t spec_draft_tokens = 0;    ///< tokens appended inside a draft phase
  std::int64_t spec_rollback_blocks = 0; ///< draft-only blocks freed by rollback

  // ----- host memory -----
  // Host-only: the simulation never sees these.
  /// Block ids ever handed out (KvBlockPool::materialized_blocks): each
  /// holds its metadata on the host.
  std::int64_t materialized_blocks = 0;
  /// Cached blocks whose rows the arena dropped past kHostCachedKvTokens.
  std::int64_t host_dropped_blocks = 0;
  /// Rows recomputed for hits on dropped blocks (MarkRecomputed).
  std::int64_t host_recomputed_rows = 0;
};

/// Result of a cached-prefix probe/acquisition.
struct PrefixMatch {
  /// Prompt tokens a consumer may treat as already resident.
  std::int64_t matched_tokens = 0;
  /// Cached blocks backing them (the last one may be partially consumed
  /// when the token cap bites mid-block; a write into it copies first).
  std::int64_t matched_blocks = 0;
  /// Matched blocks that already had a live owner -- mapping these
  /// consumes no free capacity (the rest revive off the LRU list).
  std::int64_t live_shared_blocks = 0;
  /// Token positions [recompute_begin, recompute_end) whose rows the
  /// host dropped: from the first cold matched block's start to the last
  /// one's end. AcquireCachedPrefix's caller recomputes them, then calls
  /// MarkRecomputed. Empty when every matched block is warm, and always
  /// empty from MatchCachedPrefix.
  std::int64_t recompute_begin = 0;
  /// See recompute_begin.
  std::int64_t recompute_end = 0;
};

class KvBlockPool;

/// Host storage for the fp32 K/V rows of the KvBlockPools that share it,
/// one slot per block. Live blocks always hold a slot; ownerless cached
/// blocks keep theirs only while they are among the warmest
/// kHostCachedKvTokens cached tokens of all sharing pools (see the file
/// comment). Slots come from chunks that never move, so a slot's address
/// is stable and growth copies nothing; freed slots are reused first.
/// Every sharing pool must have the same block geometry and must be
/// destroyed before the arena.
class KvRowArena {
 public:
  /// An empty arena of `block_floats`-float slots.
  explicit KvRowArena(std::int64_t block_floats);
  /// Non-copyable: pools hold pointers into it.
  KvRowArena(const KvRowArena&) = delete;
  /// Non-assignable: pools hold pointers into it.
  KvRowArena& operator=(const KvRowArena&) = delete;

  /// Floats one slot holds.
  std::int64_t block_floats() const { return block_floats_; }
  /// Slots carved so far (never shrinks): the peak of live blocks plus
  /// warm cached ones.
  std::int64_t slots() const { return slots_; }
  /// Host bytes of the carved slots.
  std::uint64_t bytes() const {
    return static_cast<std::uint64_t>(slots_ * block_floats_) * sizeof(float);
  }
  /// Tokens of the ownerless cached blocks holding rows; at most
  /// kHostCachedKvTokens after every operation.
  std::int64_t cached_tokens() const { return cached_tokens_; }

 private:
  friend class KvBlockPool;
  /// One ownerless cached block holding rows, on the recency list.
  struct Entry {
    KvBlockPool* pool = nullptr;
    std::int32_t block = 0;
    std::int32_t tokens = 0;
    std::int32_t colder = -1;  // list neighbours; -1 past either end
    std::int32_t warmer = -1;
  };

  /// A free slot: a returned one (holding its last rows), else a fresh
  /// zeroed one carved from the newest chunk.
  float* AcquireSlot();
  void ReleaseSlot(float* slot) { free_slots_.push_back(slot); }
  /// Lists `pool`'s ownerless cached `block` of `tokens` tokens as the
  /// warmest, then drops the coldest blocks' rows (KvBlockPool::DropRows)
  /// until the cap holds. Returns the block's entry.
  std::int32_t Park(KvBlockPool* pool, std::int32_t block,
                    std::int32_t tokens);
  /// Takes entry `entry` off the list (its block was revived or evicted).
  void Unpark(std::int32_t entry);

  std::int64_t block_floats_ = 0;
  std::int64_t min_chunk_slots_ = 0;
  std::int64_t max_chunk_slots_ = 0;
  std::vector<std::unique_ptr<float[]>> chunks_;
  std::int64_t chunk_slots_ = 0;      // size of chunks_.back()
  std::int64_t carved_in_chunk_ = 0;  // slots carved from chunks_.back()
  std::int64_t slots_ = 0;
  std::vector<float*> free_slots_;  // LIFO reuse
  // The recency list, coldest to warmest, linked through entries_.
  std::vector<Entry> entries_;
  std::vector<std::int32_t> free_entries_;
  std::int32_t coldest_ = -1;
  std::int32_t warmest_ = -1;
  std::int64_t cached_tokens_ = 0;
};

/// Paged, reference-counted, content-addressed KV block allocator. See
/// the file comment for the memory model.
class KvBlockPool {
 public:
  /// `config.pool_bytes` and `config.bytes_per_token` must be non-zero.
  /// The rows live in `arena`, which must outlive the pool and share its
  /// payload geometry; null gives the pool a private arena.
  explicit KvBlockPool(const KvPoolConfig& config,
                       KvRowArena* arena = nullptr);
  /// Returns a shared arena's slots and drops its cached entries.
  ~KvBlockPool();
  /// Non-copyable: the arena holds a pointer to the pool.
  KvBlockPool(const KvBlockPool&) = delete;
  /// Non-assignable: the arena holds a pointer to the pool.
  KvBlockPool& operator=(const KvBlockPool&) = delete;

  // ----- capacity queries -----
  /// Physical blocks the pool was carved into.
  std::int64_t num_blocks() const { return num_blocks_; }
  /// Blocks whose metadata exist: every id ever handed out. Grows
  /// lazily up to num_blocks().
  std::int64_t materialized_blocks() const {
    return static_cast<std::int64_t>(meta_.size());
  }
  /// Blocks with at least one live owner. Shared blocks count once.
  std::int64_t used_blocks() const { return used_blocks_; }
  /// Schedulable capacity: truly-free blocks plus evictable cached
  /// blocks. Caching never shrinks this.
  std::int64_t free_blocks() const { return num_blocks_ - used_blocks_; }
  /// Ownerless blocks still holding reusable cached content (LRU).
  std::int64_t evictable_blocks() const {
    return static_cast<std::int64_t>(lru_.size());
  }
  /// Content-addressed entries (live shared + evictable full blocks).
  std::int64_t cached_blocks() const {
    return static_cast<std::int64_t>(cache_.size());
  }
  /// The pool's byte budget (KvPoolConfig::pool_bytes).
  std::uint64_t capacity_bytes() const { return config_.pool_bytes; }
  /// Bytes one block occupies, payload + quant metadata. The conversion
  /// factor between every block-denominated counter (used_blocks,
  /// evictable_blocks, KvPoolStats::peak_used_blocks) and the
  /// byte-denominated HBM budget, so dtype changes cannot silently skew
  /// the capacity invariant.
  std::uint64_t bytes_per_block() const { return config_.block_bytes(); }
  /// Bytes currently owned: used_blocks() * bytes_per_block().
  std::uint64_t bytes_in_use() const {
    return static_cast<std::uint64_t>(used_blocks_) * config_.block_bytes();
  }
  /// Byte-level peak: KvPoolStats::peak_used_blocks * bytes_per_block().
  std::uint64_t peak_bytes_in_use() const {
    return static_cast<std::uint64_t>(stats_.peak_used_blocks) *
           config_.block_bytes();
  }
  /// The geometry this pool was built with.
  const KvPoolConfig& config() const { return config_; }

  /// Blocks a sequence of `tokens` tokens occupies (ceiling division).
  std::int64_t BlocksForTokens(std::int64_t tokens) const;

  /// True if `tokens` more tokens could be appended to a fresh sequence
  /// right now without preempting anyone (evicting cold cache is fine).
  bool CanReserve(std::int64_t tokens) const {
    return BlocksForTokens(tokens) <= free_blocks();
  }

  // ----- prefix cache -----
  /// Longest cached-prefix probe without mutating anything (placement
  /// policies and admission planning). `max_tokens` caps the usable
  /// match, e.g. prompt size minus one when the caller must still
  /// process the final prompt token for logits.
  PrefixMatch MatchCachedPrefix(std::span<const std::int32_t> tokens,
                                std::int64_t max_tokens) const;

  /// Installs the full blocks of `tokens` (capped at `max_tokens`) into
  /// the content-address index as ownerless evictable blocks, as if a
  /// sequence with that prefix had just released them -- the landing pad
  /// for a remote prefix fetch (the bytes arrived over the interconnect
  /// and now sit in this card's HBM). Already-cached blocks are skipped;
  /// installation stops early when no block can be allocated. Returns
  /// the number of prefix tokens cached after the call (including
  /// previously cached ones). No DMA is charged here: the interconnect
  /// already costed the fetch. No-op returning 0 when caching is
  /// disabled. Every newly installed block arrives cold: no host rows
  /// travel with the fetch, so the first hit recomputes them
  /// (AcquireCachedPrefix's recompute range).
  std::int64_t InstallCachedPrefix(std::span<const std::int32_t> tokens,
                                   std::int64_t max_tokens);

  // ----- sequence lifecycle -----
  /// Registers `seq` with an empty block table. Fails on duplicates.
  Status Register(std::uint64_t seq);

  /// Maps the longest cached prefix of `tokens` into `seq`'s block table
  /// (refcounts bumped, evictable blocks revived) and accounts
  /// min(matched full blocks * block_size, max_tokens) tokens as already
  /// present, so prefill can skip them. Must be called at most once per
  /// registration, before any Append. Never allocates, so it cannot run
  /// out of capacity. Returns the zero match when caching is disabled.
  /// Counts the matched blocks' bytes as restore DMA traffic (the
  /// on-device read of the mapped blocks). Warm mapped rows already hold
  /// the prefix's K/V; the match's recompute range names the cold ones,
  /// which the caller recomputes and reports with MarkRecomputed.
  StatusOr<PrefixMatch> AcquireCachedPrefix(
      std::uint64_t seq, std::span<const std::int32_t> tokens,
      std::int64_t max_tokens);

  /// Declares that `seq`'s rows for positions [begin, end) were just
  /// recomputed: its blocks lying wholly inside the range are warm again
  /// (one only partly covered stays cold), and the rows count as
  /// KvPoolStats::host_recomputed_rows. Host-only: no simulated counter
  /// moves. Fails on an unknown `seq` or a range outside its blocks.
  Status MarkRecomputed(std::uint64_t seq, std::int64_t begin,
                        std::int64_t end);

  /// Accounts one more token (value `token`) for `seq`, allocating a
  /// fresh block when the tail is full (evicting the LRU cached block if
  /// the free list is dry) and copying the tail first when it is shared
  /// or cache-immutable (copy-on-write; the copied block's bytes count
  /// as DMA traffic). Full tails are sealed into the content-addressed
  /// cache. Returns kResourceExhausted when no block can be produced
  /// (callers preempt and retry).
  Status Append(std::uint64_t seq, std::int32_t token);

  /// True when `seq`'s next Append only writes inside its own tail block:
  /// the tail is partly filled, private (refcount one, not cached), and
  /// the append leaves it short of full, while no draft phase is open. Such
  /// an append allocates, copies, seals, evicts and moves no DMA, so it
  /// commutes with any other sequence's Append, Release or cache and
  /// arena change. False for an unknown `seq`.
  bool AppendIsLocal(std::uint64_t seq) const;

  /// Opens a draft (speculative) phase for `seq`: snapshots the
  /// sequence's {token count, block table length, chain hash, unsealed
  /// tail} so every Append made until RollbackSpeculation can be undone.
  /// While the phase is open, just-filled tails are *not* sealed into
  /// the content-address index (draft content must never pollute the
  /// prefix cache) and draft-only blocks are never shareable, so their
  /// refcount stays exactly one. Copy-on-write of a shared pre-mark tail
  /// still happens (and still counts DMA bytes) -- the private copy
  /// survives rollback holding the committed prefix, exactly the
  /// after-COW state a non-speculative write would have produced.
  /// Fails on unknown `seq` or a nested phase. Release mid-phase is
  /// legal (a Cancel mid-verify) and frees draft blocks with the rest.
  Status BeginSpeculation(std::uint64_t seq);

  /// Closes `seq`'s draft phase: frees every draft-only block past the
  /// snapshot (refcounts provably one, never cached) and restores the
  /// snapshot state, leaving the sequence byte-identical -- same token
  /// count, chain hash, and tail content -- to the moment
  /// BeginSpeculation ran. Fails when no phase is open.
  Status RollbackSpeculation(std::uint64_t seq);

  /// True while `seq` has an open draft phase.
  bool InSpeculation(std::uint64_t seq) const;

  /// Drops `seq`'s references and forgets it. Blocks whose refcount hits
  /// zero return to the free list, or to the evictable LRU list when
  /// they hold cached content; co-owners of shared blocks are never
  /// affected. `preempted` marks the release as a scheduler swap-out and
  /// counts the sequence's privately-owned bytes as swap DMA traffic.
  Status Release(std::uint64_t seq, bool preempted = false);

  /// True when `seq` is registered.
  bool Contains(std::uint64_t seq) const { return seqs_.count(seq) > 0; }
  /// Registered sequences.
  std::int64_t num_sequences() const {
    return static_cast<std::int64_t>(seqs_.size());
  }
  /// Tokens currently accounted for `seq` (0 if unknown).
  std::int64_t SequenceTokens(std::uint64_t seq) const;
  /// Physical block ids of `seq`, in token order. `seq` must be registered.
  const std::vector<std::int32_t>& BlockTable(std::uint64_t seq) const;

  // ----- functional payload -----
  /// `seq`'s K/V pages over its block table, for the executor and row
  /// copies. Valid until the next call that changes `seq`'s blocks.
  /// `seq` must be registered. Allocates nothing.
  accel::KvPages Pages(std::uint64_t seq);
  /// Rows of materialized block `block`; empty while it holds no slot
  /// (free, or cached and cold). Introspection.
  std::span<const float> BlockPayload(std::int32_t block) const;
  /// True when `block`'s rows were dropped (cached and cold) or not yet
  /// recomputed after a hit revived it.
  bool BlockIsCold(std::int32_t block) const;

  // ----- introspection (tests / invariant checks) -----
  /// Live owners of physical block `block` (0 for free/evictable).
  std::int32_t BlockRefCount(std::int32_t block) const;
  /// True when `block` is content-addressed (shared-immutable or LRU).
  bool BlockIsCached(std::int32_t block) const;
  /// Chain hash `block` is content-addressed under (0 when not cached).
  std::uint64_t BlockChainHash(std::int32_t block) const;

  // ----- fragmentation / utilization -----
  /// Allocated-but-unused tail bytes across private partial tails
  /// (internal fragmentation; fixed-size paging has no external
  /// fragmentation, and shared/cached blocks are always full).
  std::uint64_t fragmentation_bytes() const;
  /// Fraction of the pool's blocks with a live owner.
  double utilization() const {
    return num_blocks_ == 0 ? 0.0
                            : static_cast<double>(used_blocks_) /
                                  static_cast<double>(num_blocks_);
  }

  /// Monotonic operation counters; see KvPoolStats.
  const KvPoolStats& stats() const { return stats_; }

 private:
  friend class KvRowArena;

  struct BlockMeta {
    std::int32_t refcount = 0;
    bool cached = false;        // present in the content-address index
    bool cold = false;          // rows dropped and not yet recomputed
    std::uint64_t hash = 0;     // chain hash (valid while cached)
    std::uint64_t lru_stamp = 0;  // key into lru_ while evictable
    float* rows = nullptr;      // arena slot; null while it holds none
    // Its arena list entry; valid while evictable and holding rows.
    std::int32_t arena_entry = -1;
  };

  struct SeqState {
    std::vector<std::int32_t> blocks;
    /// Slot of each block of `blocks`: the page table Pages() hands out.
    std::vector<float*> rows;
    std::int64_t tokens = 0;
    /// Hash chain over the sealed (full) prefix blocks.
    std::uint64_t chain_hash = 0;
    /// Token values in the unsealed tail; size == tokens % block_size.
    std::vector<std::int32_t> tail;
    /// Draft phase open (BeginSpeculation without a rollback yet).
    bool speculating = false;
    /// Snapshot for RollbackSpeculation, valid while `speculating`.
    std::int64_t spec_tokens = 0;
    std::size_t spec_num_blocks = 0;
    std::uint64_t spec_chain_hash = 0;
    std::vector<std::int32_t> spec_tail;
  };

  /// Longest run of cached full blocks prefixing `tokens`, bounded so no
  /// block past `max_tokens` is walked. Appends the matching physical
  /// blocks and the chain hash *before* each of them to the out-params.
  std::int64_t WalkCachedPrefix(std::span<const std::int32_t> tokens,
                                std::int64_t max_tokens,
                                std::vector<std::int32_t>* blocks,
                                std::vector<std::uint64_t>* chain_before) const;
  /// Pops a returned block, else materializes the next fresh id, else
  /// evicts the LRU cached block. -1 when none exists. The block comes
  /// with a slot and warm; the caller sets the refcount and usage
  /// accounting.
  std::int32_t AllocateBlock();
  /// Takes ownership accounting for a freshly produced block.
  void AdoptBlock(SeqState& state, std::int32_t block, bool replace_tail);
  /// Drops one reference; a last owner parks the block on the LRU list
  /// (cached) or the free list.
  void DropBlockRef(std::int32_t block);
  /// Puts ownerless cached `block` on the LRU list; a warm one also
  /// enters the arena's cache budget, a cold one gives its slot back.
  void ParkBlock(std::int32_t block);
  /// Takes ownerless cached `block` off the LRU list (and the arena's
  /// budget when warm).
  void UnparkBlock(std::int32_t block);
  /// Gives `block`'s slot back to the arena.
  void ReleaseRows(BlockMeta& m);
  /// The arena's cap dropped `block`'s rows: it turns cold.
  void DropRows(std::int32_t block);
  /// Seals a just-filled private tail: advances the chain hash and
  /// content-addresses the block unless equal content is already cached.
  void SealTailBlock(SeqState& state);

  KvPoolConfig config_;
  std::uint64_t chain_seed_ = 0;  // KvChainSeed(config_.dtype)
  std::int64_t num_blocks_ = 0;
  std::int64_t used_blocks_ = 0;
  std::vector<std::int32_t> free_list_;  // returned ids, LIFO reuse
  std::vector<BlockMeta> meta_;          // one per materialized block
  std::int64_t block_floats_ = 0;        // payload floats per block
  std::unique_ptr<KvRowArena> own_arena_;  // set when no arena is shared
  KvRowArena* arena_ = nullptr;          // where the rows live
  std::unordered_map<std::uint64_t, std::int32_t> cache_;  // chain hash -> block
  std::map<std::uint64_t, std::int32_t> lru_;  // eviction stamp -> block
  std::uint64_t lru_tick_ = 0;
  std::map<std::uint64_t, SeqState> seqs_;
  KvPoolStats stats_;
};

}  // namespace speedllm::serving
