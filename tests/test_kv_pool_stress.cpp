// Randomized model-based stress test for the prefix-caching KV pool
// (serving/kv_pool.hpp). Thousands of seeded alloc / extend / share /
// COW / free / evict operations run against a reference model of the
// pool, and after EVERY operation the full invariant set is re-checked:
//
//  * usage never exceeds capacity (blocks and bytes);
//  * every block's refcount equals the number of live block tables that
//    reference it, shared blocks are counted once in used_blocks, and no
//    block appears twice in one table ("owned twice");
//  * per-sequence accounting (token counts, table sizes) matches the
//    reference model exactly;
//  * the cache never invents content: an acquired prefix must equal a
//    block-aligned prefix some sequence actually sealed earlier;
//  * free + used partitions the pool, with evictable (cold cached)
//    blocks always counted as free capacity;
//  * payload integrity: the model writes a fingerprint of (content, row)
//    into every row it appends, and every owned or evictable block's rows
//    [0, tokens) must still hold the fingerprints of the content the
//    block is accounted for -- across copy-on-write, evict/reacquire,
//    speculation rollback, and Release. A cached block whose rows the
//    shared KvRowArena dropped holds none; a hit on it reports the range
//    to recompute, and the model rewrites those rows the way the shard
//    does before the check reads them.
//
// At drain every sequence is released and every refcount must return to
// zero, with the whole pool reservable again.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "hw/u280_config.hpp"
#include "serving/kv_pool.hpp"
#include "test_util.hpp"

namespace speedllm::serving {
namespace {

constexpr std::int64_t kBlocks = 24;
/// Block size of the default sweep: 24 blocks of 4 tokens never come
/// near the arena's cache budget.
constexpr std::int64_t kBlockTokens = 4;
/// Block size of the shared-arena sweep: two 24-block pools can park 48
/// cached blocks against a budget of 16.
constexpr std::int64_t kArenaBlockTokens = kHostCachedKvTokens / 16;
/// Payload geometry: one layer, K and V rows of two floats -- four floats
/// per token, exactly one fingerprint.
constexpr std::int32_t kPayloadKvDim = 2;
using Row = std::array<float, 4>;

/// Running FNV-1a hash of a prefix, advanced one token at a time.
constexpr std::uint64_t kFnvSeed = 0xcbf29ce484222325ull;
std::uint64_t FnvAdvance(std::uint64_t h, std::int32_t token) {
  return (h ^ static_cast<std::uint32_t>(token)) * 0x100000001b3ull;
}

/// Fingerprint of the K/V a model would compute for the last token of a
/// prefix whose running hash is `h`: it depends on the whole prefix, like
/// real attention K/V. 16-bit slices keep every float exact.
Row Fingerprint(std::uint64_t h) {
  Row row;
  for (std::size_t i = 0; i < row.size(); ++i) {
    row[i] = static_cast<float>((h >> (16 * i)) & 0xffff);
  }
  return row;
}

/// The dtype decides the byte geometry: int8 halves bytes-per-token and
/// carries per-block group-scale metadata. Each run draws one
/// dtype (seed-keyed), so the invariant sweep covers both layouts.
KvPoolConfig StressPool(bool enable_prefix_cache, KvCacheDtype dtype,
                        std::int64_t block_tokens) {
  KvPoolConfig config;
  config.dtype = dtype;
  config.bytes_per_token = dtype == KvCacheDtype::kInt8 ? 16 : 32;
  config.quant_metadata_bytes = dtype == KvCacheDtype::kInt8 ? 8 : 0;
  config.block_size_tokens = static_cast<std::uint32_t>(block_tokens);
  config.pool_bytes =
      static_cast<std::uint64_t>(kBlocks) * config.block_bytes();
  config.enable_prefix_cache = enable_prefix_cache;
  config.payload_kv_dim = kPayloadKvDim;
  return config;
}

class StressHarness {
 public:
  /// A pool of kBlocks blocks of `block_tokens` tokens, keeping its rows
  /// in `arena` when given (else its own).
  StressHarness(std::uint64_t seed, bool enable_prefix_cache,
                std::int64_t block_tokens = kBlockTokens,
                KvRowArena* arena = nullptr)
      : pool_(StressPool(enable_prefix_cache,
                         seed % 2 == 0 ? KvCacheDtype::kInt8
                                       : KvCacheDtype::kFp16,
                         block_tokens),
              arena),
        block_tokens_(block_tokens),
        rng_(seed) {}

  void Run(int ops) {
    for (int op = 0; op < ops; ++op) {
      Step(op);
      if (::testing::Test::HasFatalFailure()) return;
    }
    Drain();
  }

  /// Interleaves `ops` random operations on `a` and `b`, whose pools
  /// share `arena`, picking the side with `pick`. An operation on one
  /// pool may drop the other's rows, so both are checked after each.
  static void RunShared(StressHarness& a, StressHarness& b,
                        const KvRowArena& arena, Rng& pick, int ops) {
    for (int op = 0; op < ops; ++op) {
      const bool on_a = pick.NextBounded(2) == 0;
      (on_a ? a : b).Step(op);
      (on_a ? b : a).CheckInvariants(op);
      if (::testing::Test::HasFatalFailure()) return;
      ASSERT_LE(arena.cached_tokens(), kHostCachedKvTokens) << "op " << op;
    }
    a.Drain();
    b.Drain();
  }

  const KvPoolStats& stats() const { return pool_.stats(); }

 private:
  struct ModelSeq {
    std::vector<std::int32_t> prompt;  // what Alloc asked for
    std::vector<std::int32_t> acked;   // tokens the pool accounted
    std::uint64_t hash = kFnvSeed;     // running hash of `acked`
  };

  /// A sealed block's content: the running hash of the prefix before it
  /// and its own tokens.
  struct SealedBlock {
    std::uint64_t hash_before = kFnvSeed;
    std::vector<std::int32_t> tokens;
  };

  /// One random operation, then the full invariant check.
  void Step(int op) {
    const std::uint64_t kind = rng_.NextBounded(10);
    if (kind < 4 || live_.empty()) {
      Alloc();
    } else if (kind < 6) {
      Extend();
    } else if (kind < 7) {
      Speculate();
    } else {
      Release();
    }
    CheckInvariants(op);
  }

  std::int32_t DrawToken() {
    return static_cast<std::int32_t>(rng_.NextBounded(97));  // small alphabet
  }

  /// Prompts frequently replay a prefix of an earlier prompt, so the
  /// cache sees genuine sharing. A slice of them are *exact*
  /// block-aligned replays: combined with the final-token cap in Alloc,
  /// the fully-cached prompt's re-appended last token lands inside a
  /// shared block -- the copy-on-write trigger.
  std::vector<std::int32_t> DrawPrompt() {
    std::vector<std::int32_t> prompt;
    if (!sources_.empty() && rng_.NextBounded(100) < 70) {
      const auto& src = sources_[static_cast<std::size_t>(
          rng_.NextBounded(sources_.size()))];
      std::size_t keep = 1 + static_cast<std::size_t>(
                                 rng_.NextBounded(src.size()));
      if (rng_.NextBounded(100) < 40) {
        keep -= keep % static_cast<std::size_t>(block_tokens_);
        if (keep >= static_cast<std::size_t>(block_tokens_)) {
          return std::vector<std::int32_t>(
              src.begin(), src.begin() + static_cast<std::ptrdiff_t>(keep));
        }
        keep = 1 + static_cast<std::size_t>(rng_.NextBounded(src.size()));
      }
      prompt.assign(src.begin(),
                    src.begin() + static_cast<std::ptrdiff_t>(keep));
    }
    const auto max_fresh = static_cast<std::uint64_t>(3 * block_tokens_);
    const std::int64_t fresh =
        1 + static_cast<std::int64_t>(rng_.NextBounded(max_fresh));
    for (std::int64_t t = 0; t < fresh; ++t) prompt.push_back(DrawToken());
    return prompt;
  }

  /// Mirrors the pool's sealing rule: whenever a sequence's acked count
  /// reaches a block boundary, every block-aligned prefix up to it is
  /// cacheable.
  void RecordSealed(const ModelSeq& seq) {
    if (!pool_.config().enable_prefix_cache) return;
    const auto acked = static_cast<std::int64_t>(seq.acked.size());
    if (acked % block_tokens_ != 0) return;
    std::uint64_t h = KvChainSeed(pool_.config().dtype);
    std::uint64_t fnv = kFnvSeed;
    const std::span<const std::int32_t> tokens(seq.acked);
    for (std::int64_t start = 0; start < acked; start += block_tokens_) {
      const auto block = tokens.subspan(static_cast<std::size_t>(start),
                                        static_cast<std::size_t>(block_tokens_));
      h = KvChainAdvance(h, block);
      sealed_of_hash_[h] = {fnv, {block.begin(), block.end()}};
      for (std::int32_t t : block) fnv = FnvAdvance(fnv, t);
      sealed_ever_.emplace(tokens.begin(), block.end());
    }
  }

  /// What the executor does after each append: write the new token's
  /// K/V row through the sequence's pages.
  void WriteRow(std::uint64_t id, std::int64_t pos, const Row& row) {
    testutil::ScatterKvRows(pool_.Pages(id), pos, pos + 1, row.data());
  }

  void AppendAcked(std::uint64_t id, ModelSeq& seq, std::int32_t token) {
    Status st = pool_.Append(id, token);
    if (st.ok()) {
      seq.acked.push_back(token);
      seq.hash = FnvAdvance(seq.hash, token);
      WriteRow(id, static_cast<std::int64_t>(seq.acked.size()) - 1,
               Fingerprint(seq.hash));
      RecordSealed(seq);
    } else {
      // The only legal refusal is capacity; it must be consistent with
      // the pool actually being full of owned or soon-owned blocks.
      ASSERT_EQ(st.code(), StatusCode::kResourceExhausted);
      ASSERT_EQ(pool_.free_blocks(), 0);
    }
  }

  void Alloc() {
    const std::uint64_t id = next_seq_++;
    ModelSeq seq;
    seq.prompt = DrawPrompt();
    ASSERT_TRUE(pool_.Register(id).ok());
    // Sometimes leave the last token to re-append (the shard's "logits
    // for the final prompt token" cap) -- that is the COW trigger.
    const std::int64_t cap =
        static_cast<std::int64_t>(seq.prompt.size()) -
        static_cast<std::int64_t>(rng_.NextBounded(2));
    auto match_or = pool_.AcquireCachedPrefix(id, seq.prompt, cap);
    ASSERT_TRUE(match_or.ok()) << match_or.status().ToString();
    const PrefixMatch match = *match_or;
    ASSERT_LE(match.matched_tokens, cap);
    ASSERT_LE(match.matched_tokens,
              static_cast<std::int64_t>(seq.prompt.size()));
    // Matches are block-granular except where the cap bit mid-block.
    ASSERT_TRUE(match.matched_tokens == cap ||
                match.matched_tokens % block_tokens_ == 0)
        << "matched " << match.matched_tokens << " cap " << cap;
    if (match.matched_tokens > 0) {
      // No false sharing: the mapped region must be a prefix some
      // sequence genuinely sealed, byte for byte.
      const std::int64_t mapped_tokens = match.matched_blocks * block_tokens_;
      ASSERT_LE(mapped_tokens,
                static_cast<std::int64_t>(seq.prompt.size()));
      const std::vector<std::int32_t> mapped(
          seq.prompt.begin(), seq.prompt.begin() + mapped_tokens);
      ASSERT_TRUE(sealed_ever_.count(mapped))
          << "cache matched a never-sealed prefix of " << mapped_tokens
          << " tokens";
      seq.acked.assign(seq.prompt.begin(),
                       seq.prompt.begin() + match.matched_tokens);
      for (std::int32_t t : seq.acked) seq.hash = FnvAdvance(seq.hash, t);
      // The arena dropped these mapped rows: recompute them from the
      // prompt, as the shard does, before anything reads them.
      const std::int64_t begin = match.recompute_begin;
      const std::int64_t end = match.recompute_end;
      ASSERT_LE(0, begin);
      ASSERT_LE(begin, end);
      ASSERT_LE(end, mapped_tokens);
      if (begin < end) {
        std::uint64_t h = kFnvSeed;
        for (std::int64_t p = 0; p < end; ++p) {
          h = FnvAdvance(h, seq.prompt[static_cast<std::size_t>(p)]);
          if (p >= begin) WriteRow(id, p, Fingerprint(h));
        }
        ASSERT_TRUE(pool_.MarkRecomputed(id, begin, end).ok());
      }
    }
    live_.emplace(id, std::move(seq));
    ModelSeq& placed = live_[id];
    for (std::size_t t = placed.acked.size(); t < placed.prompt.size(); ++t) {
      AppendAcked(id, placed, placed.prompt[t]);
      if (placed.acked.size() <= t) break;  // pool full: stop growing
    }
    sources_.push_back(placed.prompt);
    if (sources_.size() > 24) sources_.erase(sources_.begin());
  }

  void Extend() {
    auto it = live_.begin();
    std::advance(it, static_cast<std::ptrdiff_t>(
                         rng_.NextBounded(live_.size())));
    const std::int64_t grow = 1 + static_cast<std::int64_t>(rng_.NextBounded(6));
    for (std::int64_t t = 0; t < grow; ++t) {
      const std::size_t before = it->second.acked.size();
      AppendAcked(it->first, it->second, DrawToken());
      if (it->second.acked.size() == before) break;
    }
  }

  /// A draft phase: appends guesses whose rows carry junk, then rolls
  /// them back. The committed rows must survive untouched (a COW of a
  /// shared tail inside the phase copies them).
  void Speculate() {
    auto it = live_.begin();
    std::advance(it, static_cast<std::ptrdiff_t>(
                         rng_.NextBounded(live_.size())));
    ASSERT_TRUE(pool_.BeginSpeculation(it->first).ok());
    const std::int64_t drafts = 1 + static_cast<std::int64_t>(rng_.NextBounded(6));
    std::int64_t pos = static_cast<std::int64_t>(it->second.acked.size());
    for (std::int64_t t = 0; t < drafts; ++t, ++pos) {
      const Status st = pool_.Append(it->first, DrawToken());
      if (!st.ok()) {
        ASSERT_EQ(st.code(), StatusCode::kResourceExhausted);
        break;
      }
      WriteRow(it->first, pos, Row{-1.0f, -2.0f, -3.0f, -4.0f});
    }
    ASSERT_TRUE(pool_.RollbackSpeculation(it->first).ok());
  }

  void Release() {
    auto it = live_.begin();
    std::advance(it, static_cast<std::ptrdiff_t>(
                         rng_.NextBounded(live_.size())));
    const bool preempted = rng_.NextBounded(2) == 0;
    ASSERT_TRUE(pool_.Release(it->first, preempted).ok());
    live_.erase(it);
  }

  void CheckInvariants(int op) {
    // Capacity is a hard ceiling, in blocks and bytes.
    ASSERT_LE(pool_.used_blocks(), pool_.num_blocks()) << "op " << op;
    ASSERT_LE(pool_.bytes_in_use(), pool_.capacity_bytes()) << "op " << op;
    ASSERT_EQ(pool_.free_blocks(), pool_.num_blocks() - pool_.used_blocks());
    ASSERT_LE(pool_.evictable_blocks(), pool_.free_blocks()) << "op " << op;
    // Block-denominated counters convert to bytes through one factor,
    // bytes_per_block(), and the byte-level budget invariant must hold
    // for every one of them -- peaks and evictables included -- so a
    // dtype change can never silently overrun HBM.
    ASSERT_EQ(pool_.bytes_per_block(), pool_.config().block_bytes());
    ASSERT_EQ(pool_.bytes_in_use(),
              static_cast<std::uint64_t>(pool_.used_blocks()) *
                  pool_.bytes_per_block())
        << "op " << op;
    ASSERT_LE(pool_.peak_bytes_in_use(), pool_.capacity_bytes())
        << "op " << op;
    ASSERT_EQ(pool_.peak_bytes_in_use(),
              static_cast<std::uint64_t>(pool_.stats().peak_used_blocks) *
                  pool_.bytes_per_block());
    ASSERT_LE(static_cast<std::uint64_t>(pool_.evictable_blocks()) *
                  pool_.bytes_per_block(),
              pool_.capacity_bytes() - pool_.bytes_in_use())
        << "op " << op;
    // DMA byte counters only grow, and the total is exactly its parts.
    const KvPoolStats& dma = pool_.stats();
    ASSERT_EQ(dma.dma_bytes_moved,
              dma.cow_dma_bytes + dma.restore_dma_bytes + dma.swap_dma_bytes)
        << "op " << op;
    ASSERT_GE(dma.dma_bytes_moved, last_dma_bytes_) << "op " << op;
    last_dma_bytes_ = dma.dma_bytes_moved;
    ASSERT_EQ(pool_.num_sequences(),
              static_cast<std::int64_t>(live_.size()));

    // Reconstruct ownership from every live block table.
    std::map<std::int32_t, std::int32_t> owners;
    for (const auto& [id, seq] : live_) {
      ASSERT_TRUE(pool_.Contains(id));
      ASSERT_EQ(pool_.SequenceTokens(id),
                static_cast<std::int64_t>(seq.acked.size()))
          << "op " << op << " seq " << id;
      const auto& table = pool_.BlockTable(id);
      ASSERT_EQ(static_cast<std::int64_t>(table.size()),
                (static_cast<std::int64_t>(seq.acked.size()) + block_tokens_ -
                 1) /
                    block_tokens_)
          << "op " << op << " seq " << id;
      std::set<std::int32_t> dedup(table.begin(), table.end());
      ASSERT_EQ(dedup.size(), table.size())
          << "op " << op << ": block owned twice by seq " << id;
      for (std::int32_t b : table) {
        ASSERT_GE(b, 0);
        ASSERT_LT(b, pool_.num_blocks());
        ++owners[b];
      }
    }
    // Refcounts agree with the tables; shared blocks count once.
    std::int64_t distinct_owned = 0;
    for (std::int32_t b = 0; b < pool_.num_blocks(); ++b) {
      const auto it = owners.find(b);
      const std::int32_t expected = it == owners.end() ? 0 : it->second;
      ASSERT_EQ(pool_.BlockRefCount(b), expected)
          << "op " << op << " block " << b;
      if (expected > 0) ++distinct_owned;
    }
    ASSERT_EQ(pool_.used_blocks(), distinct_owned) << "op " << op;
    ASSERT_LE(pool_.stats().peak_used_blocks, pool_.num_blocks());
    // used == fresh allocations + revived cache blocks - releases.
    const KvPoolStats& s = pool_.stats();
    ASSERT_EQ(pool_.used_blocks(),
              s.block_allocs + s.cache_block_reacquires - s.block_frees)
        << "op " << op;
    CheckPayload(op);
  }

  /// Every owned block's rows [0, tokens) and every evictable block's
  /// rows hold the fingerprints of their content; an evictable block the
  /// arena dropped holds no rows.
  void CheckPayload(int op) {
    for (const auto& [id, seq] : live_) {
      const std::int64_t n = static_cast<std::int64_t>(seq.acked.size());
      std::vector<float> rows(static_cast<std::size_t>(n) * Row{}.size());
      testutil::GatherKvRows(pool_.Pages(id), 0, n, rows.data());
      std::uint64_t h = kFnvSeed;
      for (std::int64_t p = 0; p < n; ++p) {
        h = FnvAdvance(h, seq.acked[static_cast<std::size_t>(p)]);
        const Row want = Fingerprint(h);
        ASSERT_TRUE(std::equal(want.begin(), want.end(),
                               rows.begin() + p * 4))
            << "op " << op << " seq " << id << " row " << p;
      }
    }
    for (std::int32_t b = 0; b < pool_.materialized_blocks(); ++b) {
      if (pool_.BlockRefCount(b) != 0 || !pool_.BlockIsCached(b)) continue;
      const std::span<const float> payload = pool_.BlockPayload(b);
      if (pool_.BlockIsCold(b)) {
        ASSERT_TRUE(payload.empty()) << "op " << op << " cold block " << b;
        continue;
      }
      const auto it = sealed_of_hash_.find(pool_.BlockChainHash(b));
      ASSERT_NE(it, sealed_of_hash_.end()) << "op " << op << " block " << b;
      const accel::KvBlockLayout layout = pool_.config().payload_layout();
      std::uint64_t h = it->second.hash_before;
      for (std::int64_t r = 0; r < block_tokens_; ++r) {
        h = FnvAdvance(h, it->second.tokens[static_cast<std::size_t>(r)]);
        const Row want = Fingerprint(h);
        // Row r of the K plane then the V plane (layout [K|V][row][dim]).
        for (std::int64_t kv = 0; kv < 2; ++kv) {
          for (std::int64_t i = 0; i < kPayloadKvDim; ++i) {
            ASSERT_EQ(payload[static_cast<std::size_t>(
                          layout.Offset(0, kv, r) + i)],
                      want[static_cast<std::size_t>(kv * kPayloadKvDim + i)])
                << "op " << op << " evictable block " << b << " row " << r;
          }
        }
      }
    }
  }

  void Drain() {
    while (!live_.empty()) {
      ASSERT_TRUE(pool_.Release(live_.begin()->first).ok());
      live_.erase(live_.begin());
      CheckInvariants(-1);
    }
    // Every refcount is back to zero and the whole pool is schedulable,
    // no matter how much cold cache is parked on the LRU list.
    ASSERT_EQ(pool_.used_blocks(), 0);
    ASSERT_EQ(pool_.free_blocks(), pool_.num_blocks());
    for (std::int32_t b = 0; b < pool_.num_blocks(); ++b) {
      ASSERT_EQ(pool_.BlockRefCount(b), 0) << "block " << b;
    }
    ASSERT_TRUE(pool_.CanReserve(pool_.num_blocks() * block_tokens_));
  }

  KvBlockPool pool_;
  std::int64_t block_tokens_;
  Rng rng_;
  std::int64_t last_dma_bytes_ = 0;
  std::map<std::uint64_t, ModelSeq> live_;
  std::vector<std::vector<std::int32_t>> sources_;
  std::set<std::vector<std::int32_t>> sealed_ever_;
  std::map<std::uint64_t, SealedBlock> sealed_of_hash_;
  std::uint64_t next_seq_ = 0;
};

TEST(KvPoolStressTest, ThousandsOfOpsHoldEveryInvariantWithCaching) {
  for (std::uint64_t seed : {11ull, 2024ull, 777777ull}) {
    SPEEDLLM_SEED_TRACE("kv_pool_stress/caching", seed);
    StressHarness harness(seed, /*enable_prefix_cache=*/true);
    harness.Run(2000);
  }
}

TEST(KvPoolStressTest, ThousandsOfOpsHoldEveryInvariantWithoutCaching) {
  for (std::uint64_t seed : {23ull, 4096ull}) {
    SPEEDLLM_SEED_TRACE("kv_pool_stress/no-cache", seed);
    StressHarness harness(seed, /*enable_prefix_cache=*/false);
    harness.Run(1500);
  }
}

TEST(KvPoolStressTest, CowAndEvictionPathsAreActuallyExercised) {
  // The invariants above are only as good as the coverage: make sure the
  // cached-share, copy-on-write, and eviction paths all genuinely fire
  // under the default stress mix.
  SPEEDLLM_SEED_TRACE("kv_pool_stress/coverage", 11);
  StressHarness harness(11, /*enable_prefix_cache=*/true);
  harness.Run(2000);
  const KvPoolStats& s = harness.stats();
  EXPECT_GT(s.prefix_hits, 0);
  EXPECT_GT(s.prefix_hit_tokens, 0);
  EXPECT_GT(s.shared_block_acquires, 0);
  EXPECT_GT(s.cache_block_reacquires, 0);
  EXPECT_GT(s.cow_copies, 0);
  EXPECT_GT(s.cache_evictions, 0);
  EXPECT_GT(s.preemption_releases, 0);
  // ... and each of them leaves its simulated-DMA fingerprint.
  EXPECT_GT(s.cow_dma_bytes, 0);
  EXPECT_GT(s.restore_dma_bytes, 0);
  EXPECT_GT(s.swap_dma_bytes, 0);
  EXPECT_EQ(s.dma_bytes_moved,
            s.cow_dma_bytes + s.restore_dma_bytes + s.swap_dma_bytes);
  EXPECT_GT(s.spec_phases, 0);
  EXPECT_GT(s.spec_rollback_blocks, 0);
}

TEST(KvPoolStressTest, PoolsSharingAnArenaRecomputeDroppedRows) {
  // Two pools of big blocks share one row arena, so the cached blocks
  // they park outgrow kHostCachedKvTokens: the coldest lose their rows,
  // and a later hit on one must recompute exactly the rows the
  // fingerprint check then reads. An operation on one pool may drop the
  // other's rows, so both pools are checked after every operation. Each
  // seed meets both dropped rows and a hit on them.
  const std::int64_t block_floats =
      StressPool(true, KvCacheDtype::kFp16, kArenaBlockTokens)
          .payload_layout()
          .block_floats();
  for (std::uint64_t seed : {5ull, 7ull}) {
    SPEEDLLM_SEED_TRACE("kv_pool_stress/shared-arena", seed);
    KvRowArena arena(block_floats);
    StressHarness a(seed, /*enable_prefix_cache=*/true, kArenaBlockTokens,
                    &arena);
    StressHarness b(seed + 1, /*enable_prefix_cache=*/true, kArenaBlockTokens,
                    &arena);
    Rng pick(seed);
    StressHarness::RunShared(a, b, arena, pick, 400);
    ASSERT_FALSE(HasFatalFailure());
    EXPECT_GT(a.stats().host_dropped_blocks + b.stats().host_dropped_blocks,
              0);
    EXPECT_GT(a.stats().host_recomputed_rows + b.stats().host_recomputed_rows,
              0);
  }
}

// ---------------- lazy growth ----------------

KvPoolConfig ScriptPool(std::int64_t blocks, bool enable_prefix_cache) {
  KvPoolConfig config;
  config.bytes_per_token = 8;
  config.block_size_tokens = 2;
  config.pool_bytes = static_cast<std::uint64_t>(blocks) * config.block_bytes();
  config.enable_prefix_cache = enable_prefix_cache;
  return config;
}

void AppendN(KvBlockPool& pool, std::uint64_t seq, std::int32_t first,
             int n) {
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(pool.Append(seq, first + i).ok());
  }
}

TEST(KvPoolLazyGrowthTest, HandsOutIdsInEagerLifoOrder) {
  // An eagerly built pool pushes ids descending onto a LIFO free list and
  // pushes returned ids on top. The lazy pool must reproduce that order
  // exactly: returned ids first, then fresh ids ascending.
  KvBlockPool pool(ScriptPool(4, /*enable_prefix_cache=*/false));
  EXPECT_EQ(pool.materialized_blocks(), 0);
  ASSERT_TRUE(pool.Register(1).ok());
  AppendN(pool, 1, 10, 3);
  EXPECT_EQ(pool.BlockTable(1), (std::vector<std::int32_t>{0, 1}));
  ASSERT_TRUE(pool.Register(2).ok());
  AppendN(pool, 2, 20, 2);
  EXPECT_EQ(pool.BlockTable(2), (std::vector<std::int32_t>{2}));
  EXPECT_EQ(pool.materialized_blocks(), 3);
  ASSERT_TRUE(pool.Release(1).ok());  // returns 0, then 1 (on top)
  AppendN(pool, 2, 22, 1);
  EXPECT_EQ(pool.BlockTable(2), (std::vector<std::int32_t>{2, 1}));
  ASSERT_TRUE(pool.Register(3).ok());
  AppendN(pool, 3, 30, 4);
  EXPECT_EQ(pool.BlockTable(3), (std::vector<std::int32_t>{0, 3}));
  EXPECT_EQ(pool.materialized_blocks(), 4);
  EXPECT_EQ(pool.Append(3, 34).code(), StatusCode::kResourceExhausted);
}

TEST(KvPoolLazyGrowthTest, FreshIdsComeBeforeLruEviction) {
  KvBlockPool pool(ScriptPool(3, /*enable_prefix_cache=*/true));
  ASSERT_TRUE(pool.Register(1).ok());
  AppendN(pool, 1, 10, 4);  // two sealed, cached blocks
  ASSERT_TRUE(pool.Release(1).ok());  // both park on the LRU list
  ASSERT_TRUE(pool.Register(2).ok());
  AppendN(pool, 2, 50, 2);
  EXPECT_EQ(pool.BlockTable(2), (std::vector<std::int32_t>{2}));
  EXPECT_EQ(pool.stats().cache_evictions, 0);
  AppendN(pool, 2, 52, 1);  // no fresh id left: evict the coldest (0)
  EXPECT_EQ(pool.BlockTable(2), (std::vector<std::int32_t>{2, 0}));
  EXPECT_EQ(pool.stats().cache_evictions, 1);
  EXPECT_EQ(pool.materialized_blocks(), 3);
}

TEST(KvPoolLazyGrowthTest, FullHbmPoolMaterializesNothingUpFront) {
  const llama::ModelConfig tiny = llama::ModelConfig::Tiny();
  const KvPoolConfig config = MakeKvPoolConfig(
      tiny, KvCacheDtype::kFp16, hw::U280Config::Default().hbm.capacity_bytes,
      16, /*enable_prefix_cache=*/true);
  KvBlockPool pool(config);
  EXPECT_GT(pool.num_blocks(), 1'000'000);
  EXPECT_EQ(pool.materialized_blocks(), 0);
  EXPECT_EQ(pool.BlockRefCount(static_cast<std::int32_t>(pool.num_blocks() - 1)),
            0);
  ASSERT_TRUE(pool.Register(7).ok());
  ASSERT_TRUE(pool.Append(7, 1).ok());
  EXPECT_EQ(pool.materialized_blocks(), 1);
  EXPECT_EQ(static_cast<std::int64_t>(pool.BlockPayload(0).size()),
            config.payload_layout().block_floats());
}

}  // namespace
}  // namespace speedllm::serving
