// Unit tests for the paged KV-cache block manager (serving/kv_pool.hpp):
// capacity accounting, the refcounted content-addressed prefix cache,
// copy-on-write, LRU eviction of cold cached blocks, the host row
// arena that drops cached rows past kHostCachedKvTokens, and the
// append-is-local test a decode segment admits its later members by.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "serving/kv_pool.hpp"
#include "test_util.hpp"

namespace speedllm::serving {
namespace {

/// 8 blocks of 4 tokens x 64 bytes: small enough to exhaust by hand.
KvPoolConfig SmallPool(bool enable_prefix_cache = true) {
  KvPoolConfig config;
  config.bytes_per_token = 64;
  config.block_size_tokens = 4;
  config.pool_bytes = 8 * 4 * 64;
  config.enable_prefix_cache = enable_prefix_cache;
  return config;
}

/// Distinct deterministic token values: base, base+1, ...
std::vector<std::int32_t> Tokens(std::int32_t base, std::int32_t count) {
  std::vector<std::int32_t> tokens(static_cast<std::size_t>(count));
  std::iota(tokens.begin(), tokens.end(), base);
  return tokens;
}

void Fill(KvBlockPool& pool, std::uint64_t seq,
          const std::vector<std::int32_t>& tokens) {
  ASSERT_TRUE(pool.Register(seq).ok());
  for (std::int32_t t : tokens) ASSERT_TRUE(pool.Append(seq, t).ok());
}

TEST(KvPoolTest, CapacityMath) {
  KvBlockPool pool(SmallPool());
  EXPECT_EQ(pool.num_blocks(), 8);
  EXPECT_EQ(pool.free_blocks(), 8);
  EXPECT_EQ(pool.used_blocks(), 0);
  EXPECT_EQ(pool.capacity_bytes(), 8u * 4 * 64);
  EXPECT_EQ(pool.BlocksForTokens(0), 0);
  EXPECT_EQ(pool.BlocksForTokens(1), 1);
  EXPECT_EQ(pool.BlocksForTokens(4), 1);
  EXPECT_EQ(pool.BlocksForTokens(5), 2);
  EXPECT_TRUE(pool.CanReserve(32));
  EXPECT_FALSE(pool.CanReserve(33));
}

TEST(KvPoolTest, KvBytesPerTokenMatchesModelShape) {
  auto config = llama::ModelConfig::Tiny();
  const std::uint32_t elems =
      2u * static_cast<std::uint32_t>(config.n_layers) *
      static_cast<std::uint32_t>(config.kv_dim());
  // Default dtype is fp16 (2 bytes per KV element).
  EXPECT_EQ(KvBytesPerToken(config), elems * 2);
  EXPECT_EQ(KvBytesPerToken(config, KvCacheDtype::kFp16), elems * 2);
  EXPECT_EQ(KvBytesPerToken(config, KvCacheDtype::kInt8), elems);
  // Int8 carries one fp32 scale per (layer, K|V) per block (the quant
  // layer's symmetric zero-point-free scheme); fp16 carries none.
  EXPECT_EQ(KvQuantMetadataBytesPerBlock(config, KvCacheDtype::kFp16), 0u);
  EXPECT_EQ(KvQuantMetadataBytesPerBlock(config, KvCacheDtype::kInt8),
            2u * static_cast<std::uint32_t>(config.n_layers) *
                static_cast<std::uint32_t>(sizeof(float)));
  // Dtype-tagged cache-index seeds: fp16 and int8 content never alias.
  EXPECT_NE(KvChainSeed(KvCacheDtype::kFp16), KvChainSeed(KvCacheDtype::kInt8));
}

TEST(KvPoolTest, AppendAllocatesOnlyAtBlockBoundaries) {
  KvBlockPool pool(SmallPool());
  ASSERT_TRUE(pool.Register(7).ok());
  for (int t = 0; t < 4; ++t) {
    ASSERT_TRUE(pool.Append(7, 100 + t).ok());
    EXPECT_EQ(pool.used_blocks(), 1);
  }
  ASSERT_TRUE(pool.Append(7, 104).ok());  // token 5 crosses into block 2
  EXPECT_EQ(pool.used_blocks(), 2);
  EXPECT_EQ(pool.SequenceTokens(7), 5);
  EXPECT_EQ(pool.BlockTable(7).size(), 2u);
  EXPECT_EQ(pool.bytes_in_use(), 2u * 4 * 64);
}

TEST(KvPoolTest, ExhaustionReturnsResourceExhausted) {
  KvBlockPool pool(SmallPool());
  Fill(pool, 0, Tokens(100, 32));
  EXPECT_EQ(pool.free_blocks(), 0);
  Status st = pool.Append(0, 999);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  // The pool never exceeded its byte budget.
  EXPECT_LE(pool.bytes_in_use(), pool.capacity_bytes());
  EXPECT_EQ(pool.utilization(), 1.0);
}

TEST(KvPoolTest, ReleaseRecyclesBlocksDeterministically) {
  KvBlockPool pool(SmallPool());
  Fill(pool, 1, Tokens(100, 5));
  Fill(pool, 2, Tokens(200, 3));
  const auto blocks_of_1 = pool.BlockTable(1);
  ASSERT_TRUE(pool.Release(1).ok());
  EXPECT_EQ(pool.used_blocks(), 1);
  EXPECT_FALSE(pool.Contains(1));
  // seq 1's sealed block parks on the LRU list (still matchable); its
  // partial tail returns to the LIFO free list, so the next allocation
  // gets it back first.
  EXPECT_EQ(pool.evictable_blocks(), 1);
  ASSERT_TRUE(pool.Register(3).ok());
  ASSERT_TRUE(pool.Append(3, 300).ok());
  EXPECT_EQ(pool.BlockTable(3)[0], blocks_of_1.back());
}

TEST(KvPoolTest, FragmentationIsBoundedByOneBlockPerSequence) {
  KvBlockPool pool(SmallPool());
  Fill(pool, 1, Tokens(100, 5));  // 2 blocks
  Fill(pool, 2, Tokens(200, 1));  // 1 block
  // seq 1 wastes 3 token slots, seq 2 wastes 3.
  EXPECT_EQ(pool.fragmentation_bytes(), 6u * 64);
  EXPECT_LE(pool.fragmentation_bytes(),
            2u * pool.config().block_bytes());  // <= one block per sequence
}

TEST(KvPoolTest, StatsTrackPeakAndPreemptions) {
  KvBlockPool pool(SmallPool());
  Fill(pool, 1, Tokens(100, 9));  // 3 blocks
  ASSERT_TRUE(pool.Release(1, /*preempted=*/true).ok());
  ASSERT_TRUE(pool.Register(2).ok());
  ASSERT_TRUE(pool.Append(2, 500).ok());
  const KvPoolStats& stats = pool.stats();
  EXPECT_EQ(stats.block_allocs, 4);
  EXPECT_EQ(stats.block_frees, 3);
  EXPECT_EQ(stats.peak_used_blocks, 3);
  EXPECT_EQ(stats.sequence_registers, 2);
  EXPECT_EQ(stats.sequence_releases, 1);
  EXPECT_EQ(stats.preemption_releases, 1);
}

TEST(KvPoolTest, LifecycleErrors) {
  KvBlockPool pool(SmallPool());
  ASSERT_TRUE(pool.Register(5).ok());
  Status dup = pool.Register(5);
  EXPECT_EQ(dup.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(pool.Append(99, 1).code(), StatusCode::kNotFound);
  EXPECT_EQ(pool.Release(99).code(), StatusCode::kNotFound);
  EXPECT_EQ(pool.SequenceTokens(99), 0);
  const auto tokens = Tokens(0, 4);
  EXPECT_EQ(pool.AcquireCachedPrefix(99, tokens, 4).status().code(),
            StatusCode::kNotFound);
  // Acquire must precede any Append for the sequence.
  ASSERT_TRUE(pool.Append(5, 1).ok());
  EXPECT_EQ(pool.AcquireCachedPrefix(5, tokens, 4).status().code(),
            StatusCode::kFailedPrecondition);
}

// ---------------- prefix cache ----------------

TEST(KvPoolTest, CachedPrefixIsSharedNotCopied) {
  KvBlockPool pool(SmallPool());
  const auto prefix = Tokens(100, 8);  // 2 full blocks, sealed + cached
  Fill(pool, 1, prefix);
  EXPECT_EQ(pool.cached_blocks(), 2);
  EXPECT_EQ(pool.used_blocks(), 2);

  auto prompt = prefix;
  prompt.push_back(900);
  prompt.push_back(901);
  ASSERT_TRUE(pool.Register(2).ok());
  auto match = pool.AcquireCachedPrefix(2, prompt, 9);  // leave 1 to process
  ASSERT_TRUE(match.ok());
  EXPECT_EQ(match->matched_tokens, 8);
  EXPECT_EQ(match->matched_blocks, 2);
  EXPECT_EQ(match->live_shared_blocks, 2);
  EXPECT_EQ(pool.SequenceTokens(2), 8);
  // Shared physically: same block ids, refcount 2, zero new allocations.
  EXPECT_EQ(pool.BlockTable(2), pool.BlockTable(1));
  EXPECT_EQ(pool.used_blocks(), 2);
  EXPECT_EQ(pool.BlockRefCount(pool.BlockTable(1)[0]), 2);
  // The suffix grows into a fresh private block.
  ASSERT_TRUE(pool.Append(2, 900).ok());
  EXPECT_EQ(pool.used_blocks(), 3);
  EXPECT_NE(pool.BlockTable(2)[2], pool.BlockTable(1)[0]);
  EXPECT_EQ(pool.stats().prefix_hit_tokens, 8);
  EXPECT_EQ(pool.stats().prefix_hits, 1);
}

TEST(KvPoolTest, WriteIntoSharedBlockCopiesOnWrite) {
  KvBlockPool pool(SmallPool());
  const auto prefix = Tokens(100, 8);
  Fill(pool, 1, prefix);
  // A fully cached, block-aligned prompt: the consumer maps both blocks
  // but may only account 7 tokens (the final token must be reprocessed
  // for logits), so its next write lands INSIDE shared block 1.
  ASSERT_TRUE(pool.Register(2).ok());
  auto match = pool.AcquireCachedPrefix(2, prefix, 7);
  ASSERT_TRUE(match.ok());
  EXPECT_EQ(match->matched_tokens, 7);
  EXPECT_EQ(match->matched_blocks, 2);
  const std::int32_t shared_tail = pool.BlockTable(2)[1];
  EXPECT_EQ(shared_tail, pool.BlockTable(1)[1]);

  ASSERT_TRUE(pool.Append(2, prefix[7]).ok());
  EXPECT_EQ(pool.stats().cow_copies, 1);
  // seq 2 now owns a private copy; seq 1 (and the cache) keep the
  // original untouched.
  EXPECT_NE(pool.BlockTable(2)[1], shared_tail);
  EXPECT_EQ(pool.BlockTable(1)[1], shared_tail);
  EXPECT_EQ(pool.BlockRefCount(shared_tail), 1);
  EXPECT_EQ(pool.BlockRefCount(pool.BlockTable(2)[1]), 1);
  // The copy's content equals an already-cached block, so it is not
  // double-indexed.
  EXPECT_FALSE(pool.BlockIsCached(pool.BlockTable(2)[1]));
  EXPECT_EQ(pool.cached_blocks(), 2);
  EXPECT_EQ(pool.SequenceTokens(2), 8);
}

TEST(KvPoolTest, AppendIsLocalOnlyInsideAPrivateUnfilledTail) {
  KvBlockPool pool(SmallPool());  // 4-token blocks
  EXPECT_FALSE(pool.AppendIsLocal(1));  // unknown sequence
  ASSERT_TRUE(pool.Register(1).ok());
  // Block boundary: the next append allocates a block.
  EXPECT_FALSE(pool.AppendIsLocal(1));
  ASSERT_TRUE(pool.Append(1, 100).ok());
  EXPECT_TRUE(pool.AppendIsLocal(1));  // offsets 1 and 2 stay local
  ASSERT_TRUE(pool.Append(1, 101).ok());
  EXPECT_TRUE(pool.AppendIsLocal(1));
  const std::int64_t used = pool.used_blocks();
  ASSERT_TRUE(pool.Append(1, 102).ok());
  EXPECT_EQ(pool.used_blocks(), used);
  EXPECT_EQ(pool.cached_blocks(), 0);
  // The next append fills the tail, which seals it into the cache.
  EXPECT_FALSE(pool.AppendIsLocal(1));
  ASSERT_TRUE(pool.Append(1, 103).ok());
  EXPECT_EQ(pool.cached_blocks(), 1);
  EXPECT_FALSE(pool.AppendIsLocal(1));  // boundary again
  ASSERT_TRUE(pool.Append(1, 104).ok());
  EXPECT_TRUE(pool.AppendIsLocal(1));

  // While speculating, an append is never local.
  ASSERT_TRUE(pool.BeginSpeculation(1).ok());
  EXPECT_FALSE(pool.AppendIsLocal(1));
  ASSERT_TRUE(pool.RollbackSpeculation(1).ok());
  EXPECT_TRUE(pool.AppendIsLocal(1));
}

TEST(KvPoolTest, AppendIntoASharedOrCachedTailIsNotLocal) {
  KvBlockPool pool(SmallPool());
  const auto prefix = Tokens(100, 8);
  Fill(pool, 1, prefix);
  // Seq 2 maps both cached blocks but accounts 7 tokens: its tail is the
  // shared, cached second block, so its next append copies on write.
  ASSERT_TRUE(pool.Register(2).ok());
  ASSERT_TRUE(pool.AcquireCachedPrefix(2, prefix, 7).ok());
  const std::int32_t tail = pool.BlockTable(2)[1];
  EXPECT_EQ(pool.BlockRefCount(tail), 2);
  EXPECT_FALSE(pool.AppendIsLocal(2));
  // Its co-owner leaves: the tail is private now, but still cached.
  ASSERT_TRUE(pool.Release(1).ok());
  EXPECT_EQ(pool.BlockRefCount(tail), 1);
  EXPECT_TRUE(pool.BlockIsCached(tail));
  EXPECT_FALSE(pool.AppendIsLocal(2));
  // The copy-on-write leaves a private, uncached, full tail; the append
  // after it starts a block.
  ASSERT_TRUE(pool.Append(2, prefix[7]).ok());
  EXPECT_EQ(pool.stats().cow_copies, 1);
  EXPECT_FALSE(pool.AppendIsLocal(2));
  ASSERT_TRUE(pool.Append(2, 900).ok());
  EXPECT_TRUE(pool.AppendIsLocal(2));
}

TEST(KvPoolTest, PeakUsageCountsSharedBlocksOnce) {
  KvBlockPool pool(SmallPool());
  const auto prefix = Tokens(100, 8);
  Fill(pool, 1, prefix);
  auto prompt = prefix;
  prompt.push_back(700);
  ASSERT_TRUE(pool.Register(2).ok());
  ASSERT_TRUE(pool.AcquireCachedPrefix(2, prompt, 8).ok());
  ASSERT_TRUE(pool.Append(2, 700).ok());
  // Four block-table entries across the two sequences, but only three
  // physical blocks: the peak must count the shared pair once.
  EXPECT_EQ(pool.BlockTable(1).size() + pool.BlockTable(2).size(), 5u);
  EXPECT_EQ(pool.used_blocks(), 3);
  EXPECT_EQ(pool.stats().peak_used_blocks, 3);
  EXPECT_LE(pool.bytes_in_use(), pool.capacity_bytes());
}

TEST(KvPoolTest, SharedBlocksSurviveCoOwnerRelease) {
  KvBlockPool pool(SmallPool());
  const auto prefix = Tokens(100, 8);
  Fill(pool, 1, prefix);
  ASSERT_TRUE(pool.Register(2).ok());
  ASSERT_TRUE(pool.AcquireCachedPrefix(2, prefix, 7).ok());
  const auto table_before = pool.BlockTable(2);
  ASSERT_TRUE(pool.Release(1, /*preempted=*/true).ok());
  // seq 2 still holds both blocks; nothing was swapped out from under it.
  EXPECT_EQ(pool.BlockTable(2), table_before);
  EXPECT_EQ(pool.SequenceTokens(2), 7);
  EXPECT_EQ(pool.BlockRefCount(table_before[0]), 1);
  EXPECT_EQ(pool.used_blocks(), 2);
  EXPECT_EQ(pool.evictable_blocks(), 0);  // every block still has an owner
}

TEST(KvPoolTest, CachingNeverReducesSchedulableCapacity) {
  KvBlockPool pool(SmallPool());
  Fill(pool, 1, Tokens(100, 16));  // 4 cached blocks
  Fill(pool, 2, Tokens(500, 16));  // 4 more
  ASSERT_TRUE(pool.Release(1).ok());
  ASSERT_TRUE(pool.Release(2).ok());
  // All 8 blocks hold cached content, yet the full pool is reservable:
  // cold cache is free capacity.
  EXPECT_EQ(pool.used_blocks(), 0);
  EXPECT_EQ(pool.free_blocks(), 8);
  EXPECT_EQ(pool.evictable_blocks(), 8);
  EXPECT_TRUE(pool.CanReserve(32));
  // A fresh unrelated sequence can fill the whole pool, evicting the
  // cold entries in LRU order (seq 1 released first, so it dies first).
  Fill(pool, 3, Tokens(900, 32));
  EXPECT_EQ(pool.used_blocks(), 8);
  EXPECT_EQ(pool.stats().cache_evictions, 8);
  const auto old_prefix = Tokens(100, 16);
  EXPECT_EQ(pool.MatchCachedPrefix(old_prefix, 16).matched_tokens, 0);
}

TEST(KvPoolTest, LruEvictsOldestReleasedPrefixFirst) {
  KvBlockPool pool(SmallPool());
  Fill(pool, 1, Tokens(100, 16));  // blocks 0..3
  Fill(pool, 2, Tokens(500, 16));  // blocks 4..7
  ASSERT_TRUE(pool.Release(1).ok());  // colder
  ASSERT_TRUE(pool.Release(2).ok());  // warmer
  // One new block forces exactly one eviction: seq 1's first block.
  Fill(pool, 3, Tokens(900, 1));
  EXPECT_EQ(pool.stats().cache_evictions, 1);
  const auto one = Tokens(100, 16);
  const auto two = Tokens(500, 16);
  // seq 1's chain is broken at its first block; seq 2's is intact.
  EXPECT_EQ(pool.MatchCachedPrefix(one, 16).matched_tokens, 0);
  EXPECT_EQ(pool.MatchCachedPrefix(two, 16).matched_tokens, 16);
  EXPECT_EQ(pool.MatchCachedPrefix(two, 8).matched_tokens, 8);
}

TEST(KvPoolTest, ReacquiredEvictableBlocksComeBackToLife) {
  KvBlockPool pool(SmallPool());
  const auto prefix = Tokens(100, 8);
  Fill(pool, 1, prefix);
  ASSERT_TRUE(pool.Release(1).ok());
  EXPECT_EQ(pool.evictable_blocks(), 2);
  EXPECT_EQ(pool.used_blocks(), 0);
  ASSERT_TRUE(pool.Register(2).ok());
  auto match = pool.AcquireCachedPrefix(2, prefix, 7);
  ASSERT_TRUE(match.ok());
  EXPECT_EQ(match->matched_tokens, 7);
  EXPECT_EQ(match->live_shared_blocks, 0);  // both revived off the LRU
  EXPECT_EQ(pool.stats().cache_block_reacquires, 2);
  EXPECT_EQ(pool.used_blocks(), 2);
  EXPECT_EQ(pool.evictable_blocks(), 0);
}

TEST(KvPoolTest, DisabledCacheMatchesNothing) {
  KvBlockPool pool(SmallPool(/*enable_prefix_cache=*/false));
  const auto prefix = Tokens(100, 8);
  Fill(pool, 1, prefix);
  EXPECT_EQ(pool.cached_blocks(), 0);
  EXPECT_EQ(pool.MatchCachedPrefix(prefix, 8).matched_tokens, 0);
  ASSERT_TRUE(pool.Register(2).ok());
  auto match = pool.AcquireCachedPrefix(2, prefix, 8);
  ASSERT_TRUE(match.ok());
  EXPECT_EQ(match->matched_tokens, 0);
  EXPECT_EQ(pool.stats().prefix_queries, 0);
  // Releases go straight back to the free list: nothing is evictable.
  ASSERT_TRUE(pool.Release(1).ok());
  EXPECT_EQ(pool.evictable_blocks(), 0);
  EXPECT_EQ(pool.free_blocks(), 8);
}

// ---------------- host row arena ----------------

/// Blocks of a quarter of kHostCachedKvTokens tokens, so four cached
/// blocks fill the arena's budget; one-float K and V rows.
constexpr std::int64_t kBigBlockTokens = kHostCachedKvTokens / 4;

KvPoolConfig BigBlockPool() {
  KvPoolConfig config;
  config.bytes_per_token = 1;
  config.block_size_tokens = static_cast<std::uint32_t>(kBigBlockTokens);
  config.pool_bytes = 8 * config.block_bytes();
  return config;
}

/// Caches one whole block of tokens base, base+1, ... under `seq` and
/// releases it: the block parks as the arena's warmest. Returns its id.
std::int32_t CacheOneBlock(KvBlockPool& pool, std::uint64_t seq,
                           std::int32_t base) {
  Fill(pool, seq, Tokens(base, static_cast<std::int32_t>(kBigBlockTokens)));
  const std::int32_t block = pool.BlockTable(seq).front();
  EXPECT_TRUE(pool.Release(seq).ok());
  return block;
}

/// Appends `tokens` under a new `seq`, writing row {p, -p} at each
/// position p.
void FillWithRows(KvBlockPool& pool, std::uint64_t seq,
                  const std::vector<std::int32_t>& tokens) {
  ASSERT_TRUE(pool.Register(seq).ok());
  for (std::size_t p = 0; p < tokens.size(); ++p) {
    ASSERT_TRUE(pool.Append(seq, tokens[p]).ok());
    const auto pos = static_cast<std::int64_t>(p);
    const float row[2] = {static_cast<float>(p), -static_cast<float>(p)};
    testutil::ScatterKvRows(pool.Pages(seq), pos, pos + 1, row);
  }
}

TEST(KvRowArenaTest, DropsTheColdestCachedBlockAcrossPools) {
  KvRowArena arena(BigBlockPool().payload_layout().block_floats());
  KvBlockPool a(BigBlockPool(), &arena);
  KvBlockPool b(BigBlockPool(), &arena);
  const std::int32_t a0 = CacheOneBlock(a, 1, 0);
  const std::int32_t b0 = CacheOneBlock(b, 1, 0);
  const std::int32_t a1 = CacheOneBlock(a, 2, 100000);
  const std::int32_t b1 = CacheOneBlock(b, 2, 100000);
  EXPECT_EQ(arena.cached_tokens(), kHostCachedKvTokens);
  EXPECT_EQ(a.stats().host_dropped_blocks + b.stats().host_dropped_blocks, 0);

  // A fifth cached block drops the coldest of both pools: a's first.
  CacheOneBlock(b, 3, 200000);
  EXPECT_TRUE(a.BlockIsCold(a0));
  EXPECT_TRUE(a.BlockPayload(a0).empty());
  EXPECT_FALSE(b.BlockIsCold(b0));
  EXPECT_EQ(a.stats().host_dropped_blocks, 1);
  EXPECT_EQ(b.stats().host_dropped_blocks, 0);
  // Its simulated state is untouched: still cached, evictable, matchable.
  EXPECT_TRUE(a.BlockIsCached(a0));
  EXPECT_EQ(a.evictable_blocks(), 2);
  EXPECT_EQ(a.MatchCachedPrefix(Tokens(0, kBigBlockTokens), kBigBlockTokens)
                .matched_tokens,
            kBigBlockTokens);

  // The next one drops b's first, then a's second.
  CacheOneBlock(a, 3, 300000);
  EXPECT_TRUE(b.BlockIsCold(b0));
  EXPECT_FALSE(a.BlockIsCold(a1));
  CacheOneBlock(a, 4, 400000);
  EXPECT_TRUE(a.BlockIsCold(a1));
  EXPECT_FALSE(b.BlockIsCold(b1));
  EXPECT_EQ(arena.cached_tokens(), kHostCachedKvTokens);
  // Live blocks plus the budget: never more slots than five blocks.
  EXPECT_LE(arena.slots(), 5);
}

TEST(KvRowArenaTest, LiveBlocksAreNeverCold) {
  KvBlockPool pool(BigBlockPool());
  const auto tokens = Tokens(0, 6 * kBigBlockTokens);
  Fill(pool, 1, tokens);  // six sealed, cached, live blocks: past the cap
  EXPECT_EQ(pool.stats().host_dropped_blocks, 0);
  for (std::int32_t block : pool.BlockTable(1)) {
    EXPECT_FALSE(pool.BlockIsCold(block));
    EXPECT_FALSE(pool.BlockPayload(block).empty());
  }
  // Shared owners keep them warm too.
  ASSERT_TRUE(pool.Register(2).ok());
  ASSERT_TRUE(pool.AcquireCachedPrefix(2, tokens, 6 * kBigBlockTokens).ok());
  ASSERT_TRUE(pool.Release(1).ok());
  EXPECT_EQ(pool.stats().host_dropped_blocks, 0);
  // Only once ownerless do the two coldest lose their rows.
  const std::vector<std::int32_t> table = pool.BlockTable(2);
  ASSERT_TRUE(pool.Release(2).ok());
  EXPECT_EQ(pool.stats().host_dropped_blocks, 2);
  for (std::size_t k = 0; k < table.size(); ++k) {
    EXPECT_EQ(pool.BlockIsCold(table[k]), k < 2) << "block " << k;
  }
}

TEST(KvRowArenaTest, RevivingAColdBlockReportsTheRangeToRecompute) {
  KvBlockPool pool(BigBlockPool());
  const auto tokens = Tokens(0, 6 * kBigBlockTokens);
  Fill(pool, 1, tokens);
  const std::vector<std::int32_t> table = pool.BlockTable(1);
  ASSERT_TRUE(pool.Release(1).ok());  // blocks 0 and 1 turn cold
  ASSERT_TRUE(pool.Register(2).ok());
  auto match = pool.AcquireCachedPrefix(2, tokens, 6 * kBigBlockTokens - 1);
  ASSERT_TRUE(match.ok());
  EXPECT_EQ(match->matched_blocks, 6);
  EXPECT_EQ(match->recompute_begin, 0);
  EXPECT_EQ(match->recompute_end, 2 * kBigBlockTokens);
  // Live again, so both hold a slot, but their rows are still owed.
  EXPECT_FALSE(pool.BlockPayload(table[0]).empty());
  EXPECT_TRUE(pool.BlockIsCold(table[0]));
  ASSERT_TRUE(pool.MarkRecomputed(2, 0, 2 * kBigBlockTokens).ok());
  EXPECT_FALSE(pool.BlockIsCold(table[0]));
  EXPECT_FALSE(pool.BlockIsCold(table[1]));
  EXPECT_EQ(pool.stats().host_recomputed_rows, 2 * kBigBlockTokens);
  // A match over warm blocks only owes nothing.
  ASSERT_TRUE(pool.Register(3).ok());
  match = pool.AcquireCachedPrefix(3, tokens, 6 * kBigBlockTokens - 1);
  ASSERT_TRUE(match.ok());
  EXPECT_EQ(match->recompute_begin, match->recompute_end);
  // Only the recompute counts: no simulated counter saw it.
  EXPECT_EQ(pool.stats().cache_block_reacquires, 6);
  EXPECT_EQ(pool.stats().block_allocs, 6);
}

TEST(KvRowArenaTest, APartlyRecomputedBlockStaysCold) {
  KvBlockPool pool(BigBlockPool());
  const auto tokens = Tokens(0, 5 * kBigBlockTokens);
  Fill(pool, 1, tokens);
  const std::int32_t first = pool.BlockTable(1).front();
  ASSERT_TRUE(pool.Release(1).ok());  // one block past the cap: the first
  ASSERT_TRUE(pool.Register(2).ok());
  ASSERT_TRUE(pool.AcquireCachedPrefix(2, tokens, 5 * kBigBlockTokens).ok());
  EXPECT_EQ(pool.MarkRecomputed(2, 0, 6 * kBigBlockTokens).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(pool.MarkRecomputed(9, 0, 1).code(), StatusCode::kNotFound);
  ASSERT_TRUE(pool.MarkRecomputed(2, 0, kBigBlockTokens - 1).ok());
  EXPECT_TRUE(pool.BlockIsCold(first));
  // Released, it parks without rows and leaves the budget to the four
  // warm ones, and the next hit owes it again.
  ASSERT_TRUE(pool.Release(2).ok());
  EXPECT_TRUE(pool.BlockPayload(first).empty());
  EXPECT_EQ(pool.stats().host_dropped_blocks, 1);
  ASSERT_TRUE(pool.Register(3).ok());
  auto match = pool.AcquireCachedPrefix(3, tokens, 5 * kBigBlockTokens);
  ASSERT_TRUE(match.ok());
  EXPECT_EQ(match->recompute_begin, 0);
  EXPECT_EQ(match->recompute_end, kBigBlockTokens);
}

TEST(KvRowArenaTest, EveryRemotelyInstalledBlockArrivesCold) {
  KvBlockPool src(BigBlockPool());
  const auto tokens = Tokens(0, 3 * kBigBlockTokens);
  FillWithRows(src, 1, tokens);
  const std::vector<std::int32_t> src_table = src.BlockTable(1);
  ASSERT_TRUE(src.Release(1).ok());  // three warm cached blocks
  for (std::int32_t block : src_table) ASSERT_FALSE(src.BlockIsCold(block));

  // No rows travel: every installed block lands cold, warm source or not.
  KvBlockPool dst(BigBlockPool());
  EXPECT_EQ(dst.InstallCachedPrefix(tokens, 3 * kBigBlockTokens),
            3 * kBigBlockTokens);
  EXPECT_EQ(dst.stats().remote_install_blocks, 3);
  EXPECT_EQ(dst.stats().host_dropped_blocks, 0);
  for (std::int32_t block = 0; block < 3; ++block) {
    EXPECT_TRUE(dst.BlockIsCold(block)) << "block " << block;
    EXPECT_TRUE(dst.BlockPayload(block).empty()) << "block " << block;
  }

  // The first hit owes every installed row; recomputing them (here, the
  // rows FillWithRows wrote at the source) restores the source's payload
  // bit for bit.
  ASSERT_TRUE(dst.Register(2).ok());
  auto match = dst.AcquireCachedPrefix(2, tokens, 3 * kBigBlockTokens - 1);
  ASSERT_TRUE(match.ok());
  EXPECT_EQ(match->recompute_begin, 0);
  EXPECT_EQ(match->recompute_end, 3 * kBigBlockTokens);
  for (std::int64_t p = 0; p < match->recompute_end; ++p) {
    const float row[2] = {static_cast<float>(p), -static_cast<float>(p)};
    testutil::ScatterKvRows(dst.Pages(2), p, p + 1, row);
  }
  ASSERT_TRUE(dst.MarkRecomputed(2, 0, match->recompute_end).ok());
  EXPECT_EQ(dst.stats().host_recomputed_rows, 3 * kBigBlockTokens);
  const std::vector<std::int32_t> dst_table = dst.BlockTable(2);
  ASSERT_EQ(dst_table.size(), src_table.size());
  for (std::size_t k = 0; k < dst_table.size(); ++k) {
    SCOPED_TRACE(::testing::Message() << "block " << k);
    EXPECT_FALSE(dst.BlockIsCold(dst_table[k]));
    const std::span<const float> got = dst.BlockPayload(dst_table[k]);
    const std::span<const float> want = src.BlockPayload(src_table[k]);
    ASSERT_EQ(got.size(), want.size());
    EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin()));
  }
}

}  // namespace
}  // namespace speedllm::serving
