/**
 * @file
 * DRAM block-cache tests: replacement-policy invariants on the
 * cache itself (capacity, pinning, determinism, bypass), cache-on
 * vs cache-off bit-identity end to end, and a TSan hammer driving
 * concurrent readers against eviction pressure (this binary is on
 * the CI TSan list).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <thread>
#include <vector>

#include "boss/device.h"
#include "mem/block_cache.h"
#include "workload/corpus.h"
#include "workload/queries.h"

namespace
{

using namespace boss;

mem::BlockCacheConfig
config(std::uint64_t capacity, std::uint32_t shards = 1)
{
    mem::BlockCacheConfig cfg;
    cfg.capacityBytes = capacity;
    cfg.shards = shards;
    return cfg;
}

/** One access/unpin round trip (the modeled fetch completing). */
mem::BlockCache::Outcome
touch(mem::BlockCache &cache, Addr addr, std::uint32_t bytes)
{
    auto outcome = cache.access(addr, bytes);
    if (outcome != mem::BlockCache::Outcome::Bypass)
        cache.unpin(addr);
    return outcome;
}

// ---------------------------------------------------------------
// Replacement-policy invariants.
// ---------------------------------------------------------------

TEST(BlockCacheTest, CapacityNeverExceeded)
{
    for (std::uint32_t shards : {1u, 4u}) {
        mem::BlockCache cache(config(64 << 10, shards));
        std::mt19937_64 rng(42);
        std::uniform_int_distribution<Addr> addrDist(0, 4096);
        std::uniform_int_distribution<std::uint32_t> sizeDist(64,
                                                              4096);
        for (int i = 0; i < 20'000; ++i) {
            touch(cache, addrDist(rng) << 8, sizeDist(rng));
            ASSERT_LE(cache.usedBytes(), cache.capacityBytes());
        }
    }
}

TEST(BlockCacheTest, StatsLedgerAlwaysCloses)
{
    mem::BlockCache cache(config(32 << 10));
    std::mt19937_64 rng(7);
    std::uniform_int_distribution<Addr> addrDist(0, 512);
    for (int i = 0; i < 5'000; ++i) {
        touch(cache, addrDist(rng) << 10, 1024);
        auto s = cache.stats();
        ASSERT_EQ(s.hits + s.misses, s.lookups);
        ASSERT_LE(s.bypasses, s.misses);
    }
}

TEST(BlockCacheTest, PinnedBlocksSurviveEvictionPressure)
{
    // Capacity of four 1 KB blocks; keep one pinned while a stream
    // of distinct blocks forces continuous eviction.
    mem::BlockCache cache(config(4 << 10));
    const Addr pinned = 0x1000;
    ASSERT_EQ(cache.access(pinned, 1024),
              mem::BlockCache::Outcome::Inserted);
    for (Addr a = 0; a < 64; ++a)
        touch(cache, 0x100000 + a * 0x1000, 1024);
    EXPECT_GT(cache.stats().evictions, 0u);
    EXPECT_TRUE(cache.contains(pinned));

    // Released, the block is fair game again.
    cache.unpin(pinned);
    for (Addr a = 0; a < 64; ++a)
        touch(cache, 0x900000 + a * 0x1000, 1024);
    EXPECT_FALSE(cache.contains(pinned));
}

TEST(BlockCacheTest, DeterministicUnderSeededTrace)
{
    // Same seeded trace into two single-shard caches: identical
    // stats and identical residency, entry by entry.
    auto runTrace = [](mem::BlockCache &cache) {
        std::mt19937_64 rng(1234);
        std::uniform_int_distribution<Addr> addrDist(0, 256);
        std::uniform_int_distribution<std::uint32_t> sizeDist(
            128, 2048);
        for (int i = 0; i < 10'000; ++i)
            touch(cache, addrDist(rng) << 12, sizeDist(rng));
    };
    mem::BlockCache a(config(16 << 10));
    mem::BlockCache b(config(16 << 10));
    runTrace(a);
    runTrace(b);

    auto sa = a.stats();
    auto sb = b.stats();
    EXPECT_EQ(sa.lookups, sb.lookups);
    EXPECT_EQ(sa.hits, sb.hits);
    EXPECT_EQ(sa.misses, sb.misses);
    EXPECT_EQ(sa.evictions, sb.evictions);
    EXPECT_EQ(sa.bypasses, sb.bypasses);
    EXPECT_EQ(a.usedBytes(), b.usedBytes());
    EXPECT_GT(sa.hits, 0u);
    EXPECT_GT(sa.evictions, 0u);
    for (Addr addr = 0; addr <= 256; ++addr)
        EXPECT_EQ(a.contains(addr << 12), b.contains(addr << 12))
            << "addr " << (addr << 12);
}

TEST(BlockCacheTest, OversizedBlocksBypass)
{
    mem::BlockCache cache(config(8 << 10, 2)); // 4 KB per shard
    EXPECT_EQ(cache.access(0x42, 8 << 10),
              mem::BlockCache::Outcome::Bypass);
    EXPECT_EQ(cache.access(0x42, 0),
              mem::BlockCache::Outcome::Bypass);
    auto s = cache.stats();
    EXPECT_EQ(s.bypasses, 2u);
    EXPECT_EQ(s.misses, 2u);
    EXPECT_EQ(s.hits + s.misses, s.lookups);
    EXPECT_EQ(cache.usedBytes(), 0u);
}

TEST(BlockCacheTest, AllPinnedMeansBypassNotEviction)
{
    // Fill the cache with pinned entries, then demand admission of
    // one more: nothing is evictable, so the access must bypass.
    mem::BlockCache cache(config(2 << 10));
    ASSERT_EQ(cache.access(0x1000, 1024),
              mem::BlockCache::Outcome::Inserted);
    ASSERT_EQ(cache.access(0x2000, 1024),
              mem::BlockCache::Outcome::Inserted);
    EXPECT_EQ(cache.access(0x3000, 1024),
              mem::BlockCache::Outcome::Bypass);
    EXPECT_EQ(cache.stats().evictions, 0u);
    EXPECT_TRUE(cache.contains(0x1000));
    EXPECT_TRUE(cache.contains(0x2000));
    cache.unpin(0x1000);
    cache.unpin(0x2000);
}

TEST(BlockCacheTest, SecondChanceProtectsReReferencedBlocks)
{
    // Four 1 KB slots. The first eviction sweep clears every
    // insertion-time reference bit, so afterwards only a fresh hit
    // re-arms one. Forcing one more eviction must then pass over the
    // re-referenced block (second chance) and take the next clear
    // one instead.
    mem::BlockCache cache(config(4 << 10));
    const Addr A = 0xA000, B = 0xB000, C = 0xC000, D = 0xD000;
    for (Addr a : {A, B, C, D})
        touch(cache, a, 1024);
    touch(cache, 0xE000, 1024); // sweep clears all bits, evicts A
    EXPECT_FALSE(cache.contains(A));
    EXPECT_EQ(touch(cache, B, 1024), mem::BlockCache::Outcome::Hit);
    touch(cache, 0xF000, 1024); // hand passes B (ref set), takes C
    EXPECT_TRUE(cache.contains(B));
    EXPECT_FALSE(cache.contains(C));
    EXPECT_TRUE(cache.contains(D));
}

// ---------------------------------------------------------------
// End to end: the cache changes timing, never results.
// ---------------------------------------------------------------

TEST(BlockCacheE2ETest, CacheOnOffBitIdentity)
{
    workload::CorpusConfig cfg;
    cfg.name = "cache-identity";
    cfg.numDocs = 8'000;
    cfg.vocabSize = 200;
    cfg.seed = 77;
    workload::Corpus corpus(cfg);

    workload::QueryWorkloadConfig qcfg;
    qcfg.vocabSize = cfg.vocabSize;
    qcfg.seed = 5;
    auto queries = workload::sampleQueries(qcfg, 24);
    auto terms = workload::collectTerms(queries);

    accel::Device off;
    off.loadIndex(corpus.buildIndex(terms));
    auto ref = off.searchBatch(queries);

    accel::DeviceConfig dcfg;
    dcfg.cacheMB = 0.125; // small: hits AND misses AND evictions
    dcfg.cacheShards = 1;
    accel::Device on(dcfg);
    on.loadIndex(corpus.buildIndex(terms));
    auto out = on.searchBatch(queries);
    auto out2 = on.searchBatch(queries); // warmer, still identical

    ASSERT_EQ(out.perQuery.size(), ref.perQuery.size());
    for (std::size_t q = 0; q < ref.perQuery.size(); ++q) {
        EXPECT_EQ(out.perQuery[q], ref.perQuery[q]) << "query " << q;
        EXPECT_EQ(out2.perQuery[q], ref.perQuery[q]) << "query " << q;
        EXPECT_EQ(out.summaries[q].docsScored,
                  ref.summaries[q].docsScored)
            << "query " << q;
    }
    EXPECT_GT(out.cacheLookups, 0u);
    EXPECT_EQ(out.cacheHits + out.cacheMisses, out.cacheLookups);
    // The cache-off run has no cache counters at all.
    EXPECT_EQ(ref.cacheLookups, 0u);
    EXPECT_EQ(ref.dramBytes, 0u);
    // A warmed cache can only help: pass 2 is at least as fast.
    EXPECT_LE(out2.simSeconds, out.simSeconds);
    EXPECT_GT(out2.cacheHits, 0u);
}

// ---------------------------------------------------------------
// TSan hammer: concurrent readers + eviction pressure.
// ---------------------------------------------------------------

TEST(BlockCacheTSanTest, ConcurrentAccessUnpinAndReaders)
{
    // Severe eviction pressure (working set >> capacity) across all
    // shards, with stats/usedBytes readers racing the mutators.
    // Correctness here is "no data race, no deadlock, ledger
    // closes" -- TSan provides the first two, the final check the
    // third.
    mem::BlockCache cache(config(64 << 10, 8));
    constexpr int kThreads = 8;
    constexpr int kIters = 20'000;

    std::vector<std::thread> workers;
    workers.reserve(kThreads + 1);
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&cache, t] {
            std::mt19937_64 rng(1000 + t);
            std::uniform_int_distribution<Addr> addrDist(0, 1024);
            std::uniform_int_distribution<std::uint32_t> sizeDist(
                64, 2048);
            for (int i = 0; i < kIters; ++i)
                touch(cache, addrDist(rng) << 8, sizeDist(rng));
        });
    }
    workers.emplace_back([&cache] {
        for (int i = 0; i < 2'000; ++i) {
            auto s = cache.stats();
            ASSERT_LE(s.hits, s.lookups);
            (void)cache.usedBytes();
            (void)cache.contains(0x100);
            std::this_thread::yield();
        }
    });
    for (auto &w : workers)
        w.join();

    auto s = cache.stats();
    EXPECT_EQ(s.lookups,
              static_cast<std::uint64_t>(kThreads) * kIters);
    EXPECT_EQ(s.hits + s.misses, s.lookups);
    EXPECT_LE(cache.usedBytes(), cache.capacityBytes());
}

} // namespace
