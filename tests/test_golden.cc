/**
 * @file
 * Golden regression suite: a fixed-seed corpus and 50 canonical
 * queries whose top-k results are pinned byte-for-byte against a
 * checked-in fixture. Scores are compared on their exact float bit
 * patterns — any change to scoring, compression, traversal order,
 * tie-breaking or the resilience fast path shows up as a diff here
 * before it ships.
 *
 * Regenerating (after an INTENDED result change):
 *   BOSS_GOLDEN_REGEN=1 ./tests/test_golden
 * then commit the updated fixtures in tests/golden/ with a note
 * explaining why results moved.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "api/sharded_device.h"
#include "boss/device.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "mem/fault_model.h"
#include "trace/summary.h"
#include "workload/corpus.h"
#include "workload/queries.h"

#ifndef BOSS_GOLDEN_DIR
#error "BOSS_GOLDEN_DIR must point at the checked-in fixtures"
#endif

namespace
{

using namespace boss;

constexpr std::size_t kQueries = 50;

std::string
goldenPath()
{
    return std::string(BOSS_GOLDEN_DIR) + "/topk50.txt";
}

workload::Corpus &
goldenCorpus()
{
    static workload::Corpus *corpus = [] {
        workload::CorpusConfig cfg;
        cfg.name = "golden";
        cfg.numDocs = 25'000;
        cfg.vocabSize = 500;
        cfg.seed = 0x60D5EED;
        return new workload::Corpus(cfg);
    }();
    return *corpus;
}

std::vector<workload::Query>
goldenQueries()
{
    workload::QueryWorkloadConfig qcfg;
    qcfg.vocabSize = goldenCorpus().config().vocabSize;
    qcfg.seed = 0xCA;
    return workload::sampleQueries(qcfg, kQueries);
}

/**
 * Serialize per-query results to the fixture text format. Scores
 * are written as the hex bits of the float so the comparison is
 * exact (no decimal round-trip noise):
 *   query <i> <nResults>
 *   <docId> <scoreBitsHex>
 */
std::string
formatResults(
    const std::vector<std::vector<engine::Result>> &perQuery)
{
    std::ostringstream os;
    os << "# boss golden top-k fixture: " << perQuery.size()
       << " queries, scores as float bits\n";
    for (std::size_t q = 0; q < perQuery.size(); ++q) {
        os << "query " << q << " " << perQuery[q].size() << "\n";
        for (const auto &r : perQuery[q]) {
            std::uint32_t bits;
            static_assert(sizeof(bits) == sizeof(r.score));
            std::memcpy(&bits, &r.score, sizeof(bits));
            os << r.doc << " " << std::hex << bits << std::dec
               << "\n";
        }
    }
    return os.str();
}

std::vector<std::vector<engine::Result>>
runGoldenBatch()
{
    accel::Device device;
    device.loadIndex(goldenCorpus().buildIndex(
        workload::collectTerms(goldenQueries())));
    return device.searchBatch(goldenQueries()).perQuery;
}

TEST(GoldenTest, Top50QueriesMatchCheckedInFixture)
{
    std::string actual = formatResults(runGoldenBatch());

    if (std::getenv("BOSS_GOLDEN_REGEN") != nullptr) {
        std::ofstream os(goldenPath(), std::ios::binary);
        ASSERT_TRUE(os) << "cannot write " << goldenPath();
        os << actual;
        GTEST_SKIP() << "regenerated " << goldenPath()
                     << " — commit it with an explanation";
    }

    std::ifstream is(goldenPath(), std::ios::binary);
    ASSERT_TRUE(is) << "missing fixture " << goldenPath()
                    << " (run with BOSS_GOLDEN_REGEN=1 once)";
    std::stringstream expected;
    expected << is.rdbuf();

    // Byte-for-byte: docIDs, order, and exact score bit patterns.
    EXPECT_EQ(expected.str(), actual)
        << "golden results moved; if intended, regenerate with "
           "BOSS_GOLDEN_REGEN=1 and commit the new fixture";
}

/**
 * Modeled-trace fixture: the same 50 queries on one device per
 * system kind, plus BOSS under CI's fault spec, with every
 * per-query summary field pinned (work counts, traffic, resilience
 * events and replay cycles). The engine's hook sequence is the
 * modeled trace, so a drift in traversal, skipping or hook
 * delivery shows up here even when the top-k stays put. At the
 * default k the heap never fills on this corpus, so BOSS and
 * BOSS-block-only also run at k = 10, where WAND pivot skips and
 * the block fetch module's early termination fire.
 */
std::string
summariesGoldenPath()
{
    return std::string(BOSS_GOLDEN_DIR) + "/summaries50.txt";
}

TEST(GoldenTest, ModeledSummariesMatchCheckedInFixture)
{
    struct Run
    {
        model::SystemKind kind;
        const char *faults;
        std::size_t k;
    };
    constexpr std::size_t kDefault = engine::kDefaultTopK;
    const Run runs[] = {
        {model::SystemKind::Boss, "", kDefault},
        {model::SystemKind::BossBlockOnly, "", kDefault},
        {model::SystemKind::BossExhaustive, "", kDefault},
        {model::SystemKind::Iiu, "", kDefault},
        {model::SystemKind::Lucene, "", kDefault},
        {model::SystemKind::Boss, "ber=1e-4,stuck=1e-3", kDefault},
        {model::SystemKind::Boss, "", 10},
        {model::SystemKind::BossBlockOnly, "", 10},
    };
    const index::InvertedIndex index = goldenCorpus().buildIndex(
        workload::collectTerms(goldenQueries()));

    std::ostringstream os;
    os << "# boss golden modeled summaries: " << kQueries
       << " queries per system kind\n";
    for (const Run &run : runs) {
        accel::DeviceConfig cfg;
        cfg.kind = run.kind;
        cfg.faults = mem::parseFaultSpec(run.faults);
        cfg.k = run.k;
        accel::Device device(cfg);
        device.loadIndex(index);
        os << "# " << model::systemName(run.kind) << " faults='"
           << run.faults << "' k=" << run.k << "\n";
        trace::writeSummaries(
            os, device.searchBatch(goldenQueries()).summaries);
    }
    std::string actual = os.str();

    if (std::getenv("BOSS_GOLDEN_REGEN") != nullptr) {
        std::ofstream out(summariesGoldenPath(), std::ios::binary);
        ASSERT_TRUE(out) << "cannot write " << summariesGoldenPath();
        out << actual;
        GTEST_SKIP() << "regenerated " << summariesGoldenPath()
                     << " — commit it with an explanation";
    }

    std::ifstream is(summariesGoldenPath(), std::ios::binary);
    ASSERT_TRUE(is) << "missing fixture " << summariesGoldenPath()
                    << " (run with BOSS_GOLDEN_REGEN=1 once)";
    std::stringstream expected;
    expected << is.rdbuf();
    EXPECT_EQ(expected.str(), actual)
        << "modeled summaries moved; if intended, regenerate with "
           "BOSS_GOLDEN_REGEN=1 and commit the new fixture";
}

TEST(GoldenTest, ResultsAreThreadCountInvariant)
{
    common::ThreadPool::setGlobalThreads(1);
    std::string serial = formatResults(runGoldenBatch());
    common::ThreadPool::setGlobalThreads(8);
    std::string parallel = formatResults(runGoldenBatch());
    common::ThreadPool::setGlobalThreads(1);
    EXPECT_EQ(serial, parallel);
}

/**
 * Segmented-index fixture: one fixed mutation history — build,
 * append, delete, merge — pinned byte-for-byte. Covers the live
 * path end to end (rebake-at-publish, tombstone filtering, merge
 * compaction, per-segment replay + global merge); any drift in the
 * segment lifecycle's scoring shows up as a diff in the top-50.
 */
std::string
segmentedGoldenPath()
{
    return std::string(BOSS_GOLDEN_DIR) + "/topk50_segments.txt";
}

std::vector<TermId>
segmentedGoldenDoc(std::uint32_t d, std::uint32_t vocab)
{
    Rng rng(splitSeed(0x5E60D, d));
    const auto len = 6 + static_cast<std::uint32_t>(rng.below(40));
    std::vector<TermId> tokens;
    tokens.reserve(len);
    for (std::uint32_t i = 0; i < len; ++i)
        tokens.push_back(static_cast<TermId>(rng.below(vocab)));
    return tokens;
}

TEST(GoldenTest, SegmentedLifecycleMatchesFixture)
{
    const auto vocab = goldenCorpus().config().vocabSize;
    api::ShardedDeviceConfig cfg;
    cfg.device.k = 50;
    api::ShardedDevice device(cfg);
    index::segments::LiveIndexConfig lcfg;
    lcfg.termBoundHint = vocab;
    lcfg.maxBufferedDocs = 512;
    lcfg.maxSegments = 2;
    lcfg.mergeFanIn = 3;
    auto &live = device.loadLiveIndex(lcfg);

    // Build, append, delete, merge — a fixed mutation history.
    for (std::uint32_t d = 0; d < 3000; ++d)
        live.append(segmentedGoldenDoc(d, vocab));
    live.refresh();
    for (DocId d = 0; d < 3000; d += 7)
        ASSERT_TRUE(live.erase(d));
    for (std::uint32_t d = 3000; d < 4000; ++d)
        live.append(segmentedGoldenDoc(d, vocab));
    live.refresh();
    while (live.mergeOnce()) {
    }

    std::vector<std::vector<engine::Result>> perQuery;
    for (const auto &q : goldenQueries())
        perQuery.push_back(device.search(q).topk);
    std::string actual = formatResults(perQuery);

    if (std::getenv("BOSS_GOLDEN_REGEN") != nullptr) {
        std::ofstream os(segmentedGoldenPath(), std::ios::binary);
        ASSERT_TRUE(os) << "cannot write " << segmentedGoldenPath();
        os << actual;
        GTEST_SKIP() << "regenerated " << segmentedGoldenPath()
                     << " — commit it with an explanation";
    }

    std::ifstream is(segmentedGoldenPath(), std::ios::binary);
    ASSERT_TRUE(is) << "missing fixture " << segmentedGoldenPath()
                    << " (run with BOSS_GOLDEN_REGEN=1 once)";
    std::stringstream expected;
    expected << is.rdbuf();
    EXPECT_EQ(expected.str(), actual)
        << "segmented golden results moved; if intended, "
           "regenerate with BOSS_GOLDEN_REGEN=1 and commit the "
           "new fixture";
}

TEST(GoldenTest, ShardingPreservesGoldenResults)
{
    // The sharded stack must reproduce the fixture exactly: merge
    // order, tie-breaks and score floats included.
    api::ShardedDeviceConfig cfg;
    cfg.shards = 4;
    api::ShardedDevice device(cfg);
    device.loadShards(goldenCorpus().buildShardedIndex(
        workload::collectTerms(goldenQueries()), 4));
    std::string sharded =
        formatResults(device.searchBatch(goldenQueries()).perQuery);

    std::ifstream is(goldenPath(), std::ios::binary);
    if (!is)
        GTEST_SKIP() << "fixture not generated yet";
    std::stringstream expected;
    expected << is.rdbuf();
    EXPECT_EQ(expected.str(), sharded);
}

} // namespace
