/**
 * @file
 * Sharding tests: the document partition, the shard builders, and
 * the property at the heart of the scatter/merge design — the merged
 * top-k of any shard count is bit-identical to a single device over
 * the whole corpus, and shard construction is reproducible at any
 * build order or parallelism.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "api/sharded_device.h"
#include "boss/device.h"
#include "common/thread_pool.h"
#include "engine/execute.h"
#include "engine/plan.h"
#include "index/block_decoder.h"
#include "index/sharding.h"
#include "workload/corpus.h"
#include "workload/queries.h"

namespace
{

using namespace boss;

// ---------------------------------------------------------------
// ShardMap.
// ---------------------------------------------------------------

TEST(ShardMapTest, PartitionIsContiguousAndBalanced)
{
    for (std::uint32_t shards : {1u, 2u, 3u, 4u, 7u, 8u}) {
        index::ShardMap map(1000, shards);
        ASSERT_EQ(map.numShards(), shards);
        EXPECT_EQ(map.numDocs(), 1000u);
        EXPECT_EQ(map.docBase(0), 0u);
        std::uint32_t total = 0;
        for (std::uint32_t s = 0; s < shards; ++s) {
            if (s > 0) {
                EXPECT_EQ(map.docBase(s),
                          map.docBase(s - 1) + map.docCount(s - 1));
            }
            EXPECT_LE(map.docCount(s), 1000 / shards + 1);
            EXPECT_GE(map.docCount(s), 1000 / shards);
            total += map.docCount(s);
        }
        EXPECT_EQ(total, 1000u);
    }
}

TEST(ShardMapTest, ShardOfAndRebaseRoundTrip)
{
    index::ShardMap map(997, 4); // deliberately not divisible
    for (DocId d = 0; d < 997; ++d) {
        std::uint32_t s = map.shardOf(d);
        ASSERT_LT(s, 4u);
        ASSERT_GE(d, map.docBase(s));
        ASSERT_LT(d, map.docBase(s) + map.docCount(s));
        EXPECT_EQ(map.toGlobal(s, map.toLocal(s, d)), d);
    }
}

TEST(ShardMapTest, MoreShardsThanDocsLeavesEmptyShards)
{
    index::ShardMap map(3, 8);
    std::uint32_t nonEmpty = 0;
    for (std::uint32_t s = 0; s < 8; ++s)
        nonEmpty += map.docCount(s) > 0 ? 1 : 0;
    EXPECT_EQ(nonEmpty, 3u);
    EXPECT_EQ(map.numDocs(), 3u);
}

// ---------------------------------------------------------------
// Shard building.
// ---------------------------------------------------------------

class ShardingTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        workload::CorpusConfig cfg;
        cfg.name = "shard-test";
        cfg.numDocs = 20'000;
        cfg.vocabSize = 400;
        cfg.seed = 77;
        corpus_ = new workload::Corpus(cfg);

        workload::QueryWorkloadConfig qcfg;
        qcfg.vocabSize = cfg.vocabSize;
        qcfg.seed = 5;
        queries_ = new std::vector<workload::Query>(
            workload::sampleQueries(qcfg, 36));
        terms_ = new std::vector<TermId>(
            workload::collectTerms(*queries_));
    }

    static void
    TearDownTestSuite()
    {
        delete corpus_;
        delete queries_;
        delete terms_;
        corpus_ = nullptr;
        queries_ = nullptr;
        terms_ = nullptr;
    }

    void TearDown() override
    {
        common::ThreadPool::setGlobalThreads(1);
    }

    static workload::Corpus *corpus_;
    static std::vector<workload::Query> *queries_;
    static std::vector<TermId> *terms_;
};

workload::Corpus *ShardingTest::corpus_ = nullptr;
std::vector<workload::Query> *ShardingTest::queries_ = nullptr;
std::vector<TermId> *ShardingTest::terms_ = nullptr;

/** Field-by-field equality of two compressed lists. */
void
expectListsEqual(const index::CompressedPostingList &a,
                 const index::CompressedPostingList &b)
{
    ASSERT_EQ(a.term, b.term);
    ASSERT_EQ(a.scheme, b.scheme);
    ASSERT_EQ(a.docCount, b.docCount);
    ASSERT_EQ(a.idf, b.idf);
    ASSERT_EQ(a.maxTermScore, b.maxTermScore);
    ASSERT_EQ(a.docPayload, b.docPayload);
    ASSERT_EQ(a.tfPayload, b.tfPayload);
    ASSERT_EQ(a.blocks.size(), b.blocks.size());
    for (std::size_t i = 0; i < a.blocks.size(); ++i) {
        ASSERT_EQ(a.blocks[i].firstDoc, b.blocks[i].firstDoc);
        ASSERT_EQ(a.blocks[i].lastDoc, b.blocks[i].lastDoc);
        ASSERT_EQ(a.blocks[i].maxTermScore, b.blocks[i].maxTermScore);
        ASSERT_EQ(a.blocks[i].numElems, b.blocks[i].numElems);
    }
}

TEST_F(ShardingTest, ShardsPartitionThePostings)
{
    auto shards = corpus_->buildShardedIndex(*terms_, 4);
    auto global = corpus_->buildIndex(*terms_);
    ASSERT_EQ(shards.shards.size(), 4u);

    for (TermId t : *terms_) {
        index::PostingList merged;
        for (std::uint32_t s = 0; s < 4; ++s) {
            const auto &list = shards.shards[s].list(t);
            if (list.docCount == 0)
                continue;
            for (auto p : index::decodeAll(list)) {
                p.doc = shards.map.toGlobal(s, p.doc);
                merged.push_back(p);
            }
        }
        EXPECT_EQ(merged, index::decodeAll(global.list(t)))
            << "term " << t;
    }
}

TEST_F(ShardingTest, ShardsStoreGlobalScoringStats)
{
    auto shards = corpus_->buildShardedIndex(*terms_, 4);
    auto global = corpus_->buildIndex(*terms_);

    for (TermId t : *terms_) {
        for (std::uint32_t s = 0; s < 4; ++s) {
            const auto &list = shards.shards[s].list(t);
            if (list.docCount == 0)
                continue;
            // Same stored idf float as the unsharded index: the df
            // baked in is the corpus-wide one.
            EXPECT_EQ(list.idf, global.list(t).idf)
                << "term " << t << " shard " << s;
        }
    }
    // Norms: every document's stored norm matches the global build.
    for (std::uint32_t s = 0; s < 4; ++s) {
        for (DocId d = 0; d < shards.shards[s].numDocs(); ++d) {
            DocId g = shards.map.toGlobal(s, d);
            EXPECT_EQ(shards.shards[s].doc(d).norm,
                      global.doc(g).norm);
        }
    }
}

TEST_F(ShardingTest, BuildIsReproducibleAcrossThreadCounts)
{
    common::ThreadPool::setGlobalThreads(1);
    auto serial = corpus_->buildShardedIndex(*terms_, 4);
    common::ThreadPool::setGlobalThreads(8);
    auto parallel = corpus_->buildShardedIndex(*terms_, 4);

    ASSERT_EQ(serial.shards.size(), parallel.shards.size());
    for (std::size_t s = 0; s < serial.shards.size(); ++s) {
        ASSERT_EQ(serial.shards[s].numTerms(),
                  parallel.shards[s].numTerms());
        for (TermId t = 0; t < serial.shards[s].numTerms(); ++t)
            expectListsEqual(serial.shards[s].list(t),
                             parallel.shards[s].list(t));
    }
}

TEST_F(ShardingTest, ReshardingABuiltIndexMatchesDirectShardBuild)
{
    auto direct = corpus_->buildShardedIndex(*terms_, 4);
    auto reshard =
        index::shardIndex(corpus_->buildIndex(*terms_), 4);

    ASSERT_EQ(direct.shards.size(), reshard.shards.size());
    for (std::size_t s = 0; s < direct.shards.size(); ++s) {
        ASSERT_EQ(direct.shards[s].numTerms(),
                  reshard.shards[s].numTerms());
        for (TermId t = 0; t < direct.shards[s].numTerms(); ++t)
            expectListsEqual(direct.shards[s].list(t),
                             reshard.shards[s].list(t));
    }
}

// ---------------------------------------------------------------
// The tentpole property: shard count never changes results.
// ---------------------------------------------------------------

TEST_F(ShardingTest, MergedTopKIsInvariantAcrossShardCounts)
{
    // Reference: one device over the whole corpus.
    accel::Device single;
    single.loadIndex(corpus_->buildIndex(*terms_));
    auto reference = single.searchBatch(*queries_);

    for (std::uint32_t shards : {1u, 2u, 4u, 8u}) {
        api::ShardedDeviceConfig cfg;
        cfg.shards = shards;
        api::ShardedDevice device(cfg);
        device.loadShards(corpus_->buildShardedIndex(*terms_, shards));

        auto outcome = device.searchBatch(*queries_);
        ASSERT_EQ(outcome.perQuery.size(),
                  reference.perQuery.size());
        for (std::size_t q = 0; q < outcome.perQuery.size(); ++q) {
            // Bit-identical: same docs, same score floats, same
            // order (incl. ties broken on global docID).
            EXPECT_EQ(outcome.perQuery[q], reference.perQuery[q])
                << "query " << q << " at " << shards << " shards";
        }
    }
}

TEST_F(ShardingTest, MergedTopKMatchesNaiveOracle)
{
    auto global = corpus_->buildIndex(*terms_);
    api::ShardedDeviceConfig cfg;
    cfg.shards = 4;
    api::ShardedDevice device(cfg);
    device.loadShards(corpus_->buildShardedIndex(*terms_, 4));

    for (std::size_t q = 0; q < 8; ++q) {
        const auto &query = (*queries_)[q];
        auto outcome = device.search(query);
        auto oracle = engine::naiveTopK(
            global, engine::planQuery(query), cfg.device.k);
        EXPECT_EQ(outcome.topk, oracle) << "query " << q;
    }
}

TEST_F(ShardingTest, AggregatesAreDeterministicAcrossRuns)
{
    // Same shard count, two fresh device stacks, different thread
    // counts: per-query aggregates must be bit-identical (they feed
    // experiment JSON that diffing relies on).
    auto runOnce = [&](std::size_t threads) {
        common::ThreadPool::setGlobalThreads(threads);
        api::ShardedDeviceConfig cfg;
        cfg.shards = 4;
        api::ShardedDevice device(cfg);
        device.loadShards(corpus_->buildShardedIndex(*terms_, 4));
        return device.searchBatch(*queries_).summaries;
    };
    auto a = runOnce(1);
    auto b = runOnce(8);
    ASSERT_EQ(a.size(), queries_->size());
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i], b[i]) << "summary " << i;
}

TEST_F(ShardingTest, PerShardSummariesSumToAggregates)
{
    api::ShardedDeviceConfig cfg;
    cfg.shards = 4;
    api::ShardedDevice device(cfg);
    device.loadShards(corpus_->buildShardedIndex(*terms_, 4));
    auto agg = device.searchBatch(*queries_).summaries;
    ASSERT_EQ(agg.size(), queries_->size());

    // Each shard device's own records for the same batch: the merged
    // record sums their counters and takes the slowest shard's cycles.
    std::vector<std::vector<trace::QuerySummary>> perShard;
    for (std::uint32_t s = 0; s < device.numShards(); ++s) {
        perShard.push_back(device.shard(s).searchBatch(*queries_)
                               .summaries);
        ASSERT_EQ(perShard.back().size(), queries_->size());
    }
    for (std::size_t q = 0; q < agg.size(); ++q) {
        trace::QuerySummary expected;
        expected.query = q;
        expected.terms = perShard[0][q].terms;
        for (const auto &shard : perShard) {
            trace::addCounters(expected, shard[q]);
            expected.cycles = std::max(expected.cycles, shard[q].cycles);
        }
        EXPECT_EQ(agg[q], expected) << "query " << q;
    }
}

TEST_F(ShardingTest, FinishBuiltSummaryMatchesSearch)
{
    // The serve path (buildQuery + finishBuilt) accounts each query
    // exactly as search() does.
    api::ShardedDeviceConfig cfg;
    cfg.shards = 4;
    api::ShardedDevice device(cfg);
    device.loadShards(corpus_->buildShardedIndex(*terms_, 4));
    engine::QueryArena arena;
    for (std::size_t q = 0; q < queries_->size(); ++q) {
        const auto &query = (*queries_)[q];
        auto served =
            device.finishBuilt(device.buildQuery(device.plan(query),
                                                 arena));
        auto searched = device.search(query);
        ASSERT_EQ(served.summaries.size(), 1u);
        EXPECT_EQ(served.summaries, searched.summaries) << "query " << q;
    }
}

TEST_F(ShardingTest, ExpressionQueriesWorkOnShardedDevice)
{
    api::ShardedDeviceConfig cfg;
    cfg.shards = 2;
    api::ShardedDevice device(cfg);
    device.loadShards(corpus_->buildShardedIndex(*terms_, 2));

    accel::Device single;
    single.loadIndex(corpus_->buildIndex(*terms_));

    TermId a = (*terms_)[0];
    TermId b = (*terms_)[1];
    std::string expr = "\"t" + std::to_string(a) + "\" OR \"t" +
                       std::to_string(b) + "\"";
    EXPECT_EQ(device.search(expr).topk, single.search(expr).topk);
}

TEST_F(ShardingTest, TermIdPastTheShardsIsFatal)
{
    api::ShardedDeviceConfig cfg;
    cfg.shards = 2;
    api::ShardedDevice device(cfg);
    device.loadShards(corpus_->buildShardedIndex(*terms_, 2));
    const std::string past =
        "\"t" + std::to_string(device.shard(0).index().numTerms()) +
        "\"";
    EXPECT_EXIT(device.search(past), ::testing::ExitedWithCode(1),
                "outside the index");
}

TEST_F(ShardingTest, StatsJsonCoversEveryShard)
{
    api::ShardedDeviceConfig cfg;
    cfg.shards = 2;
    api::ShardedDevice device(cfg);
    device.loadShards(corpus_->buildShardedIndex(*terms_, 2));
    device.enableStatsCapture(true);
    device.searchBatch(*queries_);

    std::ostringstream os;
    device.writeStatsJson(os);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"shards\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"shard_0\""), std::string::npos);
    EXPECT_NE(json.find("\"shard_1\""), std::string::npos);
    EXPECT_NE(json.find("\"doc_bases\""), std::string::npos);
}

} // namespace
