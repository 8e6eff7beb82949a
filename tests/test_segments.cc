/**
 * @file
 * Live-index differential tests: a multi-segment index with
 * tombstone deletes must rank bit-identically to an index rebuilt
 * from scratch over the surviving documents.
 *
 * The sweep crosses segment counts {1,2,4,8} with delete rates
 * {0%, 10%, 50%}; every combination is checked against a clean
 * IndexBuilder rebuild (scores compared with float equality, not
 * tolerance — the rebake-at-publish design promises identical
 * floats), against the naive per-segment oracle, and again after
 * merges compact the segment set.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "engine/segment_search.h"
#include "index/segments/live_index.h"
#include "workload/queries.h"

namespace
{

using namespace boss;
using index::segments::LiveIndex;
using index::segments::LiveIndexConfig;

constexpr std::uint32_t kNumDocs = 3200;
constexpr std::uint32_t kVocab = 200;
constexpr std::size_t kTopK = 50;
constexpr std::size_t kQueries = 12;

/** Synthetic token bags, deterministic in the seed. */
std::vector<std::vector<TermId>>
makeDocs(std::uint32_t numDocs, std::uint32_t vocab,
         std::uint64_t seed)
{
    std::vector<std::vector<TermId>> docs(numDocs);
    for (std::uint32_t d = 0; d < numDocs; ++d) {
        Rng rng(splitSeed(seed, d));
        const auto len =
            4 + static_cast<std::uint32_t>(rng.below(30));
        docs[d].reserve(len);
        for (std::uint32_t i = 0; i < len; ++i)
            docs[d].push_back(
                static_cast<TermId>(rng.below(vocab)));
    }
    return docs;
}

struct Rebuilt
{
    std::shared_ptr<index::InvertedIndex> index;
    std::vector<DocId> globals; ///< compact docID -> global docID
};

/**
 * The ground truth: a from-scratch IndexBuilder build over the
 * surviving docs in ascending global order, with every term id in
 * [0, vocab) materialized so any query term is in range.
 */
Rebuilt
rebuildSurvivors(const std::vector<std::vector<TermId>> &docs,
                 const std::vector<bool> &dead, std::uint32_t vocab)
{
    std::vector<std::uint32_t> lengths;
    std::vector<DocId> globals;
    std::map<TermId, index::PostingList> postings;
    for (DocId g = 0; g < docs.size(); ++g) {
        if (dead[g])
            continue;
        const auto local = static_cast<DocId>(lengths.size());
        std::map<TermId, TermFreq> bag;
        for (TermId t : docs[g])
            ++bag[t];
        for (const auto &[t, tf] : bag)
            postings[t].push_back({local, tf});
        lengths.push_back(
            static_cast<std::uint32_t>(docs[g].size()));
        globals.push_back(g);
    }

    index::IndexBuilder builder;
    builder.setDocLengths(lengths);
    for (TermId t = 0; t < vocab; ++t) {
        auto it = postings.find(t);
        builder.addTerm(t, it != postings.end()
                               ? std::move(it->second)
                               : index::PostingList{});
    }
    Rebuilt out;
    out.index = std::make_shared<index::InvertedIndex>(
        builder.build());
    out.globals = std::move(globals);
    return out;
}

std::vector<engine::Result>
rebasedReference(const Rebuilt &ref, const engine::QueryPlan &plan,
                 const engine::ExecFlags &flags)
{
    auto results =
        engine::executeQuery(*ref.index, plan, kTopK, flags);
    for (auto &r : results)
        r.doc = ref.globals[r.doc];
    return results;
}

std::vector<workload::Query>
testQueries(std::uint64_t seed)
{
    workload::QueryWorkloadConfig wcfg;
    wcfg.vocabSize = kVocab;
    wcfg.seed = seed;
    return workload::sampleQueries(wcfg, kQueries);
}

class SegmentsDifferential
    : public ::testing::TestWithParam<
          std::tuple<std::uint32_t, double>>
{
};

TEST_P(SegmentsDifferential, MatchesCleanRebuildOfSurvivors)
{
    const auto [numSegments, deleteRate] = GetParam();
    const auto docs = makeDocs(kNumDocs, kVocab, 0xD0C5);

    LiveIndexConfig cfg;
    cfg.termBoundHint = kVocab;
    cfg.maxBufferedDocs = kNumDocs / numSegments;
    cfg.maxSegments = 1; // merge policy: compact all the way down
    cfg.mergeFanIn = 4;
    LiveIndex live(cfg);
    for (const auto &tokens : docs)
        live.append(tokens);

    std::vector<bool> dead(kNumDocs, false);
    Rng rng(splitSeed(0xDEAD, numSegments));
    const auto cut = static_cast<std::uint64_t>(deleteRate * 1000);
    for (DocId g = 0; g < kNumDocs; ++g) {
        if (rng.below(1000) < cut) {
            ASSERT_TRUE(live.erase(g));
            dead[g] = true;
        }
    }
    live.refresh();
    ASSERT_EQ(live.segmentCount(), numSegments);

    const Rebuilt ref = rebuildSurvivors(docs, dead, kVocab);
    const auto queries = testQueries(0x5EED);
    const engine::ExecFlags boss;
    engine::ExecFlags exhaustive;
    exhaustive.blockSkip = false;
    exhaustive.wandSkip = false;

    {
        auto snap = live.snapshot();
        ASSERT_TRUE(static_cast<bool>(snap));
        EXPECT_EQ(snap->liveDocs(), ref.index->numDocs());
        EXPECT_EQ(snap->avgDocLen(), ref.index->avgDocLen());
        for (const auto &q : queries) {
            const auto plan = engine::planQuery(q);
            const auto got =
                engine::searchSegments(*snap, plan, kTopK, boss);
            EXPECT_EQ(got, rebasedReference(ref, plan, boss));
            EXPECT_EQ(engine::searchSegments(*snap, plan, kTopK,
                                             exhaustive),
                      got);
            EXPECT_EQ(
                engine::naiveSearchSegments(*snap, plan, kTopK),
                got);
        }
    }

    // Merges compact the survivors in place; every query must be
    // unchanged afterwards (the live statistics do not move).
    std::uint32_t merges = 0;
    while (live.mergeOnce())
        ++merges;
    if (numSegments > 1) {
        EXPECT_GT(merges, 0u);
        EXPECT_LT(live.segmentCount(), numSegments);
    }
    auto snap = live.snapshot();
    EXPECT_EQ(snap->liveDocs(), ref.index->numDocs());
    for (const auto &q : queries) {
        const auto plan = engine::planQuery(q);
        EXPECT_EQ(engine::searchSegments(*snap, plan, kTopK, boss),
                  rebasedReference(ref, plan, boss));
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SegmentsDifferential,
    ::testing::Combine(::testing::Values(1u, 2u, 4u, 8u),
                       ::testing::Values(0.0, 0.1, 0.5)));

TEST(Segments, BufferedDocsBecomeVisibleAtRefresh)
{
    LiveIndexConfig cfg;
    cfg.termBoundHint = 8;
    cfg.maxBufferedDocs = 1024; // never auto-bakes in this test
    LiveIndex live(cfg);

    const DocId a = live.append({1, 2, 3});
    EXPECT_EQ(live.bufferedDocs(), 1u);

    engine::QueryPlan plan;
    plan.groups = {{1}};
    plan.allTerms = {1};
    {
        auto snap = live.snapshot();
        EXPECT_TRUE(engine::searchSegments(*snap, plan, kTopK, {})
                        .empty());
    }

    live.refresh();
    EXPECT_EQ(live.bufferedDocs(), 0u);
    EXPECT_EQ(live.segmentCount(), 1u);
    {
        auto snap = live.snapshot();
        const auto got =
            engine::searchSegments(*snap, plan, kTopK, {});
        ASSERT_EQ(got.size(), 1u);
        EXPECT_EQ(got[0].doc, a);
    }

    // Erase inside the buffer: baked then immediately tombstoned.
    const DocId b = live.append({1, 1, 4});
    EXPECT_TRUE(live.erase(b));
    EXPECT_FALSE(live.erase(b));
    live.refresh();
    {
        auto snap = live.snapshot();
        const auto got =
            engine::searchSegments(*snap, plan, kTopK, {});
        ASSERT_EQ(got.size(), 1u);
        EXPECT_EQ(got[0].doc, a);
    }

    // Deleting the only survivor leaves an empty result set and a
    // sane (cnt == 0 -> avg 1.0) statistics fold.
    EXPECT_TRUE(live.erase(a));
    live.refresh();
    {
        auto snap = live.snapshot();
        EXPECT_EQ(snap->liveDocs(), 0u);
        EXPECT_EQ(snap->avgDocLen(), 1.0);
        EXPECT_TRUE(engine::searchSegments(*snap, plan, kTopK, {})
                        .empty());
    }
    EXPECT_FALSE(live.erase(kNumDocs + 1000)); // unknown id
}

TEST(Segments, EpochsAdvanceAndOldSnapshotsStayValid)
{
    LiveIndexConfig cfg;
    cfg.termBoundHint = 4;
    LiveIndex live(cfg);
    const auto e0 = live.epoch();

    live.append({1, 2});
    live.refresh();
    auto old = live.snapshot();
    EXPECT_EQ(old->epoch(), e0 + 1);

    live.append({1, 3});
    live.refresh();
    auto fresh = live.snapshot();
    EXPECT_EQ(fresh->epoch(), e0 + 2);

    // The old epoch still serves its original view.
    engine::QueryPlan plan;
    plan.groups = {{1}};
    plan.allTerms = {1};
    EXPECT_EQ(
        engine::searchSegments(*old, plan, kTopK, {}).size(), 1u);
    EXPECT_EQ(
        engine::searchSegments(*fresh, plan, kTopK, {}).size(), 2u);

    // Idempotent refresh: nothing changed, no new epoch.
    live.refresh();
    EXPECT_EQ(live.epoch(), e0 + 2);
}

} // namespace
