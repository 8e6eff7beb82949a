/**
 * @file
 * Tests for the compiled plan's clauses (a term, a conjunction, a
 * conjunction with an OR tail), the lazy block-fetch behavior of the
 * cursor, and the factoring of DNF plans into clauses.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "engine/execute.h"
#include "index/block_decoder.h"
#include "workload/corpus.h"

namespace
{

using namespace boss;
using namespace boss::engine;

index::InvertedIndex &
idx()
{
    static index::InvertedIndex index = [] {
        workload::CorpusConfig cfg;
        cfg.numDocs = 20000;
        cfg.vocabSize = 300;
        cfg.seed = 55;
        workload::Corpus corpus(cfg);
        return corpus.buildIndex({0, 1, 2, 5, 10, 50, 299});
    }();
    return index;
}

std::set<DocId>
docSet(TermId t)
{
    std::set<DocId> out;
    for (const auto &p : index::decodeAll(idx().list(t)))
        out.insert(p.doc);
    return out;
}

/** A plan of @p groups (DNF), compiled with no hooks. */
struct Compiled
{
    explicit Compiled(std::vector<std::vector<TermId>> groups)
        : plan(idx(), planOf(std::move(groups)), nullptr, nullptr,
               nullptr, work)
    {}

    static QueryPlan
    planOf(std::vector<std::vector<TermId>> groups)
    {
        QueryPlan p;
        std::set<TermId> all;
        for (auto &g : groups) {
            std::sort(g.begin(), g.end());
            all.insert(g.begin(), g.end());
        }
        p.groups = std::move(groups);
        p.allTerms.assign(all.begin(), all.end());
        return p;
    }

    DocWork work;
    CompiledPlan plan;
};

/** Drain clause @p c into a doc set. */
std::set<DocId>
drain(CompiledPlan &p, std::size_t c)
{
    std::set<DocId> out;
    while (!p.atEnd(c)) {
        out.insert(p.doc(c));
        p.next(c);
    }
    return out;
}

// ---------------------------------------------------------------
// Lazy fetching.
// ---------------------------------------------------------------

struct LoadCounter : ExecHooks
{
    std::uint64_t docBlocks = 0;
    std::uint64_t tfBlocks = 0;
    void
    onDocBlockLoad(TermId, const index::BlockMeta &) override
    {
        ++docBlocks;
    }
    void
    onTfBlockLoad(TermId, const index::BlockMeta &) override
    {
        ++tfBlocks;
    }
};

TEST(LazyCursor, PositioningFetchesNothing)
{
    LoadCounter hooks;
    ListCursor cur(idx().list(0), &hooks);
    // Construction positions on block 0: metadata only.
    EXPECT_EQ(hooks.docBlocks, 0u);
    // doc() at block start comes from metadata.
    EXPECT_EQ(cur.doc(), idx().list(0).blocks[0].firstDoc);
    EXPECT_EQ(hooks.docBlocks, 0u);
    // next() needs the payload.
    cur.next();
    EXPECT_EQ(hooks.docBlocks, 1u);
}

TEST(LazyCursor, SkipPastBlockAvoidsFetch)
{
    LoadCounter hooks;
    const auto &list = idx().list(0);
    ASSERT_GT(list.numBlocks(), 3u);
    ListCursor cur(list, &hooks);
    cur.skipPastBlock();
    cur.skipPastBlock();
    EXPECT_EQ(hooks.docBlocks, 0u);
    EXPECT_EQ(cur.doc(), list.blocks[2].firstDoc);
}

TEST(LazyCursor, AdvanceToBlockStartStaysLazy)
{
    LoadCounter hooks;
    const auto &list = idx().list(0);
    ASSERT_GT(list.numBlocks(), 2u);
    ListCursor cur(list, &hooks);
    // Target exactly a later block's firstDoc: landing block needs
    // no decode (the cursor can report firstDoc from metadata).
    cur.advanceTo(list.blocks[2].firstDoc);
    EXPECT_EQ(cur.doc(), list.blocks[2].firstDoc);
    EXPECT_EQ(hooks.docBlocks, 0u);
}

TEST(LazyCursor, TfFetchesBothPayloads)
{
    LoadCounter hooks;
    ListCursor cur(idx().list(1), &hooks);
    cur.tf();
    EXPECT_EQ(hooks.docBlocks, 1u);
    EXPECT_EQ(hooks.tfBlocks, 1u);
    // Same block: no refetch.
    cur.tf();
    EXPECT_EQ(hooks.tfBlocks, 1u);
}

TEST(LazyCursor, PeekMaxInRangeIsUpperBound)
{
    ListCursor cur(idx().list(0), nullptr);
    const auto &list = idx().list(0);
    // The peek over the whole list never exceeds the list max and
    // covers the current block's max.
    float peek = cur.peekMaxInRange(0, kInvalidDocId - 1);
    EXPECT_LE(peek, list.maxTermScore);
    EXPECT_GE(peek, list.blocks[0].maxTermScore);
}

TEST(LazyCursor, ExhaustedCursorRejectsNextAndTf)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    const auto &list = idx().list(0);
    ListCursor cur(list, nullptr);
    cur.next(); // block 0 decoded: next() and tf() have fast paths
    // A metadata seek past the last block exhausts the cursor; the
    // decoded block must not keep serving next() and tf().
    cur.advanceTo(list.blocks.back().lastDoc + 1);
    ASSERT_TRUE(cur.atEnd());
    EXPECT_DEATH(cur.next(), "next.. on exhausted cursor");
    EXPECT_DEATH(cur.tf(), "tf.. on exhausted cursor");
}

// ---------------------------------------------------------------
// Clause semantics.
// ---------------------------------------------------------------

TEST(Streams, AndStreamIsIntersection)
{
    Compiled c({{0, 10}});
    ASSERT_EQ(c.plan.numClauses(), 1u);
    std::set<DocId> expect;
    auto a = docSet(0);
    for (DocId d : docSet(10)) {
        if (a.count(d) != 0)
            expect.insert(d);
    }
    EXPECT_EQ(drain(c.plan, 0), expect);
}

TEST(Streams, OrStreamIsUnion)
{
    // A union is one term clause per term, merged by the loop: with
    // no pruning and room for every doc, it returns each doc of
    // either list exactly once.
    Compiled c({{5}, {50}});
    EXPECT_EQ(c.plan.numClauses(), 2u);
    std::set<DocId> expect = docSet(5);
    auto b = docSet(50);
    expect.insert(b.begin(), b.end());

    auto results = executeQuery(idx(), Compiled::planOf({{5}, {50}}),
                                idx().numDocs(),
                                {false, false, false, false});
    std::set<DocId> got;
    for (const auto &r : results)
        got.insert(r.doc);
    EXPECT_EQ(results.size(), got.size());
    EXPECT_EQ(got, expect);
}

TEST(Streams, NestedAndOrMatchesSetAlgebra)
{
    // 0 AND (10 OR 50): one clause, 10 and 50 its OR tail.
    Compiled c({{0, 10}, {0, 50}});
    ASSERT_EQ(c.plan.numClauses(), 1u);

    auto a = docSet(0);
    auto u = docSet(10);
    auto t = docSet(50);
    u.insert(t.begin(), t.end());
    std::set<DocId> expect;
    for (DocId d : u) {
        if (a.count(d) != 0)
            expect.insert(d);
    }
    EXPECT_EQ(drain(c.plan, 0), expect);
}

TEST(Streams, AdvanceToSkipsToTarget)
{
    Compiled c({{0}, {1}});
    DocId first = std::min(c.plan.doc(0), c.plan.doc(1));
    for (std::size_t i = 0; i < c.plan.numClauses(); ++i) {
        c.plan.advanceTo(i, first + 5000);
        EXPECT_GE(c.plan.doc(i), first + 5000);
    }
}

TEST(Streams, UpperBoundsAreAdditive)
{
    const float m0 = idx().list(0).maxTermScore;
    const float m10 = idx().list(10).maxTermScore;
    const float m50 = idx().list(50).maxTermScore;

    Compiled andC({{0, 10}});
    EXPECT_FLOAT_EQ(andC.plan.upperBound(0), m0 + m10);

    Compiled orC({{0}, {10}});
    EXPECT_FLOAT_EQ(orC.plan.upperBound(0) + orC.plan.upperBound(1),
                    m0 + m10);

    // The OR tail sums on its own and joins the conjunction as one
    // value (float addition is not associative).
    Compiled nested({{50, 0}, {50, 10}});
    EXPECT_EQ(nested.plan.upperBound(0), m50 + (m0 + m10));
}

TEST(Streams, CollectMatchesReportsTfs)
{
    // Terms 0 and 10 have ranks 0 and 1 in the plan.
    Compiled c({{0}, {10}});
    CompiledPlan &p = c.plan;
    while (!p.atEnd(0) && !p.atEnd(1)) {
        if (p.doc(0) == p.doc(1)) {
            DocId d = p.doc(0);
            EXPECT_EQ(p.collectMatches(0) + p.collectMatches(1), 2u);
            EXPECT_GE(p.collectedTf(0), 1u);
            EXPECT_GE(p.collectedTf(1), 1u);
            EXPECT_GT(p.scoreCollected(d), 0.f);
            // Scoring consumes the collected terms.
            EXPECT_EQ(p.collectedTf(0), 0u);
            EXPECT_EQ(p.collectedTf(1), 0u);
            return;
        }
        p.next(p.doc(0) < p.doc(1) ? 0 : 1);
    }
    GTEST_SKIP() << "no shared doc between terms 0 and 10";
}

TEST(Streams, SkipPastBlockMakesProgress)
{
    // A term clause and a conjunction with an OR tail.
    for (auto groups : {std::vector<std::vector<TermId>>{{0}, {1}},
                        std::vector<std::vector<TermId>>{{2, 0}, {2, 1}}}) {
        Compiled c(groups);
        DocId before = c.plan.doc(0);
        DocId end = c.plan.blockEnd(0);
        c.plan.skipPastBlock(0);
        if (!c.plan.atEnd(0)) {
            EXPECT_GT(c.plan.doc(0), end);
            EXPECT_GT(c.plan.doc(0), before);
        }
    }
}

// ---------------------------------------------------------------
// Plan factoring into clauses.
// ---------------------------------------------------------------

TEST(BuildStreams, PureUnionYieldsOneStreamPerTerm)
{
    EXPECT_EQ(Compiled({{0}, {10}, {50}}).plan.numClauses(), 3u);
}

TEST(BuildStreams, PureIntersectionYieldsOneStream)
{
    EXPECT_EQ(Compiled({{0, 10, 50}}).plan.numClauses(), 1u);
}

TEST(BuildStreams, CommonPrefixFactored)
{
    // (0^10) v (0^50): factors into 0 ^ (10 v 50) -> one clause.
    EXPECT_EQ(Compiled({{0, 10}, {0, 50}}).plan.numClauses(), 1u);
}

TEST(BuildStreams, UnfactorableDnfKeepsGroups)
{
    // (0^10) v (1^50): no common term -> two conjunctions.
    EXPECT_EQ(Compiled({{0, 10}, {1, 50}}).plan.numClauses(), 2u);
}

TEST(BuildStreams, FactoredStreamMatchesUnfactoredSemantics)
{
    Compiled factored({{2, 5}, {2, 10}});
    ASSERT_EQ(factored.plan.numClauses(), 1u);

    auto a = docSet(2);
    auto u = docSet(5);
    auto c = docSet(10);
    u.insert(c.begin(), c.end());
    std::set<DocId> expect;
    for (DocId d : u) {
        if (a.count(d) != 0)
            expect.insert(d);
    }
    EXPECT_EQ(drain(factored.plan, 0), expect);
}

} // namespace
