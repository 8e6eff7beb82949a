/**
 * @file
 * Tests for the query engine: cursors, top-k, the expression
 * parser/planner, and the central lossless-early-termination
 * property -- every flag combination returns the same top-k as the
 * brute-force oracle.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "engine/cursor.h"
#include "engine/execute.h"
#include "engine/plan.h"
#include "engine/topk.h"
#include "index/block_decoder.h"
#include "workload/corpus.h"
#include "workload/queries.h"

namespace
{

using namespace boss;
using namespace boss::engine;

workload::Corpus &
testCorpus()
{
    static workload::Corpus corpus = [] {
        workload::CorpusConfig cfg;
        cfg.numDocs = 30000;
        cfg.vocabSize = 2000;
        cfg.maxDfFraction = 0.15;
        cfg.seed = 77;
        return workload::Corpus(cfg);
    }();
    return corpus;
}

index::InvertedIndex &
testIndex()
{
    static index::InvertedIndex index = testCorpus().buildIndex(
        {0, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 1999});
    return index;
}

// ---------------------------------------------------------------
// TopK.
// ---------------------------------------------------------------

TEST(TopKTest, KeepsBestK)
{
    TopK topk(3);
    topk.insert(1, 1.0f);
    topk.insert(2, 5.0f);
    topk.insert(3, 3.0f);
    topk.insert(4, 4.0f);
    topk.insert(5, 0.5f);
    auto r = topk.sorted();
    ASSERT_EQ(r.size(), 3u);
    EXPECT_EQ(r[0].doc, 2u);
    EXPECT_EQ(r[1].doc, 4u);
    EXPECT_EQ(r[2].doc, 3u);
}

TEST(TopKTest, ThresholdSemantics)
{
    TopK topk(2);
    EXPECT_TRUE(std::isinf(topk.threshold()));
    EXPECT_LT(topk.threshold(), 0.f);
    topk.insert(1, 2.0f);
    EXPECT_FALSE(topk.full());
    topk.insert(2, 1.0f);
    EXPECT_TRUE(topk.full());
    EXPECT_FLOAT_EQ(topk.threshold(), 1.0f);
    // Equal score, larger doc: rejected.
    EXPECT_FALSE(topk.insert(9, 1.0f));
    // Equal score, smaller doc: accepted (deterministic tie-break).
    EXPECT_TRUE(topk.insert(0, 1.0f));
    auto r = topk.sorted();
    EXPECT_EQ(r[1].doc, 0u);
}

TEST(TopKTest, InsertBelowThresholdRejected)
{
    TopK topk(1);
    topk.insert(1, 5.0f);
    EXPECT_FALSE(topk.insert(2, 4.9f));
    EXPECT_EQ(topk.sorted()[0].doc, 1u);
}

// ---------------------------------------------------------------
// Cursor.
// ---------------------------------------------------------------

TEST(CursorTest, SequentialTraversalMatchesDecodeAll)
{
    const auto &list = testIndex().list(0);
    auto oracle = index::decodeAll(list);
    ListCursor cur(list, nullptr);
    for (const auto &p : oracle) {
        ASSERT_FALSE(cur.atEnd());
        EXPECT_EQ(cur.doc(), p.doc);
        EXPECT_EQ(cur.tf(), p.tf);
        cur.next();
    }
    EXPECT_TRUE(cur.atEnd());
}

TEST(CursorTest, AdvanceToSkipsBlocks)
{
    const auto &list = testIndex().list(0);
    ASSERT_GT(list.numBlocks(), 4u);
    auto oracle = index::decodeAll(list);

    ListCursor cur(list, nullptr);
    DocId target = oracle[oracle.size() - 5].doc;
    cur.advanceTo(target);
    EXPECT_EQ(cur.doc(), target);
    // Far fewer blocks loaded than exist.
    EXPECT_LE(cur.blocksLoaded(), 2u);
}

TEST(CursorTest, AdvanceToAbsentDocLandsAfter)
{
    const auto &list = testIndex().list(2);
    auto oracle = index::decodeAll(list);
    ListCursor cur(list, nullptr);
    // A target just below a real doc.
    DocId real = oracle[oracle.size() / 2].doc;
    cur.advanceTo(real - 0); // exact
    EXPECT_EQ(cur.doc(), real);
    cur.advanceTo(real + 1);
    EXPECT_GT(cur.doc(), real);
}

TEST(CursorTest, AdvancePastEndEnds)
{
    const auto &list = testIndex().list(2);
    ListCursor cur(list, nullptr);
    cur.advanceTo(kInvalidDocId - 1);
    EXPECT_TRUE(cur.atEnd());
}

TEST(CursorTest, HooksObserveLoads)
{
    struct CountingHooks : ExecHooks
    {
        std::uint64_t docBlocks = 0, tfBlocks = 0, metas = 0;
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
        void
        onMetaRead(TermId, std::uint32_t n) override
        {
            metas += n;
        }
    };
    CountingHooks hooks;
    const auto &list = testIndex().list(1);
    ListCursor cur(list, &hooks);
    while (!cur.atEnd())
        cur.next();
    EXPECT_EQ(hooks.docBlocks, list.numBlocks());
    EXPECT_EQ(hooks.tfBlocks, 0u); // tf never touched
    EXPECT_GE(hooks.metas, list.numBlocks());
}

// ---------------------------------------------------------------
// Parser and planner.
// ---------------------------------------------------------------

TEST(PlanTest, ParsesSimpleAnd)
{
    auto e = parseExpression("\"t1\" AND \"t2\"", defaultTermResolver);
    auto plan = planQuery(e);
    ASSERT_EQ(plan.groups.size(), 1u);
    EXPECT_EQ(plan.groups[0], (std::vector<TermId>{1, 2}));
}

TEST(PlanTest, DistributesAndOverOr)
{
    auto e = parseExpression("\"t1\" AND (\"t2\" OR \"t3\")",
                             defaultTermResolver);
    auto plan = planQuery(e);
    ASSERT_EQ(plan.groups.size(), 2u);
    EXPECT_EQ(plan.groups[0], (std::vector<TermId>{1, 2}));
    EXPECT_EQ(plan.groups[1], (std::vector<TermId>{1, 3}));
    EXPECT_EQ(plan.allTerms, (std::vector<TermId>{1, 2, 3}));
}

TEST(PlanTest, PrecedenceAndNesting)
{
    // OR binds looser than AND.
    auto e = parseExpression("\"t1\" OR \"t2\" AND \"t3\"",
                             defaultTermResolver);
    auto plan = planQuery(e);
    ASSERT_EQ(plan.groups.size(), 2u);
    EXPECT_EQ(plan.groups[0], (std::vector<TermId>{1}));
    EXPECT_EQ(plan.groups[1], (std::vector<TermId>{2, 3}));
}

TEST(PlanTest, PureUnionDetection)
{
    auto u = planQuery(parseExpression("\"t1\" OR \"t2\"",
                                       defaultTermResolver));
    EXPECT_TRUE(u.isPureUnion());
    EXPECT_FALSE(u.isPureIntersection());
    auto i = planQuery(parseExpression("\"t1\" AND \"t2\"",
                                       defaultTermResolver));
    EXPECT_FALSE(i.isPureUnion());
    EXPECT_TRUE(i.isPureIntersection());
}

TEST(PlanTest, WorkloadPlansMatchTableII)
{
    using workload::Query;
    using workload::QueryType;
    Query q6{QueryType::Q6, {10, 20, 30, 40}};
    auto plan = planQuery(q6);
    ASSERT_EQ(plan.groups.size(), 3u);
    for (const auto &g : plan.groups) {
        EXPECT_EQ(g.size(), 2u);
        EXPECT_TRUE(std::find(g.begin(), g.end(), 10u) != g.end());
    }
    Query q5{QueryType::Q5, {1, 2, 3, 4}};
    EXPECT_TRUE(planQuery(q5).isPureUnion());
    Query q4{QueryType::Q4, {1, 2, 3, 4}};
    EXPECT_TRUE(planQuery(q4).isPureIntersection());
}

TEST(PlanTest, RejectsMalformed)
{
    EXPECT_EXIT(parseExpression("\"t1\" AND", defaultTermResolver),
                ::testing::ExitedWithCode(1), "expected");
    EXPECT_EXIT(parseExpression("(\"t1\"", defaultTermResolver),
                ::testing::ExitedWithCode(1), "expected");
    EXPECT_EXIT(parseExpression("\"t1\" XOR \"t2\"",
                                defaultTermResolver),
                ::testing::ExitedWithCode(1), "unexpected");
    // Past the TermId range: a name must never wrap to another term.
    EXPECT_EQ(defaultTermResolver("t4294967295"), 4294967295u);
    EXPECT_EXIT(defaultTermResolver("t4294967296"),
                ::testing::ExitedWithCode(1), "not of the form t<N>");
    EXPECT_EXIT(defaultTermResolver("t4294967297"),
                ::testing::ExitedWithCode(1), "not of the form t<N>");
}

// ---------------------------------------------------------------
// The central invariant: every execution mode returns the oracle's
// top-k. Parameterized over query shapes x flag combinations.
// ---------------------------------------------------------------

struct ModeCase
{
    const char *name;
    ExecFlags flags;
};

const ModeCase kModes[] = {
    {"boss", {true, true, false, false}},
    {"boss_block_only", {true, false, false, false}},
    {"boss_wand_only", {false, true, false, false}},
    {"exhaustive", {false, false, false, false}},
    {"iiu", {false, false, true, true}},
};

// Strings, not char pointers: gtest lists each case with its parameter,
// and a pointer would put a per-run address into the test name.
const std::string kExpressions[] = {
    "\"t0\"",
    "\"t1999\"",
    "\"t0\" AND \"t50\"",
    "\"t500\" AND \"t1000\"",
    "\"t0\" OR \"t100\"",
    "\"t1\" AND \"t2\" AND \"t5\" AND \"t10\"",
    "\"t0\" OR \"t1\" OR \"t200\" OR \"t1999\"",
    "\"t2\" AND (\"t5\" OR \"t20\" OR \"t100\")",
    "\"t100\" AND (\"t0\" OR \"t1\")",
    "(\"t0\" AND \"t1\") OR (\"t2\" AND \"t5\")",
};

class ExecEquivalence
    : public ::testing::TestWithParam<
          std::tuple<std::string, std::size_t>>
{
};

TEST_P(ExecEquivalence, MatchesOracle)
{
    const auto &[expr, k] = GetParam();
    auto &index = testIndex();
    auto plan = planQuery(parseExpression(expr, defaultTermResolver));
    auto oracle = naiveTopK(index, plan, k);

    for (const auto &mode : kModes) {
        auto got = executeQuery(index, plan, k, mode.flags);
        ASSERT_EQ(got.size(), oracle.size())
            << mode.name << " on " << expr;
        for (std::size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i].doc, oracle[i].doc)
                << mode.name << " rank " << i << " on " << expr;
            EXPECT_FLOAT_EQ(got[i].score, oracle[i].score)
                << mode.name << " rank " << i << " on " << expr;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Exprs, ExecEquivalence,
    ::testing::Combine(::testing::ValuesIn(kExpressions),
                       ::testing::Values<std::size_t>(10, 100)),
    [](const auto &info) {
        return "expr" +
               std::to_string(std::get<1>(info.param)) + "_" +
               std::to_string(info.index);
    });

// ---------------------------------------------------------------
// ET actually skips work (not just correct, but effective).
// ---------------------------------------------------------------

struct WorkCounter : ExecHooks
{
    std::uint64_t scored = 0;
    std::uint64_t blocksLoaded = 0;
    void
    onDocWork(const DocWork &work) override
    {
        scored += work.scoredDocs;
    }
    void
    onDocBlockLoad(TermId, const index::BlockMeta &) override
    {
        ++blocksLoaded;
    }
};

TEST(EarlyTermination, SkipsScoringOnUnions)
{
    auto &index = testIndex();
    auto plan = planQuery(parseExpression(
        "\"t0\" OR \"t1\" OR \"t200\" OR \"t1999\"",
        defaultTermResolver));

    WorkCounter et, ex;
    executeQuery(index, plan, 10, {true, true, false, false}, &et);
    executeQuery(index, plan, 10, {false, false, false, false}, &ex);

    EXPECT_LT(et.scored, ex.scored / 2)
        << "ET should skip most scoring for small k";
    EXPECT_LE(et.blocksLoaded, ex.blocksLoaded);
}

TEST(EarlyTermination, IntersectionSkipsBlocks)
{
    auto &index = testIndex();
    // Rare term AND common term: overlap check should avoid loading
    // most of the common term's blocks.
    auto plan = planQuery(parseExpression("\"t1999\" AND \"t0\"",
                                          defaultTermResolver));
    WorkCounter c;
    executeQuery(index, plan, 10, {true, true, false, false}, &c);
    EXPECT_LT(c.blocksLoaded,
              index.list(0).numBlocks() + index.list(1999).numBlocks());
}

TEST(EarlyTermination, LargerKScoresMore)
{
    auto &index = testIndex();
    auto plan = planQuery(parseExpression("\"t0\" OR \"t100\"",
                                          defaultTermResolver));
    WorkCounter k10, k1000;
    executeQuery(index, plan, 10, {true, true, false, false}, &k10);
    executeQuery(index, plan, 1000, {true, true, false, false},
                 &k1000);
    EXPECT_LT(k10.scored, k1000.scored);
}

} // namespace
