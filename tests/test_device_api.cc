/**
 * @file
 * Tests for the Device facade, the offloading API intrinsics, and
 * the power/energy model.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "api/offload.h"
#include "boss/topk_queue.h"
#include "common/rng.h"
#include "compress/datapath.h"
#include "engine/execute.h"
#include "engine/plan.h"
#include "index/serialize.h"
#include "power/power.h"
#include "workload/corpus.h"

namespace
{

using namespace boss;

workload::Corpus &
corpus()
{
    static workload::Corpus c = [] {
        workload::CorpusConfig cfg;
        cfg.numDocs = 20000;
        cfg.vocabSize = 500;
        cfg.seed = 31;
        return workload::Corpus(cfg);
    }();
    return c;
}

index::InvertedIndex
freshIndex()
{
    return corpus().buildIndex({0, 1, 2, 3, 10, 50, 499});
}

// ---------------------------------------------------------------
// Device facade.
// ---------------------------------------------------------------

TEST(DeviceTest, SearchMatchesFunctionalOracle)
{
    accel::Device dev;
    dev.loadIndex(freshIndex());

    auto outcome = dev.search("\"t0\" AND \"t10\"");
    auto plan = engine::planQuery(engine::parseExpression(
        "\"t0\" AND \"t10\"", engine::defaultTermResolver));
    auto oracle =
        engine::naiveTopK(dev.index(), plan, engine::kDefaultTopK);

    ASSERT_EQ(outcome.topk.size(), oracle.size());
    for (std::size_t i = 0; i < oracle.size(); ++i) {
        EXPECT_EQ(outcome.topk[i].doc, oracle[i].doc);
        EXPECT_FLOAT_EQ(outcome.topk[i].score, oracle[i].score);
    }
    EXPECT_GT(outcome.simSeconds, 0.0);
    EXPECT_GT(outcome.deviceBytes, 0u);
}

TEST(DeviceTest, TermIdPastTheIndexIsFatal)
{
    // "t<N>" resolves without a lexicon; N must still name a list.
    accel::Device dev;
    dev.loadIndex(freshIndex());
    const std::string past =
        "\"t" + std::to_string(dev.index().numTerms()) + "\"";
    EXPECT_EXIT(dev.search(past), ::testing::ExitedWithCode(1),
                "outside the index");
}

TEST(DeviceTest, AccumulatesTotals)
{
    accel::Device dev;
    dev.loadIndex(freshIndex());
    dev.search("\"t0\"");
    double after1 = dev.totalSimSeconds();
    dev.search("\"t1\"");
    EXPECT_GT(dev.totalSimSeconds(), after1);
    EXPECT_EQ(dev.totalQueries(), 2u);
}

TEST(DeviceTest, BatchUsesMultipleCores)
{
    accel::DeviceConfig oneCore;
    oneCore.cores = 1;
    accel::Device dev1(oneCore);
    accel::Device dev8;
    dev1.loadIndex(freshIndex());
    dev8.loadIndex(freshIndex());

    std::vector<workload::Query> batch;
    for (TermId t : {0u, 1u, 2u, 3u, 10u, 50u})
        batch.push_back({workload::QueryType::Q1, {t}});

    double t1 = dev1.searchBatch(batch).simSeconds;
    double t8 = dev8.searchBatch(batch).simSeconds;
    EXPECT_LT(t8, t1);
}

TEST(DeviceTest, AblationKindsDiffer)
{
    accel::DeviceConfig cfg;
    cfg.kind = model::SystemKind::BossExhaustive;
    cfg.k = 10; // small k so early termination has room to prune
    accel::Device exhaustive(cfg);
    cfg.kind = model::SystemKind::Boss;
    accel::Device full(cfg);
    exhaustive.loadIndex(freshIndex());
    full.loadIndex(freshIndex());
    auto e = exhaustive.search("\"t0\" OR \"t1\"");
    auto f = full.search("\"t0\" OR \"t1\"");
    EXPECT_GT(e.summaries.at(0).docsScored, f.summaries.at(0).docsScored);
    // Same results either way.
    ASSERT_EQ(e.topk.size(), f.topk.size());
    for (std::size_t i = 0; i < e.topk.size(); ++i)
        EXPECT_EQ(e.topk[i].doc, f.topk[i].doc);
}

// ---------------------------------------------------------------
// Offloading API.
// ---------------------------------------------------------------

/**
 * A temp path private to the running test and process: ctest runs
 * every test in its own process, concurrently under -j.
 */
std::string
testPath(const std::string &name)
{
    const auto *test =
        testing::UnitTest::GetInstance()->current_test_info();
    return testing::TempDir() + test->name() + "_" +
           std::to_string(::getpid()) + "_" + name;
}

struct ApiFixture : ::testing::Test
{
    std::string indexPath;
    std::string configPath;

    void
    SetUp() override
    {
        indexPath = testPath("boss_api_index.bin");
        configPath = testPath("boss_api_config.txt");
        index::saveIndexFile(freshIndex(), indexPath);
        std::ofstream cfg(configPath);
        for (compress::Scheme s : compress::kAllSchemes)
            cfg << "[scheme " << schemeName(s) << "]\nbuiltin\n";
    }

    void
    TearDown() override
    {
        api::shutdown();
        std::remove(indexPath.c_str());
        std::remove(configPath.c_str());
    }
};

TEST_F(ApiFixture, InitAndSearch)
{
    EXPECT_EQ(api::init(indexPath, configPath),
              static_cast<int>(compress::kAllSchemes.size()));
    EXPECT_TRUE(api::initialized());

    workload::Query q{workload::QueryType::Q2, {0, 10}};
    std::vector<api::ResultRecord> buffer(64);
    api::SearchArgs args = api::makeArgs(
        q, buffer.data(), static_cast<std::uint32_t>(buffer.size()));
    int n = api::search(args);
    ASSERT_GT(n, 0);
    ASSERT_LE(n, 64);

    auto oracle = engine::naiveTopK(api::device().index(),
                                    engine::planQuery(q), 64);
    for (int i = 0; i < n; ++i) {
        EXPECT_EQ(buffer[i].doc, oracle[i].doc);
        EXPECT_FLOAT_EQ(buffer[i].score, oracle[i].score);
    }
}

TEST_F(ApiFixture, ResultBufferCapacityRespected)
{
    api::init(indexPath, configPath);
    workload::Query q{workload::QueryType::Q1, {0}};
    std::vector<api::ResultRecord> buffer(5);
    auto args = api::makeArgs(q, buffer.data(), 5);
    EXPECT_EQ(api::search(args), 5);
}

TEST_F(ApiFixture, ValidationFailures)
{
    api::init(indexPath, configPath);
    workload::Query q{workload::QueryType::Q2, {0, 10}};
    std::vector<api::ResultRecord> buffer(16);
    auto good = api::makeArgs(q, buffer.data(), 16);

    auto badTermCount = good;
    badTermCount.nTerm = 3;
    EXPECT_EQ(api::search(badTermCount), -1);

    auto badAddr = good;
    badAddr.listAddr[0] += 64;
    EXPECT_EQ(api::search(badAddr), -1);

    auto badScheme = good;
    badScheme.compType[0] = static_cast<compress::Scheme>(
        (static_cast<int>(badScheme.compType[0]) + 1) % 6);
    EXPECT_EQ(api::search(badScheme), -1);

    auto noBuffer = good;
    noBuffer.resultAddr = nullptr;
    EXPECT_EQ(api::search(noBuffer), -1);
}

TEST_F(ApiFixture, SearchBeforeInitFails)
{
    api::shutdown();
    api::SearchArgs args;
    args.qExpression = "\"t0\"";
    args.nTerm = 1;
    api::ResultRecord r;
    args.resultAddr = &r;
    args.resultSize = 1;
    EXPECT_EQ(api::search(args), -1);
}

TEST_F(ApiFixture, CustomProgramInConfig)
{
    // A config file that programs VB with an explicit (equivalent)
    // datapath rather than "builtin".
    std::ofstream cfg(configPath);
    for (compress::Scheme s : compress::kAllSchemes) {
        if (s == compress::Scheme::VB)
            continue;
        cfg << "[scheme " << schemeName(s) << "]\nbuiltin\n";
    }
    cfg << "[scheme VB]\n"
        << compress::builtinConfigText(compress::Scheme::VB);
    cfg.close();
    EXPECT_EQ(api::init(indexPath, configPath), 6);
}

// ---------------------------------------------------------------
// Power model.
// ---------------------------------------------------------------

TEST(PowerTest, TableIIITotals)
{
    // Totals reproduce the paper's Table III within rounding.
    EXPECT_NEAR(power::bossCoreAreaMm2(), 1.003, 0.01);
    EXPECT_NEAR(power::bossCorePowerMw(), 406.6, 1.0);
    EXPECT_NEAR(power::bossDeviceAreaMm2(), 8.27, 0.05);
    EXPECT_NEAR(power::bossDevicePowerW(), 3.2, 0.1);
}

TEST(PowerTest, CpuVsBossPowerRatio)
{
    double ratio = power::kCpuPackagePowerW /
                   power::systemPowerW(model::SystemKind::Boss, 8);
    // Paper: BOSS consumes 23.3x less power than the host CPU.
    EXPECT_NEAR(ratio, 23.3, 1.0);
}

TEST(PowerTest, EnergyScalesWithTime)
{
    double e1 = power::energyJoules(model::SystemKind::Boss, 8, 1.0);
    double e2 = power::energyJoules(model::SystemKind::Boss, 8, 2.0);
    EXPECT_DOUBLE_EQ(e2, 2.0 * e1);
}

} // namespace

// ---------------------------------------------------------------
// Multi-core gangs and host-managed wide queries (Sec. IV-D).
// ---------------------------------------------------------------

namespace wide
{

std::string
orExpression(std::initializer_list<TermId> terms)
{
    std::string expr;
    for (TermId t : terms) {
        if (!expr.empty())
            expr += " OR ";
        expr += "\"t" + std::to_string(t) + "\"";
    }
    return expr;
}

TEST(WideQueries, EightTermUnionUsesGangAndMatchesOracle)
{
    accel::Device dev;
    dev.loadIndex(freshIndex());
    std::string expr =
        orExpression({0, 1, 2, 3, 10, 50, 499, 5});
    // Build the same index term set: term 5 is unmaterialized; use
    // materialized ones only.
    expr = orExpression({0, 1, 2, 3, 10, 50, 499});
    auto outcome = dev.search(expr);
    auto plan = engine::planQuery(
        engine::parseExpression(expr, engine::defaultTermResolver));
    auto oracle =
        engine::naiveTopK(dev.index(), plan, engine::kDefaultTopK);
    ASSERT_EQ(outcome.topk.size(), oracle.size());
    for (std::size_t i = 0; i < oracle.size(); ++i)
        EXPECT_EQ(outcome.topk[i].doc, oracle[i].doc) << i;
    EXPECT_GT(outcome.simSeconds, 0.0);
}

TEST(WideQueries, GangFasterThanSingleCoreBudget)
{
    // A 7-term union on an 8-core device (gang of 2) vs a 1-core
    // device (gang clamped to 1): the gang must not be slower.
    accel::DeviceConfig one;
    one.cores = 1;
    accel::Device devOne(one);
    accel::Device devEight;
    devOne.loadIndex(freshIndex());
    devEight.loadIndex(freshIndex());
    std::string expr = orExpression({0, 1, 2, 3, 10, 50, 499});
    double tOne = devOne.search(expr).simSeconds;
    double tEight = devEight.search(expr).simSeconds;
    EXPECT_LE(tEight, tOne);
}

TEST(WideQueries, HostManagedBeyondSixteenTerms)
{
    // 20 distinct single-term clauses force the host-managed split
    // path; results must still match the functional oracle.
    workload::CorpusConfig cfg;
    cfg.numDocs = 8000;
    cfg.vocabSize = 40;
    cfg.seed = 77;
    workload::Corpus corpus(cfg);
    std::vector<TermId> terms;
    for (TermId t = 0; t < 20; ++t)
        terms.push_back(t);
    accel::Device dev;
    dev.loadIndex(corpus.buildIndex(terms));

    std::string expr;
    for (TermId t : terms) {
        if (!expr.empty())
            expr += " OR ";
        expr += "\"t" + std::to_string(t) + "\"";
    }
    auto outcome = dev.search(expr);
    auto plan = engine::planQuery(
        engine::parseExpression(expr, engine::defaultTermResolver));
    auto oracle =
        engine::naiveTopK(dev.index(), plan, engine::kDefaultTopK);
    ASSERT_EQ(outcome.topk.size(), oracle.size());
    for (std::size_t i = 0; i < oracle.size(); ++i) {
        EXPECT_EQ(outcome.topk[i].doc, oracle[i].doc) << i;
        EXPECT_NEAR(outcome.topk[i].score, oracle[i].score, 1e-4)
            << i;
    }
}

} // namespace wide

// ---------------------------------------------------------------
// Shift-register top-k queue (the hardware top-k module).
// ---------------------------------------------------------------

namespace topkq
{

TEST(ShiftRegisterTopK, BasicOrdering)
{
    accel::ShiftRegisterTopK q(3);
    EXPECT_FALSE(q.full());
    q.insert(1, 1.0f);
    q.insert(2, 5.0f);
    q.insert(3, 3.0f);
    EXPECT_TRUE(q.full());
    q.insert(4, 4.0f); // evicts doc 1
    auto r = q.sorted();
    ASSERT_EQ(r.size(), 3u);
    EXPECT_EQ(r[0].doc, 2u);
    EXPECT_EQ(r[1].doc, 4u);
    EXPECT_EQ(r[2].doc, 3u);
    EXPECT_FLOAT_EQ(q.threshold(), 3.0f);
}

TEST(ShiftRegisterTopK, RejectsBelowThreshold)
{
    accel::ShiftRegisterTopK q(2);
    EXPECT_TRUE(q.insert(1, 5.0f));
    EXPECT_TRUE(q.insert(2, 4.0f));
    EXPECT_FALSE(q.insert(3, 3.0f));
    EXPECT_FALSE(q.insert(9, 4.0f)); // tie, larger doc: rejected
    EXPECT_TRUE(q.insert(0, 4.0f));  // tie, smaller doc: accepted
}

TEST(ShiftRegisterTopK, EquivalentToHeapOnRandomStreams)
{
    Rng rng(321);
    for (int trial = 0; trial < 20; ++trial) {
        std::size_t k = 1 + rng.below(40);
        accel::ShiftRegisterTopK hw(k);
        engine::TopK sw(k);
        for (int i = 0; i < 500; ++i) {
            DocId d = static_cast<DocId>(rng.below(10000));
            auto s = static_cast<Score>(rng.below(64)) * 0.25f;
            hw.insert(d, s);
            sw.insert(d, s);
        }
        auto a = hw.sorted();
        auto b = sw.sorted();
        ASSERT_EQ(a.size(), b.size()) << "k=" << k;
        for (std::size_t i = 0; i < a.size(); ++i) {
            EXPECT_EQ(a[i].doc, b[i].doc)
                << "k=" << k << " rank " << i;
            EXPECT_FLOAT_EQ(a[i].score, b[i].score);
        }
        EXPECT_FLOAT_EQ(hw.threshold(), sw.threshold());
    }
}

} // namespace topkq
