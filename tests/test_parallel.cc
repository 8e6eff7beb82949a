/**
 * @file
 * Tests for the thread pool and the parallel batch execution paths.
 *
 * The determinism contract under test: every parallel path (trace
 * building, workload runs, device/API batches) produces output
 * bit-identical to the serial path at any thread count.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <numeric>
#include <set>
#include <string>

#include "api/offload.h"
#include "common/thread_pool.h"
#include "index/serialize.h"
#include "model/runner.h"
#include "workload/corpus.h"
#include "workload/queries.h"

namespace
{

using namespace boss;

// ---------------------------------------------------------------
// ThreadPool unit tests.
// ---------------------------------------------------------------

TEST(ThreadPoolTest, CoversEveryItemExactlyOnce)
{
    for (std::size_t threads : {1u, 2u, 8u}) {
        common::ThreadPool pool(threads);
        EXPECT_EQ(pool.size(), threads);
        for (std::size_t n : {0u, 1u, 7u, 256u}) {
            std::vector<std::atomic<int>> hits(n);
            pool.parallelFor(n, [&](std::size_t i) { ++hits[i]; });
            for (std::size_t i = 0; i < n; ++i)
                EXPECT_EQ(hits[i].load(), 1) << "item " << i;
        }
    }
}

TEST(ThreadPoolTest, SlotPlacementMatchesSerial)
{
    std::vector<int> serial(1000);
    for (std::size_t i = 0; i < serial.size(); ++i)
        serial[i] = static_cast<int>(i * i % 97);

    common::ThreadPool pool(8);
    std::vector<int> parallel(serial.size());
    pool.parallelFor(parallel.size(), [&](std::size_t i) {
        parallel[i] = static_cast<int>(i * i % 97);
    });
    EXPECT_EQ(parallel, serial);
}

TEST(ThreadPoolTest, WorkerIdsStayInRange)
{
    common::ThreadPool pool(4);
    std::vector<std::atomic<int>> perWorker(pool.size());
    pool.parallelFor(512, [&](std::size_t, std::size_t worker) {
        ASSERT_LT(worker, pool.size());
        ++perWorker[worker];
    });
    int total = 0;
    for (auto &c : perWorker)
        total += c.load();
    EXPECT_EQ(total, 512);
}

TEST(ThreadPoolTest, PropagatesExceptions)
{
    common::ThreadPool pool(4);
    EXPECT_THROW(pool.parallelFor(64,
                                  [&](std::size_t i) {
                                      if (i == 13)
                                          throw std::runtime_error("13");
                                  }),
                 std::runtime_error);
    // The pool stays usable afterwards.
    std::atomic<int> ran{0};
    pool.parallelFor(8, [&](std::size_t) { ++ran; });
    EXPECT_EQ(ran.load(), 8);
}

TEST(ThreadPoolTest, NestedCallsRunInline)
{
    common::ThreadPool pool(4);
    std::atomic<int> inner{0};
    pool.parallelFor(16, [&](std::size_t) {
        // Must not deadlock waiting on the pool's own workers.
        pool.parallelFor(4, [&](std::size_t) { ++inner; });
    });
    EXPECT_EQ(inner.load(), 64);
}

TEST(ThreadPoolTest, PostedTasksRunExactlyOnce)
{
    for (std::size_t threads : {1u, 2u, 8u}) {
        common::ThreadPool pool(threads);
        const std::size_t n = 64;
        std::vector<std::atomic<int>> hits(n);
        std::atomic<std::size_t> done{0};
        std::mutex m;
        std::condition_variable cv;
        for (std::size_t i = 0; i < n; ++i) {
            pool.post([&, i](std::size_t worker) {
                EXPECT_LT(worker, pool.size());
                ++hits[i];
                if (++done == n) {
                    std::lock_guard<std::mutex> lock(m);
                    cv.notify_all();
                }
            });
        }
        std::unique_lock<std::mutex> lock(m);
        cv.wait(lock, [&] { return done.load() == n; });
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(hits[i].load(), 1) << "task " << i;
    }
}

TEST(ThreadPoolTest, PostedTasksOverlapWithParallelFor)
{
    common::ThreadPool pool(4);
    std::atomic<std::size_t> taskDone{0};
    std::mutex m;
    std::condition_variable cv;
    const std::size_t tasks = 16;
    for (std::size_t t = 0; t < tasks; ++t) {
        pool.post([&](std::size_t) {
            if (++taskDone == tasks) {
                std::lock_guard<std::mutex> lock(m);
                cv.notify_all();
            }
        });
    }
    // A job issued while tasks are queued must still complete.
    std::atomic<int> items{0};
    pool.parallelFor(64, [&](std::size_t) { ++items; });
    EXPECT_EQ(items.load(), 64);
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [&] { return taskDone.load() == tasks; });
    EXPECT_EQ(taskDone.load(), tasks);
}

TEST(ThreadPoolTest, GlobalPoolResizes)
{
    common::ThreadPool::setGlobalThreads(3);
    EXPECT_EQ(common::ThreadPool::global().size(), 3u);
    common::ThreadPool::setGlobalThreads(1);
    EXPECT_EQ(common::ThreadPool::global().size(), 1u);
}

// ---------------------------------------------------------------
// Parallel trace building and workload runs.
// ---------------------------------------------------------------

struct ParallelFixture : ::testing::Test
{
    static workload::Corpus &
    corpus()
    {
        static workload::Corpus c = [] {
            workload::CorpusConfig cfg;
            cfg.numDocs = 20000;
            cfg.vocabSize = 400;
            cfg.seed = 77;
            return workload::Corpus(cfg);
        }();
        return c;
    }

    static std::vector<workload::Query> &
    queries()
    {
        static std::vector<workload::Query> qs = [] {
            workload::QueryWorkloadConfig cfg;
            cfg.vocabSize = 400;
            cfg.queriesPerBucket = 12;
            cfg.seed = 5; // fixed: the comparison needs one workload
            return workload::makeWorkload(cfg);
        }();
        return qs;
    }

    static index::InvertedIndex &
    idx()
    {
        static index::InvertedIndex i =
            corpus().buildIndex(workload::collectTerms(queries()));
        return i;
    }

    static index::MemoryLayout &
    layout()
    {
        static index::MemoryLayout l(idx(), 0x10000, 256);
        return l;
    }

    void TearDown() override { common::ThreadPool::setGlobalThreads(1); }
};

/** Full structural equality of two traces (requests included). */
void
expectTraceEqual(const model::QueryTrace &a, const model::QueryTrace &b)
{
    EXPECT_EQ(a.resultStoreBytes, b.resultStoreBytes);
    EXPECT_EQ(a.numTerms, b.numTerms);
    EXPECT_EQ(a.evaluatedDocs, b.evaluatedDocs);
    EXPECT_EQ(a.skippedDocs, b.skippedDocs);
    EXPECT_EQ(a.blocksLoaded, b.blocksLoaded);
    EXPECT_EQ(a.blocksSkipped, b.blocksSkipped);
    EXPECT_EQ(a.catAccesses, b.catAccesses);
    ASSERT_EQ(a.segments.size(), b.segments.size());
    for (std::size_t s = 0; s < a.segments.size(); ++s) {
        const auto &sa = a.segments[s];
        const auto &sb = b.segments[s];
        EXPECT_EQ(sa.work.fetchBlocks, sb.work.fetchBlocks);
        EXPECT_EQ(sa.work.metaReads, sb.work.metaReads);
        EXPECT_EQ(sa.work.decodeVals, sb.work.decodeVals);
        EXPECT_EQ(sa.work.compares, sb.work.compares);
        EXPECT_EQ(sa.work.unionSteps, sb.work.unionSteps);
        EXPECT_EQ(sa.work.scoreDocs, sb.work.scoreDocs);
        EXPECT_EQ(sa.work.topkOps, sb.work.topkOps);
        ASSERT_EQ(sa.reqs.size(), sb.reqs.size());
        for (std::size_t r = 0; r < sa.reqs.size(); ++r) {
            EXPECT_EQ(sa.reqs[r].addr, sb.reqs[r].addr);
            EXPECT_EQ(sa.reqs[r].bytes, sb.reqs[r].bytes);
            EXPECT_EQ(sa.reqs[r].write, sb.reqs[r].write);
            EXPECT_EQ(sa.reqs[r].stream, sb.reqs[r].stream);
        }
    }
}

TEST_F(ParallelFixture, BuildTracesIdenticalAcrossThreadCounts)
{
    common::ThreadPool::setGlobalThreads(1);
    auto serial = model::buildTraces(idx(), layout(), queries(),
                                     model::SystemKind::Boss);
    for (std::size_t threads : {2u, 8u}) {
        common::ThreadPool::setGlobalThreads(threads);
        auto parallel = model::buildTraces(idx(), layout(), queries(),
                                           model::SystemKind::Boss);
        ASSERT_EQ(parallel.size(), serial.size());
        for (std::size_t i = 0; i < serial.size(); ++i)
            expectTraceEqual(parallel[i], serial[i]);
    }
}

TEST_F(ParallelFixture, RunWorkloadIdenticalAcrossThreadCounts)
{
    model::SystemConfig cfg;
    cfg.kind = model::SystemKind::Boss;

    common::ThreadPool::setGlobalThreads(1);
    auto serial = model::runWorkload(idx(), layout(), queries(), cfg);
    for (std::size_t threads : {2u, 8u}) {
        common::ThreadPool::setGlobalThreads(threads);
        auto parallel =
            model::runWorkload(idx(), layout(), queries(), cfg);
        // Replay consumes identical traces, so even the simulated
        // clock must agree to the bit.
        EXPECT_EQ(parallel.run.seconds, serial.run.seconds);
        EXPECT_EQ(parallel.run.deviceBytes, serial.run.deviceBytes);
        EXPECT_EQ(parallel.evaluatedDocs, serial.evaluatedDocs);
        EXPECT_EQ(parallel.skippedDocs, serial.skippedDocs);
        EXPECT_EQ(parallel.blocksLoaded, serial.blocksLoaded);
        EXPECT_EQ(parallel.blocksSkipped, serial.blocksSkipped);
        EXPECT_EQ(parallel.traceAccesses, serial.traceAccesses);
    }
}

TEST_F(ParallelFixture, DeviceBatchMatchesSequentialSearches)
{
    accel::Device dev;
    dev.loadIndex(corpus().buildIndex(
        workload::collectTerms(queries())));

    std::vector<workload::Query> batch(queries().begin(),
                                       queries().begin() + 10);

    // Sequential reference: one search() per query.
    std::vector<std::vector<engine::Result>> expected;
    for (const auto &q : batch)
        expected.push_back(dev.search(q).topk);

    for (std::size_t threads : {1u, 2u, 8u}) {
        common::ThreadPool::setGlobalThreads(threads);
        auto outcome = dev.searchBatch(batch);
        ASSERT_EQ(outcome.perQuery.size(), batch.size());
        for (std::size_t i = 0; i < batch.size(); ++i) {
            ASSERT_EQ(outcome.perQuery[i].size(), expected[i].size());
            for (std::size_t r = 0; r < expected[i].size(); ++r) {
                EXPECT_EQ(outcome.perQuery[i][r].doc,
                          expected[i][r].doc);
                EXPECT_EQ(outcome.perQuery[i][r].score,
                          expected[i][r].score);
            }
        }
        EXPECT_FALSE(outcome.topk.empty());
        EXPECT_EQ(outcome.topk.size(), outcome.perQuery.back().size());
    }
}

// ---------------------------------------------------------------
// api::searchBatch.
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

struct BatchApiFixture : ::testing::Test
{
    std::string indexPath;
    std::string configPath;

    void
    SetUp() override
    {
        indexPath = testPath("boss_batch_index.bin");
        configPath = testPath("boss_batch_config.txt");
        index::saveIndexFile(
            ParallelFixture::corpus().buildIndex(
                {0, 1, 2, 3, 10, 50, 399}),
            indexPath);
        {
            std::ofstream cfg(configPath);
            for (compress::Scheme s : compress::kAllSchemes)
                cfg << "[scheme " << schemeName(s) << "]\nbuiltin\n";
        }
        ASSERT_GT(api::init(indexPath, configPath), 0);
    }

    void
    TearDown() override
    {
        api::shutdown();
        common::ThreadPool::setGlobalThreads(1);
        std::remove(indexPath.c_str());
        std::remove(configPath.c_str());
    }
};

TEST_F(BatchApiFixture, BatchMatchesSerialSearch)
{
    std::vector<workload::Query> qs = {
        {workload::QueryType::Q1, {0}},
        {workload::QueryType::Q2, {1, 10}},
        {workload::QueryType::Q3, {2, 50}},
        {workload::QueryType::Q5, {0, 3, 10, 399}},
    };

    // Serial reference through the one-query intrinsic.
    std::vector<std::vector<api::ResultRecord>> serial;
    for (const auto &q : qs) {
        std::vector<api::ResultRecord> buf(64);
        auto args = api::makeArgs(q, buf.data(), 64);
        int n = api::search(args);
        ASSERT_GE(n, 0);
        buf.resize(static_cast<std::size_t>(n));
        serial.push_back(std::move(buf));
    }

    for (std::size_t threads : {1u, 2u, 8u}) {
        common::ThreadPool::setGlobalThreads(threads);
        std::vector<std::vector<api::ResultRecord>> buffers(
            qs.size(), std::vector<api::ResultRecord>(64));
        std::vector<api::SearchArgs> batch;
        for (std::size_t i = 0; i < qs.size(); ++i)
            batch.push_back(
                api::makeArgs(qs[i], buffers[i].data(), 64));

        auto counts = api::searchBatch(batch);
        ASSERT_EQ(counts.size(), qs.size());
        for (std::size_t i = 0; i < qs.size(); ++i) {
            ASSERT_EQ(counts[i],
                      static_cast<int>(serial[i].size()));
            for (std::size_t r = 0; r < serial[i].size(); ++r) {
                EXPECT_EQ(buffers[i][r].doc, serial[i][r].doc);
                EXPECT_EQ(buffers[i][r].score, serial[i][r].score);
            }
        }
    }
}

TEST_F(BatchApiFixture, InvalidQueriesDoNotPoisonBatch)
{
    workload::Query good{workload::QueryType::Q2, {1, 10}};
    std::vector<api::ResultRecord> goodBuf(32);
    std::vector<api::ResultRecord> badBuf(32);

    std::vector<api::SearchArgs> batch;
    batch.push_back(api::makeArgs(good, goodBuf.data(), 32));
    auto bad = api::makeArgs(good, badBuf.data(), 32);
    bad.listAddr[0] += 64; // address mismatch: validation must fail
    batch.push_back(bad);

    auto counts = api::searchBatch(batch);
    ASSERT_EQ(counts.size(), 2u);
    EXPECT_GT(counts[0], 0);
    EXPECT_EQ(counts[1], -1);

    // The valid query's results match a standalone search().
    std::vector<api::ResultRecord> ref(32);
    auto refArgs = api::makeArgs(good, ref.data(), 32);
    int n = api::search(refArgs);
    ASSERT_EQ(counts[0], n);
    for (int i = 0; i < n; ++i) {
        EXPECT_EQ(goodBuf[static_cast<std::size_t>(i)].doc,
                  ref[static_cast<std::size_t>(i)].doc);
        EXPECT_EQ(goodBuf[static_cast<std::size_t>(i)].score,
                  ref[static_cast<std::size_t>(i)].score);
    }
}

TEST_F(BatchApiFixture, EmptyAndAllInvalidBatches)
{
    EXPECT_TRUE(api::searchBatch({}).empty());

    api::SearchArgs noBuffer;
    noBuffer.qExpression = "\"t0\"";
    noBuffer.nTerm = 1;
    auto counts = api::searchBatch({noBuffer});
    ASSERT_EQ(counts.size(), 1u);
    EXPECT_EQ(counts[0], -1);
}

} // namespace
