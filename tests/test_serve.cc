/**
 * @file
 * Serving-layer tests: arrival-schedule determinism, admission
 * queue invariants and shed policies, deadline handling, and the
 * core contract — serve-mode top-k is bit-identical to batch-mode
 * top-k for every thread count and shard count. The live path
 * serves a segmented index through the same partitioned backend,
 * checked against the segment oracle and the time rule. Attached
 * telemetry must count exactly what the report counts.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>

#include "api/sharded_device.h"
#include "boss/device.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "engine/segment_search.h"
#include "serve/admission.h"
#include "serve/arrival.h"
#include "serve/backend.h"
#include "serve/server.h"
#include "telemetry/serve_telemetry.h"
#include "workload/corpus.h"
#include "workload/queries.h"

namespace
{

using namespace boss;

// ---------------------------------------------------------------
// Arrival schedules.
// ---------------------------------------------------------------

TEST(ArrivalTest, PoissonScheduleIsDeterministic)
{
    serve::ArrivalConfig cfg;
    cfg.qps = 5000.0;
    cfg.count = 2000;
    cfg.seed = 1234;
    auto a = serve::makeArrivals(cfg);
    auto b = serve::makeArrivals(cfg);
    ASSERT_EQ(a.size(), cfg.count);
    EXPECT_EQ(a, b); // bit-identical, same seed
    cfg.seed = 1235;
    EXPECT_NE(serve::makeArrivals(cfg), a);
}

TEST(ArrivalTest, PoissonMatchesOfferedRate)
{
    serve::ArrivalConfig cfg;
    cfg.qps = 10000.0;
    cfg.count = 20000;
    auto at = serve::makeArrivals(cfg);
    for (std::size_t i = 1; i < at.size(); ++i)
        ASSERT_GE(at[i], at[i - 1]);
    // Mean gap within 5% of 1/qps over 20k draws.
    double meanGap = at.back() / static_cast<double>(at.size());
    EXPECT_NEAR(meanGap, 1e6 / cfg.qps, 0.05 * 1e6 / cfg.qps);
}

TEST(ArrivalTest, BurstyMatchesMeanRateButClumps)
{
    serve::ArrivalConfig cfg;
    cfg.process = serve::ArrivalProcess::Bursty;
    cfg.qps = 10000.0;
    cfg.count = 50000;
    cfg.burst.rateMultiplier = 6.0;
    cfg.burst.hotFraction = 0.1;
    // Short dwells give ~1000 regime cycles over the run, so the
    // time-weighted mean converges; fixed-count sampling of an MMPP
    // otherwise stops mid-burst often enough to bias the rate high.
    cfg.burst.hotDwellUs = 500.0;
    auto at = serve::makeArrivals(cfg);
    for (std::size_t i = 1; i < at.size(); ++i)
        ASSERT_GE(at[i], at[i - 1]);
    double meanGap = at.back() / static_cast<double>(at.size());
    EXPECT_NEAR(meanGap, 1e6 / cfg.qps, 0.10 * 1e6 / cfg.qps);
    // Burstiness: the gap distribution has a higher coefficient of
    // variation than the Poisson baseline (CV 1 for exponential).
    double mean = meanGap, var = 0.0;
    for (std::size_t i = 1; i < at.size(); ++i) {
        double g = at[i] - at[i - 1];
        var += (g - mean) * (g - mean);
    }
    var /= static_cast<double>(at.size() - 1);
    double cv = std::sqrt(var) / mean;
    EXPECT_GT(cv, 1.15);
    // Same seed, same schedule.
    EXPECT_EQ(serve::makeArrivals(cfg), at);
}

// ---------------------------------------------------------------
// Admission queue.
// ---------------------------------------------------------------

serve::ServeRequest
req(std::uint64_t id, double deadlineUs =
                          std::numeric_limits<double>::infinity())
{
    serve::ServeRequest r;
    r.id = id;
    r.deadlineUs = deadlineUs;
    return r;
}

TEST(AdmissionTest, DropTailBoundsDepthAndKeepsFifoOrder)
{
    serve::AdmissionQueue q(4, serve::ShedPolicy::DropTail);
    for (std::uint64_t i = 0; i < 10; ++i) {
        auto adm = q.offer(req(i));
        EXPECT_LE(q.size(), 4u);
        if (i < 4)
            EXPECT_EQ(adm, serve::Admission::Admitted);
        else
            EXPECT_EQ(adm, serve::Admission::ShedCapacity);
    }
    auto c = q.counters();
    EXPECT_EQ(c.offered, 10u);
    EXPECT_EQ(c.admitted, 4u);
    EXPECT_EQ(c.shedCapacity, 6u);
    EXPECT_EQ(c.peakDepth, 4u);
    for (std::uint64_t i = 0; i < 4; ++i) {
        auto r = q.tryPop();
        ASSERT_TRUE(r.has_value());
        EXPECT_EQ(r->id, i); // FIFO
    }
    EXPECT_FALSE(q.tryPop().has_value());
}

TEST(AdmissionTest, ShedDecisionsAreDeterministicUnderSeededLoad)
{
    // Two identical seeded offer/pop interleavings must shed the
    // exact same request ids — admission is clock-free, so the
    // decision depends only on the call sequence.
    auto run = [](std::uint64_t seed) {
        Rng rng(seed);
        serve::AdmissionQueue q(8, serve::ShedPolicy::DropTail);
        std::vector<std::uint64_t> admitted, popped;
        for (std::uint64_t i = 0; i < 500; ++i) {
            if (q.offer(req(i)) == serve::Admission::Admitted)
                admitted.push_back(i);
            if (rng.chance(0.4)) {
                auto r = q.tryPop();
                if (r.has_value())
                    popped.push_back(r->id);
            }
        }
        return std::make_pair(admitted, popped);
    };
    EXPECT_EQ(run(99), run(99));
    EXPECT_NE(run(99), run(100));
}

TEST(AdmissionTest, DropDeadlineEvictsLeastSlackFirst)
{
    serve::AdmissionQueue q(2, serve::ShedPolicy::DropDeadline);
    EXPECT_EQ(q.offer(req(0, 100.0)), serve::Admission::Admitted);
    EXPECT_EQ(q.offer(req(1, 500.0)), serve::Admission::Admitted);

    // Newcomer with more slack than the earliest deadline in the
    // queue: evict id 0 and admit.
    std::optional<serve::ServeRequest> evicted;
    EXPECT_EQ(q.offer(req(2, 300.0), &evicted),
              serve::Admission::Admitted);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(evicted->id, 0u);

    // Newcomer with the least slack of all: refused, queue intact.
    evicted.reset();
    EXPECT_EQ(q.offer(req(3, 200.0), &evicted),
              serve::Admission::ShedDeadline);
    EXPECT_FALSE(evicted.has_value());
    EXPECT_EQ(q.size(), 2u);

    // FIFO among survivors (1 admitted before 2).
    EXPECT_EQ(q.tryPop()->id, 1u);
    EXPECT_EQ(q.tryPop()->id, 2u);
    auto c = q.counters();
    EXPECT_EQ(c.shedDeadline, 2u); // one eviction + one refusal
}

TEST(AdmissionTest, BlockPolicyWaitsForSpaceAndCloseWakesWaiters)
{
    serve::AdmissionQueue q(1, serve::ShedPolicy::Block);
    EXPECT_EQ(q.offer(req(0)), serve::Admission::Admitted);

    std::atomic<int> state{0};
    std::thread offerer([&] {
        state = 1;
        auto adm = q.offer(req(1)); // full: must wait
        EXPECT_EQ(adm, serve::Admission::Admitted);
        state = 2;
        auto refused = q.offer(req(2)); // will block until close()
        EXPECT_EQ(refused, serve::Admission::Closed);
        state = 3;
    });
    while (state.load() < 1)
        std::this_thread::yield();
    // The blocked offer completes once the consumer makes room.
    EXPECT_EQ(q.pop()->id, 0u);
    while (state.load() < 2)
        std::this_thread::yield();
    q.close();
    offerer.join();
    EXPECT_EQ(state.load(), 3);
    // close() drains what was admitted, then signals termination.
    EXPECT_EQ(q.pop()->id, 1u);
    EXPECT_FALSE(q.pop().has_value());
}

// ---------------------------------------------------------------
// End-to-end serving against a real index.
// ---------------------------------------------------------------

class ServeTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        workload::CorpusConfig cfg;
        cfg.name = "serve-test";
        cfg.numDocs = 20'000;
        cfg.vocabSize = 300;
        cfg.seed = 91;
        corpus_ = new workload::Corpus(cfg);

        workload::QueryWorkloadConfig qcfg;
        qcfg.vocabSize = cfg.vocabSize;
        qcfg.seed = 17;
        queries_ = new std::vector<workload::Query>(
            workload::sampleQueries(qcfg, 24));
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

    /** A fast serve config: every query admitted and completed. */
    static serve::ServeConfig
    lossless(std::size_t count)
    {
        serve::ServeConfig cfg;
        cfg.arrivals.qps = 50'000.0;
        cfg.arrivals.count = count;
        cfg.arrivals.seed = 7;
        cfg.policy = serve::ShedPolicy::Block;
        cfg.warmup = 2;
        return cfg;
    }

    static workload::Corpus *corpus_;
    static std::vector<workload::Query> *queries_;
    static std::vector<TermId> *terms_;
};

workload::Corpus *ServeTest::corpus_ = nullptr;
std::vector<workload::Query> *ServeTest::queries_ = nullptr;
std::vector<TermId> *ServeTest::terms_ = nullptr;

void
expectSameResults(const std::vector<engine::Result> &a,
                  const std::vector<engine::Result> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].doc, b[i].doc);
        EXPECT_EQ(a[i].score, b[i].score); // bit-identical
    }
}

TEST_F(ServeTest, ServeMatchesBatchBitExactly)
{
    common::ThreadPool::setGlobalThreads(4);
    accel::Device device;
    device.loadIndex(corpus_->buildIndex(*terms_));
    auto batch = device.searchBatch(*queries_);

    serve::DeviceBackend backend(device);
    serve::Server server(backend, lossless(3 * queries_->size()));
    auto report = server.run(*queries_);

    ASSERT_EQ(report.completed, report.offered);
    EXPECT_EQ(report.shed, 0u);
    EXPECT_EQ(report.expired, 0u);
    EXPECT_EQ(report.good, report.completed);
    for (const auto &rec : report.records) {
        ASSERT_EQ(rec.status, serve::QueryStatus::Done);
        expectSameResults(rec.topk, batch.perQuery[rec.queryIndex]);
    }
}

TEST_F(ServeTest, ShardedServeMatchesShardedBatchBitExactly)
{
    common::ThreadPool::setGlobalThreads(4);
    auto global = corpus_->buildIndex(*terms_);

    api::ShardedDeviceConfig scfg;
    scfg.shards = 2;
    api::ShardedDevice sharded(scfg);
    sharded.loadIndex(global);
    auto batch = sharded.searchBatch(*queries_);

    api::ShardedDevice servedev(scfg);
    servedev.loadIndex(global);
    serve::ShardedBackend backend(servedev);
    serve::Server server(backend, lossless(2 * queries_->size()));
    auto report = server.run(*queries_);

    ASSERT_EQ(report.completed, report.offered);
    for (const auto &rec : report.records) {
        ASSERT_EQ(rec.status, serve::QueryStatus::Done);
        expectSameResults(rec.topk, batch.perQuery[rec.queryIndex]);
    }
}

TEST_F(ServeTest, OverlappedShardReplayMatchesSingleDevice)
{
    // ShardedDevice::searchBatch runs one Device::searchBatch per
    // shard and merges: it must stay bit-identical to one device
    // over the whole corpus, at several thread counts.
    auto global = corpus_->buildIndex(*terms_);
    accel::Device single;
    single.loadIndex(global);
    auto want = single.searchBatch(*queries_);

    for (std::size_t threads : {1u, 2u, 8u}) {
        common::ThreadPool::setGlobalThreads(threads);
        api::ShardedDeviceConfig scfg;
        scfg.shards = 3;
        api::ShardedDevice sharded(scfg);
        sharded.loadIndex(global);
        auto got = sharded.searchBatch(*queries_);
        ASSERT_EQ(got.perQuery.size(), want.perQuery.size());
        for (std::size_t q = 0; q < want.perQuery.size(); ++q)
            expectSameResults(got.perQuery[q], want.perQuery[q]);
    }
}

TEST_F(ServeTest, ExpiredDeadlinesAreNeverGoodput)
{
    common::ThreadPool::setGlobalThreads(2);
    accel::Device device;
    device.loadIndex(corpus_->buildIndex(*terms_));
    serve::DeviceBackend backend(device);

    auto cfg = lossless(50);
    // A deadline far below queue + execution time: every query
    // either expires at dispatch or completes past its deadline —
    // goodput must be zero either way, and expiry must not crash
    // the pipeline mid-flight.
    cfg.deadlineUs = 1e-3;
    serve::Server server(backend, cfg);
    auto report = server.run(*queries_);

    EXPECT_EQ(report.good, 0u);
    EXPECT_EQ(report.shed, 0u); // Block never sheds at admission
    EXPECT_EQ(report.expired + report.completed, report.offered);
    for (const auto &rec : report.records) {
        if (rec.status == serve::QueryStatus::Done) {
            EXPECT_FALSE(rec.metDeadline);
        } else {
            EXPECT_EQ(rec.status, serve::QueryStatus::Expired);
            EXPECT_TRUE(rec.topk.empty());
        }
    }
}

TEST_F(ServeTest, ServeReportAccountingIsConsistent)
{
    common::ThreadPool::setGlobalThreads(2);
    accel::Device device;
    device.loadIndex(corpus_->buildIndex(*terms_));
    serve::DeviceBackend backend(device);

    // Overdrive a tiny queue so shedding actually happens.
    serve::ServeConfig cfg;
    cfg.arrivals.qps = 200'000.0;
    cfg.arrivals.count = 300;
    cfg.arrivals.seed = 3;
    cfg.queueCapacity = 4;
    cfg.policy = serve::ShedPolicy::DropTail;
    cfg.warmup = 2;
    serve::Server server(backend, cfg);
    auto report = server.run(*queries_);

    EXPECT_EQ(report.offered, 300u);
    EXPECT_EQ(report.completed + report.shed + report.expired,
              report.offered);
    EXPECT_EQ(report.admission.offered, 300u);
    EXPECT_LE(report.admission.peakDepth, 4u);
    // Every completed query still returns the exact batch answer.
    auto batch = device.searchBatch(*queries_);
    for (const auto &rec : report.records) {
        if (rec.status == serve::QueryStatus::Done)
            expectSameResults(rec.topk,
                              batch.perQuery[rec.queryIndex]);
    }
}

TEST_F(ServeTest, TelemetryCountsEqualTheReport)
{
    common::ThreadPool::setGlobalThreads(2);
    accel::Device device;
    device.loadIndex(corpus_->buildIndex(*terms_));
    serve::DeviceBackend backend(device);

    // Overdrive a tiny drop-tail queue under a deadline, with live
    // telemetry attached to every lifecycle transition.
    serve::ServeConfig cfg;
    cfg.arrivals.qps = 200'000.0;
    cfg.arrivals.count = 300;
    cfg.arrivals.seed = 5;
    cfg.queueCapacity = 4;
    cfg.policy = serve::ShedPolicy::DropTail;
    cfg.deadlineUs = 10'000.0;
    cfg.warmup = 2;
    telemetry::ServeTelemetry telemetry;
    serve::Server server(backend, cfg);
    server.setTelemetry(&telemetry);
    auto report = server.run(*queries_);

    ASSERT_GT(report.shed, 0u);
    ASSERT_GT(report.completed, 0u);
    EXPECT_EQ(telemetry.offered(), report.offered);
    EXPECT_EQ(telemetry.completed(), report.completed);
    EXPECT_EQ(telemetry.shed(), report.shed);
    EXPECT_EQ(telemetry.expired(), report.expired);
    EXPECT_EQ(telemetry.good(), report.good);
    // The flight recorder holds the run's own records, so its
    // slowest entry is the report's maximum latency, bit for bit.
    const auto entries = telemetry.flight().entries();
    ASSERT_FALSE(entries.empty());
    ASSERT_EQ(entries.front().record.status, serve::QueryStatus::Done);
    EXPECT_EQ(entries.front().record.latencyUs(), report.latencyMaxUs);
}

// ---------------------------------------------------------------
// Partitioned serving: time rule and the live (segmented) path.
// ---------------------------------------------------------------

/** Keeps what finish() hands the server (finish is serial). */
class RecordingBackend final : public serve::Backend
{
  public:
    explicit RecordingBackend(serve::Backend &inner) : inner_(inner) {}

    std::uint32_t shards() const override { return inner_.shards(); }
    engine::QueryPlan plan(const std::string &expr) override
    {
        return inner_.plan(expr);
    }
    engine::QueryPlan plan(const workload::Query &query) override
    {
        return inner_.plan(query);
    }
    serve::BuiltHandle build(const engine::QueryPlan &plan,
                             engine::QueryArena &arena) override
    {
        return inner_.build(plan, arena);
    }
    serve::Finished finish(serve::BuiltHandle built) override
    {
        finished.push_back(inner_.finish(std::move(built)));
        return finished.back();
    }

    std::vector<serve::Finished> finished;

  private:
    serve::Backend &inner_;
};

TEST_F(ServeTest, ShardedServeTimeIsTheSlowestShard)
{
    common::ThreadPool::setGlobalThreads(4);
    api::ShardedDeviceConfig scfg;
    scfg.shards = 3;
    api::ShardedDevice device(scfg);
    device.loadShards(corpus_->buildShardedIndex(*terms_, 3));
    serve::ShardedBackend backend(device);
    RecordingBackend recording(backend);
    serve::Server server(recording, lossless(queries_->size()));
    auto report = server.run(*queries_);

    ASSERT_EQ(report.completed, report.offered);
    ASSERT_GE(recording.finished.size(), report.completed);
    for (const serve::Finished &fin : recording.finished) {
        ASSERT_EQ(fin.shardSeconds.size(), 3u);
        EXPECT_EQ(fin.simSeconds,
                  *std::max_element(fin.shardSeconds.begin(),
                                    fin.shardSeconds.end()));
    }
}

TEST_F(ServeTest, LiveServeMatchesSegmentOracleAndSumsSegmentTimes)
{
    common::ThreadPool::setGlobalThreads(4);
    constexpr std::size_t kTopK = 100;
    api::ShardedDeviceConfig cfg;
    cfg.device.k = kTopK;
    api::ShardedDevice device(cfg);
    index::segments::LiveIndexConfig lcfg;
    lcfg.termBoundHint = corpus_->config().vocabSize;
    lcfg.maxBufferedDocs = 700;
    auto &live = device.loadLiveIndex(lcfg);

    // A quiescent index: several segments, some tombstones, no
    // merger running.
    Rng rng(0x5E65);
    for (std::uint32_t d = 0; d < 3000; ++d) {
        std::vector<TermId> tokens(6 + rng.below(40));
        for (TermId &t : tokens)
            t = static_cast<TermId>(rng.below(lcfg.termBoundHint));
        live.append(tokens);
    }
    live.refresh();
    for (DocId d = 0; d < 3000; d += 9)
        ASSERT_TRUE(live.erase(d));
    live.refresh();
    const index::segments::Snapshot version = live.snapshot();
    ASSERT_GE(version->segments().size(), 4u);

    // Each query replayed alone on a device holding one segment; the
    // served time is their sum in segment order.
    std::vector<double> segmentSum(queries_->size(), 0.0);
    for (const auto &seg : version->segments()) {
        accel::DeviceConfig dc;
        dc.k = kTopK;
        accel::Device one(dc);
        one.loadSharedIndex(seg.view);
        one.setTombstones(seg.tombstones);
        for (std::size_t q = 0; q < queries_->size(); ++q)
            segmentSum[q] += one.search((*queries_)[q]).simSeconds;
    }

    serve::ShardedBackend backend(device);
    RecordingBackend recording(backend);
    EXPECT_EQ(recording.shards(), 1u);
    serve::Server server(recording, lossless(2 * queries_->size()));
    auto report = server.run(*queries_);

    ASSERT_EQ(report.completed, report.offered);
    for (const auto &rec : report.records) {
        ASSERT_EQ(rec.status, serve::QueryStatus::Done);
        const auto &query = (*queries_)[rec.queryIndex];
        expectSameResults(
            rec.topk, engine::naiveSearchSegments(
                          *version, engine::planQuery(query), kTopK));
        EXPECT_EQ(rec.simSeconds, segmentSum[rec.queryIndex]);
    }
    for (const serve::Finished &fin : recording.finished) {
        EXPECT_EQ(fin.shardSeconds,
                  std::vector<double>{fin.simSeconds});
    }
}

} // namespace
