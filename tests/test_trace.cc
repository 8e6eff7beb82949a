/**
 * @file
 * Tests for the observability layer: the deterministic event
 * recorder, the Chrome trace_event exporter, per-query summary
 * records (schema round-trip and bit-identical results across
 * thread-pool sizes), and the device-level stats JSON export.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "api/sharded_device.h"
#include "boss/device.h"
#include "common/thread_pool.h"
#include "trace/chrome_trace.h"
#include "trace/recorder.h"
#include "model/runner.h"
#include "trace/summary.h"
#include "workload/corpus.h"
#include "workload/queries.h"

namespace
{

using namespace boss;

// ---------------------------------------------------------------
// Recorder: deterministic merge.
// ---------------------------------------------------------------

TEST(RecorderTest, MergedOrdersByScopeThenSeq)
{
    trace::Recorder rec(2);
    auto lane = rec.addLane("device", "core0", trace::Domain::SimTicks);
    auto base = rec.beginPhase();

    // Worker 1 records its (later-submitted) scope first; the merge
    // must still order by submission index, then by each scope's own
    // recording order.
    auto s1 = rec.scope(1, base + 1);
    s1.instant(lane, "b0", 2.0);
    s1.instant(lane, "b1", 3.0);
    auto s0 = rec.scope(0, base + 0);
    s0.instant(lane, "a0", 0.0);
    s0.instant(lane, "a1", 1.0);

    auto events = rec.merged();
    ASSERT_EQ(events.size(), 4u);
    EXPECT_STREQ(events[0].name, "a0");
    EXPECT_STREQ(events[1].name, "a1");
    EXPECT_STREQ(events[2].name, "b0");
    EXPECT_STREQ(events[3].name, "b1");
    EXPECT_EQ(rec.eventCount(), 4u);
}

TEST(RecorderTest, PhasesOrderConsecutiveSearches)
{
    trace::Recorder rec(1);
    auto lane = rec.addLane("device", "core0", trace::Domain::SimTicks);

    auto base1 = rec.beginPhase();
    rec.scope(0, base1 + 5).instant(lane, "first", 0.0);
    auto base2 = rec.beginPhase();
    EXPECT_GT(base2, base1 + 5);
    rec.serial().instant(lane, "second", 0.0);

    auto events = rec.merged();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_STREQ(events[0].name, "first");
    EXPECT_STREQ(events[1].name, "second");
}

TEST(RecorderTest, NullScopeSwallowsEverything)
{
    trace::Scope scope;
    EXPECT_FALSE(static_cast<bool>(scope));
    scope.span(0, "s", 1.0, 2.0, {{"k", 1}});
    scope.instant(0, "i", 1.0);
    scope.counter(0, "c", 1.0, 2.0);
    EXPECT_EQ(scope.hostMicros(), 0.0);
}

TEST(RecorderTest, ArgsBeyondCapacityAreDropped)
{
    trace::Recorder rec(1);
    auto lane = rec.addLane("p", "t", trace::Domain::HostMicros);
    rec.beginPhase();
    rec.serial().instant(lane, "i", 0.0,
                         {{"a", 1},
                          {"b", 2},
                          {"c", 3},
                          {"d", 4},
                          {"e", 5},
                          {"f", 6},
                          {"overflow", 7}});
    auto events = rec.merged();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].numArgs, 6u);
}

TEST(RecorderTest, ParallelRecordingIsDeterministic)
{
    common::ThreadPool::setGlobalThreads(4);
    auto run = [] {
        trace::Recorder rec; // sized off the global pool
        auto base = rec.beginPhase();
        common::ThreadPool::global().parallelFor(
            64, [&](std::size_t i, std::size_t worker) {
                auto s = rec.scope(worker, base + i);
                s.instant(rec.workerLane(worker), "item", 0.0,
                          {{"i", i}});
            });
        std::vector<std::uint64_t> order;
        for (const auto &e : rec.merged())
            order.push_back(e.args[0].value);
        return order;
    };
    auto order = run();
    ASSERT_EQ(order.size(), 64u);
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
    common::ThreadPool::setGlobalThreads(1);
}

// ---------------------------------------------------------------
// Chrome trace exporter.
// ---------------------------------------------------------------

TEST(ChromeTraceTest, GoldenOutput)
{
    trace::Recorder rec(1);
    auto core = rec.addLane("device", "core0",
                            trace::Domain::SimTicks, 1);
    auto base = rec.beginPhase();
    auto ser = rec.serial();
    // Simulated-tick lane: 2e6 ticks = 2 µs in Chrome time.
    ser.span(core, "query", 2e6, 1.5e6, {{"q", 7}});
    ser.counter(core, "pending", 2e6, 3.0);
    auto w = rec.scope(0, base + 1);
    w.instant(rec.workerLane(0), "skip_blocks", 4.5,
              {{"term", 1}, {"count", 2}});

    std::ostringstream oss;
    trace::writeChromeTrace(oss, rec);
    const std::string expected =
        "[\n"
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"tid\":0,"
        "\"args\":{\"name\":\"device\"}},\n"
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
        "\"args\":{\"name\":\"host\"}},\n"
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
        "\"args\":{\"name\":\"pool.worker0\"}},\n"
        "{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":1,"
        "\"tid\":1,\"args\":{\"sort_index\":0}},\n"
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":2,\"tid\":2,"
        "\"args\":{\"name\":\"core0\"}},\n"
        "{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":2,"
        "\"tid\":2,\"args\":{\"sort_index\":1}},\n"
        "{\"name\":\"query\",\"pid\":2,\"tid\":2,\"ts\":2.000,"
        "\"dur\":1.500,\"ph\":\"X\",\"args\":{\"q\":7}},\n"
        "{\"name\":\"pending\",\"pid\":2,\"tid\":2,\"ts\":2.000,"
        "\"ph\":\"C\",\"args\":{\"value\":3.000}},\n"
        "{\"name\":\"skip_blocks\",\"pid\":1,\"tid\":1,\"ts\":4.500,"
        "\"ph\":\"i\",\"s\":\"t\",\"args\":{\"term\":1,\"count\":2}}"
        "\n]\n";
    EXPECT_EQ(oss.str(), expected);
}

// ---------------------------------------------------------------
// Per-query summary records.
// ---------------------------------------------------------------

trace::QuerySummary
sampleSummary()
{
    trace::QuerySummary s;
    s.query = 3;
    s.terms = 4;
    s.cycles = 123456789;
    s.blocksLoaded = 10;
    s.blocksSkipped = 90;
    s.valuesDecoded = 1280;
    s.normsFetched = 640;
    s.docsScored = 600;
    s.docsSkipped = 5400;
    s.topkInserts = 17;
    s.resultBytes = 160;
    for (std::size_t c = 0; c < trace::kNumTrafficClasses; ++c) {
        s.classBytes[c] = 1000 + c;
        s.classAccesses[c] = 2000 + c;
    }
    return s;
}

TEST(SummaryTest, JsonLineRoundTrip)
{
    auto s = sampleSummary();
    std::ostringstream oss;
    trace::writeJsonLine(oss, s);
    std::string line = oss.str();
    EXPECT_EQ(line.find('\n'), std::string::npos);

    trace::QuerySummary parsed;
    ASSERT_TRUE(trace::parseJsonLine(line, parsed));
    EXPECT_EQ(parsed, s);
}

TEST(SummaryTest, ParserRejectsSchemaMismatches)
{
    auto s = sampleSummary();
    std::ostringstream oss;
    trace::writeJsonLine(oss, s);
    std::string good = oss.str();

    trace::QuerySummary out;
    EXPECT_FALSE(trace::parseJsonLine("", out));
    EXPECT_FALSE(trace::parseJsonLine("not json", out));
    EXPECT_FALSE(trace::parseJsonLine("{}", out));
    EXPECT_FALSE(trace::parseJsonLine("{\"query\":1}", out));
    EXPECT_FALSE(trace::parseJsonLine(good + "x", out));

    // Unknown key: rename "terms" to "trems".
    std::string unknown = good;
    auto pos = unknown.find("\"terms\"");
    ASSERT_NE(pos, std::string::npos);
    unknown.replace(pos, 7, "\"trems\"");
    EXPECT_FALSE(trace::parseJsonLine(unknown, out));
}

TEST(SummaryTest, WriteSummariesEmitsOneLinePerRecord)
{
    std::vector<trace::QuerySummary> batch{sampleSummary(),
                                           sampleSummary()};
    batch[1].query = 4;
    std::ostringstream oss;
    trace::writeSummaries(oss, batch);
    std::istringstream iss(oss.str());
    std::string line;
    std::size_t n = 0;
    while (std::getline(iss, line)) {
        trace::QuerySummary parsed;
        ASSERT_TRUE(trace::parseJsonLine(line, parsed));
        EXPECT_EQ(parsed, batch[n]);
        ++n;
    }
    EXPECT_EQ(n, batch.size());
}

// ---------------------------------------------------------------
// Device-level observability.
// ---------------------------------------------------------------

struct DeviceTraceFixture : ::testing::Test
{
    static std::vector<workload::Query> &
    queries()
    {
        static std::vector<workload::Query> qs = [] {
            workload::QueryWorkloadConfig cfg;
            cfg.vocabSize = 300;
            cfg.queriesPerBucket = 3;
            cfg.seed = 11;
            return workload::makeWorkload(cfg);
        }();
        return qs;
    }

    static accel::Device &
    device()
    {
        // Leaked on purpose: Device is neither copyable nor movable.
        static accel::Device *dev = [] {
            workload::CorpusConfig cfg;
            cfg.numDocs = 10000;
            cfg.vocabSize = 300;
            cfg.seed = 31;
            workload::Corpus corpus(cfg);
            auto *d = new accel::Device;
            d->loadIndex(corpus.buildIndex(
                workload::collectTerms(queries())));
            return d;
        }();
        return *dev;
    }

    void TearDown() override
    {
        device().setRecorder(nullptr);
        device().enableStatsCapture(false);
        common::ThreadPool::setGlobalThreads(1);
    }
};

TEST_F(DeviceTraceFixture, SummariesBitIdenticalAcrossThreadCounts)
{
    common::ThreadPool::setGlobalThreads(1);
    auto reference = device().searchBatch(queries()).summaries;
    ASSERT_EQ(reference.size(), queries().size());

    for (std::size_t threads : {4u, 8u}) {
        common::ThreadPool::setGlobalThreads(threads);
        EXPECT_EQ(device().searchBatch(queries()).summaries, reference)
            << "summaries diverged at " << threads << " threads";
    }
}

TEST_F(DeviceTraceFixture, SummariesCarryRealWork)
{
    auto sums = device().searchBatch(queries()).summaries;
    ASSERT_EQ(sums.size(), queries().size());
    std::uint64_t scored = 0, bytes = 0;
    for (std::size_t i = 0; i < sums.size(); ++i) {
        EXPECT_EQ(sums[i].query, i);
        EXPECT_GT(sums[i].terms, 0u);
        EXPECT_GT(sums[i].cycles, 0u);
        scored += sums[i].docsScored;
        for (std::uint64_t b : sums[i].classBytes)
            bytes += b;
    }
    // Not every query type scores (pure intersections don't), but
    // the batch as a whole must.
    EXPECT_GT(scored, 0u);
    EXPECT_GT(bytes, 0u);
}

TEST_F(DeviceTraceFixture, ChromeTraceCoversAllLaneFamilies)
{
    common::ThreadPool::setGlobalThreads(2);
    trace::Recorder rec;
    device().setRecorder(&rec);
    std::vector<workload::Query> sub(queries().begin(),
                                     queries().begin() + 4);
    device().searchBatch(sub);
    device().setRecorder(nullptr);
    EXPECT_GT(rec.eventCount(), 0u);

    std::ostringstream oss;
    trace::writeChromeTrace(oss, rec);
    std::string json = oss.str();

    // The hard floor is three distinct lanes; the device registers
    // core, memory-channel, event-queue and pool-worker families.
    for (const char *lane :
         {"core0", "mem.ch0", "sim.events", "pool.worker0"})
        EXPECT_NE(json.find(lane), std::string::npos)
            << "missing lane " << lane;
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
}

TEST_F(DeviceTraceFixture, StatsJsonExportsPoolAndLastRun)
{
    std::ostringstream before;
    device().writeStatsJson(before);
    EXPECT_NE(before.str().find("\"host_pool\""), std::string::npos);
    EXPECT_NE(before.str().find("\"last_run\":\nnull"),
              std::string::npos);

    device().enableStatsCapture(true);
    device().search(queries().front());
    std::ostringstream after;
    device().writeStatsJson(after);
    std::string json = after.str();
    EXPECT_EQ(json.find("\"last_run\":\nnull"), std::string::npos);
    EXPECT_NE(json.find("\"host_pool\""), std::string::npos);
    EXPECT_NE(json.find("\"type\": \"histogram\""),
              std::string::npos);
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json[json.size() - 2], '}');
}

// ---------------------------------------------------------------
// One record per query: a union of more than 16 terms runs as
// several subquery traces (paper Sec. IV-D) but is one query.
// ---------------------------------------------------------------

struct WideSummaryFixture : ::testing::Test
{
    static constexpr TermId kTerms = 20; ///< splits as 16 + 4

    static index::InvertedIndex
    buildIndex()
    {
        workload::CorpusConfig cfg;
        cfg.numDocs = 8000;
        cfg.vocabSize = 40;
        cfg.seed = 77;
        std::vector<TermId> terms;
        for (TermId t = 0; t < kTerms; ++t)
            terms.push_back(t);
        return workload::Corpus(cfg).buildIndex(terms);
    }

    static std::string
    expression()
    {
        std::string expr;
        for (TermId t = 0; t < kTerms; ++t)
            expr += (t == 0 ? "\"t" : " OR \"t") + std::to_string(t) +
                    "\"";
        return expr;
    }

    /** The query built on @p dev: one trace per subquery. */
    static accel::BuiltQuery
    build(accel::Device &dev)
    {
        engine::QueryArena arena;
        accel::BuiltQuery built =
            dev.buildQuery(dev.plan(expression()), arena);
        EXPECT_EQ(built.traces.size(), 2u);
        return built;
    }

    /** The subquery traces' counters, summed. */
    static trace::QuerySummary
    counters(const accel::BuiltQuery &built)
    {
        trace::QuerySummary sum;
        for (const model::QueryTrace &t : built.traces)
            trace::addCounters(sum, model::summarizeTrace(t));
        return sum;
    }
};

TEST_F(WideSummaryFixture, OneDeviceFoldsSubqueriesIntoOneRecord)
{
    accel::Device dev;
    dev.loadIndex(buildIndex());
    auto out = dev.search(expression());
    ASSERT_EQ(out.summaries.size(), 1u);

    accel::BuiltQuery built = build(dev);
    trace::QuerySummary expected = counters(built);
    expected.terms = kTerms;
    // The query's time runs from its first subquery's dispatch to
    // its last one's completion on a fresh model of the device.
    std::vector<model::QueryTiming> timings;
    model::ReplayObservers observers;
    observers.timings = &timings;
    model::replayTraces(built.traces, model::SystemConfig{}, observers);
    ASSERT_EQ(timings.size(), 2u);
    const sim::ClockDomain clock(
        model::costModelFor(model::SystemKind::Boss)->frequencyHz());
    expected.cycles =
        clock.toCycles(std::max(timings[0].end, timings[1].end) -
                       std::min(timings[0].start, timings[1].start));
    EXPECT_GT(expected.cycles, 0u);
    EXPECT_EQ(out.summaries[0], expected);
}

TEST_F(WideSummaryFixture, ShardedDeviceMergesOneRecord)
{
    api::ShardedDeviceConfig cfg;
    cfg.shards = 2;
    api::ShardedDevice dev(cfg);
    dev.loadIndex(buildIndex());
    auto out = dev.search(expression());
    ASSERT_EQ(out.summaries.size(), 1u);

    // Every shard's subquery counters add; the slower shard's own
    // record sets the cycles.
    trace::QuerySummary expected;
    expected.terms = kTerms;
    for (std::uint32_t s = 0; s < dev.numShards(); ++s) {
        accel::Device &shard = dev.shard(s);
        trace::addCounters(expected, counters(build(shard)));
        auto own = shard.search(expression()).summaries;
        ASSERT_EQ(own.size(), 1u);
        EXPECT_EQ(own[0].terms, kTerms);
        expected.cycles = std::max(expected.cycles, own[0].cycles);
    }
    EXPECT_EQ(out.summaries[0], expected);
}

} // namespace
