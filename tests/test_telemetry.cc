/**
 * @file
 * Tests for the live telemetry layer: windowed metric primitives
 * (decay, slot reuse, burn-rate math), the registry's two
 * renderers, the flight recorder's bounded forensics and its
 * Chrome trace renderer (on hand-made and served records), the
 * snapshotter's JSONL emission, the HTTP exporter, and the
 * ServeTelemetry lifecycle reconciliation invariant. All window
 * arithmetic runs on virtual timestamps, so every expectation is
 * deterministic; the concurrency hammers exist for TSan.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#ifndef _WIN32
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

#include "boss/device.h"
#include "serve/backend.h"
#include "serve/server.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/http_exporter.h"
#include "telemetry/metrics.h"
#include "telemetry/registry.h"
#include "telemetry/serve_telemetry.h"
#include "telemetry/snapshotter.h"
#include "workload/corpus.h"
#include "workload/queries.h"

namespace
{

using namespace boss;
using namespace boss::telemetry;

// ---------------------------------------------------------------
// WindowedHistogram

TEST(WindowedHistogram, SnapshotIsInternallyConsistent)
{
    WindowedHistogram::Config cfg;
    WindowedHistogram h(cfg);
    for (int i = 1; i <= 100; ++i)
        h.sample(0.5e6, static_cast<double>(i) * 100.0);

    auto snap = h.snapshot(0.5e6, 1);
    EXPECT_EQ(snap.count, 100u);
    std::uint64_t inBuckets = 0;
    for (std::uint64_t b : snap.buckets)
        inBuckets += b;
    EXPECT_EQ(inBuckets, snap.count);
    EXPECT_NEAR(snap.mean(), 5050.0, 1e-9);
    // Percentiles are bucket-interpolated, so allow one geometric
    // bucket of slack (~1.33x with the default 56-bucket layout).
    EXPECT_GT(snap.percentile(0.5), 5000.0 / 1.4);
    EXPECT_LT(snap.percentile(0.5), 5000.0 * 1.4);
    EXPECT_GE(snap.percentile(0.99), snap.percentile(0.5));
}

TEST(WindowedHistogram, WindowDecaysAsTimeAdvances)
{
    WindowedHistogram::Config cfg;
    cfg.sliceUs = 1e6;
    WindowedHistogram h(cfg);
    // 100 samples in slice 0.
    for (int i = 0; i < 100; ++i)
        h.sample(0.2e6, 1000.0);

    // The current (partial) slice is always included.
    EXPECT_EQ(h.snapshot(0.2e6, 1).count, 100u);
    // One slice later, a 1-slice window has forgotten them but a
    // 2-slice window still covers slice 0.
    EXPECT_EQ(h.snapshot(1.5e6, 1).count, 0u);
    EXPECT_EQ(h.snapshot(1.5e6, 2).count, 100u);
    // A 3-slice window at slice 2 still reaches back to slice 0...
    EXPECT_EQ(h.snapshot(2.5e6, 3).count, 100u);
    // ...but at slice 3 the samples have aged out entirely.
    EXPECT_EQ(h.snapshot(3.5e6, 3).count, 0u);
}

TEST(WindowedHistogram, RingSlotReuseDropsTheOldSlice)
{
    WindowedHistogram::Config cfg;
    cfg.sliceUs = 1e6;
    cfg.ringSlices = 4;
    WindowedHistogram h(cfg);
    // Slice 0 and slice 4 share ring slot 0; writing slice 4 must
    // reset the slot rather than blend two epochs.
    h.sample(0.5e6, 100.0, 7);
    h.sample(4.5e6, 200.0, 3);

    auto snap = h.snapshot(4.5e6, 4); // slices 1..4
    EXPECT_EQ(snap.count, 3u);
    EXPECT_NEAR(snap.mean(), 200.0, 1e-9);
    // A stale sample aimed at the recycled slice is dropped, not
    // misfiled into the new epoch.
    h.sample(0.5e6, 100.0, 5);
    EXPECT_EQ(h.snapshot(4.5e6, 4).count, 3u);
}

TEST(WindowedHistogram, OutOfRangeSamplesClampToEdgeBuckets)
{
    WindowedHistogram::Config cfg;
    cfg.lo = 10.0;
    cfg.hi = 1000.0;
    cfg.buckets = 8;
    WindowedHistogram h(cfg);
    h.sample(0.0, 1.0);    // below lo -> bucket 0
    h.sample(0.0, 5000.0); // at/above hi -> overflow

    auto snap = h.snapshot(0.0, 1);
    ASSERT_EQ(snap.buckets.size(), 9u);
    EXPECT_EQ(snap.buckets.front(), 1u);
    EXPECT_EQ(snap.buckets.back(), 1u);
    // Quantiles clamp to the layout: the overflow bucket reports hi
    // and q is clamped into [0, 1].
    EXPECT_DOUBLE_EQ(snap.percentile(1.0), 1000.0);
    EXPECT_DOUBLE_EQ(snap.percentile(7.0), 1000.0);
    EXPECT_LE(snap.percentile(-3.0), snap.percentile(0.5));
}

TEST(WindowedHistogram, EmptySnapshotIsZero)
{
    WindowedHistogram h(WindowedHistogram::Config{});
    auto snap = h.snapshot(5e6, 10);
    EXPECT_EQ(snap.count, 0u);
    EXPECT_DOUBLE_EQ(snap.mean(), 0.0);
    EXPECT_DOUBLE_EQ(snap.percentile(0.99), 0.0);
}

// ---------------------------------------------------------------
// WindowedCounter / BurnRate

TEST(WindowedCounter, TotalsDecayPerWindow)
{
    WindowedCounter::Config cfg;
    cfg.sliceUs = 1e6;
    WindowedCounter c(cfg);
    c.add(0.5e6, 10); // slice 0
    c.add(1.5e6, 20); // slice 1
    c.add(2.5e6, 30); // slice 2

    EXPECT_EQ(c.total(2.5e6, 1), 30u);
    EXPECT_EQ(c.total(2.5e6, 2), 50u);
    EXPECT_EQ(c.total(2.5e6, 3), 60u);
    // Advancing the clock without new events empties the short
    // window while the long one still sees the tail.
    EXPECT_EQ(c.total(3.5e6, 1), 0u);
    EXPECT_EQ(c.total(3.5e6, 3), 50u);
}

TEST(BurnRate, MatchesTheSreDefinition)
{
    WindowedCounter::Config cfg;
    cfg.sliceUs = 1e6;
    BurnRate burn(0.01, cfg); // 99% objective

    // No events: no burn.
    EXPECT_DOUBLE_EQ(burn.rate(0.0, 1), 0.0);
    // 99 good + 1 bad = exactly the budget -> burn 1.0.
    for (int i = 0; i < 99; ++i)
        burn.record(0.5e6, true);
    burn.record(0.5e6, false);
    EXPECT_DOUBLE_EQ(burn.rate(0.5e6, 1), 1.0);
    // Another bad event in the next slice doubles the error
    // fraction over a 2-slice window: 2/101 / 0.01.
    burn.record(1.5e6, false);
    EXPECT_NEAR(burn.rate(1.5e6, 2), (2.0 / 101.0) / 0.01, 1e-12);
    // All-good traffic burns nothing.
    BurnRate clean(0.01, cfg);
    for (int i = 0; i < 50; ++i)
        clean.record(0.5e6, true);
    EXPECT_DOUBLE_EQ(clean.rate(0.5e6, 1), 0.0);
    EXPECT_EQ(burn.goodTotal(1.5e6, 2), 99u);
    EXPECT_EQ(burn.badTotal(1.5e6, 2), 2u);
}

// ---------------------------------------------------------------
// Registry rendering

TEST(Registry, RendersPrometheusExposition)
{
    Counter offered;
    offered.inc(42);
    Gauge depth;
    depth.set(7.0);
    WindowedHistogram lat{WindowedHistogram::Config{}};
    lat.sample(0.5e6, 1000.0, 10);

    Registry reg;
    reg.setWindows({{"1s", 1}, {"10s", 10}});
    reg.setBuildInfo({{"git", "abc123"}, {"compiler", "gcc 12"}});
    reg.addCounter("boss_serve_offered_total", &offered,
                   "queries offered");
    reg.addCounter("boss_serve_shard_queries_total", &offered,
                   "per-shard queries", {{"shard", "0"}});
    reg.addGauge("boss_serve_queue_depth", &depth, "queue depth");
    reg.addWindowedHistogram("boss_serve_latency_us", &lat,
                             "completion latency");
    reg.addWindowedFormula(
        "boss_serve_offered_qps",
        [](double, std::uint64_t slices) {
            return 100.0 * static_cast<double>(slices);
        },
        "offered rate");

    std::ostringstream os;
    reg.renderPrometheus(os, 0.5e6);
    std::string text = os.str();

    EXPECT_NE(text.find("# TYPE boss_serve_offered_total counter"),
              std::string::npos);
    EXPECT_NE(text.find("boss_serve_offered_total 42"),
              std::string::npos);
    EXPECT_NE(text.find("boss_serve_shard_queries_total"
                        "{shard=\"0\"} 42"),
              std::string::npos);
    EXPECT_NE(text.find("boss_serve_queue_depth 7"),
              std::string::npos);
    EXPECT_NE(
        text.find("boss_build_info{git=\"abc123\",compiler=\"gcc "
                  "12\"} 1"),
        std::string::npos);
    // Windowed metrics render once per window with window labels
    // and quantile breakdowns.
    EXPECT_NE(text.find("window=\"1s\""), std::string::npos);
    EXPECT_NE(text.find("window=\"10s\""), std::string::npos);
    EXPECT_NE(text.find("quantile=\"0.99\""), std::string::npos);
    EXPECT_NE(text.find("boss_serve_latency_us_count"
                        "{window=\"1s\"} 10"),
              std::string::npos);
    // The formula sees each window's width in slices.
    EXPECT_NE(text.find("boss_serve_offered_qps{window=\"10s\"} "
                        "1000"),
              std::string::npos);
}

TEST(Registry, JsonLineCarriesSchemaFields)
{
    Counter done;
    done.inc(5);
    Gauge g;
    g.set(2.5);
    WindowedHistogram lat{WindowedHistogram::Config{}};
    lat.sample(0.5e6, 500.0, 4);

    Registry reg;
    reg.setWindows({{"1s", 1}});
    reg.setBuildInfo({{"git", "abc"}, {"compiler", "g"},
                      {"kernels", "avx2"}});
    reg.addCounter("boss_serve_completed_total", &done, "done");
    reg.addGauge("boss_serve_queue_depth", &g, "depth");
    reg.addWindowedHistogram("boss_serve_latency_us", &lat, "lat");

    std::ostringstream os;
    reg.renderJsonLine(os, 0.5e6);
    std::string line = os.str();

    // One line, balanced braces, no trailing newline.
    EXPECT_EQ(line.find('\n'), std::string::npos);
    long depth2 = 0;
    for (char c : line)
        depth2 += c == '{' ? 1 : c == '}' ? -1 : 0;
    EXPECT_EQ(depth2, 0);
    EXPECT_NE(line.find("\"t_us\": 500000"), std::string::npos);
    EXPECT_NE(line.find("\"build\": {\"git\": \"abc\""),
              std::string::npos);
    EXPECT_NE(line.find("\"boss_serve_completed_total\": 5"),
              std::string::npos);
    EXPECT_NE(line.find("\"boss_serve_queue_depth\": 2.5"),
              std::string::npos);
    EXPECT_NE(line.find("\"windows\": {\"1s\": "),
              std::string::npos);
    EXPECT_NE(line.find("\"count\": 4"), std::string::npos);
    EXPECT_NE(line.find("\"p99\":"), std::string::npos);
}

// A sampler storm against a rendering snapshotter; the assertions
// are on the exact plain counters, the rest is for TSan.
TEST(Registry, ConcurrentSampleAndRenderIsClean)
{
    Counter events;
    Gauge depth;
    WindowedHistogram lat{WindowedHistogram::Config{}};
    WindowedCounter rate{WindowedCounter::Config{}};

    Registry reg;
    reg.setWindows({{"1s", 1}, {"10s", 10}});
    reg.addCounter("events_total", &events, "events");
    reg.addGauge("depth", &depth, "depth");
    reg.addWindowedHistogram("lat_us", &lat, "latency");
    reg.addWindowedFormula(
        "rate",
        [&rate](double tUs, std::uint64_t slices) {
            return static_cast<double>(rate.total(tUs, slices));
        },
        "rate");

    constexpr int kThreads = 4;
    constexpr int kPerThread = 5000;
    std::atomic<bool> stop{false};
    std::thread renderer([&] {
        while (!stop.load(std::memory_order_relaxed)) {
            std::ostringstream os;
            reg.renderPrometheus(os, 3.5e6);
            reg.renderJsonLine(os, 3.5e6);
        }
    });
    std::vector<std::thread> samplers;
    for (int t = 0; t < kThreads; ++t) {
        samplers.emplace_back([&, t] {
            for (int i = 0; i < kPerThread; ++i) {
                // Walk the clock so slices rotate under load.
                double tUs = static_cast<double>(i % 4) * 1e6 +
                             0.5e6;
                events.inc();
                depth.set(static_cast<double>(t));
                lat.sample(tUs, 100.0 + i % 1000);
                rate.add(tUs);
            }
        });
    }
    for (auto &s : samplers)
        s.join();
    stop.store(true, std::memory_order_relaxed);
    renderer.join();

    EXPECT_EQ(events.value(),
              static_cast<std::uint64_t>(kThreads) * kPerThread);
    auto snap = lat.snapshot(3.5e6, 10);
    std::uint64_t inBuckets = 0;
    for (std::uint64_t b : snap.buckets)
        inBuckets += b;
    EXPECT_EQ(inBuckets, snap.count);
}

// ---------------------------------------------------------------
// FlightRecorder

/** One Chrome trace event: its name and phase ("X", "i", "M"). */
struct TraceEvent
{
    std::string name;
    std::string ph;
};

/**
 * A strict reader for the Chrome trace JSON the exporter writes: one
 * array of objects whose values are strings, numbers or (args)
 * objects. read() fails on anything else, trailing text included.
 */
class TraceReader
{
  public:
    explicit TraceReader(std::string text) : s_(std::move(text)) {}

    bool
    read(std::vector<TraceEvent> &out)
    {
        if (!eat('['))
            return false;
        do {
            TraceEvent e;
            if (!object(&e))
                return false;
            out.push_back(e);
        } while (eat(','));
        if (!eat(']'))
            return false;
        skipSpace();
        return i_ == s_.size();
    }

  private:
    void
    skipSpace()
    {
        while (i_ < s_.size() &&
               std::isspace(static_cast<unsigned char>(s_[i_])))
            ++i_;
    }

    bool
    eat(char c)
    {
        skipSpace();
        if (i_ < s_.size() && s_[i_] == c) {
            ++i_;
            return true;
        }
        return false;
    }

    bool
    string(std::string &out)
    {
        if (!eat('"'))
            return false;
        while (i_ < s_.size() && s_[i_] != '"') {
            if (s_[i_] == '\\')
                ++i_;
            if (i_ < s_.size())
                out += s_[i_++];
        }
        return i_++ < s_.size();
    }

    bool
    number()
    {
        skipSpace();
        const std::size_t start = i_;
        while (i_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[i_])) ||
                std::strchr("+-.eE", s_[i_]) != nullptr))
            ++i_;
        return i_ > start;
    }

    /** One object; records name and ph into @p e when non-null. */
    bool
    object(TraceEvent *e)
    {
        if (!eat('{'))
            return false;
        if (eat('}'))
            return true;
        do {
            std::string key;
            if (!string(key) || !eat(':'))
                return false;
            skipSpace();
            if (i_ < s_.size() && s_[i_] == '"') {
                std::string value;
                if (!string(value))
                    return false;
                if (e != nullptr && key == "name")
                    e->name = value;
                if (e != nullptr && key == "ph")
                    e->ph = value;
            } else if (i_ < s_.size() && s_[i_] == '{') {
                if (!object(nullptr))
                    return false;
            } else if (!number()) {
                return false;
            }
        } while (eat(','));
        return eat('}');
    }

    std::string s_;
    std::size_t i_ = 0;
};

std::uint64_t
countEvents(const std::vector<TraceEvent> &events, const char *name,
            const char *ph)
{
    return static_cast<std::uint64_t>(std::count_if(
        events.begin(), events.end(), [&](const TraceEvent &e) {
            return e.name == name && e.ph == ph;
        }));
}

serve::QueryRecord
doneQuery(std::uint64_t id, double latencyUs)
{
    serve::QueryRecord q;
    q.id = id;
    q.queryIndex = id;
    q.status = serve::QueryStatus::Done;
    q.arrivalUs = 1000.0 * static_cast<double>(id);
    q.enqueueUs = q.arrivalUs + 5.0;
    q.admitUs = q.arrivalUs + 10.0;
    q.startUs = q.arrivalUs + 20.0;
    q.buildEndUs = q.arrivalUs + latencyUs * 0.5;
    q.finishUs = q.arrivalUs + latencyUs;
    q.metDeadline = true;
    return q;
}

TEST(FlightRecorder, KeepsTheSlowestN)
{
    FlightRecorder rec(4, 4);
    for (std::uint64_t id = 1; id <= 10; ++id)
        rec.record(doneQuery(id, static_cast<double>(id) * 100.0),
                   0.0);

    EXPECT_EQ(rec.recorded(), 10u);
    EXPECT_EQ(rec.slowCount(), 4u);
    EXPECT_DOUBLE_EQ(rec.slowThresholdUs(), 700.0);
    auto entries = rec.entries();
    ASSERT_EQ(entries.size(), 4u);
    // Sorted by descending latency: ids 10, 9, 8, 7.
    EXPECT_EQ(entries[0].record.id, 10u);
    EXPECT_EQ(entries[1].record.id, 9u);
    EXPECT_EQ(entries[2].record.id, 8u);
    EXPECT_EQ(entries[3].record.id, 7u);
}

TEST(FlightRecorder, ShedRingKeepsMostRecent)
{
    FlightRecorder rec(2, 2);
    for (std::uint64_t id = 0; id < 5; ++id) {
        serve::QueryRecord q;
        q.id = id;
        q.status = id % 2 == 0 ? serve::QueryStatus::Shed
                               : serve::QueryStatus::Expired;
        q.arrivalUs = static_cast<double>(id);
        rec.record(q, 0.0);
    }
    EXPECT_EQ(rec.shedCount(), 2u);
    auto entries = rec.entries();
    ASSERT_EQ(entries.size(), 2u);
    EXPECT_EQ(entries[0].record.id, 3u);
    EXPECT_EQ(entries[1].record.id, 4u);
}

TEST(FlightRecorder, ChromeTraceDumpRoundTrips)
{
    FlightRecorder rec(8, 8);
    rec.record(doneQuery(1, 500.0), 0.0);
    serve::QueryRecord refused;
    refused.id = 2;
    refused.arrivalUs = 123.0;
    refused.enqueueUs = 124.0;
    rec.record(refused, 1e6);

    std::ostringstream os;
    dumpChromeTrace(os, rec.entries());
    std::vector<TraceEvent> events;
    ASSERT_TRUE(TraceReader(os.str()).read(events)) << os.str();
    // The done query renders two spans, the shed one an instant.
    EXPECT_EQ(countEvents(events, "queued", "X"), 1u);
    EXPECT_EQ(countEvents(events, "serve", "X"), 1u);
    EXPECT_EQ(countEvents(events, "shed", "i"), 1u);

    // Served records through the same renderer, from two runs laid
    // end to end on one timeline: an overloaded drop-tail run
    // (completions and refusals) and a run whose deadline has passed
    // by the time any query reaches the dispatcher (expiries).
    workload::CorpusConfig ccfg;
    ccfg.numDocs = 5'000;
    ccfg.vocabSize = 200;
    ccfg.seed = 3;
    workload::Corpus corpus(ccfg);
    workload::QueryWorkloadConfig qcfg;
    qcfg.vocabSize = ccfg.vocabSize;
    qcfg.seed = 9;
    auto queries = workload::sampleQueries(qcfg, 16);
    accel::Device device;
    device.loadIndex(corpus.buildIndex(workload::collectTerms(queries)));
    serve::DeviceBackend backend(device);
    serve::ServeConfig overload;
    overload.arrivals.qps = 200'000.0;
    overload.arrivals.count = 200;
    overload.arrivals.seed = 4;
    overload.queueCapacity = 4;
    overload.maxInFlight = 1;
    overload.policy = serve::ShedPolicy::DropTail;
    serve::ServeConfig expiring = overload;
    expiring.policy = serve::ShedPolicy::Block;
    expiring.deadlineUs = 1e-3;

    std::vector<FlightEntry> served;
    std::uint64_t completed = 0, shed = 0, expired = 0;
    double epochUs = 0.0;
    for (const serve::ServeConfig &cfg : {overload, expiring}) {
        serve::Server server(backend, cfg);
        const serve::ServeReport report = server.run(queries);
        for (const serve::QueryRecord &r : report.records)
            served.push_back({r, epochUs});
        epochUs += report.elapsedUs;
        completed += report.completed;
        shed += report.shed;
        expired += report.expired;
    }
    ASSERT_GT(completed, 0u);
    ASSERT_GT(shed, 0u);
    ASSERT_GT(expired, 0u);

    std::ostringstream run;
    dumpChromeTrace(run, served);
    events.clear();
    ASSERT_TRUE(TraceReader(run.str()).read(events));
    EXPECT_EQ(countEvents(events, "serve", "X"), completed);
    EXPECT_EQ(countEvents(events, "queued", "X"), completed + expired);
    EXPECT_EQ(countEvents(events, "shed", "i"), shed);
    EXPECT_EQ(countEvents(events, "expired", "i"), expired);
}

// ---------------------------------------------------------------
// ServeTelemetry lifecycle

TEST(ServeTelemetry, LifecycleReconcilesExactly)
{
    ServeTelemetry::Config cfg;
    cfg.sliceUs = 1e6;
    ServeTelemetry tel(cfg);
    tel.setShardCount(2);
    tel.setBuildInfo({{"git", "abc"}, {"compiler", "g"},
                      {"kernels", "scalar"}});

    // 10 offered: 6 done (1 misses its deadline), 2 shed at
    // admission, 1 rejected after close, 1 expired at dispatch.
    std::uint64_t id = 0;
    auto offerAt = [&](double tUs) {
        tel.onOffered(tUs);
        return id++;
    };
    for (int i = 0; i < 6; ++i) {
        double t0 = 1000.0 * i;
        std::uint64_t qid = offerAt(t0);
        tel.onAdmission(t0, serve::Admission::Admitted, i);
        tel.onAdmit(t0 + 50.0, 50.0);
        tel.onBuild(t0 + 150.0, 100.0);
        tel.onFinish(t0 + 400.0, 250.0);
        tel.onShard(0, 1e-4);
        tel.onShard(1, 2e-4);
        serve::QueryRecord q;
        q.id = qid;
        q.status = serve::QueryStatus::Done;
        q.arrivalUs = t0;
        q.admitUs = t0 + 50.0;
        q.finishUs = t0 + 400.0;
        q.deadlineUs = t0 + (i == 5 ? 300.0 : 1000.0);
        q.metDeadline = i != 5;
        tel.onTerminal(t0 + 400.0, q, 0.0);
    }
    for (int i = 0; i < 2; ++i) {
        double t0 = 7000.0 + 100.0 * i;
        std::uint64_t qid = offerAt(t0);
        tel.onAdmission(t0, serve::Admission::ShedCapacity, 99);
        serve::QueryRecord q;
        q.id = qid;
        q.arrivalUs = t0;
        tel.onTerminal(t0, q, 0.0);
    }
    {
        double t0 = 8000.0;
        std::uint64_t qid = offerAt(t0);
        tel.onAdmission(t0, serve::Admission::Closed, 0);
        serve::QueryRecord q;
        q.id = qid;
        q.arrivalUs = t0;
        tel.onTerminal(t0, q, 0.0);
    }
    {
        double t0 = 9000.0;
        std::uint64_t qid = offerAt(t0);
        tel.onAdmission(t0, serve::Admission::Admitted, 1);
        serve::QueryRecord q;
        q.id = qid;
        q.status = serve::QueryStatus::Expired;
        q.arrivalUs = t0;
        q.deadlineUs = t0 + 10.0;
        tel.onTerminal(t0 + 500.0, q, 0.0);
    }

    // The acceptance-bar invariant: every offered query reached
    // exactly one terminal counter.
    EXPECT_EQ(tel.offered(), 10u);
    EXPECT_EQ(tel.completed(), 6u);
    EXPECT_EQ(tel.shed(), 3u);
    EXPECT_EQ(tel.expired(), 1u);
    EXPECT_EQ(tel.offered(),
              tel.completed() + tel.shed() + tel.expired());
    EXPECT_EQ(tel.good(), 5u);

    // The registry view agrees with the raw counters and carries
    // the per-shard breakdown.
    std::ostringstream os;
    tel.registry().renderPrometheus(os, 10000.0);
    std::string text = os.str();
    EXPECT_NE(text.find("boss_serve_offered_total 10"),
              std::string::npos);
    EXPECT_NE(text.find("boss_serve_completed_total 6"),
              std::string::npos);
    EXPECT_NE(text.find("boss_serve_deadline_missed_total 1"),
              std::string::npos);
    EXPECT_NE(
        text.find("boss_serve_shard_queries_total{shard=\"1\"} 6"),
        std::string::npos);
    EXPECT_NE(text.find("boss_serve_slo_burn_rate"),
              std::string::npos);
    EXPECT_NE(text.find("boss_build_info{git=\"abc\""),
              std::string::npos);

    // Flight recorder captured both slow completions and sheds.
    EXPECT_EQ(tel.flight().recorded(), 10u);
    EXPECT_EQ(tel.flight().slowCount(), 6u);
    EXPECT_EQ(tel.flight().shedCount(), 4u);
}

TEST(ServeTelemetry, BurnRateReflectsBadTerminals)
{
    ServeTelemetry::Config cfg;
    cfg.errorBudget = 0.01;
    ServeTelemetry tel(cfg);

    // 99 good completions + 1 shed in slice 0: burn is exactly 1.
    for (int i = 0; i < 100; ++i) {
        tel.onOffered(0.5e6);
        serve::QueryRecord q;
        q.id = static_cast<std::uint64_t>(i);
        q.arrivalUs = 0.4e6;
        if (i != 0) {
            q.status = serve::QueryStatus::Done;
            q.finishUs = 0.5e6;
            q.metDeadline = true;
        }
        tel.onTerminal(0.5e6, q, 0.0);
    }

    std::ostringstream os;
    tel.registry().renderJsonLine(os, 0.5e6);
    std::string line = os.str();
    EXPECT_NE(line.find("\"boss_serve_slo_burn_rate\": 1"),
              std::string::npos);
}

// ---------------------------------------------------------------
// Snapshotter

TEST(Snapshotter, WritesJsonlSnapshots)
{
    Counter c;
    c.inc(3);
    Registry reg;
    reg.setWindows({{"1s", 1}});
    reg.addCounter("events_total", &c, "events");

    std::string path = ::testing::TempDir() + "boss_snap_test.jsonl";
    std::remove(path.c_str());
    {
        Snapshotter::Config cfg;
        cfg.jsonlPath = path;
        cfg.periodMs = 5.0;
        std::atomic<double> now{0.0};
        Snapshotter snap(
            reg,
            [&now] {
                return now.load(std::memory_order_relaxed);
            },
            cfg);
        snap.start();
        for (int i = 0; i < 20; ++i) {
            now.store(static_cast<double>(i) * 1e4,
                      std::memory_order_relaxed);
            std::this_thread::sleep_for(
                std::chrono::milliseconds(2));
        }
        snap.stop();
        // stop() always appends a final reconciliation snapshot.
        EXPECT_GE(snap.snapshots(), 1u);
    }

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string line;
    std::size_t lines = 0;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        ++lines;
        EXPECT_NE(line.find("\"t_us\":"), std::string::npos);
        EXPECT_NE(line.find("\"events_total\": 3"),
                  std::string::npos);
    }
    EXPECT_GE(lines, 1u);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------
// HTTP exporter

#ifndef _WIN32
/** One-shot HTTP/1.0 GET against 127.0.0.1:port. */
std::string
httpGet(std::uint16_t port, const std::string &path)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return {};
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return {};
    }
    std::string req =
        "GET " + path + " HTTP/1.0\r\nConnection: close\r\n\r\n";
    (void)!::write(fd, req.data(), req.size());
    std::string response;
    char buf[4096];
    ssize_t n;
    while ((n = ::read(fd, buf, sizeof(buf))) > 0)
        response.append(buf, static_cast<std::size_t>(n));
    ::close(fd);
    return response;
}

TEST(HttpExporter, ServesMetricsFlightAndHealth)
{
    ServeTelemetry tel;
    tel.onOffered(100.0);
    tel.onTerminal(500.0, doneQuery(1, 400.0), 0.0);

    HttpExporter::Config cfg;
    cfg.port = 0; // ephemeral
    HttpExporter exporter(tel.registry(), &tel.flight(),
                          [] { return 1000.0; }, cfg);
    std::string error;
    if (!exporter.start(&error))
        GTEST_SKIP() << "cannot bind a listen socket: " << error;
    ASSERT_NE(exporter.port(), 0);

    std::string metrics = httpGet(exporter.port(), "/metrics");
    EXPECT_NE(metrics.find("200 OK"), std::string::npos);
    EXPECT_NE(metrics.find("text/plain"), std::string::npos);
    EXPECT_NE(metrics.find("boss_serve_offered_total 1"),
              std::string::npos);

    std::string flight = httpGet(exporter.port(), "/flight");
    EXPECT_NE(flight.find("200 OK"), std::string::npos);
    // Chrome trace array with the done query's serve span.
    EXPECT_NE(flight.find("\"ph\""), std::string::npos);
    EXPECT_NE(flight.find("serve"), std::string::npos);

    std::string health = httpGet(exporter.port(), "/healthz");
    EXPECT_NE(health.find("200 OK"), std::string::npos);
    EXPECT_NE(health.find("ok"), std::string::npos);

    std::string missing = httpGet(exporter.port(), "/nope");
    EXPECT_NE(missing.find("404"), std::string::npos);

    exporter.stop();
    EXPECT_GE(exporter.requestsServed(), 4u);
}
#endif // !_WIN32

// Many threads hammer the full ServeTelemetry hook surface while a
// renderer loops; correctness is checked via the exact terminal
// counters, the interleaving is for TSan.
TEST(ServeTelemetry, ConcurrentHooksReconcile)
{
    ServeTelemetry tel;
    tel.setShardCount(4);

    constexpr int kThreads = 4;
    constexpr int kPerThread = 2000;
    std::atomic<bool> stop{false};
    std::thread renderer([&] {
        while (!stop.load(std::memory_order_relaxed)) {
            std::ostringstream os;
            tel.registry().renderPrometheus(os, tel.nowUs());
            tel.registry().renderJsonLine(os, tel.nowUs());
        }
    });
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&, t] {
            for (int i = 0; i < kPerThread; ++i) {
                double tUs =
                    static_cast<double>(i) * 25.0 + t * 7.0;
                tel.onOffered(tUs);
                serve::QueryRecord q;
                q.id = static_cast<std::uint64_t>(t) * kPerThread +
                       i;
                q.arrivalUs = tUs;
                if (i % 10 == 0) {
                    tel.onAdmission(tUs,
                                    serve::Admission::ShedCapacity,
                                    5);
                } else {
                    tel.onAdmission(tUs, serve::Admission::Admitted,
                                    2);
                    tel.onAdmit(tUs + 5.0, 5.0);
                    tel.onBuild(tUs + 50.0, 45.0);
                    tel.onFinish(tUs + 90.0, 40.0);
                    tel.onShard(static_cast<std::size_t>(i % 4),
                                1e-5);
                    q.status = serve::QueryStatus::Done;
                    q.finishUs = tUs + 90.0;
                    q.metDeadline = true;
                }
                tel.onTerminal(tUs + 90.0, q, 0.0);
            }
        });
    }
    for (auto &w : workers)
        w.join();
    stop.store(true, std::memory_order_relaxed);
    renderer.join();

    const std::uint64_t total =
        static_cast<std::uint64_t>(kThreads) * kPerThread;
    EXPECT_EQ(tel.offered(), total);
    EXPECT_EQ(tel.completed() + tel.shed() + tel.expired(), total);
    EXPECT_EQ(tel.shed(), total / 10);
    EXPECT_EQ(tel.good(), total - total / 10);
}

} // namespace
