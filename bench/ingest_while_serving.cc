/**
 * @file
 * Mixed read/write serving: query tail latency vs ingest rate, with
 * and without concurrent background merges.
 *
 * One live segment index serves an open-loop query stream while an
 * ingest thread appends (and tombstone-deletes) documents at a
 * paced rate, refreshing every few milliseconds so writes become
 * visible continuously. The sweep steps the ingest rate from zero
 * to well past the refresh cadence's comfort zone, twice:
 *
 *  - merges_on: the background merger compacts segments while
 *    queries run, holding the per-query segment fan-out flat;
 *  - merges_off: segments accumulate unmerged for the whole point,
 *    so every query pays an ever-growing fan-out — the ablation
 *    that shows why concurrent merges are load-bearing.
 *
 * Each point reports achieved QPS and exact p50/p99/p999 latency
 * plus the ingest ledger (appended, deleted, segments baked,
 * merges). The headline: p99 with merges on stays near the
 * zero-ingest baseline at every rate, while merges_off drifts up
 * with the segment count.
 *
 * Output: a table per curve on stdout and BENCH_ingest.json with a
 * "merges_on" and a "merges_off" group (subgroup per rate point).
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "api/sharded_device.h"
#include "benchutil.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "serve/backend.h"
#include "serve/server.h"

namespace
{

using namespace boss;

constexpr std::uint32_t kVocab = 1000;
constexpr std::uint32_t kSeedDocs = 20'000;

std::vector<TermId>
syntheticDoc(Rng &rng)
{
    const auto len = 8 + static_cast<std::uint32_t>(rng.below(56));
    std::vector<TermId> tokens;
    tokens.reserve(len);
    for (std::uint32_t i = 0; i < len; ++i)
        tokens.push_back(static_cast<TermId>(rng.below(kVocab)));
    return tokens;
}

/**
 * Paced append/delete load against the live index, mirroring
 * boss_serve --ingest-rate: owed = elapsed * rate, one in ten
 * appends paired with a random delete, refresh every few ms.
 */
class IngestLoad
{
  public:
    IngestLoad(index::segments::LiveIndex &live, double docsPerSec,
               std::uint64_t seed)
        : live_(live), rate_(docsPerSec),
          rng_(splitSeed(seed, 77))
    {
    }

    void
    start()
    {
        if (rate_ <= 0.0)
            return;
        thread_ = std::thread([this] { run(); });
    }

    void
    stop()
    {
        stop_.store(true);
        if (thread_.joinable())
            thread_.join();
        live_.refresh();
    }

    std::uint64_t appended() const { return appended_; }
    std::uint64_t deleted() const { return deleted_; }

  private:
    void
    run()
    {
        const auto start = std::chrono::steady_clock::now();
        auto lastRefresh = start;
        while (!stop_.load(std::memory_order_relaxed)) {
            const auto now = std::chrono::steady_clock::now();
            const double secs =
                std::chrono::duration<double>(now - start).count();
            const auto owed =
                static_cast<std::uint64_t>(secs * rate_);
            while (appended_ < owed &&
                   !stop_.load(std::memory_order_relaxed)) {
                live_.append(syntheticDoc(rng_));
                ++appended_;
                if (rng_.below(10) == 0) {
                    const DocId watermark = live_.nextGlobalId();
                    if (watermark > 0 &&
                        live_.erase(static_cast<DocId>(
                            rng_.below(watermark))))
                        ++deleted_;
                }
            }
            if (now - lastRefresh >
                std::chrono::milliseconds(50)) {
                live_.refresh();
                lastRefresh = now;
            }
            std::this_thread::sleep_for(
                std::chrono::microseconds(500));
        }
    }

    index::segments::LiveIndex &live_;
    double rate_;
    Rng rng_;
    std::atomic<bool> stop_{false};
    std::thread thread_;
    std::uint64_t appended_ = 0;
    std::uint64_t deleted_ = 0;
};

struct Point
{
    double ingestRate = 0.0;
    bool merges = false;
    serve::ServeReport report;
    std::uint64_t appended = 0;
    std::uint64_t deleted = 0;
    std::uint64_t merged = 0;
    std::uint64_t baked = 0;
    std::uint32_t segmentsFinal = 0;
};

/** Fresh live device seeded with the same corpus every time. */
std::unique_ptr<api::ShardedDevice>
makeDevice()
{
    api::ShardedDeviceConfig cfg;
    cfg.device.k = 100; // cheap queries -> many completions/point
    auto device = std::make_unique<api::ShardedDevice>(cfg);
    index::segments::LiveIndexConfig live;
    live.termBoundHint = kVocab;
    live.maxBufferedDocs = 512;
    live.maxSegments = 4;
    live.mergeFanIn = 4;
    live.mergerPollMs = 2;
    device->loadLiveIndex(live);
    Rng rng(0x1A6E57);
    for (std::uint32_t d = 0; d < kSeedDocs; ++d)
        device->live().append(syntheticDoc(rng));
    device->live().refresh();
    // Start from the compacted steady state either way; the ablation
    // is about merges *during* the measurement, not a worse seed.
    while (device->live().mergeOnce()) {
    }
    return device;
}

serve::ServeReport
runServer(serve::Backend &backend,
          const std::vector<workload::Query> &queries, double qps,
          std::size_t count, std::uint64_t seed)
{
    serve::ServeConfig cfg;
    cfg.arrivals.qps = qps;
    cfg.arrivals.count = count;
    cfg.arrivals.seed = seed;
    cfg.policy = serve::ShedPolicy::DropTail;
    cfg.queueCapacity = 64;
    cfg.maxInFlight = 8;
    cfg.warmup = 64;
    serve::Server server(backend, cfg);
    return server.run(queries);
}

Point
runPoint(const std::vector<workload::Query> &queries,
         double queryQps, double ingestRate, bool merges,
         std::uint64_t seed)
{
    auto device = makeDevice();
    auto &live = device->live();
    serve::ShardedBackend backend(*device);
    IngestLoad ingest(live, ingestRate, seed);

    // Counter baselines: the seed bake/compaction isn't part of
    // the measurement.
    const auto merges0 = live.counters().merges.load();
    const auto baked0 = live.counters().segmentsBaked.load();

    if (merges)
        live.startMerger();
    ingest.start();
    Point p;
    p.ingestRate = ingestRate;
    p.merges = merges;
    p.report = runServer(
        backend, queries, queryQps,
        static_cast<std::size_t>(
            std::clamp(queryQps * 2.0, 2000.0, 40000.0)),
        seed);
    ingest.stop();
    if (merges)
        live.stopMerger();

    p.appended = ingest.appended();
    p.deleted = ingest.deleted();
    p.merged = live.counters().merges.load() - merges0;
    p.baked = live.counters().segmentsBaked.load() - baked0;
    p.segmentsFinal = live.segmentCount();
    return p;
}

} // namespace

int
main()
{
    // Leave two cores for the ingest thread and the merger when the
    // host has them, so the sweep measures the segment topology's
    // effect on queries, not bare CPU contention with the rebake.
    const unsigned hw =
        std::max(1u, std::thread::hardware_concurrency());
    common::ThreadPool::setGlobalThreads(hw > 3 ? hw - 2 : hw);

    workload::QueryWorkloadConfig qcfg;
    qcfg.vocabSize = kVocab;
    qcfg.seed = 7;
    auto queries = workload::sampleQueries(qcfg, 96);

    // Saturated drain rate with a quiet index, measured once; every
    // sweep point then offers a fixed fraction of it so latency
    // changes are attributable to ingest, not load.
    double capacity;
    {
        auto device = makeDevice();
        serve::ShardedBackend backend(*device);
        serve::ServeConfig cfg;
        cfg.arrivals.qps = 5e6;
        cfg.arrivals.count = 1500;
        cfg.arrivals.seed = 11;
        cfg.policy = serve::ShedPolicy::Block;
        cfg.queueCapacity = 512;
        cfg.warmup = 64;
        serve::Server server(backend, cfg);
        auto report = server.run(queries);
        BOSS_ASSERT(report.completed == report.offered,
                    "capacity run shed or expired queries");
        capacity = report.achievedQps;
    }
    const double queryQps = 0.5 * capacity;
    std::printf("seed corpus: %u docs, vocab %u; capacity %.0f qps, "
                "serving at %.0f qps\n",
                kSeedDocs, kVocab, capacity, queryQps);

    const std::vector<double> rates = {0.0, 500.0, 1000.0, 2000.0,
                                       4000.0};
    std::vector<std::vector<Point>> curves(2);
    for (std::size_t i = 0; i < rates.size(); ++i) {
        curves[0].push_back(
            runPoint(queries, queryQps, rates[i], true, 100 + i));
        curves[1].push_back(
            runPoint(queries, queryQps, rates[i], false, 100 + i));
    }

    for (std::size_t c = 0; c < 2; ++c) {
        std::printf("\n%s:\n",
                    c == 0 ? "merges_on" : "merges_off");
        std::printf("%-10s %10s %10s %10s %10s %8s %8s %8s %6s\n",
                    "ingest/s", "achieved", "p50 us", "p99 us",
                    "p999 us", "appended", "deleted", "merges",
                    "segs");
        for (const Point &p : curves[c]) {
            const serve::ServeReport &r = p.report;
            std::printf("%-10.0f %10.0f %10.1f %10.1f %10.1f %8llu "
                        "%8llu %8llu %6u\n",
                        p.ingestRate, r.achievedQps, r.latencyP50Us,
                        r.latencyP99Us, r.latencyP999Us,
                        static_cast<unsigned long long>(p.appended),
                        static_cast<unsigned long long>(p.deleted),
                        static_cast<unsigned long long>(p.merged),
                        p.segmentsFinal);
        }
    }

    // Headline ratios: the merged curve's worst p99 across all
    // ingest rates, relative to its own zero-ingest baseline.
    double p99Base = curves[0][0].report.latencyP99Us;
    double p99WorstOn = 0.0, p99WorstOff = 0.0;
    for (const Point &p : curves[0])
        p99WorstOn = std::max(p99WorstOn, p.report.latencyP99Us);
    for (const Point &p : curves[1])
        p99WorstOff = std::max(p99WorstOff, p.report.latencyP99Us);
    std::printf("\np99: baseline %.1f us, worst with merges %.1f us "
                "(%.2fx), worst without %.1f us (%.2fx)\n",
                p99Base, p99WorstOn, p99WorstOn / p99Base,
                p99WorstOff, p99WorstOff / p99Base);
    for (const Point &p : curves[0]) {
        BOSS_ASSERT(p.report.completed > 0,
                    "a merges_on point completed no queries");
        BOSS_ASSERT(
            p.ingestRate == 0.0 || p.merged > 0,
            "merger idle at ingest rate ", p.ingestRate);
    }

    bench::JsonReport report("ingest_while_serving");
    report.set(report.root(), "seed_docs",
               static_cast<double>(kSeedDocs),
               "documents in the pre-built live index");
    report.set(report.root(), "capacity_qps", capacity,
               "saturated drain rate with a quiet index");
    report.set(report.root(), "query_qps", queryQps,
               "fixed offered query rate for every point");
    report.set(report.root(), "p99_baseline_us", p99Base,
               "zero-ingest p99 (merges_on curve)");
    report.set(report.root(), "p99_worst_merges_on_us", p99WorstOn,
               "worst p99 across ingest rates, merger running");
    report.set(report.root(), "p99_worst_merges_off_us",
               p99WorstOff,
               "worst p99 across ingest rates, merger disabled");

    for (std::size_t c = 0; c < 2; ++c) {
        auto &curveGroup = report.root().subgroup(
            c == 0 ? "merges_on" : "merges_off");
        for (std::size_t i = 0; i < curves[c].size(); ++i) {
            const Point &p = curves[c][i];
            const serve::ServeReport &r = p.report;
            auto &g =
                curveGroup.subgroup("point" + std::to_string(i));
            report.set(g, "ingest_rate_dps", p.ingestRate,
                       "offered ingest rate (docs/sec)");
            report.set(g, "offered_qps", r.offeredQps,
                       "open-loop offered query rate");
            report.set(g, "achieved_qps", r.achievedQps,
                       "completions per second");
            report.set(g, "p50_us", r.latencyP50Us,
                       "median latency from scheduled arrival");
            report.set(g, "p99_us", r.latencyP99Us, "p99 latency");
            report.set(g, "p999_us", r.latencyP999Us,
                       "p999 latency");
            report.set(g, "completed",
                       static_cast<double>(r.completed),
                       "queries executed to completion");
            report.set(g, "shed", static_cast<double>(r.shed),
                       "queries refused at admission");
            report.set(g, "appended",
                       static_cast<double>(p.appended),
                       "documents appended during the point");
            report.set(g, "deleted",
                       static_cast<double>(p.deleted),
                       "documents tombstone-deleted");
            report.set(g, "segments_baked",
                       static_cast<double>(p.baked),
                       "segments baked from the append buffer");
            report.set(g, "merges",
                       static_cast<double>(p.merged),
                       "background merges completed");
            report.set(g, "segments_final",
                       static_cast<double>(p.segmentsFinal),
                       "segment count when the point ended");
        }
    }
    report.write("BENCH_ingest.json");
    return 0;
}
