/**
 * @file
 * boss_serve: always-on serving harness over a BOSS text index.
 *
 * Drives the simulated accelerator with a deterministic open-loop
 * query stream (latency is measured from each query's *scheduled*
 * arrival, so overload shows up as queueing delay instead of being
 * silently absorbed by a slow generator) and reports tail latency,
 * shedding and goodput.
 *
 * Usage:
 *   boss_serve [options] <index.idx>
 *   boss_serve [options] <segment-dir>
 *
 * Passing a segment directory (built with boss_indexer --append)
 * serves the live index inside it and enables mixed read/write
 * mode: an ingest thread appends synthetic documents at
 * --ingest-rate while the open-loop query stream runs, deleting a
 * --delete-fraction of them, refreshing every --refresh-ms, and
 * compacting with the background merger unless --no-merge. The
 * ingest counters land on the telemetry surface (boss_ingest_* on
 * /metrics and in --metrics-out snapshots) and a final "ingest:"
 * summary line reports totals.
 *
 * Every topology — one index file, its --shards split, or a segment
 * directory — is built as one api::ShardedDevice and served through
 * one serve::ShardedBackend.
 *
 * Options:
 *   --qps X              offered load in queries/sec (default 2000)
 *   --queries N          offered query count (default 2000)
 *   --distinct N         distinct sampled queries cycled through
 *                        the stream (default 64)
 *   --seed N             arrival + workload seed (default 42)
 *   --arrival=PROC       poisson | bursty (MMPP-2; default poisson)
 *   --queue N            admission queue capacity (default 256)
 *   --policy=POL         block | drop-tail | drop-deadline
 *                        (default drop-tail)
 *   --deadline-us X      per-query SLO from scheduled arrival
 *                        (default: none; enables goodput/shedding
 *                        by deadline)
 *   --warmup N           unrecorded warmup queries (default 32)
 *   --shards N           serve from N sharded devices (default 1)
 *   --threads N          host pool size (default: all hardware)
 *   --stats-json=FILE    the run's report as JSON: counts, exact
 *                        p50/p99/p999/max latency, admission counters
 *   --trace-out=FILE     Chrome trace of every query's queue/serve
 *                        spans (load in Perfetto)
 *   --metrics-out=FILE   append one JSONL metrics snapshot per
 *                        period while serving (see boss_top)
 *   --metrics-period-ms X  snapshot period (default 500)
 *   --metrics-port N     serve Prometheus /metrics (plus /flight
 *                        and /healthz) on this port; 0 = ephemeral
 *   --flight-out=FILE    flight-recorder dump (slowest + recent
 *                        shed queries) as Chrome trace at exit
 *   --kernels=TIER       scalar|avx2|auto (bit-exact tiers)
 *   --cache-mb N         DRAM block-cache tier of N MiB in front of
 *                        each device's SCM (index files only: a
 *                        segment dir's per-epoch devices would need
 *                        epoch-tagged cache keys); exports
 *                        boss_cache_* counters, summed over shards,
 *                        on the telemetry surface
 *   --mmap               mmap the index file (O(metadata) startup,
 *                        lazy per-block CRC; needs --shards 1, since
 *                        re-sharding decodes every payload unchecked)
 *   --ingest-rate X      live mode: appended docs/sec (default 0)
 *   --delete-fraction F  live mode: deletes per append (default 0.1)
 *   --refresh-ms X       live mode: publish period (default 50)
 *   --no-merge           live mode: disable background merges
 *
 * Results are bit-identical to batch searchBatch() for the same
 * query set — serving changes *when* work happens, never what it
 * computes.
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <optional>
#include <string>
#include <thread>

#include "api/sharded_device.h"
#include "common/rng.h"
#include "common/buildinfo.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "kernels/kernels.h"
#include "serve/server.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/http_exporter.h"
#include "telemetry/serve_telemetry.h"
#include "telemetry/snapshotter.h"
#include "trace/json.h"
#include "workload/queries.h"

namespace
{

struct Options
{
    double qps = 2000.0;
    std::size_t queries = 2000;
    std::size_t distinct = 64;
    std::uint64_t seed = 42;
    boss::serve::ArrivalProcess arrival =
        boss::serve::ArrivalProcess::Poisson;
    std::size_t queueCapacity = 256;
    boss::serve::ShedPolicy policy =
        boss::serve::ShedPolicy::DropTail;
    double deadlineUs =
        std::numeric_limits<double>::infinity();
    std::size_t warmup = 32;
    long shards = 1;
    std::string statsJson;
    std::string traceOut;
    std::string metricsOut;
    double metricsPeriodMs = 500.0;
    long metricsPort = -1; ///< -1 = no HTTP endpoint
    std::string flightOut;
    // Live (segment-dir) mode.
    double ingestRate = 0.0;
    double deleteFraction = 0.1;
    double refreshMs = 50.0;
    bool noMerge = false;
    // Out-of-core tier (index files only).
    double cacheMb = 0.0;
    bool mmap = false;
};

/**
 * Bridges the devices' block-cache counters onto the telemetry
 * surface: sync() polls the cache and traffic totals, summed over
 * shards, and applies deltas to the boss_cache_* counters (same
 * poll-and-delta shape as IngestDriver::syncMetrics, keeping
 * telemetry free of mem/ types).
 */
class CacheSync
{
  public:
    explicit CacheSync(boss::api::ShardedDevice &device)
        : device_(device)
    {
    }

    void
    registerMetrics(boss::telemetry::Registry &registry)
    {
        metrics_.registerInto(registry);
    }

    void
    sync()
    {
        boss::mem::BlockCache::Stats st;
        std::uint64_t dram = 0;
        std::uint64_t scm = 0;
        for (std::uint32_t s = 0; s < device_.numShards(); ++s) {
            const boss::accel::Device &dev = device_.shard(s);
            const boss::mem::BlockCache *cache = dev.blockCache();
            if (cache == nullptr)
                return;
            auto shard = cache->stats();
            st.lookups += shard.lookups;
            st.hits += shard.hits;
            st.misses += shard.misses;
            st.evictions += shard.evictions;
            dram += dev.totalDramBytes();
            scm += dev.totalScmBytes();
        }
        auto delta = [](boss::telemetry::Counter &counter,
                        std::uint64_t now, std::uint64_t &last) {
            counter.inc(now - last);
            last = now;
        };
        delta(metrics_.fetches, st.lookups, lastLookups_);
        delta(metrics_.hits, st.hits, lastHits_);
        delta(metrics_.misses, st.misses, lastMisses_);
        delta(metrics_.evictions, st.evictions, lastEvictions_);
        delta(metrics_.dramBytes, dram, lastDram_);
        delta(metrics_.scmBytes, scm, lastScm_);
    }

  private:
    boss::api::ShardedDevice &device_;
    boss::telemetry::CacheMetrics metrics_;
    std::uint64_t lastLookups_ = 0;
    std::uint64_t lastHits_ = 0;
    std::uint64_t lastMisses_ = 0;
    std::uint64_t lastEvictions_ = 0;
    std::uint64_t lastDram_ = 0;
    std::uint64_t lastScm_ = 0;
};

/**
 * The write side of mixed read/write serving: a thread appending
 * synthetic documents (and deleting a fraction of the corpus) into
 * the live index at a paced rate, publishing on a refresh timer,
 * while the server hammers the read side.
 */
class IngestDriver
{
  public:
    IngestDriver(boss::index::segments::LiveIndex &live,
                 const Options &opts)
        : live_(live), rate_(opts.ingestRate),
          deleteFraction_(opts.deleteFraction),
          refreshMs_(opts.refreshMs), merge_(!opts.noMerge),
          rng_(boss::splitSeed(opts.seed, 13))
    {
    }

    /** Expose boss_ingest_* metrics (before rendering starts). */
    void
    registerMetrics(boss::telemetry::Registry &registry)
    {
        metrics_.registerInto(registry);
    }

    void
    start()
    {
        if (merge_)
            live_.startMerger();
        syncMetrics();
        thread_ = std::thread([this] { run(); });
    }

    void
    stop()
    {
        stop_.store(true, std::memory_order_relaxed);
        if (thread_.joinable())
            thread_.join();
        live_.refresh();
        if (merge_)
            live_.stopMerger();
        syncMetrics();
    }

    void
    printSummary() const
    {
        const auto &c = live_.counters();
        std::printf(
            "ingest: appended %llu, deleted %llu, baked %llu "
            "segments, %llu merges, %llu refreshes; final epoch "
            "%llu, %u live docs in %u segments\n",
            static_cast<unsigned long long>(c.appended.load()),
            static_cast<unsigned long long>(c.erased.load()),
            static_cast<unsigned long long>(c.segmentsBaked.load()),
            static_cast<unsigned long long>(c.merges.load()),
            static_cast<unsigned long long>(c.refreshes.load()),
            static_cast<unsigned long long>(live_.epoch()),
            live_.liveDocs(),
            live_.segmentCount());
    }

  private:
    void
    run()
    {
        const std::uint32_t vocab = live_.termBound();
        const auto t0 = std::chrono::steady_clock::now();
        auto lastRefresh = t0;
        std::uint64_t appended = 0;
        while (!stop_.load(std::memory_order_relaxed)) {
            const auto now = std::chrono::steady_clock::now();
            const double secs =
                std::chrono::duration<double>(now - t0).count();
            const auto owed =
                static_cast<std::uint64_t>(secs * rate_);
            while (appended < owed &&
                   !stop_.load(std::memory_order_relaxed)) {
                appendOne(vocab);
                ++appended;
            }
            if (std::chrono::duration<double, std::milli>(
                    now - lastRefresh)
                    .count() >= refreshMs_) {
                live_.refresh();
                lastRefresh = now;
                syncMetrics();
            }
            std::this_thread::sleep_for(
                std::chrono::microseconds(500));
        }
    }

    void
    appendOne(std::uint32_t vocab)
    {
        const auto len =
            8 + static_cast<std::uint32_t>(rng_.below(56));
        std::vector<boss::TermId> tokens(len);
        for (auto &t : tokens)
            t = static_cast<boss::TermId>(rng_.below(vocab));
        live_.append(tokens);
        constexpr std::uint64_t kScale = 1u << 20;
        if (rng_.below(kScale) <
            static_cast<std::uint64_t>(deleteFraction_ * kScale)) {
            // A random victim may already be deleted or merged
            // away; a few retries keep the realized delete rate
            // close to the requested fraction.
            for (int tries = 0; tries < 4; ++tries) {
                const auto victim = static_cast<boss::DocId>(
                    rng_.below(live_.nextGlobalId()));
                if (live_.erase(victim))
                    break;
            }
        }
    }

    void
    syncMetrics()
    {
        const auto &c = live_.counters();
        auto delta = [](boss::telemetry::Counter &counter,
                        const std::atomic<std::uint64_t> &source,
                        std::uint64_t &last) {
            const std::uint64_t now = source.load();
            counter.inc(now - last);
            last = now;
        };
        delta(metrics_.docsAppended, c.appended, lastAppended_);
        delta(metrics_.docsDeleted, c.erased, lastErased_);
        delta(metrics_.segmentsBaked, c.segmentsBaked, lastBaked_);
        delta(metrics_.merges, c.merges, lastMerges_);
        delta(metrics_.refreshes, c.refreshes, lastRefreshes_);
        metrics_.liveDocs.set(
            static_cast<double>(live_.liveDocs()));
        metrics_.segments.set(
            static_cast<double>(live_.segmentCount()));
        metrics_.epoch.set(
            static_cast<double>(live_.epoch()));
        metrics_.bufferedDocs.set(
            static_cast<double>(live_.bufferedDocs()));
    }

    boss::index::segments::LiveIndex &live_;
    double rate_;
    double deleteFraction_;
    double refreshMs_;
    bool merge_;
    boss::Rng rng_;
    boss::telemetry::IngestMetrics metrics_;
    std::uint64_t lastAppended_ = 0;
    std::uint64_t lastErased_ = 0;
    std::uint64_t lastBaked_ = 0;
    std::uint64_t lastMerges_ = 0;
    std::uint64_t lastRefreshes_ = 0;
    std::atomic<bool> stop_{false};
    std::thread thread_;
};

/** Build-identity labels every metrics surface carries. */
std::vector<boss::telemetry::Label>
buildLabels()
{
    return {{"git", std::string(boss::common::buildGitHash())},
            {"compiler", std::string(boss::common::buildCompiler())},
            {"kernels",
             std::string(boss::kernels::activeTierName())}};
}

/**
 * The run's ServeReport as one JSON object, after the build stamp (so
 * any checked-in report names the binary that produced it).
 */
void
writeStatsJson(std::ostream &os, const boss::serve::ServeReport &r)
{
    os << "{\"build\": {";
    const char *sep = "";
    for (const auto &label : buildLabels()) {
        os << sep;
        boss::trace::json::writeString(os, label.key);
        os << ": ";
        boss::trace::json::writeString(os, label.value);
        sep = ", ";
    }
    const boss::serve::AdmissionCounters &a = r.admission;
    os << std::fixed << std::setprecision(3)
       << "}, \"serve\": {\"offered\": " << r.offered
       << ", \"completed\": " << r.completed
       << ", \"shed\": " << r.shed << ", \"expired\": " << r.expired
       << ", \"good\": " << r.good
       << ", \"elapsed_us\": " << r.elapsedUs
       << ", \"offered_qps\": " << r.offeredQps
       << ", \"achieved_qps\": " << r.achievedQps
       << ", \"goodput_qps\": " << r.goodputQps
       << ", \"latency_us\": {\"p50\": " << r.latencyP50Us
       << ", \"p99\": " << r.latencyP99Us
       << ", \"p999\": " << r.latencyP999Us
       << ", \"max\": " << r.latencyMaxUs
       << "}, \"queue_wait_p99_us\": " << r.queueWaitP99Us
       << ", \"admission\": {\"offered\": " << a.offered
       << ", \"admitted\": " << a.admitted
       << ", \"shed_capacity\": " << a.shedCapacity
       << ", \"shed_deadline\": " << a.shedDeadline
       << ", \"rejected_closed\": " << a.rejectedClosed
       << ", \"peak_depth\": " << a.peakDepth << "}}}\n";
}

bool
matchValueFlag(const char *arg, const char *name, std::string &out)
{
    std::size_t len = std::strlen(name);
    if (std::strncmp(arg, name, len) != 0 || arg[len] != '=')
        return false;
    out = arg + len + 1;
    return true;
}

long
numberAfter(int &argi, int argc, char **argv, const char *flag)
{
    long n = argi + 1 < argc
                 ? std::strtol(argv[argi + 1], nullptr, 10)
                 : -1;
    if (n < 0) {
        std::fprintf(stderr, "%s wants a non-negative number\n",
                     flag);
        std::exit(2);
    }
    argi += 2;
    return n;
}

/** numberAfter() for a count that must be at least 1. */
long
countAfter(int &argi, int argc, char **argv, const char *flag)
{
    long n = numberAfter(argi, argc, argv, flag);
    if (n < 1) {
        std::fprintf(stderr, "%s wants a positive count\n", flag);
        std::exit(2);
    }
    return n;
}

/**
 * Serving samples its queries from the index's terms, so it needs
 * the sampler's vocabulary floor; false (after saying so) below it.
 */
bool
enoughTerms(const char *path, std::uint32_t vocab)
{
    if (vocab >= boss::workload::kMinVocabSize)
        return true;
    std::fprintf(stderr,
                 "'%s' has %u terms; boss_serve samples its queries "
                 "from at least %u\n",
                 path, vocab, boss::workload::kMinVocabSize);
    return false;
}

int
serveSession(boss::serve::Backend &backend, std::uint32_t vocab,
             const Options &opts, IngestDriver *ingest = nullptr,
             CacheSync *cacheSync = nullptr)
{
    boss::workload::QueryWorkloadConfig wcfg;
    wcfg.vocabSize = vocab;
    wcfg.seed = boss::splitSeed(opts.seed, 7);
    auto queries =
        boss::workload::sampleQueries(wcfg, opts.distinct);

    boss::serve::ServeConfig scfg;
    scfg.arrivals.process = opts.arrival;
    scfg.arrivals.qps = opts.qps;
    scfg.arrivals.count = opts.queries;
    scfg.arrivals.seed = boss::splitSeed(opts.seed, 11);
    scfg.queueCapacity = opts.queueCapacity;
    scfg.policy = opts.policy;
    scfg.deadlineUs = opts.deadlineUs;
    scfg.warmup = opts.warmup;

    boss::serve::Server server(backend, scfg);

    // Live telemetry: any metrics/flight surface turns it on.
    const bool wantTelemetry = !opts.metricsOut.empty() ||
                               opts.metricsPort >= 0 ||
                               !opts.flightOut.empty();
    std::optional<boss::telemetry::ServeTelemetry> telemetry;
    std::optional<boss::telemetry::Snapshotter> snapshotter;
    std::optional<boss::telemetry::HttpExporter> exporter;
    if (wantTelemetry) {
        telemetry.emplace();
        telemetry->setBuildInfo(buildLabels());
        server.setTelemetry(&*telemetry);
        if (ingest != nullptr)
            ingest->registerMetrics(telemetry->registry());
        if (cacheSync != nullptr)
            cacheSync->registerMetrics(telemetry->registry());
        auto clock = [tel = &*telemetry] { return tel->nowUs(); };
        if (!opts.metricsOut.empty()) {
            boss::telemetry::Snapshotter::Config cfg;
            cfg.jsonlPath = opts.metricsOut;
            cfg.periodMs = opts.metricsPeriodMs;
            snapshotter.emplace(telemetry->registry(), clock, cfg);
            snapshotter->start();
        }
        if (opts.metricsPort >= 0) {
            boss::telemetry::HttpExporter::Config cfg;
            cfg.port =
                static_cast<std::uint16_t>(opts.metricsPort);
            exporter.emplace(telemetry->registry(),
                             &telemetry->flight(), clock, cfg);
            std::string error;
            if (exporter->start(&error)) {
                std::printf("metrics endpoint on port %u "
                            "(/metrics /flight /healthz)\n",
                            exporter->port());
            } else {
                std::fprintf(stderr,
                             "metrics endpoint disabled: %s\n",
                             error.c_str());
                exporter.reset();
            }
        }
    }

    if (ingest != nullptr)
        ingest->start();
    auto report = server.run(queries);
    if (ingest != nullptr) {
        ingest->stop();
        ingest->printSummary();
    }
    // Final cache-counter sync before the snapshotter drains: the
    // last snapshot (the one CI reconciles) carries the totals.
    if (cacheSync != nullptr)
        cacheSync->sync();

    if (snapshotter.has_value()) {
        snapshotter->stop();
        std::printf("wrote %llu metrics snapshots to %s\n",
                    static_cast<unsigned long long>(
                        snapshotter->snapshots()),
                    opts.metricsOut.c_str());
    }
    if (exporter.has_value())
        exporter->stop();
    if (!opts.flightOut.empty()) {
        std::ofstream os(opts.flightOut);
        if (!os)
            BOSS_FATAL("cannot open '", opts.flightOut,
                       "' for writing");
        boss::telemetry::dumpChromeTrace(os,
                                         telemetry->flight().entries());
        std::printf("wrote flight recorder (%zu slow, %zu shed) "
                    "to %s\n",
                    telemetry->flight().slowCount(),
                    telemetry->flight().shedCount(),
                    opts.flightOut.c_str());
    }

    std::printf(
        "offered %llu queries @ %.1f qps (%s, %s), elapsed "
        "%.1f ms\n",
        static_cast<unsigned long long>(report.offered),
        report.offeredQps,
        opts.arrival == boss::serve::ArrivalProcess::Poisson
            ? "poisson"
            : "bursty",
        opts.policy == boss::serve::ShedPolicy::Block ? "block"
        : opts.policy == boss::serve::ShedPolicy::DropTail
            ? "drop-tail"
            : "drop-deadline",
        report.elapsedUs / 1e3);
    std::printf("completed %llu, shed %llu, expired %llu; "
                "achieved %.1f qps\n",
                static_cast<unsigned long long>(report.completed),
                static_cast<unsigned long long>(report.shed),
                static_cast<unsigned long long>(report.expired),
                report.achievedQps);
    double goodPct =
        report.offered == 0
            ? 0.0
            : 100.0 * static_cast<double>(report.good) /
                  static_cast<double>(report.offered);
    std::printf("goodput: %.2f%% (%llu/%llu within deadline, "
                "%.1f qps)\n",
                goodPct,
                static_cast<unsigned long long>(report.good),
                static_cast<unsigned long long>(report.offered),
                report.goodputQps);
    std::printf("latency us: p50 %.1f  p99 %.1f  p999 %.1f  "
                "max %.1f  (queue wait p99 %.1f)\n",
                report.latencyP50Us, report.latencyP99Us,
                report.latencyP999Us, report.latencyMaxUs,
                report.queueWaitP99Us);

    if (!opts.statsJson.empty()) {
        std::ofstream os(opts.statsJson);
        if (!os)
            BOSS_FATAL("cannot open '", opts.statsJson,
                       "' for writing");
        writeStatsJson(os, report);
    }
    if (!opts.traceOut.empty()) {
        std::ofstream os(opts.traceOut);
        if (!os)
            BOSS_FATAL("cannot open '", opts.traceOut,
                       "' for writing");
        std::vector<boss::telemetry::FlightEntry> entries;
        entries.reserve(report.records.size());
        for (const auto &rec : report.records)
            entries.push_back({rec, 0.0});
        boss::telemetry::dumpChromeTrace(os, entries);
        std::printf("wrote %zu query records to %s\n", entries.size(),
                    opts.traceOut.c_str());
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    int argi = 1;
    while (argi < argc && argv[argi][0] == '-') {
        std::string arg = argv[argi];
        std::string value;
        if (arg == "--qps") {
            double q = argi + 1 < argc
                           ? std::strtod(argv[argi + 1], nullptr)
                           : 0.0;
            if (q <= 0.0) {
                std::fprintf(stderr, "--qps wants a positive rate\n");
                return 2;
            }
            opts.qps = q;
            argi += 2;
        } else if (arg == "--queries") {
            opts.queries = static_cast<std::size_t>(
                numberAfter(argi, argc, argv, "--queries"));
        } else if (arg == "--distinct") {
            opts.distinct = static_cast<std::size_t>(
                countAfter(argi, argc, argv, "--distinct"));
        } else if (arg == "--seed") {
            opts.seed = static_cast<std::uint64_t>(
                numberAfter(argi, argc, argv, "--seed"));
        } else if (arg == "--queue") {
            opts.queueCapacity = static_cast<std::size_t>(
                countAfter(argi, argc, argv, "--queue"));
        } else if (arg == "--warmup") {
            opts.warmup = static_cast<std::size_t>(
                numberAfter(argi, argc, argv, "--warmup"));
        } else if (arg == "--shards") {
            opts.shards = countAfter(argi, argc, argv, "--shards");
        } else if (arg == "--threads") {
            boss::common::ThreadPool::setGlobalThreads(
                static_cast<std::size_t>(
                    countAfter(argi, argc, argv, "--threads")));
        } else if (arg == "--deadline-us") {
            double d = argi + 1 < argc
                           ? std::strtod(argv[argi + 1], nullptr)
                           : 0.0;
            if (d <= 0.0) {
                std::fprintf(stderr,
                             "--deadline-us wants a positive "
                             "deadline\n");
                return 2;
            }
            opts.deadlineUs = d;
            argi += 2;
        } else if (matchValueFlag(argv[argi], "--arrival", value)) {
            if (value == "poisson") {
                opts.arrival = boss::serve::ArrivalProcess::Poisson;
            } else if (value == "bursty") {
                opts.arrival = boss::serve::ArrivalProcess::Bursty;
            } else {
                std::fprintf(stderr,
                             "--arrival wants poisson|bursty\n");
                return 2;
            }
            ++argi;
        } else if (matchValueFlag(argv[argi], "--policy", value)) {
            if (value == "block") {
                opts.policy = boss::serve::ShedPolicy::Block;
            } else if (value == "drop-tail") {
                opts.policy = boss::serve::ShedPolicy::DropTail;
            } else if (value == "drop-deadline") {
                opts.policy = boss::serve::ShedPolicy::DropDeadline;
            } else {
                std::fprintf(stderr,
                             "--policy wants block|drop-tail|"
                             "drop-deadline\n");
                return 2;
            }
            ++argi;
        } else if (arg == "--metrics-port") {
            opts.metricsPort =
                numberAfter(argi, argc, argv, "--metrics-port");
            if (opts.metricsPort > 65535) {
                std::fprintf(stderr,
                             "--metrics-port wants 0..65535\n");
                return 2;
            }
        } else if (arg == "--metrics-period-ms") {
            double p = argi + 1 < argc
                           ? std::strtod(argv[argi + 1], nullptr)
                           : 0.0;
            if (p <= 0.0) {
                std::fprintf(stderr,
                             "--metrics-period-ms wants a positive "
                             "period\n");
                return 2;
            }
            opts.metricsPeriodMs = p;
            argi += 2;
        } else if (matchValueFlag(argv[argi], "--stats-json",
                                  opts.statsJson) ||
                   matchValueFlag(argv[argi], "--trace-out",
                                  opts.traceOut) ||
                   matchValueFlag(argv[argi], "--metrics-out",
                                  opts.metricsOut) ||
                   matchValueFlag(argv[argi], "--flight-out",
                                  opts.flightOut)) {
            ++argi;
        } else if (arg == "--ingest-rate") {
            double r = argi + 1 < argc
                           ? std::strtod(argv[argi + 1], nullptr)
                           : -1.0;
            if (r < 0.0) {
                std::fprintf(stderr,
                             "--ingest-rate wants a non-negative "
                             "rate\n");
                return 2;
            }
            opts.ingestRate = r;
            argi += 2;
        } else if (arg == "--delete-fraction") {
            double f = argi + 1 < argc
                           ? std::strtod(argv[argi + 1], nullptr)
                           : -1.0;
            if (f < 0.0 || f > 1.0) {
                std::fprintf(stderr,
                             "--delete-fraction wants 0..1\n");
                return 2;
            }
            opts.deleteFraction = f;
            argi += 2;
        } else if (arg == "--refresh-ms") {
            double p = argi + 1 < argc
                           ? std::strtod(argv[argi + 1], nullptr)
                           : 0.0;
            if (p <= 0.0) {
                std::fprintf(stderr,
                             "--refresh-ms wants a positive "
                             "period\n");
                return 2;
            }
            opts.refreshMs = p;
            argi += 2;
        } else if (arg == "--no-merge") {
            opts.noMerge = true;
            ++argi;
        } else if (arg == "--cache-mb") {
            double mb = argi + 1 < argc
                            ? std::strtod(argv[argi + 1], nullptr)
                            : 0.0;
            if (mb <= 0.0) {
                std::fprintf(stderr,
                             "--cache-mb wants a positive size\n");
                return 2;
            }
            opts.cacheMb = mb;
            argi += 2;
        } else if (arg == "--mmap") {
            opts.mmap = true;
            ++argi;
        } else if (matchValueFlag(argv[argi], "--kernels", value)) {
            if (!boss::kernels::setTierByName(value)) {
                std::fprintf(stderr,
                             "--kernels wants scalar|avx2|auto, "
                             "got '%s'\n",
                             value.c_str());
                return 2;
            }
            ++argi;
        } else {
            std::fprintf(stderr, "unknown option '%s'\n",
                         argv[argi]);
            return 2;
        }
    }
    if (argi >= argc) {
        std::fprintf(
            stderr,
            "usage: %s [--qps X] [--queries N] [--distinct N] "
            "[--seed N] [--arrival=poisson|bursty] [--queue N] "
            "[--policy=block|drop-tail|drop-deadline] "
            "[--deadline-us X] "
            "[--warmup N] [--shards N] [--threads N] "
            "[--stats-json=FILE] [--trace-out=FILE] "
            "[--metrics-out=FILE] "
            "[--metrics-period-ms X] [--metrics-port N] "
            "[--flight-out=FILE] [--kernels=TIER] "
            "[--ingest-rate X] [--delete-fraction F] "
            "[--refresh-ms X] [--no-merge] [--cache-mb N] [--mmap] "
            "<index.idx | segment-dir>\n",
            argv[0]);
        return 2;
    }
    // Startup stamp: every serve log names the binary behind it.
    std::printf("boss_serve %s, kernels %.*s\n",
                boss::common::buildStamp().c_str(),
                static_cast<int>(
                    boss::kernels::activeTierName().size()),
                boss::kernels::activeTierName().data());

    const bool segmentDir = std::filesystem::is_directory(argv[argi]);
    if (opts.mmap && opts.shards > 1) {
        std::fprintf(stderr,
                     "--mmap needs --shards 1: re-sharding decodes "
                     "the mapped payloads without checking their "
                     "block CRCs\n");
        return 2;
    }
    if ((opts.cacheMb > 0 || opts.mmap) && segmentDir) {
        std::fprintf(stderr,
                     "--cache-mb and --mmap serve index files only: a "
                     "segment dir's per-epoch devices would need "
                     "epoch-tagged cache keys\n");
        return 2;
    }

    boss::api::ShardedDeviceConfig cfg;
    cfg.shards = static_cast<std::uint32_t>(opts.shards);
    cfg.device.cacheMB = opts.cacheMb;
    boss::api::ShardedDevice device(cfg);
    std::uint32_t vocab = 0;
    std::optional<IngestDriver> ingest;
    if (segmentDir) {
        // Live mode: serve the segment directory while ingesting.
        const std::filesystem::path dir = argv[argi];
        std::ifstream ls(dir / "lexicon", std::ios::binary);
        if (!ls) {
            std::fprintf(stderr,
                         "'%s' has no lexicon; build it with "
                         "boss_indexer --append\n",
                         argv[argi]);
            return 1;
        }
        vocab = boss::index::Lexicon::load(ls).size();
        if (!enoughTerms(argv[argi], vocab))
            return 1;
        boss::index::segments::LiveIndexConfig live;
        live.dir = dir.string();
        live.termBoundHint = vocab;
        device.loadLiveIndex(live);
        std::printf("loaded live index: %u docs in %u segments, "
                    "epoch %llu, %u terms\n",
                    device.live().liveDocs(),
                    device.live().segmentCount(),
                    static_cast<unsigned long long>(
                        device.live().epoch()),
                    vocab);
        ingest.emplace(device.live(), opts);
    } else {
        if (opts.mmap)
            device.loadMappedTextIndexFile(argv[argi]);
        else
            device.loadTextIndexFile(argv[argi]);
        vocab = device.shard(0).lexicon().size();
        if (!enoughTerms(argv[argi], vocab))
            return 1;
        std::printf("loaded %u docs / %u terms", device.map().numDocs(),
                    vocab);
        if (device.numShards() > 1)
            std::printf(" across %u shards", device.numShards());
        std::printf("%s%s\n", opts.mmap ? " (mmap)" : "",
                    opts.cacheMb > 0 ? ", DRAM block cache on" : "");
    }
    boss::serve::ShardedBackend backend(device);
    CacheSync cacheSync(device);
    return serveSession(backend, vocab, opts,
                        ingest ? &*ingest : nullptr,
                        opts.cacheMb > 0 ? &cacheSync : nullptr);
}
