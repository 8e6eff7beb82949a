/**
 * @file
 * ccnews-4shard: a 4-shard device group over the CC-News-like corpus,
 * uniform Q1-Q6 queries at k = 10, served open-loop (Poisson arrivals
 * at a fixed rate, DropTail admission, a deadline) and closed-loop at
 * two depths.
 *
 * At k = 10 WAND prunes hard, so scoring does little; each query
 * still pays four shard builds, four replays and a host merge. This is
 * the latency view of the api and serve layers. The open-loop rate is
 * about 1/5 of this workload's saturated rate (about 200 qps with 3
 * workers on a 4-core host) and fixed, so a change that slows the
 * query shows as latency, not as a different load.
 *
 * The open loop reports its p90, not its median: the latencies are
 * bimodal (AND and one-term queries finish in about a millisecond, OR
 * queries take 10-60 ms, and a light query admitted behind a heavy one
 * waits for it), so the median falls in the gap between the modes,
 * where a 5-point percentile step moves it by 40%. Capacity and the
 * tails come from closed-loop passes, whose response times add up the
 * work of every outstanding query and so are unimodal.
 */

#include <cmath>
#include <memory>

#include "api/sharded_device.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "engine/execute.h"
#include "engine/plan.h"
#include "ledger.h"
#include "serve/backend.h"
#include "serve/server.h"
#include "telemetry/serve_telemetry.h"
#include "workload/corpus.h"
#include "workload/queries.h"
#include "workloads.h"

namespace perfbench
{

using namespace boss;

namespace
{

constexpr std::size_t kTopK = 10;
constexpr std::uint32_t kShards = 4;
constexpr std::size_t kQueries = 500;
constexpr double kOpenQps = 40.0;
/**
 * Seed of the open loop's Poisson schedule. Like the query shapes
 * (kQuerySamplerSeed), the schedule belongs to the workload, not to the
 * run seed: which light queries arrive behind a heavy one sets the
 * open-loop p90, and a fresh schedule per seed doubled its
 * seed-to-seed spread (0.20 against 0.10 over five seeds).
 */
constexpr std::uint64_t kArrivalSeed = 7;
/** The open loop completes at least this many queries. */
constexpr std::size_t kMinOpenLoopQueries = 1000;
/** Latency limit: completions later than this are not goodput. */
constexpr double kDeadlineMs = 500.0;
constexpr std::size_t kQueueCapacity = 64;
constexpr std::size_t kMaxInFlight = 8;
/** Closed-loop depths (queued + in flight), as on clueweb-saturated. */
constexpr std::size_t kDepthLo = 16;
constexpr std::size_t kDepthHi = 64;
/**
 * Serving is split into this many blocks, each with a share of the
 * open-loop queries and one closed-loop pass per depth over half the
 * query set, so a host slowdown that lasts part of a run lands on
 * every metric a little rather than on one metric whole.
 */
constexpr std::size_t kBlocks = 4;

} // namespace

void
runCcnews(const Options &opt, RunResult &result, SpanLog &spans)
{
    const std::size_t pool = poolSizeFor(1);
    common::ThreadPool::setGlobalThreads(pool);
    noteAttribution(result, opt, pool);

    workload::CorpusConfig corpusCfg = workload::ccNewsConfig();
    corpusCfg.seed = streamSeed(opt.seed, 1);
    workload::QueryWorkloadConfig queryCfg;
    queryCfg.vocabSize = corpusCfg.vocabSize;
    queryCfg.seed = kQuerySamplerSeed;
    api::ShardedDeviceConfig deviceCfg;
    deviceCfg.shards = kShards;
    deviceCfg.device.k = kTopK;

    // ---- Set-up (repeated; the last one is served).
    std::vector<double> setupS, corpusS, buildS;
    std::unique_ptr<api::ShardedDevice> device;
    std::vector<workload::Query> queries;
    std::uint64_t corpusPrint = kFnvBasis;
    for (int r = 0; r < kSetupRepeats; ++r) {
        device.reset();
        const auto t0 = Clock::now();
        const workload::Corpus corpus(corpusCfg);
        queries = jitterQueries(workload::sampleQueries(queryCfg, kQueries),
                                corpusCfg.vocabSize, streamSeed(opt.seed, 2));
        const auto terms = workload::collectTerms(queries);
        const double c = secondsSince(t0);
        const auto t1 = Clock::now();
        device = std::make_unique<api::ShardedDevice>(deviceCfg);
        device->loadShards(corpus.buildShardedIndex(terms, kShards));
        const double b = secondsSince(t1);
        corpusS.push_back(c);
        buildS.push_back(b);
        setupS.push_back(c + b);
        corpusPrint = kFnvBasis;
        for (std::uint32_t s = 0; s < device->numShards(); ++s)
            corpusPrint =
                fnv(corpusPrint, device->shard(s).index().sizeBytes());
        for (std::uint32_t len : corpus.docLengths())
            corpusPrint = fnv(corpusPrint, len);
    }
    const std::size_t nq = queries.size();
    noteInputs(result, queries, corpusPrint);
    result.noteList("setup_s_repeats", setupS);

    // ---- Modeled: the query set as one batch on every shard.
    const api::ShardedOutcome batch = device->searchBatch(queries);

    // ---- Serving, in blocks. The served top-k lists are checked
    // against the oracle after the run, so the oracle's memory stays
    // out of peak_rss_mb.
    std::vector<std::pair<std::size_t, std::vector<engine::Result>>>
        servedTopk;
    serve::ShardedBackend backend(*device);
    TimedBackend timed(backend);
    TimedBackend *timedPtr = opt.trace ? &timed : nullptr;
    telemetry::ServeTelemetry telemetry;
    std::vector<double> simSeconds(nq, -1.0);
    std::uint64_t groupBase = 0;
    const std::size_t count = std::max(
        kMinOpenLoopQueries,
        static_cast<std::size_t>(std::ceil(kOpenQps * opt.seconds)));

    // A session cycles through the query set from its start, so one
    // that should continue where the last left off gets the set
    // rotated by @p offset.
    auto serveChecked = [&](const serve::ServeConfig &cfg,
                            std::size_t offset, TimedBackend *t,
                            PhaseStats &phase) {
        std::vector<workload::Query> order(queries.begin() + offset,
                                           queries.end());
        order.insert(order.end(), queries.begin(), queries.begin() + offset);
        const serve::ServeReport report = servePhase(
            backend, t, cfg, order, phase, spans, groupBase, &telemetry);
        for (const serve::QueryRecord &rec : report.records) {
            if (rec.status != serve::QueryStatus::Done) {
                result.check(false, "query served (not shed or expired)");
                continue;
            }
            const std::size_t qi = (rec.queryIndex + offset) % nq;
            servedTopk.emplace_back(qi, rec.topk);
            double &sim = simSeconds[qi];
            if (sim < 0.0)
                sim = rec.simSeconds;
            else
                result.check(sim == rec.simSeconds,
                             "modeled time repeats for one query");
        }
    };
    auto closedLoop = [&](std::size_t depth, std::uint64_t seed) {
        serve::ServeConfig cfg;
        cfg.arrivals.qps = 1e7;
        cfg.arrivals.count = nq / 2;
        cfg.arrivals.seed = seed;
        cfg.policy = serve::ShedPolicy::Block;
        cfg.queueCapacity = depth - kMaxInFlight;
        cfg.maxInFlight = kMaxInFlight;
        cfg.warmup = 8;
        return cfg;
    };
    // Each block: a quarter of the open-loop queries, then one
    // closed-loop pass per depth over half the query set (Block
    // admission far above capacity), so every query is served twice at
    // each depth. A traced run adds an untimed depth-16 pass as its
    // overhead baseline.
    PhaseStats open, lo, hi, loUntimed;
    const std::size_t openPerBlock = count / kBlocks;
    for (std::size_t b = 0; b < kBlocks; ++b) {
        serve::ServeConfig openCfg;
        openCfg.arrivals.qps = kOpenQps;
        openCfg.arrivals.count = openPerBlock;
        openCfg.arrivals.seed = streamSeed(kArrivalSeed, 30 + b);
        openCfg.policy = serve::ShedPolicy::DropTail;
        openCfg.queueCapacity = kQueueCapacity;
        openCfg.maxInFlight = kMaxInFlight;
        openCfg.deadlineUs = kDeadlineMs * 1e3;
        openCfg.warmup = 8;
        serveChecked(openCfg, b * openPerBlock % nq, timedPtr, open);

        const std::size_t half = b * (nq / 2) % nq;
        serveChecked(closedLoop(kDepthLo, streamSeed(opt.seed, 20 + b)),
                     half, timedPtr, lo);
        serveChecked(closedLoop(kDepthHi, streamSeed(opt.seed, 40 + b)),
                     half, timedPtr, hi);
        if (opt.trace)
            serveChecked(closedLoop(kDepthLo, streamSeed(opt.seed, 20 + b)),
                         half, nullptr, loUntimed);
    }
    result.check(telemetry.offered() == telemetry.completed() +
                                            telemetry.shed() +
                                            telemetry.expired(),
                 "telemetry reconciles offered == completed+shed+expired");
    const double peakMb = peakRssMb();

    // ---- Oracle, outside set-up and after the peak is read: naiveTopK
    // on an unsharded index. Serving is over, so it gets every core.
    std::vector<std::vector<engine::Result>> oracle(nq);
    common::ThreadPool::setGlobalThreads(poolSizeFor(0));
    {
        const workload::Corpus corpus(corpusCfg);
        const index::InvertedIndex whole =
            corpus.buildIndex(workload::collectTerms(queries));
        common::ThreadPool::global().parallelFor(nq, [&](std::size_t i) {
            oracle[i] = engine::naiveTopK(
                whole, engine::planQuery(queries[i]), kTopK);
        });
    }
    for (std::size_t i = 0; i < nq; ++i)
        result.check(batch.perQuery[i] == oracle[i],
                     "sharded batch top-k equals unsharded naiveTopK");
    for (const auto &[qi, topk] : servedTopk)
        result.check(topk == oracle[qi],
                     "served top-k equals unsharded naiveTopK");

    double simSum = 0.0;
    std::size_t simCount = 0;
    for (double s : simSeconds) {
        if (s >= 0.0) {
            simSum += s;
            ++simCount;
        }
    }
    std::vector<double> roundQps = lo.roundQps;
    roundQps.insert(roundQps.end(), hi.roundQps.begin(), hi.roundQps.end());

    result.note("queries", static_cast<double>(nq));
    result.note("shards", kShards);
    result.note("open_qps_offered", kOpenQps);
    result.note("deadline_ms", kDeadlineMs);
    result.note("open_outstanding_max",
                static_cast<double>(kQueueCapacity + kMaxInFlight));
    result.note("depth_lo_outstanding", static_cast<double>(kDepthLo));
    result.note("depth_hi_outstanding", static_cast<double>(kDepthHi));
    result.note("blocks", static_cast<double>(kBlocks));
    notePhase(result, "open", open);
    // Reported but not gated: see the file comment.
    result.note("open.latency_p50_ms", median(open.latencyMs));
    result.note("open.latency_p99_ms", percentile(open.latencyMs, 0.99));
    notePhase(result, "lo", lo);
    notePhase(result, "hi", hi);
    reportModeled(result, opt, static_cast<double>(nq) / batch.simSeconds,
                  simSum / static_cast<double>(simCount) * 1e6,
                  static_cast<double>(batch.deviceBytes) /
                      static_cast<double>(nq));

    if (!opt.trace) {
        result.metric("setup_s", median(setupS), "s");
        result.metric("peak_rss_mb", peakMb, "MB");
        result.metric("host_qps", median(roundQps), "1/s");
        result.metric("p90_ms", percentile(open.latencyMs, 0.90), "ms");
        result.metric("p99_ms", percentile(lo.responseMs, 0.99), "ms");
        result.metric("p99_hi_ms", percentile(hi.responseMs, 0.99), "ms");
        return;
    }

    result.metric("trace.overhead_frac",
                  1.0 - median(lo.roundQps) / median(loUntimed.roundQps),
                  "fraction");
    result.metric("setup.corpus_s", median(corpusS), "s");
    result.metric("setup.index_build_s", median(buildS), "s");
    double bytes = 0.0;
    for (std::uint32_t s = 0; s < device->numShards(); ++s)
        bytes += static_cast<double>(device->shard(s).index().sizeBytes());
    result.metric("setup.index_mb", bytes / 1e6, "MB");
    PhaseStats served = open;
    served.absorb(lo);
    served.absorb(hi);
    reportServeLayer(served, result);

    LedgerInput ledger;
    for (std::uint32_t s = 0; s < device->numShards(); ++s) {
        Partition part;
        part.index = &device->shard(s).index();
        part.layout = &device->shard(s).layout();
        part.docBase = device->map().docBase(s);
        ledger.partitions.push_back(part);
    }
    ledger.queries = queries;
    ledger.k = kTopK;
    ledger.device.cores = deviceCfg.device.cores;
    ledger.device.mem = deviceCfg.device.mem;
    ledger.device.link = deviceCfg.device.link;
    runLedger(ledger, spans, result);
    reportIngest(probeIngest(opt.seed, spans), result);
}

} // namespace perfbench
