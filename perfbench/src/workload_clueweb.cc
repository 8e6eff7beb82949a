/**
 * @file
 * clueweb-saturated: one device over the ClueWeb12-like corpus, the
 * paper's 300-query Q1-Q6 mix at k = 1000, served closed-loop.
 *
 * Every read-path layer does its most work per query here (tens of
 * thousands of scored documents and thousands of modeled memory
 * requests), with no shards, segments or shedding, so a decode,
 * engine, hooks or replay change shows on its own. Block admission
 * at an offered rate far above capacity keeps exactly queueCapacity +
 * maxInFlight queries outstanding: a closed loop at two depths.
 */

#include <memory>

#include "boss/device.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "engine/execute.h"
#include "engine/plan.h"
#include "ledger.h"
#include "serve/backend.h"
#include "serve/server.h"
#include "workload/corpus.h"
#include "workload/queries.h"
#include "workloads.h"

namespace perfbench
{

using namespace boss;

namespace
{

constexpr std::size_t kTopK = 1000;
constexpr std::size_t kMaxInFlight = 8;
/** Closed-loop depths: queued + in flight = 16 (lo) and 64 (hi). */
constexpr std::size_t kQueueLo = 8;
constexpr std::size_t kQueueHi = 56;
constexpr int kMinRoundsPerDepth = 2;

} // namespace

void
runClueweb(const Options &opt, RunResult &result, SpanLog &spans)
{
    // The serial finisher is busy the whole run, so the build pool
    // gets the remaining cores.
    const std::size_t pool = poolSizeFor(1);
    common::ThreadPool::setGlobalThreads(pool);
    noteAttribution(result, opt, pool);

    workload::CorpusConfig corpusCfg = workload::clueWebConfig();
    corpusCfg.seed = streamSeed(opt.seed, 1);
    workload::QueryWorkloadConfig queryCfg;
    queryCfg.vocabSize = corpusCfg.vocabSize;
    queryCfg.seed = kQuerySamplerSeed;
    accel::DeviceConfig deviceCfg;
    deviceCfg.k = kTopK;

    // ---- Set-up (repeated; the last one is served).
    std::vector<double> setupS, corpusS, buildS;
    std::unique_ptr<accel::Device> device;
    std::vector<workload::Query> queries;
    std::uint64_t corpusPrint = kFnvBasis;
    for (int r = 0; r < kSetupRepeats; ++r) {
        device.reset();
        const auto t0 = Clock::now();
        workload::Corpus corpus(corpusCfg);
        queries = jitterQueries(workload::makeWorkload(queryCfg),
                                corpusCfg.vocabSize, streamSeed(opt.seed, 2));
        const auto terms = workload::collectTerms(queries);
        const double c = secondsSince(t0);
        const auto t1 = Clock::now();
        device = std::make_unique<accel::Device>(deviceCfg);
        device->loadIndex(corpus.buildIndex(terms));
        const double b = secondsSince(t1);
        corpusS.push_back(c);
        buildS.push_back(b);
        setupS.push_back(c + b);
        corpusPrint = fnv(kFnvBasis, device->index().sizeBytes());
        for (std::uint32_t len : corpus.docLengths())
            corpusPrint = fnv(corpusPrint, len);
    }
    const std::size_t nq = queries.size();
    noteInputs(result, queries, corpusPrint);
    result.noteList("setup_s_repeats", setupS);

    // ---- Modeled: the whole mix as one batch on the 8-core device.
    const accel::SearchOutcome batch = device->searchBatch(queries);
    result.check(batch.perQuery.size() == nq, "batch answered every query");

    // One query per type against the brute-force oracle.
    for (workload::QueryType type : workload::kAllQueryTypes) {
        for (std::size_t i = 0; i < nq; ++i) {
            if (queries[i].type != type)
                continue;
            const auto oracle = engine::naiveTopK(
                device->index(), engine::planQuery(queries[i]), kTopK);
            result.check(batch.perQuery[i] == oracle,
                         "batch top-k equals naiveTopK for " +
                             std::string(workload::queryTypeName(type)));
            break;
        }
    }

    // ---- Serving: closed-loop rounds, one pass over the mix each,
    // alternating the two depths until the measuring time is spent.
    // A traced run adds untimed lo rounds as its overhead baseline.
    serve::DeviceBackend backend(*device);
    TimedBackend timed(backend);
    PhaseStats lo, hi, loUntimed;
    std::vector<double> simSeconds(nq, -1.0);
    std::uint64_t groupBase = 0;
    std::uint64_t roundSeed = streamSeed(opt.seed, 3);
    const int kinds = opt.trace ? 3 : 2;
    const auto serveStart = Clock::now();
    for (int round = 0;; ++round) {
        const int kind = round % kinds;
        if (kind == 0 && secondsSince(serveStart) >= opt.seconds &&
            static_cast<int>(hi.roundQps.size()) >= kMinRoundsPerDepth)
            break;
        const bool deep = kind == 1;
        PhaseStats &phase = kind == 0 ? lo : deep ? hi : loUntimed;
        serve::ServeConfig cfg;
        cfg.arrivals.qps = 1e7;
        cfg.arrivals.count = nq;
        cfg.arrivals.seed = ++roundSeed;
        cfg.policy = serve::ShedPolicy::Block;
        cfg.queueCapacity = deep ? kQueueHi : kQueueLo;
        cfg.maxInFlight = kMaxInFlight;
        TimedBackend *timedPtr = opt.trace && kind != 2 ? &timed : nullptr;
        const serve::ServeReport report = servePhase(
            backend, timedPtr, cfg, queries, phase, spans, groupBase);
        for (const serve::QueryRecord &rec : report.records) {
            result.check(rec.status == serve::QueryStatus::Done &&
                             rec.topk == batch.perQuery[rec.queryIndex],
                         "served top-k equals Device::searchBatch");
            double &sim = simSeconds[rec.queryIndex];
            if (rec.status != serve::QueryStatus::Done)
                continue;
            if (sim < 0.0)
                sim = rec.simSeconds;
            else
                result.check(sim == rec.simSeconds,
                             "modeled time repeats for one query");
        }
    }

    std::vector<double> roundQps = lo.roundQps;
    roundQps.insert(roundQps.end(), hi.roundQps.begin(), hi.roundQps.end());
    double simSum = 0.0;
    for (double s : simSeconds)
        simSum += s;

    result.note("queries", static_cast<double>(nq));
    result.note("depth_lo_outstanding",
                static_cast<double>(kQueueLo + kMaxInFlight));
    result.note("depth_hi_outstanding",
                static_cast<double>(kQueueHi + kMaxInFlight));
    result.note("rounds", static_cast<double>(roundQps.size()));
    notePhase(result, "lo", lo);
    notePhase(result, "hi", hi);
    reportModeled(result, opt, static_cast<double>(nq) / batch.simSeconds,
                  simSum / static_cast<double>(nq) * 1e6,
                  static_cast<double>(batch.deviceBytes) /
                      static_cast<double>(nq));

    if (!opt.trace) {
        result.metric("setup_s", median(setupS), "s");
        result.metric("peak_rss_mb", peakRssMb(), "MB");
        result.metric("host_qps", median(roundQps), "1/s");
        result.metric("p90_ms", percentile(lo.responseMs, 0.90), "ms");
        result.metric("p99_ms", percentile(lo.responseMs, 0.99), "ms");
        result.metric("p99_hi_ms", percentile(hi.responseMs, 0.99), "ms");
        return;
    }

    // ---- Traced: per-layer ledger on the same plans.
    result.metric("trace.overhead_frac",
                  1.0 - median(lo.roundQps) / median(loUntimed.roundQps),
                  "fraction");
    result.metric("setup.corpus_s", median(corpusS), "s");
    result.metric("setup.index_build_s", median(buildS), "s");
    result.metric("setup.index_mb",
                  static_cast<double>(device->index().sizeBytes()) / 1e6,
                  "MB");
    PhaseStats served = lo;
    served.absorb(hi);
    reportServeLayer(served, result);

    LedgerInput ledger;
    ledger.partitions.push_back({&device->index(), &device->layout()});
    ledger.queries = queries;
    ledger.k = kTopK;
    ledger.device.cores = deviceCfg.cores;
    ledger.device.mem = deviceCfg.mem;
    ledger.device.link = deviceCfg.link;
    runLedger(ledger, spans, result);
    reportIngest(probeIngest(opt.seed, spans), result);
}

} // namespace perfbench
