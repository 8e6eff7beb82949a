/**
 * @file
 * Resilience sweep: recall@10 and throughput vs SCM bit-error rate.
 *
 * Runs one fixed query batch against the same corpus at increasing
 * media bit-error rates (plus a stuck-block point and a dead-shard
 * point) and reports, per fault level:
 *   - recall@10 against the fault-free run (how much result quality
 *     the CRC/retry/drop policy gives back under media faults),
 *   - simulated throughput (retries cost re-reads; degraded media
 *     costs latency),
 *   - the raw resilience counters (CRC retries, dropped blocks,
 *     dropped shards).
 *
 * Every query completes at every fault level — the degrade paths
 * never fail a query — which this bench asserts. Results go to
 * stdout and BENCH_fault_sweep.json.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "api/sharded_device.h"
#include "benchutil.h"
#include "common/logging.h"
#include "mem/fault_model.h"
#include "trace/summary.h"

namespace
{

using namespace boss;

constexpr std::size_t kRecallK = 10;

/** |topk(faulty) ∩ topk(reference)| / k, averaged over queries. */
double
recallAtK(const std::vector<std::vector<engine::Result>> &ref,
          const std::vector<std::vector<engine::Result>> &got)
{
    BOSS_ASSERT(ref.size() == got.size(), "batch size mismatch");
    double total = 0.0;
    std::size_t counted = 0;
    for (std::size_t q = 0; q < ref.size(); ++q) {
        std::size_t k = std::min(kRecallK, ref[q].size());
        if (k == 0)
            continue; // query matches nothing even fault-free
        std::size_t hit = 0;
        for (std::size_t i = 0; i < k; ++i) {
            for (std::size_t j = 0;
                 j < std::min(kRecallK, got[q].size()); ++j) {
                if (got[q][j].doc == ref[q][i].doc) {
                    ++hit;
                    break;
                }
            }
        }
        total += static_cast<double>(hit) / static_cast<double>(k);
        ++counted;
    }
    return counted > 0 ? total / static_cast<double>(counted) : 1.0;
}

struct Sample
{
    std::string label;
    std::string spec;
    double recall = 1.0;
    double simSeconds = 0.0;
    double qps = 0.0;
    std::uint64_t crcRetries = 0;
    std::uint64_t blocksDropped = 0;
    std::uint64_t shardsDropped = 0;
};

} // namespace

int
main()
{
    workload::CorpusConfig cfg;
    cfg.name = "fault-sweep";
    cfg.numDocs = 100'000;
    cfg.vocabSize = 3'000;
    cfg.seed = 42;
    workload::Corpus corpus(cfg);

    workload::QueryWorkloadConfig qcfg;
    qcfg.vocabSize = cfg.vocabSize;
    qcfg.seed = 7;
    auto queries = workload::sampleQueries(qcfg, 100);
    auto terms = workload::collectTerms(queries);
    auto shards = corpus.buildShardedIndex(terms, 4);

    // Fault levels: a clean baseline, four bit-error rates spanning
    // harmless to catastrophic, a stuck-block point and a
    // dead-shard point.
    const std::vector<std::pair<std::string, std::string>> levels = {
        {"baseline", ""},
        {"ber_1e-7", "ber=1e-7"},
        {"ber_1e-6", "ber=1e-6"},
        {"ber_1e-5", "ber=1e-5"},
        {"ber_1e-4", "ber=1e-4"},
        {"stuck_1e-3", "stuck=1e-3"},
        {"dead_shard", "dead-shard=1"},
    };

    std::printf("batch: %zu queries, %u docs, 4 shards\n",
                queries.size(), cfg.numDocs);
    std::printf("%-12s %10s %14s %12s %12s %8s\n", "level",
                "recall@10", "sim qps", "crc retries", "blk dropped",
                "dead");

    std::vector<std::vector<engine::Result>> reference;
    std::vector<Sample> samples;
    for (const auto &[label, spec] : levels) {
        api::ShardedDeviceConfig dcfg;
        dcfg.shards = 4;
        dcfg.device.faults = mem::parseFaultSpec(spec);
        api::ShardedDevice device(dcfg);
        // Rebuild per level: loadShards consumes the shard set.
        device.loadShards(corpus.buildShardedIndex(terms, 4));

        api::ShardedOutcome outcome = device.searchBatch(queries);
        BOSS_ASSERT(outcome.perQuery.size() == queries.size(),
                    "faults must never lose queries");
        if (label == "baseline")
            reference = outcome.perQuery;

        Sample s;
        s.label = label;
        s.spec = spec;
        s.recall = recallAtK(reference, outcome.perQuery);
        s.simSeconds = outcome.simSeconds;
        s.qps = static_cast<double>(queries.size()) /
                outcome.simSeconds;
        trace::QuerySummary total;
        for (const trace::QuerySummary &q : outcome.summaries)
            trace::addCounters(total, q);
        s.crcRetries = total.crcRetries;
        s.blocksDropped = total.blocksDropped;
        s.shardsDropped = outcome.deadShards.size();
        samples.push_back(s);

        std::printf(
            "%-12s %10.4f %14.1f %12llu %12llu %8llu\n",
            s.label.c_str(), s.recall, s.qps,
            static_cast<unsigned long long>(s.crcRetries),
            static_cast<unsigned long long>(s.blocksDropped),
            static_cast<unsigned long long>(s.shardsDropped));
    }

    bench::JsonReport report("fault_sweep");
    report.set(report.root(), "queries",
               static_cast<double>(queries.size()),
               "queries per batch");
    report.set(report.root(), "num_docs",
               static_cast<double>(cfg.numDocs), "corpus documents");
    report.set(report.root(), "recall_k",
               static_cast<double>(kRecallK), "recall cutoff");
    for (const Sample &s : samples) {
        auto &g = report.root().subgroup(s.label);
        report.set(g, "recall_at_10", s.recall,
                   "mean top-10 overlap with the fault-free run");
        report.set(g, "sim_seconds", s.simSeconds,
                   "simulated batch makespan");
        report.set(g, "sim_qps", s.qps,
                   "simulated batch throughput");
        report.set(g, "crc_retries",
                   static_cast<double>(s.crcRetries),
                   "payload re-reads after CRC mismatch");
        report.set(g, "blocks_dropped",
                   static_cast<double>(s.blocksDropped),
                   "blocks degraded away after retry exhaustion");
        report.set(g, "shards_dropped",
                   static_cast<double>(s.shardsDropped),
                   "whole shards lost (partial coverage)");
    }
    report.write("BENCH_fault_sweep.json");
    return 0;
}
