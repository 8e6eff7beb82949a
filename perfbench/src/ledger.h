/**
 * @file
 * The traced run's per-layer ledger: after serving, call each lower
 * layer's public function on the same plans, one span per call, and
 * turn the times and counts into the per-layer metrics.
 */

#ifndef PERFBENCH_LEDGER_H
#define PERFBENCH_LEDGER_H

#include <cstdint>
#include <vector>

#include "harness.h"
#include "index/inverted_index.h"
#include "index/memory_layout.h"
#include "model/system.h"
#include "workload/queries.h"

namespace perfbench
{

/**
 * One searched partition: a shard or the whole index. Local docIDs
 * map to global ones by adding @p docBase.
 */
struct Partition
{
    const boss::index::InvertedIndex *index = nullptr;
    const boss::index::MemoryLayout *layout = nullptr;
    boss::DocId docBase = 0;
};

struct LedgerInput
{
    std::vector<Partition> partitions;
    std::vector<boss::workload::Query> queries;
    std::size_t k = 0;
    /** The modeled device every partition replays on. */
    boss::model::SystemConfig device;
};

/** Per-layer metrics of the read path (plan .. merge, modeled device). */
void runLedger(const LedgerInput &in, SpanLog &spans, RunResult &result);

/** Append/refresh timings of the ingest probe (ingest.* metrics). */
struct IngestTimes
{
    std::vector<double> appendUs;
    std::vector<double> refreshMs;
    std::vector<double> freshnessMs;
    std::uint64_t merges = 0;
    std::uint64_t segmentsBaked = 0;
};

void reportIngest(const IngestTimes &t, RunResult &result);

/**
 * Price the ingest layer on workloads that do no ingest: a scratch
 * live index takes synthetic documents through append, refresh and
 * mergeOnce, so every traced run reports every layer.
 */
IngestTimes probeIngest(std::uint64_t seed, SpanLog &spans);

} // namespace perfbench

#endif // PERFBENCH_LEDGER_H
