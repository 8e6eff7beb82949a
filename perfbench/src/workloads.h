/**
 * @file
 * The workloads. Each builds its inputs from the seed, measures for
 * the requested time, checks its outputs, and fills the result:
 * end-to-end metrics untraced, per-layer metrics when traced.
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <vector>

#include "common/rng.h"
#include "harness.h"
#include "workload/queries.h"

namespace perfbench
{

void runClueweb(const Options &opt, RunResult &result, SpanLog &spans);
void runCcnews(const Options &opt, RunResult &result, SpanLog &spans);

/** Vocabulary of the ingest probe's synthetic documents. */
inline constexpr std::uint32_t kLiveVocab = 1000;

/** One synthetic document: 8..63 uniform tokens over kLiveVocab. */
std::vector<boss::TermId> syntheticDoc(boss::Rng &rng);

/** Independent per-purpose seed streams derived from the run seed. */
inline std::uint64_t
streamSeed(std::uint64_t seed, std::uint64_t stream)
{
    return boss::splitSeed(seed * 0x9E3779B97F4A7C15ull + 0xB055, stream);
}

/** Set-up repetitions; setup_s is their median. */
inline constexpr int kSetupRepeats = 5;

/**
 * Seed of the library's query samplers (the paper benches use 7). The
 * run seed does not reseed them: query cost is heavy-tailed, and a
 * fresh 300-query draw moves mean cost by 10-20%, which would swamp
 * any change under test. jitterQueries() varies the queries instead.
 */
inline constexpr std::uint64_t kQuerySamplerSeed = 7;

/**
 * Move every query term to a random term within 5% of its rank (so of
 * nearly the same document frequency), keeping each query's type and
 * its terms distinct. Deterministic in @p seed.
 */
std::vector<boss::workload::Query>
jitterQueries(std::vector<boss::workload::Query> queries,
              std::uint32_t vocab, std::uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
