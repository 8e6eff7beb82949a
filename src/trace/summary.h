/**
 * @file
 * Compact per-query summary records.
 *
 * One QuerySummary captures everything the paper's per-query
 * breakdowns need: replay cycles, block skipping effectiveness,
 * decode/score/top-k work, and bytes moved per traffic class (the
 * Fig. 15 categories). The records serialize as JSON Lines — one
 * flat object per line — so downstream analysis is a one-liner in
 * any language, and round-trip exactly through parseJsonLine for
 * the determinism tests.
 *
 * This header deliberately does not depend on mem/ or model/; the
 * model layer bridges its traffic categories into the fixed class
 * list here (checked by a static_assert at the bridge).
 */

#ifndef BOSS_TRACE_SUMMARY_H
#define BOSS_TRACE_SUMMARY_H

#include <array>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace boss::trace
{

/** Traffic classes, mirroring mem::Category order. */
inline constexpr std::size_t kNumTrafficClasses = 5;

/** Snake-case class names used as JSON key prefixes. */
inline constexpr std::array<std::string_view, kNumTrafficClasses>
    kTrafficClassNames = {"ld_list", "ld_score", "ld_inter",
                          "st_inter", "st_result"};

/** Per-query execution summary. All fields serialize flat. */
struct QuerySummary
{
    std::uint64_t query = 0; ///< submission index within the batch
    std::uint64_t terms = 0;
    std::uint64_t cycles = 0; ///< replay latency in core cycles

    std::uint64_t blocksLoaded = 0;
    std::uint64_t blocksSkipped = 0;
    std::uint64_t valuesDecoded = 0;
    std::uint64_t normsFetched = 0;
    std::uint64_t docsScored = 0;
    std::uint64_t docsSkipped = 0;
    std::uint64_t topkInserts = 0;
    std::uint64_t resultBytes = 0;

    // Resilience events (zero on fault-free runs).
    std::uint64_t crcRetries = 0;    ///< payload re-reads after CRC miss
    std::uint64_t blocksDropped = 0; ///< payloads degraded away
    std::uint64_t shardsDropped = 0; ///< dead shards absent from merge

    std::array<std::uint64_t, kNumTrafficClasses> classBytes{};
    std::array<std::uint64_t, kNumTrafficClasses> classAccesses{};

    bool operator==(const QuerySummary &) const = default;
};

/**
 * Add every work, traffic and resilience counter of @p from into
 * @p into. The identity fields (query, terms) and cycles are left
 * alone: how a query's time combines depends on whether the parts
 * ran one after another or side by side, so each fold sets those.
 */
void addCounters(QuerySummary &into, const QuerySummary &from);

/** Write @p s as one JSON object on a single line (no newline). */
void writeJsonLine(std::ostream &os, const QuerySummary &s);

/**
 * Parse a line produced by writeJsonLine. Returns false on any
 * schema mismatch (unknown key, missing key, malformed JSON).
 */
bool parseJsonLine(const std::string &line, QuerySummary &out);

/** Write all summaries as JSON Lines (one record per line). */
void writeSummaries(std::ostream &os,
                    const std::vector<QuerySummary> &summaries);

} // namespace boss::trace

#endif // BOSS_TRACE_SUMMARY_H
