/**
 * @file
 * Query workload: the paper's six query types (Table II) and the
 * TREC-like sampler that draws 100 queries per term-count bucket
 * with random type assignment, exactly as in Sec. V-A.
 */

#ifndef BOSS_WORKLOAD_QUERIES_H
#define BOSS_WORKLOAD_QUERIES_H

#include <array>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "common/types.h"

namespace boss::workload
{

/** Query types per the paper's Table II. */
enum class QueryType : std::uint8_t
{
    Q1, ///< 1 term:  A
    Q2, ///< 2 terms: A AND B
    Q3, ///< 2 terms: A OR B
    Q4, ///< 4 terms: A AND B AND C AND D
    Q5, ///< 4 terms: A OR B OR C OR D
    Q6, ///< 4 terms: A AND (B OR C OR D)
};

inline constexpr std::array<QueryType, 6> kAllQueryTypes = {
    QueryType::Q1, QueryType::Q2, QueryType::Q3,
    QueryType::Q4, QueryType::Q5, QueryType::Q6,
};

constexpr std::string_view
queryTypeName(QueryType t)
{
    switch (t) {
      case QueryType::Q1: return "Q1";
      case QueryType::Q2: return "Q2";
      case QueryType::Q3: return "Q3";
      case QueryType::Q4: return "Q4";
      case QueryType::Q5: return "Q5";
      case QueryType::Q6: return "Q6";
    }
    return "?";
}

/** Number of terms used by a query type. */
constexpr std::uint32_t
queryTypeTerms(QueryType t)
{
    switch (t) {
      case QueryType::Q1: return 1;
      case QueryType::Q2:
      case QueryType::Q3: return 2;
      case QueryType::Q4:
      case QueryType::Q5:
      case QueryType::Q6: return 4;
    }
    return 0;
}

/**
 * One benchmark query: a type plus its terms.
 */
struct Query
{
    QueryType type = QueryType::Q1;
    std::vector<TermId> terms;

    /**
     * Render as an offloading-API expression string, e.g.
     * Q6 -> "\"t3\" AND (\"t7\" OR \"t9\" OR \"t12\")".
     */
    std::string toExpression() const;
};

/**
 * The smallest vocabulary the samplers draw from: a 4-term query
 * picks distinct terms near its anchor rank, which needs headroom
 * past 4 terms. Callers that size the vocabulary from an index
 * (boss_serve) check it against this floor first.
 */
inline constexpr std::uint32_t kMinVocabSize = 8;

/**
 * Workload sampler configuration.
 */
struct QueryWorkloadConfig
{
    std::uint32_t vocabSize = 50'000;
    std::uint32_t queriesPerBucket = 100; ///< paper: 100 x {1,2,4}-term
    std::uint64_t seed = 7;
};

/**
 * Sample the full workload: queriesPerBucket 1-term, 2-term and
 * 4-term queries with types assigned randomly within each bucket.
 * Term ranks are drawn log-uniformly over the vocabulary, matching
 * the mid-to-high-frequency mix of TREC Terabyte Track queries.
 */
std::vector<Query> makeWorkload(const QueryWorkloadConfig &config);

/**
 * Sample @p count queries with uniformly random types, one
 * independent RNG stream per query slot.
 *
 * Unlike makeWorkload — which advances one shared generator, so
 * query i depends on every draw before it — query i here is seeded
 * via splitSeed(config.seed, i): sampling is reproducible regardless
 * of the order (or parallelism, or partial ranges) in which slots
 * are generated. Sharded benches and the differential tests use this
 * so per-shard or per-worker query generation never shares state.
 */
std::vector<Query> sampleQueries(const QueryWorkloadConfig &config,
                                 std::size_t count);

/** All queries of one type from a workload. */
std::vector<Query> filterByType(const std::vector<Query> &all,
                                QueryType t);

/** The distinct terms referenced by a workload. */
std::vector<TermId> collectTerms(const std::vector<Query> &all);

} // namespace boss::workload

#endif // BOSS_WORKLOAD_QUERIES_H
