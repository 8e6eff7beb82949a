#include "workload/queries.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>

#include "common/logging.h"

namespace boss::workload
{

std::string
Query::toExpression() const
{
    auto quote = [](TermId t) {
        return "\"t" + std::to_string(t) + "\"";
    };
    std::ostringstream oss;
    switch (type) {
      case QueryType::Q1:
        oss << quote(terms[0]);
        break;
      case QueryType::Q2:
        oss << quote(terms[0]) << " AND " << quote(terms[1]);
        break;
      case QueryType::Q3:
        oss << quote(terms[0]) << " OR " << quote(terms[1]);
        break;
      case QueryType::Q4:
        oss << quote(terms[0]) << " AND " << quote(terms[1]) << " AND "
            << quote(terms[2]) << " AND " << quote(terms[3]);
        break;
      case QueryType::Q5:
        oss << quote(terms[0]) << " OR " << quote(terms[1]) << " OR "
            << quote(terms[2]) << " OR " << quote(terms[3]);
        break;
      case QueryType::Q6:
        oss << quote(terms[0]) << " AND (" << quote(terms[1]) << " OR "
            << quote(terms[2]) << " OR " << quote(terms[3]) << ")";
        break;
    }
    return oss.str();
}

namespace
{

/**
 * Draw a term rank log-uniformly over [0, vocab) with a bias toward
 * popular terms: TREC Terabyte queries are dominated by common
 * English words (large posting lists) with a tail of rare entities,
 * which a popularity-biased log-uniform rank mix captures.
 */
TermId
sampleTerm(Rng &rng, std::uint32_t vocab)
{
    double logMax = std::log(static_cast<double>(vocab));
    double u = std::pow(rng.uniform(), 1.7); // bias toward rank 0
    auto t = static_cast<TermId>(std::exp(u * logMax)) - 1;
    return std::min(t, vocab - 1);
}

/**
 * Sample @p n distinct terms for one query. The first term's rank
 * anchors the query's topic specificity; the rest stay within a few
 * octaves of it -- query terms are topically related, so their
 * document frequencies are correlated, not independent draws.
 */
std::vector<TermId>
sampleTerms(Rng &rng, std::uint32_t vocab, std::uint32_t n)
{
    std::set<TermId> picked;
    double anchor =
        static_cast<double>(sampleTerm(rng, vocab)) + 1.0;
    picked.insert(static_cast<TermId>(anchor) - 1);
    while (picked.size() < n) {
        double r = anchor * std::exp(rng.normal(0.0, 0.8));
        r = std::min(r, static_cast<double>(vocab));
        auto t = static_cast<TermId>(r) - (r >= 1.0 ? 1 : 0);
        picked.insert(std::min(t, vocab - 1));
    }
    return {picked.begin(), picked.end()};
}

} // namespace

std::vector<Query>
makeWorkload(const QueryWorkloadConfig &config)
{
    BOSS_ASSERT(config.vocabSize >= kMinVocabSize,
                "vocabulary too small");
    Rng rng(config.seed);
    std::vector<Query> out;
    out.reserve(config.queriesPerBucket * 3);

    for (std::uint32_t i = 0; i < config.queriesPerBucket; ++i) {
        Query q;
        q.type = QueryType::Q1;
        q.terms = sampleTerms(rng, config.vocabSize, 1);
        out.push_back(std::move(q));
    }
    for (std::uint32_t i = 0; i < config.queriesPerBucket; ++i) {
        Query q;
        q.type = rng.chance(0.5) ? QueryType::Q2 : QueryType::Q3;
        q.terms = sampleTerms(rng, config.vocabSize, 2);
        out.push_back(std::move(q));
    }
    for (std::uint32_t i = 0; i < config.queriesPerBucket; ++i) {
        Query q;
        switch (rng.below(3)) {
          case 0: q.type = QueryType::Q4; break;
          case 1: q.type = QueryType::Q5; break;
          default: q.type = QueryType::Q6; break;
        }
        q.terms = sampleTerms(rng, config.vocabSize, 4);
        out.push_back(std::move(q));
    }
    return out;
}

std::vector<Query>
sampleQueries(const QueryWorkloadConfig &config, std::size_t count)
{
    BOSS_ASSERT(config.vocabSize >= kMinVocabSize,
                "vocabulary too small");
    std::vector<Query> out;
    out.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        // Split seeds, not shared state: each slot's stream is a
        // pure function of (seed, i), so any subset of slots can be
        // generated in any order — or on any worker — and agree with
        // a serial front-to-back pass bit-for-bit.
        Rng rng(splitSeed(config.seed, i));
        Query q;
        q.type = kAllQueryTypes[rng.below(kAllQueryTypes.size())];
        q.terms = sampleTerms(rng, config.vocabSize,
                              queryTypeTerms(q.type));
        out.push_back(std::move(q));
    }
    return out;
}

std::vector<Query>
filterByType(const std::vector<Query> &all, QueryType t)
{
    std::vector<Query> out;
    for (const auto &q : all) {
        if (q.type == t)
            out.push_back(q);
    }
    return out;
}

std::vector<TermId>
collectTerms(const std::vector<Query> &all)
{
    std::set<TermId> terms;
    for (const auto &q : all)
        terms.insert(q.terms.begin(), q.terms.end());
    return {terms.begin(), terms.end()};
}

} // namespace boss::workload
