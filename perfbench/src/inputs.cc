#include <algorithm>
#include <cmath>

#include "workloads.h"

namespace perfbench
{

using namespace boss;

std::vector<TermId>
syntheticDoc(Rng &rng)
{
    const auto len = 8 + static_cast<std::uint32_t>(rng.below(56));
    std::vector<TermId> tokens;
    tokens.reserve(len);
    for (std::uint32_t i = 0; i < len; ++i)
        tokens.push_back(static_cast<TermId>(rng.below(kLiveVocab)));
    return tokens;
}

std::vector<workload::Query>
jitterQueries(std::vector<workload::Query> queries, std::uint32_t vocab,
              std::uint64_t seed)
{
    Rng rng(seed);
    for (workload::Query &q : queries) {
        for (TermId &t : q.terms) {
            const auto lo = static_cast<TermId>(t * 0.95);
            const auto hi = std::min<TermId>(
                vocab - 1, static_cast<TermId>(std::ceil(t * 1.05)));
            const auto cand =
                static_cast<TermId>(lo + rng.below(hi - lo + 1));
            if (std::find(q.terms.begin(), q.terms.end(), cand) ==
                q.terms.end())
                t = cand;
        }
    }
    return queries;
}

} // namespace perfbench
