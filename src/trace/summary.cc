#include "trace/summary.h"

#include <cctype>
#include <utility>

namespace boss::trace
{

namespace
{

/**
 * The flat schema: key order here is the serialization order, and
 * parseJsonLine requires exactly this key set (any order).
 */
std::vector<std::pair<std::string, std::uint64_t *>>
fields(QuerySummary &s)
{
    std::vector<std::pair<std::string, std::uint64_t *>> f = {
        {"query", &s.query},
        {"terms", &s.terms},
        {"cycles", &s.cycles},
        {"blocks_loaded", &s.blocksLoaded},
        {"blocks_skipped", &s.blocksSkipped},
        {"values_decoded", &s.valuesDecoded},
        {"norms_fetched", &s.normsFetched},
        {"docs_scored", &s.docsScored},
        {"docs_skipped", &s.docsSkipped},
        {"topk_inserts", &s.topkInserts},
        {"result_bytes", &s.resultBytes},
        {"crc_retries", &s.crcRetries},
        {"blocks_dropped", &s.blocksDropped},
        {"shards_dropped", &s.shardsDropped},
    };
    for (std::size_t c = 0; c < kNumTrafficClasses; ++c) {
        std::string base(kTrafficClassNames[c]);
        f.emplace_back(base + "_bytes", &s.classBytes[c]);
        f.emplace_back(base + "_accesses", &s.classAccesses[c]);
    }
    return f;
}

struct Cursor
{
    const std::string &s;
    std::size_t pos = 0;

    void skipSpace()
    {
        while (pos < s.size() &&
               std::isspace(static_cast<unsigned char>(s[pos])))
            ++pos;
    }

    bool eat(char c)
    {
        skipSpace();
        if (pos >= s.size() || s[pos] != c)
            return false;
        ++pos;
        return true;
    }

    bool key(std::string &out)
    {
        if (!eat('"'))
            return false;
        out.clear();
        while (pos < s.size() && s[pos] != '"')
            out.push_back(s[pos++]);
        return eat('"');
    }

    bool number(std::uint64_t &out)
    {
        skipSpace();
        if (pos >= s.size() ||
            !std::isdigit(static_cast<unsigned char>(s[pos])))
            return false;
        out = 0;
        while (pos < s.size() &&
               std::isdigit(static_cast<unsigned char>(s[pos])))
            out = out * 10 + static_cast<std::uint64_t>(s[pos++] - '0');
        return true;
    }
};

} // namespace

void
addCounters(QuerySummary &into, const QuerySummary &from)
{
    into.blocksLoaded += from.blocksLoaded;
    into.blocksSkipped += from.blocksSkipped;
    into.valuesDecoded += from.valuesDecoded;
    into.normsFetched += from.normsFetched;
    into.docsScored += from.docsScored;
    into.docsSkipped += from.docsSkipped;
    into.topkInserts += from.topkInserts;
    into.resultBytes += from.resultBytes;
    into.crcRetries += from.crcRetries;
    into.blocksDropped += from.blocksDropped;
    into.shardsDropped += from.shardsDropped;
    for (std::size_t c = 0; c < kNumTrafficClasses; ++c) {
        into.classBytes[c] += from.classBytes[c];
        into.classAccesses[c] += from.classAccesses[c];
    }
}

void
writeJsonLine(std::ostream &os, const QuerySummary &s)
{
    // fields() needs a mutable reference; serialization never writes
    // through the pointers.
    auto f = fields(const_cast<QuerySummary &>(s));
    os << '{';
    for (std::size_t i = 0; i < f.size(); ++i) {
        if (i != 0)
            os << ',';
        os << '"' << f[i].first << "\":" << *f[i].second;
    }
    os << '}';
}

bool
parseJsonLine(const std::string &line, QuerySummary &out)
{
    QuerySummary parsed;
    auto f = fields(parsed);
    std::vector<bool> seen(f.size(), false);

    Cursor cur{line};
    if (!cur.eat('{'))
        return false;
    bool firstPair = true;
    for (;;) {
        cur.skipSpace();
        if (cur.pos < line.size() && line[cur.pos] == '}')
            break;
        if (!firstPair && !cur.eat(','))
            return false;
        firstPair = false;

        std::string key;
        std::uint64_t value;
        if (!cur.key(key) || !cur.eat(':') || !cur.number(value))
            return false;

        bool matched = false;
        for (std::size_t i = 0; i < f.size(); ++i) {
            if (f[i].first == key) {
                if (seen[i])
                    return false; // duplicate key
                seen[i] = true;
                *f[i].second = value;
                matched = true;
                break;
            }
        }
        if (!matched)
            return false; // unknown key
    }
    if (!cur.eat('}'))
        return false;
    cur.skipSpace();
    if (cur.pos != line.size())
        return false; // trailing garbage
    for (bool s : seen) {
        if (!s)
            return false; // missing key
    }
    out = parsed;
    return true;
}

void
writeSummaries(std::ostream &os,
               const std::vector<QuerySummary> &summaries)
{
    for (const QuerySummary &s : summaries) {
        writeJsonLine(os, s);
        os << '\n';
    }
}

} // namespace boss::trace
