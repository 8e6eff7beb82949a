/**
 * @file
 * boss_tracecat: pretty-print per-query summary records produced by
 * `boss_search --query-summaries=FILE` (JSON Lines, one record per
 * query).
 *
 * Usage:
 *   boss_tracecat <summaries.jsonl>
 *   boss_tracecat -            # read stdin
 *
 * Prints one table row per query plus batch totals: replay cycles,
 * block skipping effectiveness, docs scored vs. skipped, and bytes
 * moved per traffic class (the paper's Fig. 15 categories).
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "trace/summary.h"

namespace
{

using boss::trace::QuerySummary;

void
printRow(const QuerySummary &s)
{
    std::uint64_t blocks = s.blocksLoaded + s.blocksSkipped;
    double skipPct =
        blocks > 0 ? 100.0 * static_cast<double>(s.blocksSkipped) /
                         static_cast<double>(blocks)
                   : 0.0;
    std::uint64_t bytes = 0;
    for (std::uint64_t b : s.classBytes)
        bytes += b;
    std::printf("%6llu %6llu %12llu %9llu %9llu %5.1f%% %10llu "
                "%10llu %8llu %10.1f\n",
                static_cast<unsigned long long>(s.query),
                static_cast<unsigned long long>(s.terms),
                static_cast<unsigned long long>(s.cycles),
                static_cast<unsigned long long>(s.blocksLoaded),
                static_cast<unsigned long long>(s.blocksSkipped),
                skipPct,
                static_cast<unsigned long long>(s.docsScored),
                static_cast<unsigned long long>(s.docsSkipped),
                static_cast<unsigned long long>(s.topkInserts),
                static_cast<double>(bytes) / 1e3);
}

int
run(std::istream &in)
{
    std::printf("%6s %6s %12s %9s %9s %6s %10s %10s %8s %10s\n",
                "query", "terms", "cycles", "blk_ld", "blk_skip",
                "skip", "scored", "skipped", "topk", "KB");
    QuerySummary total;
    std::size_t count = 0;
    std::string line;
    std::size_t lineNo = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        if (line.empty())
            continue;
        QuerySummary s;
        if (!boss::trace::parseJsonLine(line, s)) {
            std::fprintf(stderr,
                         "line %zu: not a query-summary record\n",
                         lineNo);
            return 1;
        }
        printRow(s);
        ++count;
        total.cycles += s.cycles;
        boss::trace::addCounters(total, s);
    }
    if (count == 0) {
        std::fprintf(stderr, "no records\n");
        return 1;
    }

    std::printf("\n%zu queries; totals:\n", count);
    std::printf("  cycles:         %llu\n",
                static_cast<unsigned long long>(total.cycles));
    std::printf("  values decoded: %llu\n",
                static_cast<unsigned long long>(total.valuesDecoded));
    std::printf("  norms fetched:  %llu\n",
                static_cast<unsigned long long>(total.normsFetched));
    std::printf("  result bytes:   %llu\n",
                static_cast<unsigned long long>(total.resultBytes));
    std::printf("  traffic (bytes / logical 64B accesses):\n");
    for (std::size_t c = 0; c < boss::trace::kNumTrafficClasses;
         ++c) {
        std::printf(
            "    %-10s %12llu %12llu\n",
            std::string(boss::trace::kTrafficClassNames[c]).c_str(),
            static_cast<unsigned long long>(total.classBytes[c]),
            static_cast<unsigned long long>(total.classAccesses[c]));
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 2) {
        std::fprintf(stderr, "usage: %s <summaries.jsonl | ->\n",
                     argv[0]);
        return 2;
    }
    if (std::strcmp(argv[1], "-") == 0)
        return run(std::cin);
    std::ifstream in(argv[1]);
    if (!in) {
        std::fprintf(stderr, "cannot open '%s'\n", argv[1]);
        return 1;
    }
    return run(in);
}
