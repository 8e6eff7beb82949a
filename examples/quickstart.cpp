/**
 * @file
 * Quickstart: build a small index, load it into a simulated BOSS
 * device, and run a few queries through the paper's offloading API.
 *
 *   ./examples/quickstart
 */

#include <cstdio>
#include <fstream>

#include "api/offload.h"
#include "common/logging.h"
#include "index/serialize.h"
#include "workload/corpus.h"

using namespace boss;

int
main()
{
    // ------------------------------------------------------------
    // 1. Build an inverted index. Here we synthesize a small corpus;
    //    a real deployment would feed its own posting lists through
    //    index::IndexBuilder.
    // ------------------------------------------------------------
    workload::CorpusConfig cfg;
    cfg.name = "quickstart";
    cfg.numDocs = 100'000;
    cfg.vocabSize = 1'000;
    workload::Corpus corpus(cfg);

    std::vector<TermId> vocabulary = {0, 1, 2, 3, 5, 8, 13, 21};
    auto index = corpus.buildIndex(vocabulary);
    std::printf("built index: %u docs, %zu terms, %.2f MB "
                "(hybrid-compressed)\n",
                index.numDocs(), vocabulary.size(),
                static_cast<double>(index.sizeBytes()) / 1e6);

    // ------------------------------------------------------------
    // 2. Persist the index and a decompression-module configuration,
    //    then initialize the device with the init() intrinsic.
    // ------------------------------------------------------------
    const std::string indexFile = "/tmp/boss_quickstart_index.bin";
    const std::string configFile = "/tmp/boss_quickstart_config.txt";
    index::saveIndexFile(index, indexFile);
    {
        std::ofstream os(configFile);
        for (compress::Scheme s : compress::kAllSchemes)
            os << "[scheme " << schemeName(s) << "]\nbuiltin\n";
    }
    int schemes = api::init(indexFile, configFile);
    std::printf("init(): programmed %d decompression schemes\n",
                schemes);

    // ------------------------------------------------------------
    // 3. Offload queries with the search() intrinsic.
    // ------------------------------------------------------------
    const char *expressions[] = {
        "\"t0\"",
        "\"t1\" AND \"t2\"",
        "\"t3\" OR \"t5\"",
        "\"t1\" AND (\"t8\" OR \"t13\" OR \"t21\")",
    };
    for (const char *expr : expressions) {
        auto outcome = api::device().search(expr);
        const auto &summary = outcome.summaries.front();
        std::printf("\nquery: %s\n", expr);
        std::printf("  simulated time: %.1f us, SCM traffic: %.1f KB, "
                    "%llu docs scored (%llu skipped by ET)\n",
                    outcome.simSeconds * 1e6,
                    static_cast<double>(outcome.deviceBytes) / 1e3,
                    static_cast<unsigned long long>(
                        summary.docsScored),
                    static_cast<unsigned long long>(
                        summary.docsSkipped));
        std::size_t show = std::min<std::size_t>(3, outcome.topk.size());
        for (std::size_t i = 0; i < show; ++i) {
            std::printf("  #%zu doc=%u score=%.3f\n", i + 1,
                        outcome.topk[i].doc, outcome.topk[i].score);
        }
    }

    api::shutdown();
    std::remove(indexFile.c_str());
    std::remove(configFile.c_str());
    return 0;
}
