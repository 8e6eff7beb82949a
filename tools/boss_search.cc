/**
 * @file
 * boss_search: serve queries against a BOSS text index on the
 * simulated accelerator.
 *
 * Usage:
 *   boss_search [options] <index.idx> [query...]
 *
 * With query arguments, runs each and exits; otherwise reads queries
 * from stdin (one per line). Queries use the offloading-API grammar
 * with quoted terms, e.g.:  "storage" AND ("memory" OR "disk")
 * A bare list of words is treated as their OR. Every run goes
 * through one api::ShardedDevice; tools/boss_serve serves an index
 * under open-loop load.
 *
 * Options:
 *   --threads N            host thread pool size for batch trace
 *                          building (default: all hardware threads;
 *                          results never depend on the thread count)
 *   --shards N             partition the index across N simulated
 *                          devices with host-side top-k merging
 *                          (default 1; results are bit-identical for
 *                          any N)
 *   --trace-out=FILE       write a Chrome trace_event JSON timeline
 *                          of the session (load in Perfetto or
 *                          chrome://tracing)
 *   --stats-json=FILE      write the full stats tree (host pool +
 *                          last search's simulation groups) as JSON
 *   --query-summaries=FILE write one JSON record per query (cycles,
 *                          blocks skipped/loaded, bytes per traffic
 *                          class, ...; see tools/boss_tracecat),
 *                          numbered 0..n-1 in session order
 *   --fault-spec=SPEC      inject SCM media faults, e.g.
 *                          "ber=1e-6,stuck=1e-4,dead-shard=2"
 *                          (see mem/fault_model.h for the grammar);
 *                          queries degrade — never crash — and the
 *                          per-query output flags partial coverage
 *   --fault-seed=N         base seed of the fault schedule (default
 *                          0xB055); same spec + seed => identical
 *                          faults at any thread or shard count
 *   --cache-mb N           DRAM block-cache tier of N MiB in front
 *                          of each device's SCM: hot posting blocks
 *                          are served at DRAM timing, misses at SCM
 *                          timing; per-query output reports the hit
 *                          rate and the DRAM/SCM traffic split
 *   --mmap                 mmap the index file instead of copying it
 *                          to the heap: startup is O(metadata) and
 *                          block CRCs are verified lazily on first
 *                          decode. Needs --shards 1, since re-sharding
 *                          decodes every payload unchecked
 *   --kernels=TIER         host SIMD kernel tier for block decode /
 *                          scoring: scalar|avx2|auto (default:
 *                          the BOSS_KERNELS env var, else auto =
 *                          best supported). Every tier is bit-exact;
 *                          this only changes host-side speed.
 *   --warmup N             run N unrecorded warmup searches (cycling
 *                          the given queries) before the session, so
 *                          the per-worker decode arenas and caches
 *                          are hot when measurement starts
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "api/sharded_device.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "kernels/kernels.h"
#include "mem/fault_model.h"
#include "trace/chrome_trace.h"
#include "trace/summary.h"

namespace
{

struct Options
{
    std::string traceOut;
    std::string statsJson;
    std::string summariesPath;
    std::size_t warmup = 0;
    bool mmap = false; ///< mmap the index instead of heap load
};

/** Words without quotes become an OR of quoted terms. */
std::string
normalizeQuery(const std::string &raw)
{
    if (raw.find('"') != std::string::npos)
        return raw;
    std::istringstream iss(raw);
    std::string word;
    std::string expr;
    while (iss >> word) {
        if (!expr.empty())
            expr += " OR ";
        expr += "\"" + word + "\"";
    }
    return expr;
}

/** Per-query cache line (silent without a cache tier). */
void
printCache(const boss::api::ShardedOutcome &outcome)
{
    if (outcome.cacheLookups == 0)
        return;
    double hitPct = 100.0 * static_cast<double>(outcome.cacheHits) /
                    static_cast<double>(outcome.cacheLookups);
    std::printf("  cache: %llu/%llu hits (%.1f%%), %.1f KB DRAM / "
                "%.1f KB SCM, %llu evictions\n",
                static_cast<unsigned long long>(outcome.cacheHits),
                static_cast<unsigned long long>(outcome.cacheLookups),
                hitPct, static_cast<double>(outcome.dramBytes) / 1e3,
                static_cast<double>(outcome.deviceBytes) / 1e3,
                static_cast<unsigned long long>(
                    outcome.cacheEvictions));
}

/** Per-query resilience line with shard coverage. */
void
printResilience(const boss::api::ShardedDevice &device,
                const boss::api::ShardedOutcome &outcome)
{
    const boss::trace::QuerySummary &summary = outcome.summaries.front();
    if (!outcome.deadShards.empty()) {
        std::uint32_t total = device.numShards();
        std::printf("  partial coverage: %u/%u shards (dead:",
                    static_cast<std::uint32_t>(
                        total - outcome.deadShards.size()),
                    total);
        for (std::uint32_t s : outcome.deadShards)
            std::printf(" %u", s);
        std::printf(")\n");
    }
    if (summary.crcRetries != 0 || summary.blocksDropped != 0) {
        std::printf("  resilience: %llu CRC retries, %llu blocks "
                    "dropped\n",
                    static_cast<unsigned long long>(
                        summary.crcRetries),
                    static_cast<unsigned long long>(
                        summary.blocksDropped));
    }
}

/** Run one query, keeping its record in @p records. */
void
runQuery(boss::api::ShardedDevice &device, const std::string &raw,
         std::vector<boss::trace::QuerySummary> &records)
{
    std::string expr = normalizeQuery(raw);
    if (expr.empty())
        return;

    auto outcome = device.search(expr);
    records.push_back(outcome.summaries.front());
    std::printf("%zu results in %.1f us (simulated; %.1f KB SCM "
                "traffic, %llu docs scored)\n",
                outcome.topk.size(), outcome.simSeconds * 1e6,
                static_cast<double>(outcome.deviceBytes) / 1e3,
                static_cast<unsigned long long>(
                    records.back().docsScored));
    printCache(outcome);
    printResilience(device, outcome);
    std::size_t show = std::min<std::size_t>(10, outcome.topk.size());
    for (std::size_t i = 0; i < show; ++i) {
        std::printf("  %2zu. doc %-10u score %.4f\n", i + 1,
                    outcome.topk[i].doc, outcome.topk[i].score);
    }
}

/** Match --name=VALUE, storing VALUE. */
bool
matchValueFlag(const char *arg, const char *name, std::string &out)
{
    std::size_t len = std::strlen(name);
    if (std::strncmp(arg, name, len) != 0 || arg[len] != '=')
        return false;
    out = arg + len + 1;
    return true;
}

std::ofstream
openOut(const std::string &path)
{
    std::ofstream os(path);
    if (!os)
        BOSS_FATAL("cannot open '", path, "' for writing");
    return os;
}

int
runSession(boss::api::ShardedDevice &device, const Options &opts,
           int argc, char **argv, int argi)
{
    if (opts.mmap)
        device.loadMappedTextIndexFile(argv[argi]);
    else
        device.loadTextIndexFile(argv[argi]);
    ++argi;
    boss::accel::Device &first = device.shard(0);
    std::printf("loaded %u docs / %u terms", device.map().numDocs(),
                first.lexicon().size());
    if (device.numShards() > 1)
        std::printf(" across %u shards; per shard:",
                    device.numShards());
    else
        std::printf("; device:");
    std::printf(" %u BOSS cores, 4-channel SCM\n",
                first.config().cores);

    // Warmup before any observability attaches: the warmup searches
    // heat the per-worker decode arenas without polluting traces,
    // stats or summaries.
    if (opts.warmup > 0 && argi < argc) {
        int nq = argc - argi;
        for (std::size_t w = 0; w < opts.warmup; ++w) {
            std::string expr = normalizeQuery(
                argv[argi + static_cast<int>(w) % nq]);
            if (!expr.empty())
                device.search(expr);
        }
    }

    // The recorder sizes its buffers off the pool, so create it
    // after --threads took effect.
    std::optional<boss::trace::Recorder> recorder;
    if (!opts.traceOut.empty()) {
        recorder.emplace();
        device.setRecorder(&*recorder);
    }
    if (!opts.statsJson.empty())
        device.enableStatsCapture(true);
    std::vector<boss::trace::QuerySummary> records;

    if (argi < argc) {
        for (int i = argi; i < argc; ++i) {
            std::printf("\nquery: %s\n", argv[i]);
            runQuery(device, argv[i], records);
        }
    } else {
        std::printf("enter queries (one per line, ctrl-d to exit)\n");
        std::string line;
        while (std::getline(std::cin, line)) {
            if (!line.empty())
                runQuery(device, line, records);
        }
    }

    if (!opts.traceOut.empty()) {
        auto os = openOut(opts.traceOut);
        boss::trace::writeChromeTrace(os, *recorder);
        std::printf("wrote %zu trace events to %s\n",
                    recorder->eventCount(), opts.traceOut.c_str());
    }
    if (!opts.statsJson.empty()) {
        auto os = openOut(opts.statsJson);
        device.writeStatsJson(os);
    }
    if (!opts.summariesPath.empty()) {
        // Each query ran as its own search; number it in the session.
        for (std::size_t q = 0; q < records.size(); ++q)
            records[q].query = q;
        auto os = openOut(opts.summariesPath);
        boss::trace::writeSummaries(os, records);
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    boss::api::ShardedDeviceConfig cfg;
    int argi = 1;
    while (argi < argc && argv[argi][0] == '-') {
        std::string arg = argv[argi];
        if (arg == "--threads") {
            long n = argi + 1 < argc
                         ? std::strtol(argv[argi + 1], nullptr, 10)
                         : 0;
            if (n < 1) {
                std::fprintf(stderr,
                             "--threads wants a positive count\n");
                return 2;
            }
            boss::common::ThreadPool::setGlobalThreads(
                static_cast<std::size_t>(n));
            argi += 2;
        } else if (arg == "--shards") {
            long n = argi + 1 < argc
                         ? std::strtol(argv[argi + 1], nullptr, 10)
                         : 0;
            if (n < 1) {
                std::fprintf(stderr,
                             "--shards wants a positive count\n");
                return 2;
            }
            cfg.shards = static_cast<std::uint32_t>(n);
            argi += 2;
        } else if (matchValueFlag(argv[argi], "--trace-out",
                                  opts.traceOut) ||
                   matchValueFlag(argv[argi], "--stats-json",
                                  opts.statsJson) ||
                   matchValueFlag(argv[argi], "--query-summaries",
                                  opts.summariesPath)) {
            ++argi;
        } else if (std::string spec;
                   matchValueFlag(argv[argi], "--fault-spec", spec)) {
            cfg.device.faults = boss::mem::parseFaultSpec(spec);
            ++argi;
        } else if (std::string seed;
                   matchValueFlag(argv[argi], "--fault-seed", seed)) {
            cfg.device.faultSeed =
                std::strtoull(seed.c_str(), nullptr, 0);
            ++argi;
        } else if (arg == "--warmup") {
            long n = argi + 1 < argc
                         ? std::strtol(argv[argi + 1], nullptr, 10)
                         : -1;
            if (n < 0) {
                std::fprintf(stderr,
                             "--warmup wants a non-negative "
                             "count\n");
                return 2;
            }
            opts.warmup = static_cast<std::size_t>(n);
            argi += 2;
        } else if (arg == "--cache-mb") {
            double mb = argi + 1 < argc
                            ? std::strtod(argv[argi + 1], nullptr)
                            : 0.0;
            if (mb <= 0.0) {
                std::fprintf(stderr,
                             "--cache-mb wants a positive size\n");
                return 2;
            }
            cfg.device.cacheMB = mb;
            argi += 2;
        } else if (arg == "--mmap") {
            opts.mmap = true;
            ++argi;
        } else if (std::string tier;
                   matchValueFlag(argv[argi], "--kernels", tier)) {
            if (!boss::kernels::setTierByName(tier)) {
                std::fprintf(stderr,
                             "--kernels wants scalar|avx2|auto, "
                             "got '%s'\n",
                             tier.c_str());
                return 2;
            }
            ++argi;
        } else {
            std::fprintf(stderr, "unknown option '%s'\n",
                         argv[argi]);
            return 2;
        }
    }
    if (argi >= argc) {
        std::fprintf(
            stderr,
            "usage: %s [--threads N] [--shards N] [--trace-out=FILE] "
            "[--stats-json=FILE] [--query-summaries=FILE] "
            "[--fault-spec=SPEC] [--fault-seed=N] [--kernels=TIER] "
            "[--warmup N] [--cache-mb N] [--mmap] "
            "<index.idx> [query...]\n",
            argv[0]);
        return 2;
    }
    if (opts.mmap && cfg.shards > 1) {
        std::fprintf(stderr,
                     "--mmap needs --shards 1: re-sharding decodes "
                     "the mapped payloads without checking their "
                     "block CRCs\n");
        return 2;
    }

    boss::api::ShardedDevice device(cfg);
    return runSession(device, opts, argc, argv, argi);
}
