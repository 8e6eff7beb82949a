/**
 * @file
 * perfbench: one workload per process.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--out <dir>]
 *
 * Untraced runs report the end-to-end metrics; traced runs record
 * spans and report the per-layer ledger. The last stdout line is the
 * result object; the line before it carries the attribution.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "common/logging.h"
#include "harness.h"
#include "workloads.h"

namespace
{

using namespace perfbench;

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "clueweb-saturated|ccnews-4shard --seed N "
                 "--seconds S --trace 0|1 [--out DIR]\n",
                 why);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        const std::string val = argv[++i];
        try {
            if (arg == "--workload")
                opt.workload = val;
            else if (arg == "--seed")
                opt.seed = std::stoull(val);
            else if (arg == "--seconds")
                opt.seconds = std::stod(val);
            else if (arg == "--trace")
                opt.trace = std::stoi(val) != 0;
            else if (arg == "--out")
                opt.outDir = val;
            else
                usage(("unknown option " + arg).c_str());
        } catch (const std::exception &) {
            usage(("bad value for " + arg).c_str());
        }
    }
    if (opt.workload.empty())
        usage("--workload is required");
    if (!(opt.seconds > 0.0))
        usage("--seconds must be positive");
    return opt;
}

void
printSelfTimes(const SpanLog &spans)
{
    std::printf("%-22s %10s %14s %12s\n", "span", "calls", "self ms",
                "self us/call");
    for (const auto &[name, slot] : spans.selfTimeByName()) {
        std::printf("%-22s %10llu %14.3f %12.3f\n", name.c_str(),
                    static_cast<unsigned long long>(slot.second),
                    slot.first / 1e3,
                    slot.first / static_cast<double>(slot.second));
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    boss::setVerbose(false);

    void (*run)(const Options &, RunResult &, SpanLog &) = nullptr;
    if (opt.workload == "clueweb-saturated")
        run = runClueweb;
    else if (opt.workload == "ccnews-4shard")
        run = runCcnews;
    else
        usage(("unknown workload " + opt.workload).c_str());

    RunResult result;
    SpanLog spans(opt.trace);
    try {
        run(opt, result, spans);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }

    const std::string tag = opt.workload + "-seed" +
                            std::to_string(opt.seed) + "-trace" +
                            (opt.trace ? "1" : "0");
    std::filesystem::create_directories(opt.outDir);
    if (opt.trace) {
        printSelfTimes(spans);
        const std::string spanPath = opt.outDir + "/spans-" + tag + ".json";
        spans.writeChromeTrace(spanPath);
        result.noteText("span_file", spanPath);
        result.note("spans", static_cast<double>(spans.size()));
    }
    const std::string detail = result.detailJson();
    std::ofstream(opt.outDir + "/result-" + tag + ".json")
        << "{\"detail\": " << detail
        << ", \"result\": " << result.contractJson() << "}\n";
    std::cout << "attribution: " << detail << "\n"
              << result.contractJson() << std::endl;
    return result.correct() ? 0 : 1;
}
