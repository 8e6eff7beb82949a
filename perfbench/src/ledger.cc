#include "ledger.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <string>

#include "engine/arena.h"
#include "engine/execute.h"
#include "engine/plan.h"
#include "engine/topk.h"
#include "index/block_decoder.h"
#include "index/segments/live_index.h"
#include "model/runner.h"
#include "model/trace.h"
#include "workloads.h"

namespace perfbench
{

using namespace boss;

namespace
{

std::string
schemeKey(compress::Scheme s)
{
    std::string name(compress::schemeName(s));
    std::transform(name.begin(), name.end(), name.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    return name;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

} // namespace

void
runLedger(const LedgerInput &in, SpanLog &spans, RunResult &result)
{
    const std::size_t nq = in.queries.size();
    const model::TraceOptions options =
        model::traceOptionsFor(model::SystemKind::Boss, in.k);
    engine::QueryArena arena;
    AlignedVec<DocId> docs;
    AlignedVec<TermFreq> tfs;

    std::array<double, compress::kNumSchemes> decodeUs{};
    std::array<double, compress::kNumSchemes> decodeValues{};
    double planUs = 0.0, execUs = 0.0, buildUs = 0.0, replayUs = 0.0;
    double mergeUs = 0.0;
    double scored = 0.0, skipped = 0.0, unionSteps = 0.0, decodeVals = 0.0;
    double memReqs = 0.0;
    std::vector<std::vector<model::QueryTrace>> perPartition(
        in.partitions.size());

    std::uint64_t group = 1;
    for (const workload::Query &query : in.queries) {
        const std::uint64_t parent = spans.reserveId();
        const double q0 = nowUs();

        double t0 = nowUs();
        const engine::QueryPlan plan = engine::planQuery(query);
        double t1 = nowUs();
        planUs += t1 - t0;
        spans.add("ledger.plan", t0, t1 - t0, group, parent, 3);

        std::vector<std::vector<engine::Result>> partial;
        partial.reserve(in.partitions.size());
        for (std::size_t p = 0; p < in.partitions.size(); ++p) {
            const Partition &part = in.partitions[p];
            // Decode: every block of every query-term list, grouped by
            // the list's codec. A value is one decoded integer (docID
            // or term frequency).
            for (TermId term : plan.allTerms) {
                const index::CompressedPostingList &list =
                    part.index->list(term);
                if (list.numBlocks() == 0)
                    continue;
                std::uint64_t values = 0;
                t0 = nowUs();
                for (std::uint32_t b = 0; b < list.numBlocks(); ++b) {
                    index::decodeBlock(list, b, docs, &tfs);
                    values += 2ull * list.blocks[b].numElems;
                }
                t1 = nowUs();
                const auto s = static_cast<std::size_t>(list.scheme);
                decodeUs[s] += t1 - t0;
                decodeValues[s] += static_cast<double>(values);
                spans.add("ledger.decode", t0, t1 - t0, group, parent, 3);
            }

            t0 = nowUs();
            std::vector<engine::Result> functional = engine::executeQuery(
                *part.index, plan, in.k, options.flags, nullptr, &arena);
            t1 = nowUs();
            arena.reset();
            const double exec = t1 - t0;
            execUs += exec;
            spans.add("ledger.execute", t0, exec, group, parent, 3);

            std::vector<engine::Result> traced;
            t0 = nowUs();
            model::QueryTrace trace = model::buildTrace(
                *part.index, *part.layout, plan, options, &traced, &arena);
            t1 = nowUs();
            arena.reset();
            buildUs += t1 - t0;
            spans.add("ledger.build_trace", t0, t1 - t0, group, parent, 3);
            result.check(functional == traced,
                         "executeQuery and buildTrace top-k agree");

            t0 = nowUs();
            model::WorkloadMetrics alone =
                model::replayTraces({trace}, in.device);
            t1 = nowUs();
            replayUs += t1 - t0;
            spans.add("ledger.replay", t0, t1 - t0, group, parent, 3);
            (void)alone;

            const model::SegmentWork work = trace.totalWork();
            scored += static_cast<double>(trace.evaluatedDocs);
            skipped += static_cast<double>(trace.skippedDocs);
            unionSteps += work.unionSteps;
            decodeVals += work.decodeVals;
            for (const auto &seg : trace.segments)
                memReqs += static_cast<double>(seg.reqs.size());

            for (engine::Result &r : traced)
                r.doc += part.docBase;
            partial.push_back(std::move(traced));
            perPartition[p].push_back(std::move(trace));
        }

        t0 = nowUs();
        std::vector<engine::Result> merged = engine::mergeTopK(partial, in.k);
        t1 = nowUs();
        mergeUs += t1 - t0;
        spans.add("ledger.merge", t0, t1 - t0, group, parent, 3);
        (void)merged;
        spans.addWithId(parent, "ledger.query", q0, nowUs() - q0, group, 0,
                        3);
        ++group;
    }

    // Modeled device: each partition replays the whole query set as
    // one batch, as Device::searchBatch does.
    double catBytes[mem::kNumCategories] = {};
    double blocksLoaded = 0.0, blocksSkipped = 0.0;
    double seqAcc = 0.0, randAcc = 0.0, devBytes = 0.0, devSeconds = 0.0;
    double linkBytes = 0.0;
    for (const auto &traces : perPartition) {
        model::WorkloadMetrics m = model::replayTraces(traces, in.device);
        for (std::size_t c = 0; c < mem::kNumCategories; ++c)
            catBytes[c] += static_cast<double>(m.run.catBytes[c]);
        blocksLoaded += static_cast<double>(m.blocksLoaded);
        blocksSkipped += static_cast<double>(m.blocksSkipped);
        seqAcc += static_cast<double>(m.run.seqAccesses);
        randAcc += static_cast<double>(m.run.randAccesses);
        devBytes += static_cast<double>(m.run.deviceBytes);
        devSeconds += m.run.seconds;
        linkBytes += static_cast<double>(m.run.linkBytes);
    }

    const double n = static_cast<double>(nq);
    result.metric("plan.us_per_query", planUs / n, "us");
    double allDecodeUs = 0.0, allValues = 0.0;
    for (compress::Scheme s : compress::kAllSchemes) {
        const auto i = static_cast<std::size_t>(s);
        allDecodeUs += decodeUs[i];
        allValues += decodeValues[i];
        const std::string name = "decode." + schemeKey(s) + ".ns_per_value";
        const double ns = ratio(decodeUs[i] * 1e3, decodeValues[i]);
        // OptPFD and S16 carry almost every value on every workload;
        // the rarer codecs go to the attribution when present.
        if (s == compress::Scheme::OptPFD || s == compress::Scheme::S16)
            result.metric(name, ns, "ns");
        else if (decodeValues[i] > 0.0)
            result.note(name, ns);
        result.note("decode." + schemeKey(s) + ".values", decodeValues[i]);
    }
    result.metric("decode.ns_per_value", allDecodeUs * 1e3 / allValues,
                  "ns");
    result.metric("decode.values_per_query", decodeVals / n, "count");
    result.metric("engine.us_per_query", execUs / n, "us");
    result.metric("engine.ns_per_scored_doc", ratio(execUs * 1e3, scored),
                  "ns");
    result.metric("engine.scored_docs_per_query", scored / n, "count");
    result.metric("engine.union_steps_per_query", unionSteps / n, "count");
    result.metric("engine.skipped_docs_frac",
                  ratio(skipped, scored + skipped), "fraction");
    result.metric("hooks.us_per_query", (buildUs - execUs) / n, "us");
    result.metric("hooks.ns_per_scored_doc",
                  ratio((buildUs - execUs) * 1e3, scored), "ns");
    result.metric("replay.us_per_query", replayUs / n, "us");
    result.metric("replay.ns_per_memreq", ratio(replayUs * 1e3, memReqs),
                  "ns");
    result.metric("replay.memreqs_per_query", memReqs / n, "count");
    result.metric("merge.us_per_query", mergeUs / n, "us");
    result.metric(
        "model.ld_list_bytes_per_query",
        catBytes[static_cast<std::size_t>(mem::Category::LdList)] / n,
        "bytes");
    result.metric(
        "model.ld_score_bytes_per_query",
        catBytes[static_cast<std::size_t>(mem::Category::LdScore)] / n,
        "bytes");
    // BOSS returns its top-k over the host link, so ST_Result stays
    // zero; the link bytes are the result traffic.
    result.note(
        "model.st_result_bytes_per_query",
        catBytes[static_cast<std::size_t>(mem::Category::StResult)] / n);
    result.metric("model.link_bytes_per_query", linkBytes / n, "bytes");
    result.metric("model.blocks_skipped_frac",
                  ratio(blocksSkipped, blocksLoaded + blocksSkipped),
                  "fraction");
    result.metric("model.seq_access_frac", ratio(seqAcc, seqAcc + randAcc),
                  "fraction");
    result.metric("model.device_gbs", ratio(devBytes, devSeconds) / 1e9,
                  "GB/s");
}

void
reportIngest(const IngestTimes &t, RunResult &result)
{
    result.metric("ingest.append_us_p50", median(t.appendUs), "us");
    result.metric("ingest.refresh_ms_p50", median(t.refreshMs), "ms");
    result.metric("ingest.refresh_ms_max", percentile(t.refreshMs, 1.0),
                  "ms");
    result.metric("ingest.freshness_p99_ms", percentile(t.freshnessMs, 0.99),
                  "ms");
    result.metric("ingest.merges", static_cast<double>(t.merges), "count");
    result.metric("ingest.segments_baked",
                  static_cast<double>(t.segmentsBaked), "count");
    result.note("ingest.appends", static_cast<double>(t.appendUs.size()));
    result.note("ingest.refreshes", static_cast<double>(t.refreshMs.size()));
    result.note("ingest.freshness_samples",
                static_cast<double>(t.freshnessMs.size()));
}

IngestTimes
probeIngest(std::uint64_t seed, SpanLog &spans)
{
    constexpr std::uint32_t kDocs = 4096;
    constexpr std::uint32_t kRefreshEvery = 256;
    index::segments::LiveIndexConfig cfg;
    cfg.termBoundHint = kLiveVocab;
    cfg.maxBufferedDocs = 512;
    cfg.maxSegments = 4;
    cfg.mergeFanIn = 4;
    index::segments::LiveIndex live(cfg);
    Rng rng(streamSeed(seed, 9));

    IngestTimes t;
    std::vector<double> pendingAppends; // start times, not yet visible
    for (std::uint32_t d = 0; d < kDocs; ++d) {
        const std::vector<TermId> doc = syntheticDoc(rng);
        const double a0 = nowUs();
        live.append(doc);
        const double a1 = nowUs();
        t.appendUs.push_back(a1 - a0);
        spans.add("ingest.append", a0, a1 - a0, 0, 0, 4);
        pendingAppends.push_back(a0);
        if ((d + 1) % kRefreshEvery == 0) {
            const double r0 = nowUs();
            live.refresh();
            const double r1 = nowUs();
            t.refreshMs.push_back((r1 - r0) / 1e3);
            spans.add("ingest.refresh", r0, r1 - r0, 0, 0, 4);
            for (double a : pendingAppends)
                t.freshnessMs.push_back((r1 - a) / 1e3);
            pendingAppends.clear();
            while (live.mergeOnce()) {
            }
        }
    }
    t.merges = live.counters().merges.load();
    t.segmentsBaked = live.counters().segmentsBaked.load();
    return t;
}

} // namespace perfbench
