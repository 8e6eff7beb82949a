#include "model/trace.h"

#include <utility>

#include "common/bitops.h"
#include "common/logging.h"

namespace boss::model
{

namespace
{

using engine::ExecHooks;
using index::BlockMeta;
using mem::Category;

/** 64 B logical access unit for the Fig. 15 counters. */
constexpr std::uint32_t kAccessUnit = 64;

class TraceBuilder : public ExecHooks
{
  public:
    TraceBuilder(const index::InvertedIndex &index,
                 const index::MemoryLayout &layout,
                 const TraceOptions &options, QueryTrace &out,
                 trace::Scope scope, std::uint16_t lane)
        : index_(index), layout_(layout), options_(options), out_(out),
          scope_(scope), lane_(lane)
    {
        out_.segments.emplace_back(); // leading segment
    }


    // ---- ExecHooks ----

    void
    onMetaRead(TermId t, std::uint32_t count) override
    {
        if (count == 0)
            return;
        seg().work.metaReads += count;
        std::uint32_t &read = metaRead(t);
        Addr cursor = layout_.list(t).metaAddr +
                      static_cast<Addr>(read) * index::kBlockMetaBytes;
        read += count;
        // Metadata is streamed in order; adjacent reads coalesce
        // into one request (the block fetch module prefetches the
        // 19 B records sequentially).
        auto &reqs = seg().reqs;
        if (!reqs.empty()) {
            TraceRequest &last = reqs.back();
            if (last.category == Category::LdList && !last.write &&
                last.addr + last.bytes == cursor) {
                last.bytes += count * index::kBlockMetaBytes;
                out_.catAccesses[static_cast<std::size_t>(
                    Category::LdList)] += 1;
                return;
            }
        }
        addRequest({cursor, count * index::kBlockMetaBytes, false,
                    false, Category::LdList, streamId(StreamClass::Meta, t), 1});
    }

    void
    onDocBlockLoad(TermId t, const BlockMeta &meta) override
    {
        newSegment();
        seg().work.fetchBlocks += 1;
        seg().work.exceptions += meta.exceptionInfo;
        ++out_.blocksLoaded;
        addRequest({layout_.list(t).docAddr + meta.docOffset,
                    meta.docBytes, false, false, Category::LdList,
                    streamId(StreamClass::DocPayload, t), 1});
    }

    void
    onProbeBlockLoad(TermId t, const BlockMeta &meta) override
    {
        newSegment();
        seg().work.fetchBlocks += 1;
        seg().work.exceptions += meta.exceptionInfo;
        ++out_.blocksLoaded;
        // Binary-search probes land anywhere in the list: random.
        addRequest({layout_.list(t).docAddr + meta.docOffset,
                    meta.docBytes, false, true, Category::LdList,
                    streamId(StreamClass::DocPayload, t), 1});
    }

    void
    onTfBlockLoad(TermId t, const BlockMeta &meta) override
    {
        seg().work.exceptions += meta.exceptionInfo;
        addRequest({layout_.list(t).tfAddr + meta.tfOffset,
                    meta.tfBytes, false, false, Category::LdScore,
                    streamId(StreamClass::TfPayload, t), 1});
        // The block's per-posting norm sidecar (4 B each) is fetched
        // with the tf payload; both are needed only when a document
        // in the block is actually scored.
        if (!options_.normsCached) {
            addRequest({layout_.list(t).normAddr +
                            static_cast<Addr>(meta.firstIndex) *
                                index::kDocNormBytes,
                        meta.numElems * index::kDocNormBytes, false,
                        false, Category::LdScore,
                        streamId(StreamClass::NormSidecar, t), 1});
        }
    }

    void
    onDecode(std::uint32_t count) override
    {
        seg().work.decodeVals += count;
    }

    void
    onDocWork(const engine::DocWork &work) override
    {
        SegmentWork &w = seg().work;
        w.unionSteps += static_cast<std::uint32_t>(work.unionSteps);
        w.compares += static_cast<std::uint32_t>(work.compares);
        w.scoreDocs += static_cast<std::uint32_t>(work.scoredDocs);
        w.scoreTermOps += static_cast<std::uint32_t>(work.scoredTerms);
        w.topkOps += static_cast<std::uint32_t>(work.topkInserts);
        // Norms arrive with the block's tf sidecar (onTfBlockLoad);
        // a scored doc's norm costs no traffic of its own.
        w.normGranules += static_cast<std::uint32_t>(work.scoredDocs);
        out_.evaluatedDocs += work.scoredDocs;
        out_.skippedDocs += work.skippedDocs;
    }

    void
    onIntermediate(std::uint64_t bytesWritten,
                   std::uint64_t bytesRead) override
    {
        if (bytesWritten > 0) {
            addRequest({scratchBase(), clamp32(bytesWritten), true,
                        false, Category::StInter,
                        streamId(StreamClass::Intermediate, 0),
                        accesses(bytesWritten)});
        }
        if (bytesRead > 0) {
            addRequest({scratchBase(), clamp32(bytesRead), false,
                        false, Category::LdInter,
                        streamId(StreamClass::Intermediate, 0),
                        accesses(bytesRead)});
        }
    }

    void
    onResultStore(std::uint64_t bytes) override
    {
        out_.resultStoreBytes += bytes;
        // An accelerator without a hardware top-k module (IIU)
        // materializes the full scored list in the node's SCM
        // ("output a scored, yet unsorted, list of documents in
        // memory"), paying the device's slow write bandwidth before
        // the host reads it back for sorting. BOSS's top-k list is
        // tiny and only crosses the link at query completion.
        if (options_.flags.storeAllResults && bytes > 0) {
            addRequest({scratchBase() + (1u << 24), clamp32(bytes),
                        true, false, Category::StResult,
                        streamId(StreamClass::Result, 0),
                        accesses(bytes)});
        } else {
            out_.catAccesses[static_cast<std::size_t>(
                Category::StResult)] += accesses(bytes);
        }
    }

    void
    onBlockRetry(TermId t, const BlockMeta &meta,
                 bool tfPayload) override
    {
        ++out_.crcRetries;
        // A retry is a second fetch of the same payload -- random,
        // because the prefetch streams have moved on by the time the
        // CRC miss is known.
        if (tfPayload) {
            addRequest({layout_.list(t).tfAddr + meta.tfOffset,
                        meta.tfBytes, false, true, Category::LdScore,
                        streamId(StreamClass::TfPayload, t), 1});
        } else {
            addRequest({layout_.list(t).docAddr + meta.docOffset,
                        meta.docBytes, false, true, Category::LdList,
                        streamId(StreamClass::DocPayload, t), 1});
        }
        if (scope_) {
            scope_.instant(lane_, "crc_retry", scope_.hostMicros(),
                           {{"term", t},
                            {"tf", tfPayload ? 1 : 0}});
        }
    }

    void
    onBlockDropped(TermId t, const BlockMeta &meta) override
    {
        ++out_.blocksDropped;
        if (scope_) {
            scope_.instant(lane_, "block_dropped", scope_.hostMicros(),
                           {{"term", t},
                            {"first_doc", meta.firstDoc}});
        }
    }

    void
    onSkippedBlocks(TermId t, std::uint64_t count) override
    {
        out_.blocksSkipped += count;
        if (scope_) {
            scope_.instant(lane_, "skip_blocks", scope_.hostMicros(),
                           {{"term", t}, {"count", count}});
        }
    }

  private:
    TraceSegment &seg() { return out_.segments.back(); }

    static std::uint32_t
    clamp32(std::uint64_t v)
    {
        return static_cast<std::uint32_t>(
            std::min<std::uint64_t>(v, 0xFFFFFFFFu));
    }

    std::uint32_t
    accesses(std::uint64_t bytes) const
    {
        return static_cast<std::uint32_t>(ceilDiv(bytes, kAccessUnit));
    }

    Addr
    scratchBase() const
    {
        // Intermediate spills land in a scratch region past the
        // index image.
        return roundUp(layout_.end(), 4096);
    }

    void
    addRequest(TraceRequest req)
    {
        out_.catAccesses[static_cast<std::size_t>(req.category)] +=
            std::max(1u, accesses(req.bytes));
        seg().reqs.push_back(req);
    }

    void
    newSegment()
    {
        out_.segments.emplace_back();
    }

    /** Metadata records of term @p t read so far in this query. */
    std::uint32_t &
    metaRead(TermId t)
    {
        for (auto &[term, count] : metaRead_) {
            if (term == t)
                return count;
        }
        return metaRead_.emplace_back(t, 0).second;
    }

    const index::InvertedIndex &index_;
    const index::MemoryLayout &layout_;
    const TraceOptions &options_;
    QueryTrace &out_;
    trace::Scope scope_;
    std::uint16_t lane_;

    /** (term, records read): a query has a handful of terms. */
    std::vector<std::pair<TermId, std::uint32_t>> metaRead_;
};

} // namespace

trace::QuerySummary
summarizeTrace(const QueryTrace &t)
{
    // The summary's traffic classes mirror the memory model's
    // categories one-to-one (and in the same order).
    static_assert(trace::kNumTrafficClasses == mem::kNumCategories);

    trace::QuerySummary s;
    s.terms = t.numTerms;
    s.blocksLoaded = t.blocksLoaded;
    s.blocksSkipped = t.blocksSkipped;
    s.docsScored = t.evaluatedDocs;
    s.docsSkipped = t.skippedDocs;
    s.resultBytes = t.resultStoreBytes;
    s.crcRetries = t.crcRetries;
    s.blocksDropped = t.blocksDropped;
    SegmentWork work = t.totalWork();
    s.valuesDecoded = work.decodeVals;
    s.normsFetched = work.normGranules;
    s.topkInserts = work.topkOps;
    for (std::size_t c = 0; c < mem::kNumCategories; ++c)
        s.classAccesses[c] = t.catAccesses[c];
    for (const auto &seg : t.segments) {
        for (const auto &req : seg.reqs)
            s.classBytes[static_cast<std::size_t>(req.category)] +=
                req.bytes;
    }
    return s;
}

SegmentWork
QueryTrace::totalWork() const
{
    SegmentWork total;
    for (const auto &seg : segments) {
        total.fetchBlocks += seg.work.fetchBlocks;
        total.metaReads += seg.work.metaReads;
        total.decodeVals += seg.work.decodeVals;
        total.exceptions += seg.work.exceptions;
        total.compares += seg.work.compares;
        total.unionSteps += seg.work.unionSteps;
        total.scoreDocs += seg.work.scoreDocs;
        total.scoreTermOps += seg.work.scoreTermOps;
        total.topkOps += seg.work.topkOps;
        total.normGranules += seg.work.normGranules;
    }
    return total;
}

QueryTrace
buildTrace(const index::InvertedIndex &index,
           const index::MemoryLayout &layout,
           const engine::QueryPlan &plan, const TraceOptions &options,
           std::vector<engine::Result> *results,
           engine::QueryArena *arena, trace::Scope scope,
           std::uint16_t lane)
{
    QueryTrace trace;
    trace.numTerms = static_cast<std::uint32_t>(plan.allTerms.size());
    TraceBuilder builder(index, layout, options, trace, scope, lane);
    auto topk =
        engine::executeQuery(index, plan, options.k, options.flags,
                             &builder, arena, options.faults,
                             options.tombstones);
    // The winning top-k list itself crosses the link to the host.
    if (!options.flags.storeAllResults)
        trace.resultStoreBytes += topk.size() * 8;
    if (results != nullptr)
        *results = std::move(topk);
    return trace;
}

} // namespace boss::model
