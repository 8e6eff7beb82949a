/**
 * @file
 * Instrumentation interface for query execution.
 *
 * The functional algorithms in engine/ run identically for every
 * system model; what differs is the cost of each step. Timing models
 * (BOSS, IIU, the Lucene-like CPU baseline) implement ExecHooks to
 * charge cycles and issue modeled memory traffic; the functional
 * oracle passes nullptr and pays nothing.
 */

#ifndef BOSS_ENGINE_HOOKS_H
#define BOSS_ENGINE_HOOKS_H

#include <cstdint>

#include "common/types.h"
#include "index/compressed_list.h"

namespace boss::engine
{

/**
 * Per-document events, counted in plain integers by the engine (the
 * union loop visits tens of thousands of documents per query; a
 * virtual call per event would cost more than the event).
 */
struct DocWork
{
    std::uint64_t unionSteps = 0;  ///< union-module scheduling steps
    std::uint64_t compares = 0;    ///< set-operation docID comparisons
    std::uint64_t skippedDocs = 0; ///< candidates skipped by ET
    std::uint64_t scoredDocs = 0;  ///< docs scored, each loading its norm
    std::uint64_t scoredTerms = 0; ///< term scores summed over them
    std::uint64_t topkInserts = 0; ///< candidates offered to the top-k
};

/**
 * Execution event callbacks. All have empty defaults so models
 * override only what they charge for.
 */
class ExecHooks
{
  public:
    virtual ~ExecHooks() = default;

    /** Deliver @p work to @p hooks (if any) and zero it. */
    static void
    flush(ExecHooks *hooks, DocWork *work)
    {
        if (hooks != nullptr && work != nullptr) {
            hooks->onDocWork(*work);
            *work = {};
        }
    }

    /** @p count block-metadata records of term @p t were inspected. */
    virtual void onMetaRead(TermId t, std::uint32_t count)
    {
        (void)t;
        (void)count;
    }

    /** A doc-gap payload block was fetched (LD List traffic). */
    virtual void onDocBlockLoad(TermId t, const index::BlockMeta &meta)
    {
        (void)t;
        (void)meta;
    }

    /** A tf payload block was fetched for scoring (LD Score). */
    virtual void onTfBlockLoad(TermId t, const index::BlockMeta &meta)
    {
        (void)t;
        (void)meta;
    }

    /** @p count values went through the decompression module. */
    virtual void onDecode(std::uint32_t count) { (void)count; }

    /**
     * A block was fetched by a random-access membership probe
     * (IIU-style binary-search intersection). Distinct from
     * onDocBlockLoad so memory models can apply the random-access
     * penalty.
     */
    virtual void onProbeBlockLoad(TermId t, const index::BlockMeta &meta)
    {
        (void)t;
        (void)meta;
    }

    /**
     * Per-document work since the previous delivery: called just
     * before each onDocBlockLoad/onProbeBlockLoad and once at the end
     * of the query, so every count lands between the same two block
     * loads as the events it counts.
     */
    virtual void onDocWork(const DocWork &work) { (void)work; }

    /** Intermediate-list spill traffic (IIU-style multi-term). */
    virtual void onIntermediate(std::uint64_t bytesWritten,
                                std::uint64_t bytesRead)
    {
        (void)bytesWritten;
        (void)bytesRead;
    }

    /** Result written back to memory (ST Result). */
    virtual void onResultStore(std::uint64_t bytes) { (void)bytes; }

    /**
     * A payload re-read after a CRC mismatch (transient-fault
     * retry). @p tfPayload distinguishes the tf sidecar from the
     * doc-gap payload; timing models re-issue the block's traffic.
     */
    virtual void onBlockRetry(TermId t, const index::BlockMeta &meta,
                              bool tfPayload)
    {
        (void)t;
        (void)meta;
        (void)tfPayload;
    }

    /**
     * A block abandoned after exhausting CRC re-reads (hard fault):
     * its postings contribute nothing and scores degrade.
     */
    virtual void onBlockDropped(TermId t, const index::BlockMeta &meta)
    {
        (void)t;
        (void)meta;
    }

    /** @p count whole blocks of term @p t skipped without loading. */
    virtual void onSkippedBlocks(TermId t, std::uint64_t count)
    {
        (void)t;
        (void)count;
    }
};

} // namespace boss::engine

#endif // BOSS_ENGINE_HOOKS_H
