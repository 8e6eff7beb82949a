/**
 * @file
 * Posting-list cursor with metadata-driven block skipping and lazy
 * block fetching.
 *
 * The cursor is the shared traversal primitive. Blocks are *fetched
 * lazily*: positioning on a block reads only its 19-byte metadata;
 * the payload is fetched and decompressed the first time a document
 * beyond the metadata is needed. This is what lets the BOSS block
 * fetch module skip whole blocks -- decided from metadata alone --
 * without ever paying their SCM traffic. Every block load, decode and
 * skip fires an ExecHooks callback so timing models can charge for
 * it; skipped documents are counted in the query's DocWork, which the
 * cursor hands to the hooks before each doc block load.
 *
 * Decode scratch comes from an optional QueryArena so batch loops
 * run allocation-free; the cursor memoizes the decoded block and the
 * tf payload is decoded on its own (never re-decoding the docIDs it
 * rides with). The per-posting calls (doc, next, tf, in-block
 * advanceTo, peekMaxInRange) are inline; block changes are not.
 */

#ifndef BOSS_ENGINE_CURSOR_H
#define BOSS_ENGINE_CURSOR_H

#include <algorithm>
#include <memory>

#include "common/aligned.h"
#include "common/logging.h"
#include "engine/arena.h"
#include "engine/hooks.h"
#include "engine/resilience.h"
#include "index/compressed_list.h"
#include "kernels/kernels.h"

namespace boss::engine
{

class ListCursor
{
  public:
    /**
     * @param list the compressed posting list to traverse
     * @param hooks instrumentation sink (may be nullptr)
     * @param arena scratch-buffer pool (may be nullptr; the cursor
     *        then owns its decode buffers)
     * @param faults decode-time CRC/retry/drop policy (nullptr —
     *        the default — decodes directly, bit-identical to a
     *        build without fault injection)
     * @param work the query's per-document counters (may be
     *        nullptr): skipped docs are added to it, and it is
     *        delivered to @p hooks before each doc block load
     */
    ListCursor(const index::CompressedPostingList &list,
               ExecHooks *hooks, QueryArena *arena = nullptr,
               FaultPolicy *faults = nullptr, DocWork *work = nullptr);

    /** Exhausted? Once true, doc() is invalid. */
    bool atEnd() const { return ended_; }

    /**
     * Current docID. At an unfetched block this is the metadata's
     * firstDoc -- no payload fetch happens. Undefined on an
     * exhausted cursor (checked in debug builds only: this is the
     * engine's hottest call).
     */
    DocId
    doc() const
    {
        BOSS_DEBUG_ASSERT(!ended_, "doc() on exhausted cursor");
        return decoded_ ? docs_[pos_] : list_.blocks[block_].firstDoc;
    }

    /**
     * Current posting's term frequency. Lazily fetches the doc and
     * tf payloads of the current block on first use.
     */
    TermFreq
    tf()
    {
        return tfLoaded_ ? tfBuf_->data()[pos_] : loadTf();
    }

    /** Advance to the next posting (fetches the current block). */
    void
    next()
    {
        if (decoded_ && pos_ + 1 < len_)
            ++pos_;
        else
            nextBlock();
    }

    /**
     * Advance to the first posting with docID >= @p target. Seeks at
     * block granularity first (metadata only; skipped blocks are
     * never fetched), then scans within the landing block. Landing
     * in the already-decoded block never re-decodes.
     */
    void
    advanceTo(DocId target)
    {
        if (ended_ || doc() >= target)
            return;
        if (decoded_ && target <= docs_[len_ - 1])
            seekInBlock(target);
        else
            seek(target);
    }

    /**
     * Jump past the current block without evaluating its remaining
     * documents (block fetch module early termination). If the block
     * was never fetched, it never will be.
     */
    void skipPastBlock();

    /**
     * Max term score among this list's blocks overlapping
     * [@p lo, @p hi], scanning metadata forward from the current
     * block (the score estimation unit's overlap inspection).
     */
    float
    peekMaxInRange(DocId lo, DocId hi) const
    {
        if (ended_)
            return 0.f;
        // The score estimation unit holds only a small window of
        // block metadata (the paper's 288 B block-fetch buffer); when
        // a range spans more blocks than the window, fall back to the
        // list-level maximum -- a free, still-safe upper bound.
        // Records in the window are already buffered on-chip: each
        // record's fetch is charged once, when the cursor positions
        // on its block (setBlock); peeking is free.
        constexpr std::uint32_t kPeekWindow = 2;
        float best = 0.f;
        for (std::uint32_t b = block_; b < list_.numBlocks(); ++b) {
            const index::BlockMeta &meta = list_.blocks[b];
            if (meta.firstDoc > hi)
                break;
            if (b - block_ >= kPeekWindow)
                return list_.maxTermScore;
            if (meta.lastDoc >= lo)
                best = std::max(best, meta.maxTermScore);
        }
        return best;
    }

    /** Metadata of the current block. */
    const index::BlockMeta &
    blockMeta() const
    {
        return list_.blocks[block_];
    }

    /** Last docID of the current block. */
    DocId blockLast() const { return blockMeta().lastDoc; }

    /** List-wide upper bound (WAND). */
    float listMax() const { return list_.maxTermScore; }

    float idf() const { return list_.idf; }
    std::uint32_t docCount() const { return list_.docCount; }

    const index::CompressedPostingList &list() const { return list_; }

    /** Number of doc blocks actually fetched+decoded so far. */
    std::uint32_t blocksLoaded() const { return blocksLoaded_; }

  private:
    /** Position on block @p b (metadata only, no payload fetch). */
    void setBlock(std::uint32_t b);
    /** Fetch + decode the current block's doc payload if needed. */
    void ensureDecoded();
    /** tf() past its fast path: fetch the tf payload. */
    TermFreq loadTf();
    /** next() at the end of a block or before its fetch. */
    void nextBlock();
    /** advanceTo() into the current, decoded block. */
    void
    seekInBlock(DocId target)
    {
        // The block's last doc is >= target, so the search never
        // runs off the block.
        pos_ += static_cast<std::uint32_t>(
            lowerBound_(docs_ + pos_, len_ - pos_, target));
    }
    /** advanceTo() past the fast path (block seek or fetch). */
    void seek(DocId target);
    /**
     * Exhaust the cursor. Clearing decoded_ and tfLoaded_ sends a
     * later next() or tf() off its inline fast path to nextBlock()
     * or loadTf(), which assert.
     */
    void
    exhaust()
    {
        ended_ = true;
        decoded_ = tfLoaded_ = false;
    }

    /** No block decoded yet (decodedBlock_ sentinel). */
    static constexpr std::uint32_t kNoBlock = 0xFFFFFFFFu;

    const index::CompressedPostingList &list_;
    ExecHooks *hooks_;
    FaultPolicy *faults_;
    DocWork *work_;
    /** In-block seek kernel, read from kernels::ops() once. */
    decltype(kernels::Ops::lowerBound) lowerBound_;
    std::uint32_t block_ = 0;  ///< current block index
    std::uint32_t pos_ = 0;    ///< position within decoded block
    std::uint32_t len_ = 0;    ///< postings in the decoded block
    bool ended_ = false;
    bool decoded_ = false;
    bool tfLoaded_ = false;
    /**
     * The decoded block was dropped by the fault policy: the doc
     * buffer holds the single sentinel posting (lastDoc, tf 0) that
     * keeps every traversal invariant while contributing nothing to
     * scores.
     */
    bool dropped_ = false;
    std::uint32_t decodedBlock_ = kNoBlock; ///< block the buffer holds
    std::uint32_t blocksLoaded_ = 0;
    const DocId *docs_ = nullptr; ///< decoded docIDs (docBuf_'s data)
    AlignedVec<DocId> *docBuf_;   ///< decode scratch (arena or owned)
    AlignedVec<TermFreq> *tfBuf_;
    /**
     * Decode scratch when there is no arena. On the heap, so a
     * moved cursor's buffer pointers stay valid.
     */
    struct OwnedBuffers
    {
        AlignedVec<DocId> docs;
        AlignedVec<TermFreq> tfs;
    };
    std::unique_ptr<OwnedBuffers> owned_;
};

} // namespace boss::engine

#endif // BOSS_ENGINE_CURSOR_H
