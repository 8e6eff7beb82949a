/**
 * @file
 * Reusable per-query scratch buffers.
 *
 * Every cursor and probe in a query decodes 128-entry blocks into
 * heap vectors; without pooling, each query allocates (and frees) a
 * fresh set. A QueryArena hands out docID/tf buffers whose capacity
 * survives reset(), so a worker thread serving a batch of queries
 * allocates only on its first query and then runs allocation-free on
 * the decode path. Arenas are not thread-safe: each pool worker owns
 * one and threads it through executeQuery().
 */

#ifndef BOSS_ENGINE_ARENA_H
#define BOSS_ENGINE_ARENA_H

#include <deque>

#include "common/aligned.h"
#include "common/types.h"

namespace boss::engine
{

class QueryArena
{
  public:
    /**
     * Borrow a docID buffer until the next reset(). References stay
     * valid across further acquisitions (deque storage). Buffers are
     * AlignedVec: the SIMD decode kernels store into them.
     */
    AlignedVec<DocId> &
    docBuffer()
    {
        if (docsUsed_ == docBufs_.size())
            docBufs_.emplace_back();
        return docBufs_[docsUsed_++];
    }

    /** Borrow a term-frequency buffer until the next reset(). */
    AlignedVec<TermFreq> &
    tfBuffer()
    {
        if (tfsUsed_ == tfBufs_.size())
            tfBufs_.emplace_back();
        return tfBufs_[tfsUsed_++];
    }

    /**
     * Borrow a float buffer until the next reset() (batch-scoring
     * scratch: gathered norms, kernel score output).
     */
    AlignedVec<float> &
    floatBuffer()
    {
        if (floatsUsed_ == floatBufs_.size())
            floatBufs_.emplace_back();
        return floatBufs_[floatsUsed_++];
    }

    /**
     * Return every borrowed buffer to the pool (capacity is kept).
     * Call between queries, after the previous query's cursors are
     * destroyed.
     */
    void
    reset()
    {
        docsUsed_ = 0;
        tfsUsed_ = 0;
        floatsUsed_ = 0;
    }

  private:
    std::deque<AlignedVec<DocId>> docBufs_;
    std::deque<AlignedVec<TermFreq>> tfBufs_;
    std::deque<AlignedVec<float>> floatBufs_;
    std::size_t docsUsed_ = 0;
    std::size_t tfsUsed_ = 0;
    std::size_t floatsUsed_ = 0;
};

} // namespace boss::engine

#endif // BOSS_ENGINE_ARENA_H
