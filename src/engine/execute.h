/**
 * @file
 * Query execution: one algorithm family, four behaviors.
 *
 * The flag set reproduces every system and ablation in the paper:
 *
 *   BOSS            blockSkip=1 wandSkip=1
 *   BOSS-block-only blockSkip=1 wandSkip=0          (Fig. 14)
 *   BOSS-exhaustive blockSkip=0 wandSkip=0          (Fig. 13)
 *   IIU             binaryIntersect=1 storeAllResults=1
 *   Lucene-like CPU all skips off (SvS with skip lists)
 *
 * All variants return the exact same top-k (early termination is
 * lossless); tests assert this invariant.
 */

#ifndef BOSS_ENGINE_EXECUTE_H
#define BOSS_ENGINE_EXECUTE_H

#include <vector>

#include "engine/arena.h"
#include "engine/cursor.h"
#include "engine/hooks.h"
#include "engine/plan.h"
#include "engine/resilience.h"
#include "engine/topk.h"
#include "index/doc_filter.h"
#include "index/inverted_index.h"

namespace boss::engine
{

/** Behavior switches (see file comment). */
struct ExecFlags
{
    /** Block-level early termination in the block fetch module. */
    bool blockSkip = true;
    /** Doc-level WAND early termination in the union module. */
    bool wandSkip = true;
    /** IIU-style binary-search membership intersection. */
    bool binaryIntersect = false;
    /**
     * Score every candidate and write the full scored list back to
     * memory (host-side top-k, as IIU does).
     */
    bool storeAllResults = false;
};

/** Default number of results (paper: k = 1000). */
inline constexpr std::size_t kDefaultTopK = 1000;

/**
 * A QueryPlan compiled for the union loop: every cursor of the query
 * in one flat array, in construction order, plus a clause table.
 *
 * A clause is an AND of cursors, most selective list first,
 * optionally ANDed with an OR of single cursors (its tail). Each DNF
 * group becomes one clause, except that when every group is one
 * common term set plus a single further term, the plan factors into
 * the one clause common AND (rest1 OR rest2 ...): Q6's
 * A AND (B OR C OR D) fetches A once, as the hardware pipelines it.
 * The plan is positioned on each clause's first match on
 * construction.
 *
 * The loop (run) and the clause operations are plain calls on this
 * table. Block loads, decodes and skips fire the hooks as they
 * happen; per-document events are counted in a DocWork, which the
 * cursors hand to the hooks before each doc block load. Bounds and
 * scores keep the float association of the per-clause definitions
 * below, so traces and results are bit-stable.
 */
class CompiledPlan
{
  public:
    /**
     * @p arena, when non-null, supplies every cursor's decode
     * scratch; reset it only after the plan is destroyed. @p faults,
     * when non-null, guards every cursor's decode with the
     * CRC/retry/drop policy. @p work must outlive the plan.
     */
    CompiledPlan(const index::InvertedIndex &index, const QueryPlan &plan,
                 ExecHooks *hooks, QueryArena *arena,
                 FaultPolicy *faults, DocWork &work);

    /** The union/WAND/block-skip loop over every clause. */
    std::vector<Result> run(std::size_t k, const ExecFlags &flags,
                            const index::TombstoneSet *tombstones);

    std::size_t numClauses() const { return clauses_.size(); }
    bool atEnd(std::size_t c) const { return doc(c) == kInvalidDocId; }
    /** Current doc of clause @p c (kInvalidDocId once exhausted). */
    DocId doc(std::size_t c) const { return clauses_[c].doc; }
    /**
     * WAND bound of clause @p c: its members' list maxima summed in
     * member order, the tail's own sum added as one value.
     */
    float upperBound(std::size_t c) const { return clauses_[c].ub; }

    void
    next(std::size_t c)
    {
        cursors_[clauses_[c].andBegin].next();
        settle(clauses_[c]);
    }

    void
    advanceTo(std::size_t c, DocId target)
    {
        if (doc(c) >= target)
            return; // an exhausted clause sits at kInvalidDocId
        cursors_[clauses_[c].andBegin].advanceTo(target);
        settle(clauses_[c]);
    }

    /**
     * Skip clause @p c past its current block: a single cursor skips
     * its block unfetched, a conjunction advances past blockEnd().
     */
    void skipPastBlock(std::size_t c);
    /** Last doc covered by every live member's current block. */
    DocId blockEnd(std::size_t c) const;
    /**
     * Max contribution of clause @p c to any doc in [lo, hi] from
     * block metadata, summed like upperBound().
     */
    float maxBlockUBInRange(std::size_t c, DocId lo, DocId hi) const;

    /**
     * Fetch the tf of every member of clause @p c that sits on its
     * doc, in member order; returns the number of matches. A term
     * reached through two clauses is collected once per clause.
     */
    std::uint32_t collectMatches(std::size_t c);
    /** tf collected for the @p rank-th smallest query term, else 0. */
    TermFreq collectedTf(std::size_t rank) const { return tfs_[rank]; }
    /**
     * Sum the BM25 scores of the collected terms of doc @p d in
     * ascending term order (each term once) and clear them.
     */
    Score scoreCollected(DocId d);

  private:
    struct Clause
    {
        std::uint32_t andBegin, andEnd; ///< ANDed cursors, lead first
        std::uint32_t orBegin, orEnd;   ///< tail cursors (may be empty)
        bool single; ///< one cursor, no tail: the clause is a term
        float ub;
        DocId doc = kInvalidDocId;
        /** blockEnd() of the block the block check last inspected. */
        DocId lastBlockChecked = kInvalidDocId;
    };

    void addClause(std::vector<TermId> andTerms,
                   const std::vector<TermId> &orTerms);
    /** Position clause @p c after its lead cursor moved. */
    void
    settle(Clause &c)
    {
        const ListCursor &lead = cursors_[c.andBegin];
        if (c.single)
            c.doc = lead.atEnd() ? kInvalidDocId : lead.doc();
        else
            findMatch(c);
    }
    /** Align every member on the lead's next common doc. */
    void findMatch(Clause &c);
    /** Advance the tail to @p target; its min doc or kInvalidDocId. */
    DocId advanceTail(const Clause &c, DocId target);

    const index::InvertedIndex &index_;
    ExecHooks *hooks_;
    QueryArena *arena_;
    FaultPolicy *faults_;
    DocWork &work_;
    std::vector<ListCursor> cursors_;
    std::vector<Clause> clauses_;
    std::vector<TermId> terms_;          ///< sorted distinct terms
    std::vector<std::uint32_t> rank_;    ///< per cursor: its term's rank
    std::vector<float> idfs_;            ///< per rank
    std::vector<TermFreq> tfs_;          ///< per rank, collected
    std::vector<std::uint64_t> matched_; ///< rank bitmask, collected
};

/**
 * Execute @p plan against @p index and return the top-k results in
 * rank order. @p hooks may be nullptr for pure functional use.
 * @p arena, when non-null, supplies reusable decode scratch (reset it
 * between queries); results are identical with or without it.
 * @p faults, when non-null, CRC-verifies every block payload under
 * the fault model's injected errors: unrecoverable blocks are
 * dropped, degrading scores instead of crashing. A null @p faults is
 * the unchecked fast path with bit-identical results to builds
 * without the resilience layer.
 * @p tombstones, when non-null, filters deleted documents out before
 * they can enter the top-k heap (live-index deletes). Pruning bounds
 * are computed over all postings including tombstoned ones — a valid
 * over-approximation — so early termination stays lossless: results
 * are bit-identical to an index rebuilt from the surviving docs with
 * the same baked statistics.
 */
std::vector<Result>
executeQuery(const index::InvertedIndex &index, const QueryPlan &plan,
             std::size_t k, const ExecFlags &flags,
             ExecHooks *hooks = nullptr, QueryArena *arena = nullptr,
             FaultPolicy *faults = nullptr,
             const index::TombstoneSet *tombstones = nullptr);

/**
 * Brute-force oracle: decodes every posting list fully and scores
 * with hash maps. Slow; used by tests as ground truth.
 */
std::vector<Result>
naiveTopK(const index::InvertedIndex &index, const QueryPlan &plan,
          std::size_t k,
          const index::TombstoneSet *tombstones = nullptr);

} // namespace boss::engine

#endif // BOSS_ENGINE_EXECUTE_H
