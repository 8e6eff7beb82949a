#include "engine/execute.h"

#include <algorithm>
#include <bit>
#include <map>
#include <set>

#include "common/aligned.h"
#include "common/logging.h"
#include "index/block_decoder.h"
#include "kernels/kernels.h"

namespace boss::engine
{

// ------------------------------------------------------------------
// CompiledPlan: construction
// ------------------------------------------------------------------

CompiledPlan::CompiledPlan(const index::InvertedIndex &index,
                           const QueryPlan &plan, ExecHooks *hooks,
                           QueryArena *arena, FaultPolicy *faults,
                           DocWork &work)
    : index_(index), hooks_(hooks), arena_(arena), faults_(faults),
      work_(work)
{
    BOSS_ASSERT(!plan.groups.empty(), "empty query plan");
    std::size_t members = 0;
    for (const auto &g : plan.groups) {
        members += g.size();
        terms_.insert(terms_.end(), g.begin(), g.end());
    }
    std::sort(terms_.begin(), terms_.end());
    terms_.erase(std::unique(terms_.begin(), terms_.end()), terms_.end());
    for (TermId t : terms_)
        idfs_.push_back(index.list(t).idf);
    tfs_.assign(terms_.size(), 0);
    matched_.assign((terms_.size() + 63) / 64, 0);
    cursors_.reserve(members);
    rank_.reserve(members);

    // Factor terms common to every group (groups are sorted sets):
    // A AND (B OR C) arrives as {A,B},{A,C} and becomes A ^ (B v C).
    if (plan.groups.size() >= 2) {
        std::vector<TermId> common = plan.groups[0];
        for (const auto &g : plan.groups) {
            std::vector<TermId> next;
            std::set_intersection(common.begin(), common.end(),
                                  g.begin(), g.end(),
                                  std::back_inserter(next));
            common = std::move(next);
        }
        // Only factor the simple common-prefix shape the hardware
        // pipelines (each rest a single term).
        std::vector<TermId> rests;
        for (const auto &g : plan.groups) {
            std::vector<TermId> rest;
            std::set_difference(g.begin(), g.end(), common.begin(),
                                common.end(), std::back_inserter(rest));
            if (common.empty() || rest.size() != 1) {
                rests.clear();
                break;
            }
            rests.push_back(rest[0]);
        }
        if (!rests.empty()) {
            addClause(std::move(common), rests);
            return;
        }
    }
    for (const auto &g : plan.groups)
        addClause(g, {});
}

void
CompiledPlan::addClause(std::vector<TermId> andTerms,
                        const std::vector<TermId> &orTerms)
{
    // Construction order is hook order: the tail's cursors first,
    // then the conjunction's, most selective list leading.
    auto add = [&](TermId t) {
        rank_.push_back(static_cast<std::uint32_t>(
            std::lower_bound(terms_.begin(), terms_.end(), t) -
            terms_.begin()));
        cursors_.emplace_back(index_.list(t), hooks_, arena_, faults_,
                              &work_);
        return cursors_.back().listMax();
    };
    Clause c;
    c.orBegin = static_cast<std::uint32_t>(cursors_.size());
    float tail = 0.f;
    for (TermId t : orTerms)
        tail += add(t);
    c.orEnd = c.andBegin = static_cast<std::uint32_t>(cursors_.size());
    std::sort(andTerms.begin(), andTerms.end(), [&](TermId a, TermId b) {
        return index_.list(a).docCount < index_.list(b).docCount;
    });
    c.ub = 0.f;
    for (TermId t : andTerms)
        c.ub += add(t);
    c.andEnd = static_cast<std::uint32_t>(cursors_.size());
    c.ub += tail;
    c.single = c.andEnd - c.andBegin == 1 && c.orBegin == c.orEnd;
    clauses_.push_back(c);
    settle(clauses_.back());
}

// ------------------------------------------------------------------
// CompiledPlan: clause operations
// ------------------------------------------------------------------

void
CompiledPlan::findMatch(Clause &c)
{
    // Small-versus-Small: the lead proposes, each member in turn
    // advances to it, and the first one past it (the blocker) moves
    // the lead. The tail counts as one member.
    ListCursor &lead = cursors_[c.andBegin];
    while (!lead.atEnd()) {
        const DocId d = lead.doc();
        DocId blocker = d;
        for (std::uint32_t i = c.andBegin + 1;
             i < c.andEnd && blocker == d; ++i) {
            ListCursor &m = cursors_[i];
            m.advanceTo(d);
            ++work_.compares;
            blocker = m.atEnd() ? kInvalidDocId : m.doc();
        }
        if (blocker == d && c.orBegin != c.orEnd) {
            blocker = advanceTail(c, d);
            ++work_.compares;
        }
        if (blocker == d) {
            c.doc = d;
            return;
        }
        if (blocker == kInvalidDocId)
            break;
        lead.advanceTo(blocker);
    }
    c.doc = kInvalidDocId;
}

DocId
CompiledPlan::advanceTail(const Clause &c, DocId target)
{
    DocId first = kInvalidDocId;
    for (std::uint32_t i = c.orBegin; i < c.orEnd; ++i) {
        ListCursor &m = cursors_[i];
        m.advanceTo(target);
        if (!m.atEnd())
            first = std::min(first, m.doc());
    }
    return first;
}

void
CompiledPlan::skipPastBlock(std::size_t ci)
{
    Clause &c = clauses_[ci];
    if (!c.single) {
        advanceTo(ci, blockEnd(ci) + 1);
        return;
    }
    cursors_[c.andBegin].skipPastBlock();
    settle(c);
}

DocId
CompiledPlan::blockEnd(std::size_t ci) const
{
    const Clause &c = clauses_[ci];
    DocId end = kInvalidDocId;
    for (std::uint32_t i = c.andBegin; i < c.andEnd; ++i)
        end = std::min(end, cursors_[i].blockLast());
    for (std::uint32_t i = c.orBegin; i < c.orEnd; ++i) {
        if (!cursors_[i].atEnd())
            end = std::min(end, cursors_[i].blockLast());
    }
    return end;
}

float
CompiledPlan::maxBlockUBInRange(std::size_t ci, DocId lo, DocId hi) const
{
    const Clause &c = clauses_[ci];
    float ub = 0.f;
    for (std::uint32_t i = c.andBegin; i < c.andEnd; ++i)
        ub += cursors_[i].peekMaxInRange(lo, hi);
    if (c.orBegin != c.orEnd) {
        float tail = 0.f; // an exhausted cursor peeks 0
        for (std::uint32_t i = c.orBegin; i < c.orEnd; ++i)
            tail += cursors_[i].peekMaxInRange(lo, hi);
        ub += tail;
    }
    return ub;
}

std::uint32_t
CompiledPlan::collectMatches(std::size_t ci)
{
    const Clause &c = clauses_[ci];
    std::uint32_t n = 0;
    auto collect = [&](ListCursor &m, std::uint32_t r) {
        tfs_[r] = m.tf();
        matched_[r / 64] |= 1ull << (r % 64);
        ++n;
    };
    for (std::uint32_t i = c.andBegin; i < c.andEnd; ++i)
        collect(cursors_[i], rank_[i]);
    for (std::uint32_t i = c.orBegin; i < c.orEnd; ++i) {
        if (!cursors_[i].atEnd() && cursors_[i].doc() == c.doc)
            collect(cursors_[i], rank_[i]);
    }
    return n;
}

Score
CompiledPlan::scoreCollected(DocId d)
{
    // Sum in canonical term order: float addition is not
    // associative, so summing in stream-arrival order would make a
    // doc's score depend on the skip history that led to it. Term
    // order makes the score a pure function of the matched set --
    // bit-identical across ablation flags, shard counts, and the
    // exhaustive oracle. A term reaching the doc through two DNF
    // groups sets one bit, so it is summed once.
    const float norm = index_.doc(d).norm;
    Score total = 0.f;
    for (std::size_t w = 0; w < matched_.size(); ++w) {
        for (std::uint64_t bits = matched_[w]; bits != 0;
             bits &= bits - 1) {
            const std::size_t r = w * 64 + std::countr_zero(bits);
            total += index_.scorer().termScore(idfs_[r], tfs_[r], norm);
            tfs_[r] = 0;
        }
        matched_[w] = 0;
    }
    return total;
}

// ------------------------------------------------------------------
// CompiledPlan: the loop
// ------------------------------------------------------------------

std::vector<Result>
CompiledPlan::run(std::size_t k, const ExecFlags &flags,
                  const index::TombstoneSet *tombstones)
{
    // The union/top-k loop: WAND pivoting (union module) plus
    // block-level refinement (block fetch module), both optional.
    //
    // `live` holds the unexhausted clauses sorted by doc for the
    // whole loop. An iteration only ever advances a *prefix* of it
    // (the clauses at or below the pivot / current doc), so restoring
    // order re-inserts just those, each after every clause with an
    // equal or smaller doc -- the suffix never moves.
    TopK topk(k);
    std::uint64_t resultBytes = 0;
    std::vector<std::uint32_t> live;
    std::vector<std::uint32_t> moved;
    live.reserve(clauses_.size());
    moved.reserve(clauses_.size());
    for (std::uint32_t c = 0; c < clauses_.size(); ++c) {
        if (!atEnd(c))
            live.push_back(c);
    }
    std::stable_sort(live.begin(), live.end(),
                     [this](std::uint32_t a, std::uint32_t b) {
                         return doc(a) < doc(b);
                     });
    auto reorderPrefix = [&](std::size_t m) {
        // The unexhausted prefix, stably sorted by doc, merges into
        // the suffix behind every suffix clause on an equal doc.
        moved.clear();
        for (std::size_t i = 0; i < m; ++i) {
            const std::uint32_t c = live[i];
            if (atEnd(c))
                continue;
            std::size_t j = moved.size();
            moved.push_back(c);
            for (; j > 0 && doc(moved[j - 1]) > doc(c); --j)
                moved[j] = moved[j - 1];
            moved[j] = c;
        }
        std::size_t w = 0, r = m;
        for (std::uint32_t c : moved) {
            while (r < live.size() && doc(live[r]) <= doc(c))
                live[w++] = live[r++];
            live[w++] = c;
        }
        while (r < live.size())
            live[w++] = live[r++];
        live.resize(w);
    };

    while (!live.empty()) {
        ++work_.unionSteps;
        const Score theta = topk.threshold();

        if (flags.wandSkip) {
            // Pivot selection over clause upper bounds.
            float acc = 0.f;
            std::size_t p = live.size();
            for (std::size_t i = 0; i < live.size(); ++i) {
                acc += upperBound(live[i]);
                if (acc > theta) {
                    p = i;
                    break;
                }
            }
            if (p == live.size())
                break; // no remaining doc can beat the cutoff
            const DocId pivot = doc(live[p]);
            if (doc(live[0]) < pivot) {
                // Documents below the pivot are skippable (WAND).
                for (std::size_t i = 0; i < p; ++i) {
                    ++work_.skippedDocs;
                    advanceTo(live[i], pivot);
                }
                reorderPrefix(p);
                continue;
            }
        }

        const DocId d = doc(live[0]);
        std::size_t q = 0;
        while (q + 1 < live.size() && doc(live[q + 1]) == d)
            ++q;

        if (flags.blockSkip && topk.full()) {
            // Block fetch module: each block is inspected once, when
            // the clause first positions on it. The score estimation
            // unit bounds every doc in the block's range by summing
            // the max term-scores of all overlapping blocks (paper
            // Fig. 5(c)); blocks that cannot beat the cutoff are
            // skipped without ever being fetched.
            bool skipped = false;
            for (std::size_t i = 0; i <= q; ++i) {
                Clause &c = clauses_[live[i]];
                const DocId key = blockEnd(live[i]);
                if (c.lastBlockChecked == key)
                    continue; // this block already inspected
                c.lastBlockChecked = key;
                float ub = 0.f;
                for (std::uint32_t other : live)
                    ub += maxBlockUBInRange(other, d, key);
                if (ub <= theta) {
                    skipPastBlock(live[i]);
                    skipped = true;
                }
            }
            if (skipped) {
                reorderPrefix(q + 1);
                continue;
            }
        }

        // A tombstoned doc is never scored nor offered to the heap (it
        // must not raise the top-k threshold); its clauses advance
        // normally so the loop invariants hold.
        if (tombstones == nullptr || !tombstones->deleted(d)) {
            Score s;
            std::uint32_t terms = 0;
            if (q == 0 && clauses_[live[0]].single) {
                // One term on the doc: its score is the sum.
                ListCursor &m = cursors_[clauses_[live[0]].andBegin];
                s = index_.scorer().termScore(m.idf(), m.tf(),
                                              index_.doc(d).norm);
                terms = 1;
            } else {
                for (std::size_t i = 0; i <= q; ++i)
                    terms += collectMatches(live[i]);
                s = scoreCollected(d);
            }
            ++work_.scoredDocs;
            work_.scoredTerms += terms;
            topk.insert(d, s);
            ++work_.topkInserts;
            if (flags.storeAllResults)
                resultBytes += 8; // (docID, score) for host top-k
        }
        for (std::size_t i = 0; i <= q; ++i)
            next(live[i]);
        reorderPrefix(q + 1);
    }

    if (flags.storeAllResults && hooks_ != nullptr)
        hooks_->onResultStore(resultBytes);
    return topk.sorted();
}

namespace
{

/** One surviving candidate in the IIU-style intersection. */
struct IiuCandidate
{
    DocId doc;
    float partialScore; ///< accumulated term scores so far
};

/**
 * IIU-style membership probe: binary-search the block metadata, load
 * the containing block with a random access, binary-search inside.
 * Returns the tf, or 0 if absent. Caches the last loaded block.
 */
class IiuProber
{
  public:
    IiuProber(const index::CompressedPostingList &list, ExecHooks *hooks,
              QueryArena *arena, FaultPolicy *faults, DocWork &work)
        : list_(list), hooks_(hooks), faults_(faults), work_(work),
          docs_(arena != nullptr ? &arena->docBuffer() : &ownedDocs_),
          tfs_(arena != nullptr ? &arena->tfBuffer() : &ownedTfs_)
    {}

    /**
     * Probes arrive in ascending docID order, so the metadata seek
     * resumes from the last position (each record is inspected at
     * most once across all probes). The landing block is loaded with
     * a random access -- probes land wherever the candidate stream
     * dictates -- and binary-searched; the tf/norm sidecar is
     * fetched only when the document actually matches.
     */
    TermFreq
    probe(DocId d)
    {
        std::uint32_t inspected = 0;
        while (searchBase_ < list_.numBlocks() &&
               list_.blocks[searchBase_].lastDoc < d) {
            ++searchBase_;
            ++inspected;
        }
        if (hooks_ != nullptr && inspected > 0)
            hooks_->onMetaRead(list_.term, inspected);
        std::uint32_t lo = searchBase_;
        if (lo >= list_.numBlocks() || list_.blocks[lo].firstDoc > d)
            return 0;
        if (!cached_ || cachedBlock_ != lo) {
            cached_ = true;
            cachedBlock_ = lo;
            tfLoaded_ = false;
            tfDropped_ = false;
            blockDropped_ = false;
            if (hooks_ != nullptr) {
                ExecHooks::flush(hooks_, &work_);
                hooks_->onProbeBlockLoad(list_.term, list_.blocks[lo]);
            }
            if (faults_ != nullptr &&
                !faults_->verifyBlock(list_, lo, false, hooks_)) {
                // Dropped block: every probe landing here misses, so
                // the candidates it would have confirmed degrade out
                // of the intersection instead of crashing the pass.
                blockDropped_ = true;
            } else {
                if (hooks_ != nullptr)
                    hooks_->onDecode(list_.blocks[lo].numElems);
                index::decodeBlock(list_, lo, *docs_, tfs_);
            }
        }
        if (blockDropped_)
            return 0;
        // Branchless/SIMD in-block search (kernel dispatch); the
        // modeled cost stays the metadata-driven estimate below.
        std::size_t idx =
            kernels::ops().lowerBound(docs_->data(), docs_->size(), d);
        work_.compares += 8; // ~log2(128) comparisons
        if (idx == docs_->size() || (*docs_)[idx] != d)
            return 0;
        if (!tfLoaded_) {
            tfLoaded_ = true;
            if (hooks_ != nullptr)
                hooks_->onTfBlockLoad(list_.term, list_.blocks[lo]);
            if (faults_ != nullptr &&
                !faults_->verifyBlock(list_, lo, true, hooks_))
                tfDropped_ = true;
            else if (hooks_ != nullptr)
                hooks_->onDecode(list_.blocks[lo].numElems);
        }
        if (tfDropped_)
            return 0; // unreadable tf sidecar: treat as a miss
        return (*tfs_)[idx];
    }

  private:
    const index::CompressedPostingList &list_;
    ExecHooks *hooks_;
    FaultPolicy *faults_;
    DocWork &work_;
    bool cached_ = false;
    bool tfLoaded_ = false;
    bool tfDropped_ = false;
    bool blockDropped_ = false;
    std::uint32_t cachedBlock_ = 0;
    std::uint32_t searchBase_ = 0;
    AlignedVec<DocId> *docs_;
    AlignedVec<TermFreq> *tfs_;
    AlignedVec<DocId> ownedDocs_;
    AlignedVec<TermFreq> ownedTfs_;
};

/** Fully decode a list, charging sequential loads (IIU base list). */
std::vector<IiuCandidate>
iiuDecodeList(const index::InvertedIndex &index, TermId t,
              ExecHooks *hooks, QueryArena *arena, FaultPolicy *faults,
              DocWork &work)
{
    const auto &list = index.list(t);
    std::vector<IiuCandidate> out;
    out.reserve(list.docCount);
    AlignedVec<DocId> ownedDocs;
    AlignedVec<TermFreq> ownedTfs;
    AlignedVec<float> ownedFloats;
    AlignedVec<DocId> &docs =
        arena != nullptr ? arena->docBuffer() : ownedDocs;
    AlignedVec<TermFreq> &tfs =
        arena != nullptr ? arena->tfBuffer() : ownedTfs;
    AlignedVec<float> &scratch =
        arena != nullptr ? arena->floatBuffer() : ownedFloats;
    const double k1p1 = index.scorer().params().k1 + 1.0;
    for (std::uint32_t b = 0; b < list.numBlocks(); ++b) {
        if (hooks != nullptr) {
            hooks->onMetaRead(t, 1);
            ExecHooks::flush(hooks, &work);
            hooks->onDocBlockLoad(t, list.blocks[b]);
        }
        if (faults != nullptr &&
            !faults->verifyBlock(list, b, false, hooks)) {
            // Unreadable doc payload: the whole block's postings
            // degrade out of the exhaustive scan.
            continue;
        }
        if (hooks != nullptr)
            hooks->onTfBlockLoad(t, list.blocks[b]);
        if (faults != nullptr &&
            !faults->verifyBlock(list, b, true, hooks)) {
            // docIDs survive, tfs do not: keep the candidates at
            // score zero so downstream probes still see them.
            if (hooks != nullptr)
                hooks->onDecode(list.blocks[b].numElems);
            index::decodeBlock(list, b, docs, nullptr);
            for (DocId d : docs)
                out.push_back({d, 0.f});
            continue;
        }
        if (hooks != nullptr)
            hooks->onDecode(2u * list.blocks[b].numElems);
        index::decodeBlock(list, b, docs, &tfs);
        // Batch BM25 term scoring: gather the per-document norms,
        // then score the whole block through the kernel (bit-exact
        // with Bm25::termScore -- identical IEEE op sequence).
        std::size_t m = docs.size();
        scratch.resize(2 * m);
        float *norms = scratch.data();
        float *scores = norms + m;
        for (std::size_t i = 0; i < m; ++i)
            norms[i] = index.doc(docs[i]).norm;
        kernels::ops().scoreBm25(list.idf, k1p1, tfs.data(), norms, m,
                                 scores);
        for (std::size_t i = 0; i < m; ++i)
            out.push_back({docs[i], scores[i]});
    }
    return out;
}

/**
 * IIU execution for plans containing intersections: iterative SvS
 * with binary-search membership probes, spilling intermediate lists
 * to memory between passes (paper Sec. III-B).
 */
std::vector<Result>
iiuIntersectPath(const index::InvertedIndex &index, const QueryPlan &plan,
                 std::size_t k, const ExecFlags &flags, ExecHooks *hooks,
                 QueryArena *arena, FaultPolicy *faults,
                 const index::TombstoneSet *tombstones, DocWork &work)
{
    // Determine the conjunction structure: either one pure group, or
    // the factored common ^ (rest1 v rest2 v ...) shape.
    std::vector<TermId> commonTerms;
    std::vector<TermId> unionTerms;
    if (plan.isPureIntersection()) {
        commonTerms = plan.groups[0];
    } else {
        commonTerms = plan.groups[0];
        for (const auto &g : plan.groups) {
            std::vector<TermId> next;
            std::set_intersection(commonTerms.begin(), commonTerms.end(),
                                  g.begin(), g.end(),
                                  std::back_inserter(next));
            commonTerms = std::move(next);
        }
        std::set<TermId> rest;
        for (const auto &g : plan.groups) {
            for (TermId t : g) {
                if (!std::binary_search(commonTerms.begin(),
                                        commonTerms.end(), t))
                    rest.insert(t);
            }
        }
        unionTerms.assign(rest.begin(), rest.end());
        BOSS_ASSERT(!commonTerms.empty(),
                    "IIU path requires a conjunctive component");
    }

    // Base candidates: the union component merged exhaustively (and
    // spilled), or the smallest conjunctive list.
    std::sort(commonTerms.begin(), commonTerms.end(),
              [&](TermId a, TermId b) {
                  return index.list(a).docCount < index.list(b).docCount;
              });

    std::vector<IiuCandidate> current;
    std::vector<TermId> probeTerms;
    if (unionTerms.empty()) {
        current = iiuDecodeList(index, commonTerms[0], hooks, arena,
                                faults, work);
        probeTerms.assign(commonTerms.begin() + 1, commonTerms.end());
    } else {
        // Merge the union terms' lists (exhaustive, all loaded).
        std::map<DocId, float> merged;
        for (TermId t : unionTerms) {
            for (const auto &c :
                 iiuDecodeList(index, t, hooks, arena, faults, work)) {
                ++work.compares;
                merged[c.doc] += c.partialScore;
            }
        }
        current.reserve(merged.size());
        for (const auto &[d, s] : merged)
            current.push_back({d, s});
        if (hooks != nullptr) {
            // The merged stream is spilled before the intersection.
            hooks->onIntermediate(current.size() * 8, 0);
        }
        probeTerms = commonTerms;
    }

    for (std::size_t pi = 0; pi < probeTerms.size(); ++pi) {
        TermId t = probeTerms[pi];
        const auto &list = index.list(t);
        IiuProber prober(list, hooks, arena, faults, work);
        std::vector<IiuCandidate> next;
        next.reserve(current.size());
        for (const auto &c : current) {
            TermFreq tf = prober.probe(c.doc);
            if (tf == 0)
                continue;
            float s = index.scorer().termScore(list.idf, tf,
                                               index.doc(c.doc).norm);
            next.push_back({c.doc, c.partialScore + s});
        }
        if (hooks != nullptr) {
            // Intermediate spilled and refilled between passes.
            if (pi + 1 < probeTerms.size())
                hooks->onIntermediate(next.size() * 8, next.size() * 8);
            // Reading the candidate list itself.
            if (pi > 0 || !unionTerms.empty())
                hooks->onIntermediate(0, current.size() * 8);
        }
        current = std::move(next);
    }

    TopK topk(k);
    std::uint64_t resultBytes = 0;
    for (const auto &c : current) {
        if (tombstones != nullptr && tombstones->deleted(c.doc))
            continue; // deleted docs never reach the top-k heap
        ++work.scoredDocs;
        ++work.scoredTerms;
        topk.insert(c.doc, c.partialScore);
        ++work.topkInserts;
        if (flags.storeAllResults)
            resultBytes += 8;
    }
    if (flags.storeAllResults && hooks != nullptr)
        hooks->onResultStore(resultBytes);
    return topk.sorted();
}

} // namespace

namespace
{

/**
 * True when the plan has the conjunctive shape the IIU iterative
 * intersection handles: a pure intersection, or common ^ (a v b...)
 * with single-term rests (the Table II query shapes).
 */
bool
hasConjunctiveCore(const QueryPlan &plan)
{
    if (plan.isPureIntersection())
        return true;
    std::vector<TermId> common = plan.groups[0];
    for (const auto &g : plan.groups) {
        std::vector<TermId> next;
        std::set_intersection(common.begin(), common.end(), g.begin(),
                              g.end(), std::back_inserter(next));
        common = std::move(next);
    }
    if (common.empty())
        return false;
    for (const auto &g : plan.groups) {
        if (g.size() != common.size() + 1)
            return false;
    }
    return true;
}

} // namespace

std::vector<Result>
executeQuery(const index::InvertedIndex &index, const QueryPlan &plan,
             std::size_t k, const ExecFlags &flags, ExecHooks *hooks,
             QueryArena *arena, FaultPolicy *faults,
             const index::TombstoneSet *tombstones)
{
    BOSS_ASSERT(!plan.groups.empty(), "empty query plan");
    DocWork work;
    std::vector<Result> results;
    if (flags.binaryIntersect && !plan.isPureUnion() &&
        hasConjunctiveCore(plan)) {
        results = iiuIntersectPath(index, plan, k, flags, hooks, arena,
                                   faults, tombstones, work);
    } else {
        results = CompiledPlan(index, plan, hooks, arena, faults, work)
                      .run(k, flags, tombstones);
    }
    // The work since the last block load.
    ExecHooks::flush(hooks, &work);
    return results;
}

std::vector<Result>
naiveTopK(const index::InvertedIndex &index, const QueryPlan &plan,
          std::size_t k, const index::TombstoneSet *tombstones)
{
    // Decode every term fully.
    std::map<TermId, index::PostingList> decoded;
    for (TermId t : plan.allTerms)
        decoded[t] = index::decodeAll(index.list(t));

    // Candidate docs mapped to the set of terms contributing to
    // their score. Scoring follows boolean-clause semantics: a term
    // contributes only when its whole DNF group matches the doc
    // (terms shared by several matching groups count once).
    std::map<DocId, std::set<TermId>> matched;
    for (const auto &g : plan.groups) {
        std::map<DocId, std::size_t> counts;
        for (TermId t : g) {
            for (const auto &p : decoded[t])
                ++counts[p.doc];
        }
        for (const auto &[d, c] : counts) {
            if (c == g.size())
                matched[d].insert(g.begin(), g.end());
        }
    }

    TopK topk(k);
    for (const auto &[d, terms] : matched) {
        if (tombstones != nullptr && tombstones->deleted(d))
            continue;
        Score s = 0.f;
        for (TermId t : terms) {
            const auto &list = decoded[t];
            auto it = std::lower_bound(
                list.begin(), list.end(), d,
                [](const index::Posting &p, DocId doc) {
                    return p.doc < doc;
                });
            BOSS_ASSERT(it != list.end() && it->doc == d,
                        "matched term must contain doc");
            s += index.scorer().termScore(index.list(t).idf, it->tf,
                                          index.doc(d).norm);
        }
        topk.insert(d, s);
    }
    return topk.sorted();
}

} // namespace boss::engine
