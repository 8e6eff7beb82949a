#include "engine/cursor.h"

#include <algorithm>

#include "common/logging.h"
#include "index/block_decoder.h"

namespace boss::engine
{

ListCursor::ListCursor(const index::CompressedPostingList &list,
                       ExecHooks *hooks, QueryArena *arena,
                       FaultPolicy *faults, DocWork *work)
    : list_(list), hooks_(hooks), faults_(faults), work_(work),
      lowerBound_(kernels::ops().lowerBound)
{
    if (arena != nullptr) {
        docBuf_ = &arena->docBuffer();
        tfBuf_ = &arena->tfBuffer();
    } else {
        owned_ = std::make_unique<OwnedBuffers>();
        docBuf_ = &owned_->docs;
        tfBuf_ = &owned_->tfs;
    }
    if (list_.numBlocks() == 0) {
        ended_ = true;
        return;
    }
    setBlock(0);
}

void
ListCursor::setBlock(std::uint32_t b)
{
    block_ = b;
    pos_ = 0;
    // A block already sitting in the decode buffer needs no second
    // decode (the per-stream decoded-block cache); forward-only
    // traversal makes this a pure memo, never an invalidation
    // hazard.
    decoded_ = decodedBlock_ == b;
    tfLoaded_ = decoded_ && tfLoaded_;
    if (hooks_ != nullptr)
        hooks_->onMetaRead(list_.term, 1);
}

void
ListCursor::ensureDecoded()
{
    if (decoded_)
        return;
    decoded_ = true;
    tfLoaded_ = false;
    decodedBlock_ = block_;
    ++blocksLoaded_;
    if (hooks_ != nullptr) {
        ExecHooks::flush(hooks_, work_);
        hooks_->onDocBlockLoad(list_.term, list_.blocks[block_]);
    }
    if (faults_ != nullptr &&
        !faults_->verifyBlock(list_, block_, false, hooks_)) {
        // Dropped block: one sentinel posting at the block's last
        // docID. advanceTo's in-block scan still terminates
        // (lastDoc >= any in-block target) and tf() reports 0, so
        // the block's score contribution degrades to nothing.
        docBuf_->assign(1, list_.blocks[block_].lastDoc);
        dropped_ = true;
    } else {
        dropped_ = false;
        if (hooks_ != nullptr)
            hooks_->onDecode(list_.blocks[block_].numElems);
        index::decodeBlock(list_, block_, *docBuf_, nullptr);
    }
    docs_ = docBuf_->data();
    len_ = static_cast<std::uint32_t>(docBuf_->size());
}

TermFreq
ListCursor::loadTf()
{
    BOSS_ASSERT(!ended_, "tf() on exhausted cursor");
    ensureDecoded();
    tfLoaded_ = true;
    if (dropped_) {
        // The doc payload was already dropped; the tf sidecar is
        // never fetched and the sentinel posting scores zero.
        tfBuf_->assign(len_, 0);
        return 0;
    }
    if (hooks_ != nullptr)
        hooks_->onTfBlockLoad(list_.term, list_.blocks[block_]);
    if (faults_ != nullptr &&
        !faults_->verifyBlock(list_, block_, true, hooks_)) {
        // tf sidecar unreadable: keep the docIDs, degrade every tf
        // to 0 so the block contributes no score.
        tfBuf_->assign(len_, 0);
        return 0;
    }
    if (hooks_ != nullptr)
        hooks_->onDecode(list_.blocks[block_].numElems);
    index::decodeBlockTfs(list_, block_, *tfBuf_);
    return tfBuf_->data()[pos_];
}

void
ListCursor::nextBlock()
{
    BOSS_ASSERT(!ended_, "next() on exhausted cursor");
    ensureDecoded();
    if (pos_ + 1 < len_) {
        ++pos_;
        return;
    }
    if (block_ + 1 < list_.numBlocks()) {
        setBlock(block_ + 1);
        return;
    }
    exhaust();
}

void
ListCursor::seek(DocId target)
{
    BOSS_ASSERT(!ended_, "seek() on exhausted cursor");
    // Within the current, not yet fetched block? (blockLast >= target
    // guarantees the in-block scan terminates.)
    if (target <= blockLast()) {
        ensureDecoded();
        seekInBlock(target);
        return;
    }

    // Seek over block metadata: the landing block is the first one
    // after the current whose lastDoc reaches the target. The block
    // fetch module inspects the records in order, so every record up
    // to the landing one is a metadata read; jumped-over blocks are
    // never fetched or decoded.
    const std::uint32_t n = list_.numBlocks();
    const std::uint32_t first = block_ + 1;
    const auto *blocks = list_.blocks.data();
    std::uint32_t b = first;
    if (b < n && blocks[b].lastDoc < target) {
        b = static_cast<std::uint32_t>(
            std::partition_point(blocks + b + 1, blocks + n,
                                 [&](const index::BlockMeta &m) {
                                     return m.lastDoc < target;
                                 }) -
            blocks);
    }
    if (hooks_ != nullptr) {
        std::uint32_t inspected = std::min(b + 1, n) - first;
        if (inspected > 0)
            hooks_->onMetaRead(list_.term, inspected);
        if (b > first)
            hooks_->onSkippedBlocks(list_.term, b - first);
    }
    if (b >= n) {
        exhaust();
        return;
    }
    setBlock(b);
    if (target > blocks[b].firstDoc) {
        ensureDecoded();
        seekInBlock(target);
    }
}

void
ListCursor::skipPastBlock()
{
    BOSS_ASSERT(!ended_, "skipPastBlock() on exhausted cursor");
    std::uint64_t remaining =
        decoded_ ? len_ - pos_ : list_.blocks[block_].numElems;
    if (work_ != nullptr)
        work_->skippedDocs += remaining;
    if (hooks_ != nullptr && !decoded_)
        hooks_->onSkippedBlocks(list_.term, 1);
    if (block_ + 1 < list_.numBlocks()) {
        setBlock(block_ + 1);
    } else {
        exhaust();
    }
}

} // namespace boss::engine
