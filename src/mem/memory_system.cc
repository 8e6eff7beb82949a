#include "mem/memory_system.h"

#include <algorithm>

#include "common/bitops.h"
#include "common/logging.h"

namespace boss::mem
{

namespace
{

/** Picoseconds to move @p bytes at @p gbPerSec. */
Tick
transferTicks(std::uint64_t bytes, double gbPerSec)
{
    // 1 GB/s == 1 byte/ns == 0.001 byte/ps.
    double ps = static_cast<double>(bytes) / gbPerSec * 1000.0;
    return static_cast<Tick>(ps + 0.5);
}

} // namespace

HostLink::HostLink(const std::string &name, sim::EventQueue &eq,
                   stats::Group &parent, LinkConfig config)
    : SimObject(name, eq, parent), config_(config)
{
    statsGroup().addCounter("transfers", &transfers_,
                            "host link transfers");
    statsGroup().addCounter("bytes", &bytes_, "host link bytes moved");
}

Tick
HostLink::transfer(Tick start, std::uint64_t bytes)
{
    Tick begin = std::max(start, nextFree_);
    Tick duration = transferTicks(bytes, config_.bandwidthGBs);
    nextFree_ = begin + duration;
    ++transfers_;
    bytes_ += bytes;
    return begin + duration + config_.latency;
}

MemorySystem::MemorySystem(const std::string &name, sim::EventQueue &eq,
                           stats::Group &parent, MemConfig config,
                           HostLink *link)
    : SimObject(name, eq, parent), config_(std::move(config)),
      link_(link), channels_(config_.channels)
{
    BOSS_ASSERT(config_.channels > 0, "memory needs >= 1 channel");
    if (config_.banked) {
        for (std::uint32_t c = 0; c < config_.channels; ++c) {
            bankedChannels_.emplace_back(config_.bank);
            bankedChannels_.back().registerStats(
                statsGroup().subgroup("ch" + std::to_string(c)));
        }
    }
    statsGroup().addCounter("reads", &reads_, "read requests");
    statsGroup().addCounter("writes", &writes_, "write requests");
    statsGroup().addCounter("seq_accesses", &seqAcc_,
                            "sequential-pattern accesses");
    statsGroup().addCounter("rand_accesses", &randAcc_,
                            "random-pattern accesses");
    statsGroup().addCounter("degraded_reads", &degradedReads_,
                            "reads served at degraded media latency");
    for (std::size_t c = 0; c < kNumCategories; ++c) {
        auto cat = static_cast<Category>(c);
        statsGroup().addCounter(
            std::string(categoryName(cat)) + "_bytes", &catBytes_[c]);
        statsGroup().addCounter(
            std::string(categoryName(cat)) + "_accesses",
            &catAccesses_[c]);
    }
    statsGroup().addHistogram("req_latency_ns", &reqLatencyNs_,
                              "request issue-to-completion (ns)");
    statsGroup().addHistogram("chan_backlog_ns", &chanBacklogNs_,
                              "channel backlog at chunk issue (ns)");
}

void
MemorySystem::setTrace(trace::Scope scope,
                       std::vector<std::uint16_t> chanLanes)
{
    BOSS_ASSERT(!scope || chanLanes.size() == channels_.size(),
                "need one trace lane per memory channel");
    traceScope_ = scope;
    chanLanes_ = std::move(chanLanes);
}

Tick
MemorySystem::access(const MemRequest &req, std::function<void()> cb)
{
    BOSS_ASSERT(req.bytes > 0, "zero-size memory request");
    Tick now = eventQueue().now();
    const ChannelTiming &t = config_.timing;

    // Sequentiality is a property of the requestor's access streams.
    // A requestor interleaves several forward streams (doc payload,
    // tf payload, norm sidecar, metadata, ...); the media's prefetch
    // buffers track them independently, so detection is keyed on
    // (requestor, stream class): a request continuing its stream's
    // previous access (within one media line) gets the sequential
    // rate.
    std::uint64_t streamKey =
        ((static_cast<std::uint64_t>(req.requestor) << 8) |
         req.stream) +
        1; // +1 keeps 0 as the empty-slot sentinel
    bool sequential = false;
    if (!req.forceRandom) {
        auto it = streamEnd_.find(streamKey);
        if (it != streamEnd_.end()) {
            Addr last = it->second;
            Addr lo = last > t.granule ? last - t.granule : 0;
            sequential = req.addr >= lo && req.addr <= last + t.granule;
        }
    }
    streamEnd_[streamKey] = req.addr + req.bytes;

    // Stream-buffer contention: the device sustains its sequential
    // rate only for as many concurrent streams as its prefetch
    // buffers track. With more active streams, effectiveness
    // degrades smoothly toward the random rate.
    std::uint64_t &slot = recentStreams_[recentPos_];
    if (slot != 0) {
        auto evicted = recentCount_.find(slot);
        if (--evicted->second == 0)
            recentCount_.erase(evicted);
    }
    ++recentCount_[streamKey];
    slot = streamKey;
    recentPos_ = (recentPos_ + 1) % recentStreams_.size();
    double seqEff = t.seqReadGBs;
    if (sequential) {
        // The table holds one entry per distinct key in the ring.
        std::size_t distinct = recentCount_.size();
        if (distinct > config_.streamTableSize) {
            double util = static_cast<double>(config_.streamTableSize) /
                          static_cast<double>(distinct);
            seqEff = t.randReadGBs +
                     (t.seqReadGBs - t.randReadGBs) * util;
        }
    }

    double bw = req.write ? t.writeGBs
                          : (sequential ? seqEff : t.randReadGBs);
    Tick latency = req.write
                       ? t.writeLatency
                       : (sequential ? t.seqReadLatency
                                     : t.randReadLatency);

    // Worn media lines are serviced through the device's internal
    // retry/remap path: same bandwidth, extra latency.
    if (faults_ != nullptr && !req.write &&
        faults_->readDegraded(req.addr)) {
        latency += faults_->degradePenalty();
        ++degradedReads_;
    }

    // Requests spanning interleave units are striped across
    // channels, as the controller would; completion is the slowest
    // chunk.
    Tick done = 0;
    Addr addr = req.addr;
    std::uint64_t remaining = req.bytes;
    while (remaining > 0) {
        Addr unitEnd = (addr / config_.interleave + 1) *
                       config_.interleave;
        std::uint64_t chunk =
            std::min<std::uint64_t>(remaining, unitEnd - addr);
        std::size_t ci = static_cast<std::size_t>(
            (addr / config_.interleave) % config_.channels);
        Channel &ch = channels_[ci];

        if (config_.banked) {
            // Bank-level timing: the chunk is a train of bus bursts,
            // all issued at the request time (the controller
            // pipelines column commands).
            BankedChannel &banked = bankedChannels_[ci];
            Addr burstAddr = addr;
            std::uint64_t left = chunk;
            Tick chunkDone = now;
            while (left > 0) {
                chunkDone = std::max(
                    chunkDone,
                    banked.access(now, burstAddr, req.write));
                std::uint64_t burst = std::min<std::uint64_t>(
                    left, t.serviceUnit);
                burstAddr += burst;
                left -= burst;
            }
            done = std::max(done, chunkDone);
            if (traceScope_) {
                traceScope_.span(
                    chanLanes_[ci], categoryName(req.category).data(),
                    static_cast<double>(now),
                    static_cast<double>(chunkDone - now),
                    {{"bytes", chunk}, {"write", req.write ? 1u : 0u}});
            }
        } else {
            std::uint64_t busBytes =
                ceilDiv(chunk, t.serviceUnit) * t.serviceUnit;
            Tick service = transferTicks(busBytes, bw);

            Tick begin = std::max(now, ch.nextFree);
            ch.nextFree = begin + service;
            ch.busy += service;
            done = std::max(done, begin + service + latency);
            chanBacklogNs_.sample(static_cast<double>(begin - now) /
                                  1000.0);
            if (traceScope_) {
                traceScope_.span(
                    chanLanes_[ci], categoryName(req.category).data(),
                    static_cast<double>(begin),
                    static_cast<double>(service),
                    {{"bytes", chunk}, {"write", req.write ? 1u : 0u}});
            }
        }

        addr += chunk;
        remaining -= chunk;
    }

    // Host-side consumers additionally cross the shared link.
    if (link_ != nullptr)
        done = link_->transfer(done, req.bytes);

    if (req.write) {
        ++writes_;
    } else {
        ++reads_;
    }
    if (sequential) {
        ++seqAcc_;
    } else {
        ++randAcc_;
    }
    std::size_t cat = static_cast<std::size_t>(req.category);
    catBytes_[cat] += req.bytes;
    ++catAccesses_[cat];
    reqLatencyNs_.sample(static_cast<double>(done - now) / 1000.0);

    if (cb)
        eventQueue().schedule(done, std::move(cb));
    return done;
}

std::uint64_t
MemorySystem::totalBytes() const
{
    std::uint64_t total = 0;
    for (std::size_t c = 0; c < kNumCategories; ++c)
        total += catBytes_[c].value();
    return total;
}

Tick
MemorySystem::busyTicks() const
{
    Tick total = 0;
    for (const auto &ch : channels_)
        total += ch.busy;
    for (const auto &ch : bankedChannels_)
        total += ch.busyTicks();
    return total;
}

std::uint64_t
MemorySystem::rowHits() const
{
    std::uint64_t total = 0;
    for (const auto &ch : bankedChannels_)
        total += ch.rowHits();
    return total;
}

std::uint64_t
MemorySystem::rowMisses() const
{
    std::uint64_t total = 0;
    for (const auto &ch : bankedChannels_)
        total += ch.rowMisses();
    return total;
}

void
MemorySystem::resetStats()
{
    reads_.reset();
    writes_.reset();
    seqAcc_.reset();
    randAcc_.reset();
    for (std::size_t c = 0; c < kNumCategories; ++c) {
        catBytes_[c].reset();
        catAccesses_[c].reset();
    }
    for (auto &ch : channels_)
        ch.busy = 0;
}

} // namespace boss::mem
