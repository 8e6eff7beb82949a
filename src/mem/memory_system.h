/**
 * @file
 * Event-driven channelized memory model.
 *
 * Requests are routed to channels by address interleave; each
 * channel serializes service at the configured bandwidth, detecting
 * per-requestor sequentiality (a request that continues the same
 * requestor's previous stream gets the sequential rate and latency;
 * anything else pays the random-access penalty -- the property that
 * makes IIU's binary-search intersection slow on SCM).
 *
 * Optionally, all traffic first crosses a shared host link
 * (bandwidth + latency), modeling a host-side consumer such as the
 * Lucene baseline reading the pooled memory over CXL.
 */

#ifndef BOSS_MEM_MEMORY_SYSTEM_H
#define BOSS_MEM_MEMORY_SYSTEM_H

#include <functional>
#include <unordered_map>
#include <vector>

#include "mem/banked_channel.h"
#include "mem/config.h"
#include "mem/fault_model.h"
#include "sim/sim_object.h"
#include "trace/recorder.h"

namespace boss::mem
{

/** Traffic categories, matching the paper's Fig. 15 breakdown. */
enum class Category : std::uint8_t
{
    LdList,   ///< posting-list (doc payload + metadata) loads
    LdScore,  ///< tf payload + per-doc norm loads
    LdInter,  ///< intermediate-list loads (IIU spills)
    StInter,  ///< intermediate-list stores
    StResult, ///< result stores to the host
};

inline constexpr std::size_t kNumCategories = 5;

constexpr std::string_view
categoryName(Category c)
{
    switch (c) {
      case Category::LdList: return "LD_List";
      case Category::LdScore: return "LD_Score";
      case Category::LdInter: return "LD_Inter";
      case Category::StInter: return "ST_Inter";
      case Category::StResult: return "ST_Result";
    }
    return "?";
}

/** One memory request. */
struct MemRequest
{
    Addr addr = 0;
    std::uint32_t bytes = 0;
    bool write = false;
    /** Force the random-access penalty (e.g. scattered norm reads). */
    bool forceRandom = false;
    /** Requestor id for per-stream sequentiality tracking. */
    std::uint32_t requestor = 0;
    /**
     * Stream class within the requestor (doc payload, tf payload,
     * norm sidecar, metadata, ...). The MAI/media prefetch buffers
     * track each class's forward stream independently.
     */
    std::uint8_t stream = 0;
    Category category = Category::LdList;
};

/**
 * The shared host link: a single serialized resource.
 */
class HostLink : public sim::SimObject
{
  public:
    HostLink(const std::string &name, sim::EventQueue &eq,
             stats::Group &parent, LinkConfig config);

    /**
     * Occupy the link for @p bytes starting no earlier than @p start.
     * Returns the tick at which the transfer completes.
     */
    Tick transfer(Tick start, std::uint64_t bytes);

    std::uint64_t bytesTransferred() const { return bytes_.value(); }

  private:
    LinkConfig config_;
    Tick nextFree_ = 0;
    stats::Counter transfers_;
    stats::Counter bytes_;
};

/**
 * The channelized device model.
 */
class MemorySystem : public sim::SimObject
{
  public:
    /**
     * @param link optional host link all traffic must cross first
     *             (nullptr for near-data access).
     */
    MemorySystem(const std::string &name, sim::EventQueue &eq,
                 stats::Group &parent, MemConfig config,
                 HostLink *link = nullptr);

    /**
     * Issue a request at the current event time. Returns the
     * completion tick and optionally schedules @p cb there.
     */
    Tick access(const MemRequest &req,
                std::function<void()> cb = nullptr);

    const MemConfig &config() const { return config_; }

    /** Total bytes moved in a category. */
    std::uint64_t categoryBytes(Category c) const
    {
        return catBytes_[static_cast<std::size_t>(c)].value();
    }
    /** Total accesses in a category. */
    std::uint64_t categoryAccesses(Category c) const
    {
        return catAccesses_[static_cast<std::size_t>(c)].value();
    }

    std::uint64_t totalBytes() const;
    std::uint64_t sequentialAccesses() const { return seqAcc_.value(); }
    std::uint64_t randomAccesses() const { return randAcc_.value(); }

    /** Aggregate channel busy time (for utilization accounting). */
    Tick busyTicks() const;

    /** Row-buffer statistics (banked model only; 0 otherwise). */
    std::uint64_t rowHits() const;
    std::uint64_t rowMisses() const;

    /**
     * Attach a fault model: reads landing on media lines the model
     * marks degraded pay the model's extra latency (SCM media retry
     * and remap). nullptr detaches (the default, zero overhead).
     */
    void setFaults(const FaultModel *faults) { faults_ = faults; }

    /** Reads served at degraded media latency. */
    std::uint64_t degradedReads() const { return degradedReads_.value(); }

    void resetStats();

    /**
     * Attach an event recorder: every serviced chunk becomes a span
     * on its channel's lane (@p chanLanes must have one lane per
     * channel), named after its traffic category. Pass a null scope
     * to detach.
     */
    void setTrace(trace::Scope scope,
                  std::vector<std::uint16_t> chanLanes);

  private:
    struct Channel
    {
        Tick nextFree = 0;
        Tick busy = 0;
    };

    MemConfig config_;
    HostLink *link_;
    const FaultModel *faults_ = nullptr;
    std::vector<Channel> channels_;
    /** Bank-level channels (only when config.banked). */
    std::vector<BankedChannel> bankedChannels_;
    /** (requestor, class) -> end address of that access stream. */
    std::unordered_map<std::uint64_t, Addr> streamEnd_;
    /** Ring of recent stream keys (device buffer contention). */
    std::array<std::uint64_t, 64> recentStreams_{};
    std::size_t recentPos_ = 0;
    /** Occurrences of each key in the ring (zero counts erased). */
    std::unordered_map<std::uint64_t, std::uint32_t> recentCount_;

    stats::Counter reads_;
    stats::Counter writes_;
    stats::Counter seqAcc_;
    stats::Counter randAcc_;
    stats::Counter degradedReads_;
    stats::Counter catBytes_[kNumCategories];
    stats::Counter catAccesses_[kNumCategories];
    /** End-to-end request latency (issue to completion), ns.
     *  Log-bucketed: 10ns..1ms keeps tail resolution under load. */
    stats::Histogram reqLatencyNs_{10.0, 1e6, 80, stats::Scale::Log};
    /** Channel backlog seen at chunk issue (queueing delay), ns. */
    stats::Histogram chanBacklogNs_{10.0, 1e6, 80, stats::Scale::Log};

    trace::Scope traceScope_;
    std::vector<std::uint16_t> chanLanes_;
};

} // namespace boss::mem

#endif // BOSS_MEM_MEMORY_SYSTEM_H
