/**
 * @file
 * The partitioned searcher: host-side scatter/merge over a group of
 * simulated BOSS devices.
 *
 * A ShardedDevice is a group of devices, each of which scans one or
 * more index partitions in turn. The partitions come from one of two
 * sources:
 *
 *  - a shard load (loadShards, loadIndex, loadTextIndex...): one
 *    document-partitioned shard per device (index/sharding.h), local
 *    docIDs rebased by the shard's base;
 *  - a live index (loadLiveIndex): one device whose partitions are
 *    the current epoch's segments (index/segments/), local docIDs
 *    mapped through each segment's global-id table.
 *
 * Every query runs the full per-partition hardware top-k, and the
 * per-partition heaps are merged on the host after the docID map.
 * Because every partition runs the same k and stores globally
 * normalized scores, the merge is exact: results are bit-identical
 * to a single device holding the whole corpus, tie-breaks (score
 * desc, global docID asc) included.
 *
 * Modeled time follows one rule: devices run concurrently and each
 * scans its partitions serially, so a query (or batch) takes the
 * maximum over devices of the sum over that device's partitions —
 * the slowest shard for a shard load, the segment sum for a live one.
 */

#ifndef BOSS_API_SHARDED_DEVICE_H
#define BOSS_API_SHARDED_DEVICE_H

#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "boss/device.h"
#include "index/segments/live_index.h"
#include "index/sharding.h"

namespace boss::api
{

/** Configuration: the shard count plus the per-shard device. */
struct ShardedDeviceConfig
{
    std::uint32_t shards = 1;
    /**
     * Template for every partition's device (cores, memory, k, kind).
     * The label is overridden per shard ("shard0", "shard1", ...)
     * so trace lanes stay distinguishable in merged timelines.
     */
    accel::DeviceConfig device;
};

/**
 * Result of one partitioned search. Per-query results carry global
 * docIDs; simSeconds and each summary's cycles follow the time rule
 * above, while traffic, work and cache counters sum over partitions.
 * Every summary's shardsDropped is deadShards.size().
 */
struct ShardedOutcome : accel::SearchOutcome
{
    /** Per-device simulated seconds (its partitions summed). */
    std::vector<double> shardSeconds;
    /**
     * Devices that were down and contributed nothing: every query
     * completed, but with partial corpus coverage. Empty on healthy
     * runs (results then bit-identical to pre-resilience builds).
     */
    std::vector<std::uint32_t> deadShards;
};

class ShardedDevice
{
  public:
    explicit ShardedDevice(ShardedDeviceConfig config = {});
    ~ShardedDevice();

    /** Place prebuilt shards (and their partition) on the devices. */
    void loadShards(index::IndexShards shards);

    /** Shard a monolithic index across the configured devices. */
    void loadIndex(const index::InvertedIndex &global);

    /**
     * Shard a text index: the posting lists are partitioned while
     * every shard shares the (replicated) lexicon, so expression
     * queries resolve identically on each device. With one shard the
     * index is placed as loaded, without re-encoding.
     */
    void loadTextIndex(index::TextIndex ti);

    /** Load and shard a text-index file (see loadTextIndex). */
    void loadTextIndexFile(const std::string &path);

    /**
     * mmap a text-index file onto the single device (see
     * accel::Device::loadMappedTextIndexFile). Needs shards == 1:
     * re-sharding decodes the mapped payloads without checking the
     * per-block CRCs that the mapped load defers to first touch.
     */
    void loadMappedTextIndexFile(const std::string &path);

    /**
     * Serve a live index, which the searcher owns: one device whose
     * partitions are the segments of the epoch current when each
     * query is built. Expression queries use the synthetic t<N>
     * term names.
     */
    index::segments::LiveIndex &
    loadLiveIndex(index::segments::LiveIndexConfig config);

    /** The live index (loadLiveIndex only). */
    index::segments::LiveIndex &live();

    /** Device count (a live load has one). */
    std::uint32_t numShards() const { return numDevices_; }
    /** The shard partition (shard loads only). */
    const index::ShardMap &map() const { return map_; }
    /** The device holding shard @p s (shard loads only). */
    accel::Device &shard(std::uint32_t s);

    /** Scatter one query to all partitions and merge the top-k. */
    ShardedOutcome search(const workload::Query &query);
    ShardedOutcome search(const std::string &qExpression);

    /**
     * Scatter a batch: plan it once, run it through each live
     * partition's Device::searchBatch in turn (trace building fans
     * out over the shared host thread pool), then merge each
     * query's per-partition top-k lists on the host.
     */
    ShardedOutcome
    searchBatch(const std::vector<workload::Query> &queries);
    ShardedOutcome
    searchBatch(const std::vector<std::string> &qExpressions);

    // ---- Pipelined execution (see boss/device.h) ----

    /** Plan one query (the lexicon is replicated across shards). */
    engine::QueryPlan plan(const workload::Query &query) const
    {
        return engine::planQuery(query);
    }
    engine::QueryPlan plan(const std::string &qExpression);

    /** The partitions one query runs on; opaque to callers. */
    struct Partitions;

    /**
     * One query built on every partition of the live devices. Dead
     * devices leave empty slots, dropped from the merge in
     * finishBuilt(). Holding it keeps a live epoch's partitions (and
     * pinned Version) alive across publishes.
     */
    struct Built
    {
        std::shared_ptr<const Partitions> partitions;
        std::vector<accel::BuiltQuery> perPartition;
    };

    /**
     * Stage 1 (thread-safe): build one query's traces on every
     * partition. Concurrent calls must pass distinct arenas.
     */
    Built buildQuery(const engine::QueryPlan &plan,
                     engine::QueryArena &arena);

    /**
     * Stage 2 (serial): replay the per-partition builds on their
     * device models, map local docIDs to global ones and merge the
     * global top-k. The outcome carries exactly one perQuery entry.
     */
    ShardedOutcome finishBuilt(Built built);

    // ---- Observability (see boss/device.h) ----

    /**
     * Attach one recorder observing every partition; lanes are named
     * by the device labels ("shard0 (simulated ticks)", ...).
     */
    void setRecorder(trace::Recorder *recorder);

    /** Capture per-partition replay stats for writeStatsJson. */
    void enableStatsCapture(bool enabled);

    /**
     * One JSON document with every partition's stats under
     * "shard_<i>" keys (one per shard on a shard load) plus the
     * shard count and document partition.
     */
    void writeStatsJson(std::ostream &os) const;

  private:
    template <typename Batch>
    ShardedOutcome runBatch(const Batch &batch);

    /** The current partitions (a live load's epoch, built lazily). */
    std::shared_ptr<const Partitions> partitions();

    /** A simulated device for a partition of device @p device. */
    std::unique_ptr<accel::Device>
    makeDevice(std::uint32_t device, const std::string &label) const;

    /**
     * Replace the current load with one device per shard of @p map,
     * each filled by load(device, shard).
     */
    template <typename Load>
    void placeShards(index::ShardMap map, Load &&load);

    /**
     * Map docIDs to global ones, combine the per-partition outcomes
     * and per-query summaries by the time rule and merge each
     * query's top-k.
     */
    ShardedOutcome merge(const Partitions &parts,
                         std::vector<accel::SearchOutcome> perPartition,
                         std::size_t nQueries) const;

    ShardedDeviceConfig config_;
    index::ShardMap map_;
    std::uint32_t numDevices_ = 0;
    std::unique_ptr<index::segments::LiveIndex> live_;
    /** Static shards, or the cached partitions of a live epoch. */
    std::shared_ptr<const Partitions> parts_;
    std::mutex partsMutex_; ///< guards parts_ on a live load
    // Observability settings outlive reloads (and may be set before
    // the first load creates the per-partition devices).
    trace::Recorder *recorder_ = nullptr;
    bool statsCaptureEnabled_ = false;
};

} // namespace boss::api

#endif // BOSS_API_SHARDED_DEVICE_H
