#include "api/sharded_device.h"

#include <algorithm>

#include "common/logging.h"
#include "engine/topk.h"

namespace boss::api
{

struct ShardedDevice::Partitions
{
    /** One index partition on its own simulated device. */
    struct Partition
    {
        std::unique_ptr<accel::Device> device;
        DocId base = 0; ///< added to local docIDs (shards)
        /** Local-to-global docIDs (live segments); null for shards. */
        const std::vector<DocId> *globalIds = nullptr;
    };

    /** byDevice[d]: the partitions device d scans in turn. */
    std::vector<std::vector<Partition>> byDevice;
    /** Pins a live epoch's views, tombstones and id tables. */
    index::segments::Snapshot snapshot;
};

namespace
{

using Partition = ShardedDevice::Partitions::Partition;

/**
 * A device's partitions share its fault schedule (the schedule keys
 * on the device), so they are up or down together.
 */
bool
operational(const std::vector<Partition> &device)
{
    return device.empty() || device.front().device->operational();
}

/** Calls fn(partition, deviceUp) for every partition in slot order. */
template <typename Fn>
void
forEachPartition(const ShardedDevice::Partitions &parts, Fn &&fn)
{
    for (const auto &device : parts.byDevice) {
        const bool up = operational(device);
        for (const Partition &p : device)
            fn(p, up);
    }
}

} // namespace

ShardedDevice::ShardedDevice(ShardedDeviceConfig config)
    : config_(std::move(config))
{
    BOSS_ASSERT(config_.shards > 0, "need at least one shard");
}

ShardedDevice::~ShardedDevice() = default;

std::unique_ptr<accel::Device>
ShardedDevice::makeDevice(std::uint32_t device,
                          const std::string &label) const
{
    accel::DeviceConfig cfg = config_.device;
    cfg.label = label;
    cfg.deviceId = device;
    auto dev = std::make_unique<accel::Device>(cfg);
    // Observability settings may be toggled before the partitions
    // exist (the CLI configures the stack before loading an index).
    dev->setRecorder(recorder_);
    dev->enableStatsCapture(statsCaptureEnabled_);
    return dev;
}

template <typename Load>
void
ShardedDevice::placeShards(index::ShardMap map, Load &&load)
{
    // Free the previous load before building the next.
    parts_.reset();
    live_.reset();
    auto parts = std::make_shared<Partitions>();
    for (std::uint32_t s = 0; s < map.numShards(); ++s) {
        Partition p;
        p.device = makeDevice(s, "shard" + std::to_string(s));
        p.base = map.docBase(s);
        load(*p.device, s);
        parts->byDevice.emplace_back().push_back(std::move(p));
    }
    map_ = std::move(map);
    numDevices_ = map_.numShards();
    parts_ = std::move(parts);
}

void
ShardedDevice::loadShards(index::IndexShards shards)
{
    BOSS_ASSERT(shards.map.numShards() == shards.shards.size(),
                "shard map / shard count mismatch");
    placeShards(shards.map, [&](accel::Device &dev, std::uint32_t s) {
        dev.loadIndex(std::move(shards.shards[s]));
    });
}

void
ShardedDevice::loadIndex(const index::InvertedIndex &global)
{
    loadShards(index::shardIndex(global, config_.shards));
}

void
ShardedDevice::loadTextIndex(index::TextIndex ti)
{
    // One shard is the loaded index itself: re-sharding would decode
    // and re-encode every list for nothing.
    index::IndexShards shards;
    if (config_.shards == 1) {
        shards.map = index::ShardMap(ti.index.numDocs(), 1);
        shards.shards.push_back(std::move(ti.index));
    } else {
        shards = index::shardIndex(ti.index, config_.shards);
    }
    const std::uint32_t last = config_.shards - 1;
    placeShards(shards.map, [&](accel::Device &dev, std::uint32_t s) {
        // Every shard resolves words; the last takes the lexicon.
        dev.loadTextIndex({std::move(shards.shards[s]),
                           s == last ? std::move(ti.lexicon)
                                     : index::Lexicon(ti.lexicon)});
    });
}

void
ShardedDevice::loadTextIndexFile(const std::string &path)
{
    loadTextIndex(index::loadTextIndexFile(path));
}

void
ShardedDevice::loadMappedTextIndexFile(const std::string &path)
{
    BOSS_ASSERT(config_.shards == 1,
                "mmap loads need one shard: re-sharding decodes mapped "
                "payloads without checking their block CRCs");
    placeShards(index::ShardMap(0, 1),
                [&](accel::Device &dev, std::uint32_t) {
                    dev.loadMappedTextIndexFile(path);
                });
    map_ = index::ShardMap(shard(0).index().numDocs(), 1);
}

index::segments::LiveIndex &
ShardedDevice::loadLiveIndex(index::segments::LiveIndexConfig config)
{
    parts_.reset();
    live_ = std::make_unique<index::segments::LiveIndex>(
        std::move(config));
    map_ = {};
    numDevices_ = 1;
    return *live_;
}

index::segments::LiveIndex &
ShardedDevice::live()
{
    BOSS_ASSERT(live_ != nullptr, "live() without loadLiveIndex()");
    return *live_;
}

accel::Device &
ShardedDevice::shard(std::uint32_t s)
{
    BOSS_ASSERT(live_ == nullptr && parts_ != nullptr &&
                    s < parts_->byDevice.size(),
                "no shard ", s, " loaded");
    return *parts_->byDevice[s].front().device;
}

std::shared_ptr<const ShardedDevice::Partitions>
ShardedDevice::partitions()
{
    if (live_ == nullptr) {
        BOSS_ASSERT(parts_ != nullptr, "search before a load");
        return parts_;
    }
    // Pin the snapshot under the lock: taken outside, a thread that
    // raced with a publish could replace a newer cached epoch with an
    // older one and force a needless rebuild.
    std::lock_guard<std::mutex> lock(partsMutex_);
    index::segments::Snapshot snap = live_->snapshot();
    BOSS_ASSERT(static_cast<bool>(snap),
                "live index has no published epoch");
    if (parts_ != nullptr && parts_->snapshot->epoch() == snap->epoch())
        return parts_;

    // One device scans the epoch's segments; each segment device
    // shares the epoch's rebaked view (no index copies).
    auto parts = std::make_shared<Partitions>();
    auto &segments = parts->byDevice.emplace_back();
    for (const auto &reader : snap->segments()) {
        Partition p;
        p.device = makeDevice(
            0, "shard0/seg" + std::to_string(reader.segment->id()));
        p.device->loadSharedIndex(reader.view);
        p.device->setTombstones(reader.tombstones);
        p.globalIds = &reader.segment->source().globalIds;
        segments.push_back(std::move(p));
    }
    parts->snapshot = std::move(snap);
    parts_ = std::move(parts);
    return parts_;
}

ShardedOutcome
ShardedDevice::merge(const Partitions &parts,
                     std::vector<accel::SearchOutcome> perPartition,
                     std::size_t nQueries) const
{
    ShardedOutcome out;
    out.perQuery.resize(nQueries);
    out.summaries.resize(nQueries);
    out.shardSeconds.assign(parts.byDevice.size(), 0.0);
    std::vector<std::uint64_t> deviceCycles(nQueries);
    // lists[q][p]: query q's top-k on partition p in global docIDs.
    std::vector<std::vector<std::vector<engine::Result>>> lists(
        nQueries);
    std::size_t slot = 0;
    for (std::uint32_t d = 0; d < parts.byDevice.size(); ++d) {
        const std::vector<Partition> &device = parts.byDevice[d];
        if (!operational(device)) {
            // Dead device: dropped from the merge entirely. Queries
            // still complete over the survivors, with the partial
            // coverage flagged in the outcome.
            out.deadShards.push_back(d);
            slot += device.size();
            continue;
        }
        std::fill(deviceCycles.begin(), deviceCycles.end(), 0);
        for (const Partition &part : device) {
            accel::SearchOutcome &res = perPartition[slot++];
            BOSS_ASSERT(res.perQuery.size() == nQueries, "partition ",
                        slot - 1, " returned ", res.perQuery.size(),
                        " result lists for ", nQueries, " queries");
            // The time rule: a device scans its partitions in turn,
            // the devices run concurrently. Counters simply add.
            for (std::size_t q = 0; q < nQueries; ++q) {
                for (engine::Result &r : res.perQuery[q]) {
                    r.doc = part.globalIds != nullptr
                                ? (*part.globalIds)[r.doc]
                                : r.doc + part.base;
                }
                lists[q].push_back(std::move(res.perQuery[q]));
                const trace::QuerySummary &s = res.summaries[q];
                out.summaries[q].terms = s.terms;
                deviceCycles[q] += s.cycles;
                trace::addCounters(out.summaries[q], s);
            }
            out.shardSeconds[d] += res.simSeconds;
            out.deviceBytes += res.deviceBytes;
            out.dramBytes += res.dramBytes;
            out.cacheLookups += res.cacheLookups;
            out.cacheHits += res.cacheHits;
            out.cacheMisses += res.cacheMisses;
            out.cacheEvictions += res.cacheEvictions;
        }
        out.simSeconds = std::max(out.simSeconds, out.shardSeconds[d]);
        for (std::size_t q = 0; q < nQueries; ++q) {
            out.summaries[q].cycles =
                std::max(out.summaries[q].cycles, deviceCycles[q]);
        }
    }
    if (out.deadShards.size() == parts.byDevice.size())
        BOSS_FATAL("fault spec declares all ", parts.byDevice.size(),
                   " shards dead; no shard can serve queries");

    for (std::size_t q = 0; q < nQueries; ++q) {
        out.perQuery[q] = engine::mergeTopK(lists[q], config_.device.k);
        out.summaries[q].query = q;
        out.summaries[q].shardsDropped = out.deadShards.size();
    }
    if (!out.perQuery.empty())
        out.topk = out.perQuery.back();
    return out;
}

template <typename Batch>
ShardedOutcome
ShardedDevice::runBatch(const Batch &batch)
{
    const std::shared_ptr<const Partitions> parts = partitions();
    // Plan once: every partition resolves terms identically.
    std::vector<engine::QueryPlan> plans;
    plans.reserve(batch.size());
    for (const auto &q : batch)
        plans.push_back(plan(q));
    // Each live partition runs the whole batch on its own device (the
    // builds fan out over the host pool, the replay is serial); a
    // dead device's partitions keep empty slots, dropped by merge.
    std::vector<accel::SearchOutcome> perPartition;
    forEachPartition(*parts, [&](const Partition &p, bool up) {
        perPartition.push_back(up ? p.device->searchBatch(plans)
                                  : accel::SearchOutcome{});
    });
    return merge(*parts, std::move(perPartition), plans.size());
}

ShardedDevice::Built
ShardedDevice::buildQuery(const engine::QueryPlan &plan,
                          engine::QueryArena &arena)
{
    Built built;
    built.partitions = partitions();
    forEachPartition(*built.partitions,
                     [&](const Partition &p, bool up) {
                         // A dead device's partitions keep empty
                         // slots, dropped at finish.
                         built.perPartition.push_back(
                             up ? p.device->buildQuery(plan, arena)
                                : accel::BuiltQuery{});
                     });
    return built;
}

ShardedOutcome
ShardedDevice::finishBuilt(Built built)
{
    std::vector<accel::SearchOutcome> perPartition;
    perPartition.reserve(built.perPartition.size());
    std::size_t slot = 0;
    forEachPartition(*built.partitions,
                     [&](const Partition &p, bool up) {
                         std::vector<accel::BuiltQuery> one;
                         one.push_back(
                             std::move(built.perPartition[slot++]));
                         perPartition.push_back(
                             up ? p.device->replayBuilt(std::move(one))
                                : accel::SearchOutcome{});
                     });
    return merge(*built.partitions, std::move(perPartition), 1);
}

engine::QueryPlan
ShardedDevice::plan(const std::string &qExpression)
{
    // A text load replicates its lexicon on every shard; live
    // segments carry none, so the synthetic t<N> names apply.
    if (live_ != nullptr) {
        return engine::planQuery(engine::parseExpression(
            qExpression, engine::defaultTermResolver));
    }
    return shard(0).plan(qExpression);
}

ShardedOutcome
ShardedDevice::search(const workload::Query &query)
{
    return searchBatch(std::vector<workload::Query>{query});
}

ShardedOutcome
ShardedDevice::search(const std::string &qExpression)
{
    return searchBatch(std::vector<std::string>{qExpression});
}

ShardedOutcome
ShardedDevice::searchBatch(const std::vector<workload::Query> &queries)
{
    return runBatch(queries);
}

ShardedOutcome
ShardedDevice::searchBatch(
    const std::vector<std::string> &qExpressions)
{
    return runBatch(qExpressions);
}

void
ShardedDevice::setRecorder(trace::Recorder *recorder)
{
    recorder_ = recorder;
    if (parts_ != nullptr) {
        forEachPartition(*parts_, [&](const Partition &p, bool) {
            p.device->setRecorder(recorder);
        });
    }
}

void
ShardedDevice::enableStatsCapture(bool enabled)
{
    statsCaptureEnabled_ = enabled;
    if (parts_ != nullptr) {
        forEachPartition(*parts_, [&](const Partition &p, bool) {
            p.device->enableStatsCapture(enabled);
        });
    }
}

void
ShardedDevice::writeStatsJson(std::ostream &os) const
{
    os << "{\n\"shards\": " << numDevices_ << ",\n";
    os << "\"doc_bases\": [";
    for (std::uint32_t s = 0; s < map_.numShards(); ++s)
        os << (s ? ", " : "") << map_.docBase(s);
    os << "],\n\"dead_shards\": [";
    if (parts_ != nullptr) {
        bool firstDead = true;
        for (std::size_t d = 0; d < parts_->byDevice.size(); ++d) {
            if (operational(parts_->byDevice[d]))
                continue;
            os << (firstDead ? "" : ", ") << d;
            firstDead = false;
        }
    }
    os << "]";
    if (parts_ != nullptr) {
        std::size_t slot = 0;
        forEachPartition(*parts_, [&](const Partition &p, bool) {
            os << ",\n\"shard_" << slot++ << "\":\n";
            p.device->writeStatsJson(os);
        });
    }
    os << "}\n";
}

} // namespace boss::api
