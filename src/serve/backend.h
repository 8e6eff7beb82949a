/**
 * @file
 * Execution backends for the serving pipeline.
 *
 * The server drives queries through two stages — a thread-safe host
 * build (functional execution + trace construction, which fully
 * determines the top-k) and a serial device-model finish (replay for
 * timing, plus the sharded merge). A Backend adapts one device
 * topology to that two-stage shape:
 *
 *  - DeviceBackend: one accel::Device.
 *  - ShardedBackend: an api::ShardedDevice; build fans the query
 *    over every partition (shards, or the segments of a live index's
 *    current epoch, which the build pins so concurrent ingest never
 *    touches in-flight queries), finish replays each partition and
 *    merges the global top-k.
 *
 * Because the results are computed entirely in build(), the order in
 * which finish() calls later replay them cannot change any query's
 * top-k — the structural guarantee behind the serve-vs-batch
 * bit-identity tests.
 */

#ifndef BOSS_SERVE_BACKEND_H
#define BOSS_SERVE_BACKEND_H

#include <memory>
#include <string>
#include <vector>

#include "api/sharded_device.h"
#include "boss/device.h"

namespace boss::serve
{

/**
 * Opaque built-query handle passed from build() to finish(). Each
 * backend stores its own build type behind it; the server only moves
 * it along the pipeline.
 */
using BuiltHandle = std::shared_ptr<void>;

/** What finish() hands back to the server. */
struct Finished
{
    std::vector<engine::Result> topk;
    double simSeconds = 0.0;
    std::uint64_t deviceBytes = 0;
    /**
     * Per-shard modeled replay seconds for this query (size ==
     * shards()); the telemetry layer's per-shard breakdown. A
     * single-device backend reports one entry equal to simSeconds.
     */
    std::vector<double> shardSeconds;
};

class Backend
{
  public:
    virtual ~Backend() = default;

    /** Shard fan-out of this backend (1 for a single device). */
    virtual std::uint32_t shards() const = 0;

    /** Plan an API expression (serial; lexicon-aware). */
    virtual engine::QueryPlan plan(const std::string &expr) = 0;
    /** Plan a workload query (serial). */
    virtual engine::QueryPlan plan(const workload::Query &query) = 0;

    /**
     * Stage 1: functionally execute the plan and build its replay
     * traces. Thread-safe for concurrent calls with distinct arenas.
     */
    virtual BuiltHandle build(const engine::QueryPlan &plan,
                              engine::QueryArena &arena) = 0;

    /**
     * Stage 2: replay on the device model(s) and produce the final
     * results. Serial — the server calls it from one thread.
     */
    virtual Finished finish(BuiltHandle built) = 0;
};

/** Serve from a single device. */
class DeviceBackend final : public Backend
{
  public:
    explicit DeviceBackend(accel::Device &device) : device_(device) {}

    std::uint32_t shards() const override { return 1; }

    engine::QueryPlan plan(const std::string &expr) override
    {
        return device_.plan(expr);
    }
    engine::QueryPlan plan(const workload::Query &query) override
    {
        return device_.plan(query);
    }
    BuiltHandle build(const engine::QueryPlan &plan,
                      engine::QueryArena &arena) override
    {
        return std::make_shared<accel::BuiltQuery>(
            device_.buildQuery(plan, arena));
    }
    Finished finish(BuiltHandle built) override;

  private:
    accel::Device &device_;
};

/** Serve from a partitioned device group with host-side merge. */
class ShardedBackend final : public Backend
{
  public:
    explicit ShardedBackend(api::ShardedDevice &device)
        : device_(device)
    {
    }

    std::uint32_t shards() const override
    {
        return device_.numShards();
    }

    engine::QueryPlan plan(const std::string &expr) override
    {
        return device_.plan(expr);
    }
    engine::QueryPlan plan(const workload::Query &query) override
    {
        return device_.plan(query);
    }
    BuiltHandle build(const engine::QueryPlan &plan,
                      engine::QueryArena &arena) override
    {
        return std::make_shared<api::ShardedDevice::Built>(
            device_.buildQuery(plan, arena));
    }
    Finished finish(BuiltHandle built) override;

  private:
    api::ShardedDevice &device_;
};

} // namespace boss::serve

#endif // BOSS_SERVE_BACKEND_H
