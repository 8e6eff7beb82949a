/**
 * @file
 * The BOSS device: the library's main public entry point.
 *
 * A Device owns an index image placed in the modeled SCM pool and
 * serves search queries through the full simulated accelerator
 * (functional result + cycle-level timing). This is the programmer-
 * facing facade; the paper-faithful init()/search() intrinsics in
 * src/api wrap it.
 */

#ifndef BOSS_BOSS_DEVICE_H
#define BOSS_BOSS_DEVICE_H

#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "engine/arena.h"
#include "engine/execute.h"
#include "index/memory_layout.h"
#include "index/text_builder.h"
#include "model/runner.h"
#include "trace/recorder.h"
#include "trace/summary.h"

namespace boss::accel
{

/** Device configuration (paper Table I defaults). */
struct DeviceConfig
{
    std::uint32_t cores = 8;
    mem::MemConfig mem = mem::scmConfig();
    mem::LinkConfig link;
    std::size_t k = engine::kDefaultTopK;
    /** Ablation switch; leave at Boss for the real device. */
    model::SystemKind kind = model::SystemKind::Boss;
    /** Trace-lane label; ShardedDevice names each shard device. */
    std::string label = "device";
    /**
     * Fault injection spec (default: no faults, zero overhead). When
     * any fault source is enabled, decodes run under the CRC/retry/
     * drop policy and replay charges degraded-read latency.
     */
    mem::FaultSpec faults;
    /** Base seed of the fault schedule (shared across shards). */
    std::uint64_t faultSeed = 0xB055;
    /** Shard index; per-device fault schedules key on it. */
    std::uint32_t deviceId = 0;
    /**
     * DRAM block-cache tier capacity in MiB (0 disables). When set,
     * index reads that hit the cache are serviced at DRAM timing and
     * only misses touch the SCM device; residency persists across
     * searches, so a warmed cache keeps paying off.
     */
    double cacheMB = 0.0;
    /** Timing of the DRAM device behind the cache tier. */
    mem::MemConfig cacheMem = mem::dramConfig();
    /** Cache lock shards (1 => deterministic replacement). */
    std::uint32_t cacheShards = 8;
};

/**
 * One query after the host-side build stage: its functional trace
 * set (a wide union contributes several subquery traces) and the
 * top-k computed during the build. The unit of work flowing through
 * the serving pipeline — buildQuery() produces these concurrently
 * on pool workers while replayBuilt() consumes them serially on the
 * device model.
 */
struct BuiltQuery
{
    std::vector<model::QueryTrace> traces;
    std::vector<engine::Result> topk;
};

/** Result of one search() call. */
struct SearchOutcome
{
    std::vector<engine::Result> topk;
    double simSeconds = 0.0;      ///< simulated wall time
    std::uint64_t deviceBytes = 0; ///< SCM traffic for this search
    /**
     * The whole device was down (spec'd dead shard): no query ran,
     * perQuery holds one empty list and summaries one zeroed record
     * per submitted query. ShardedDevice uses this to drop the shard
     * from its merge.
     */
    bool deviceFailed = false;
    // DRAM block-cache tier, this search only (zero without a
    // cache). deviceBytes stays SCM traffic, so deviceBytes +
    // dramBytes splits the served bandwidth by tier.
    std::uint64_t dramBytes = 0;
    std::uint64_t cacheLookups = 0;
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
    std::uint64_t cacheEvictions = 0;
    /**
     * Per-query top-k lists, one per submitted query in submission
     * order (topk is a copy of the last entry). simSeconds is the
     * batch makespan: queries share the device, so per-query times
     * are not separable.
     */
    std::vector<std::vector<engine::Result>> perQuery;
    /**
     * One account per submitted query, in submission order: work,
     * traffic and resilience counters plus replay cycles. A wide
     * union's subquery traces fold into one record, its cycles
     * running from the first subquery's dispatch to the last one's
     * completion. Bit-identical at any host thread count.
     */
    std::vector<trace::QuerySummary> summaries;
};

class Device
{
  public:
    explicit Device(DeviceConfig config = {});
    ~Device();

    /** Place an index into the device's memory pool. */
    void loadIndex(index::InvertedIndex index);

    /**
     * Place a shared immutable index without copying it. The live
     * index uses this: every per-segment device of an epoch shares
     * that epoch's rebaked view with the publishing SegmentMap.
     */
    void loadSharedIndex(std::shared_ptr<const index::InvertedIndex> index);

    /** Load a serialized index file (the init() intrinsic's path). */
    void loadIndexFile(const std::string &path);

    /**
     * Place a text index (index + lexicon): textual query terms then
     * resolve through the lexicon in search().
     */
    void loadTextIndex(index::TextIndex ti);

    /** Load a text-index file written by saveTextIndexFile(). */
    void loadTextIndexFile(const std::string &path);

    /**
     * mmap a text-index file instead of copying it to the heap:
     * payloads stay views into the mapping and startup is
     * O(metadata). Integrity moves from load time to first touch --
     * the device arms a verify-once fault policy (a benign fault
     * model when none is configured), so each block's CRC is checked
     * on its first decode and corrupted blocks follow the normal
     * retry/drop degrade path instead of failing the load.
     */
    void loadMappedTextIndexFile(const std::string &path);

    bool hasLexicon() const { return lexicon_.has_value(); }
    const index::Lexicon &lexicon() const;

    bool hasIndex() const { return index_ != nullptr; }
    const index::InvertedIndex &index() const;
    const index::MemoryLayout &layout() const;

    /**
     * Install (or clear, with nullptr) the delete bitmap applied to
     * every subsequent query: tombstoned docs are filtered before
     * the top-k. The set is read concurrently by buildQuery calls —
     * callers must not mutate it while queries are in flight (the
     * live index publishes frozen copies).
     */
    void
    setTombstones(std::shared_ptr<const index::TombstoneSet> tombstones)
    {
        tombstones_ = std::move(tombstones);
    }
    const index::TombstoneSet *tombstones() const
    {
        return tombstones_.get();
    }

    /** Serve one query given as an API expression string. */
    SearchOutcome search(const std::string &qExpression);

    /** Serve one workload query. */
    SearchOutcome search(const workload::Query &query);

    /** Serve a batch concurrently across the device's cores. */
    SearchOutcome
    searchBatch(const std::vector<workload::Query> &queries);

    /** Serve a batch of API expression strings (see search()). */
    SearchOutcome
    searchBatch(const std::vector<std::string> &qExpressions);

    /** Serve a batch of prepared plans (see plan()). */
    SearchOutcome
    searchBatch(const std::vector<engine::QueryPlan> &plans);

    // ---- Pipelined execution (the serving layer's stages) ----
    //
    // searchBatch() is build-barrier-then-replay: every query's
    // trace must exist before the first replay tick. The serving
    // layer instead streams queries through the two stages —
    // buildQuery() calls run concurrently on pool workers while
    // replayBuilt() consumes completed builds on the (serial)
    // device model — so host decode/merge of finished queries
    // overlaps the builds still in flight.

    /** Parse an API expression into a plan (lexicon-aware). */
    engine::QueryPlan plan(const std::string &qExpression);

    /** Plan one workload query. */
    engine::QueryPlan plan(const workload::Query &query) const
    {
        return engine::planQuery(query);
    }

    /**
     * Stage 1 (thread-safe): functionally execute @p plan and build
     * its replay traces. Concurrent calls must pass distinct arenas
     * (one per worker). With a recorder attached, pass that
     * worker's scope/lane so the build span lands on its lane.
     */
    BuiltQuery buildQuery(const engine::QueryPlan &plan,
                          engine::QueryArena &arena,
                          trace::Scope scope = {},
                          std::uint16_t lane = 0) const;

    /**
     * Stage 2 (serial): replay a group of built queries on the
     * event-driven device model and aggregate the outcome exactly
     * as searchBatch() would (summaries, stats capture, totals).
     * The group models queries concurrently resident on the device;
     * perQuery follows the order of @p built.
     */
    SearchOutcome replayBuilt(std::vector<BuiltQuery> built);

    /** Cumulative simulated busy time across all searches. */
    double totalSimSeconds() const { return totalSeconds_; }
    std::uint64_t totalQueries() const { return totalQueries_; }

    const DeviceConfig &config() const { return config_; }

    /**
     * Is the device able to serve queries? False only when the fault
     * spec declared this device dead — search() then returns an
     * outcome with deviceFailed set instead of results.
     */
    bool operational() const;

    /** Cumulative resilience counters (nullptr without faults). */
    const engine::FaultPolicy *faultPolicy() const
    {
        return faultPolicy_.get();
    }

    /** The DRAM block cache (nullptr unless config.cacheMB > 0). */
    const mem::BlockCache *blockCache() const { return cache_.get(); }

    /** Cumulative traffic split across searches (SCM vs cache DRAM). */
    std::uint64_t totalScmBytes() const { return totalScmBytes_; }
    std::uint64_t totalDramBytes() const { return totalDramBytes_; }

    // ---- Observability ----

    /**
     * Attach an event recorder observing subsequent searches (trace
     * building on host-time lanes, replay on simulated-tick lanes).
     * The recorder must outlive the searches; pass nullptr to detach.
     */
    void setRecorder(trace::Recorder *recorder)
    {
        recorder_ = recorder;
    }

    /**
     * Capture each search's replay stats tree so writeStatsJson can
     * include it (off by default: serializing the tree after every
     * search is not free).
     */
    void enableStatsCapture(bool enabled)
    {
        statsCaptureEnabled_ = enabled;
    }

    /**
     * Write the device's observability stats as one JSON document:
     * the host thread-pool group and (when capture is enabled) the
     * last search's full simulation stats tree.
     */
    void writeStatsJson(std::ostream &os) const;

  private:
    SearchOutcome runPlans(const std::vector<engine::QueryPlan> &plans);

    DeviceConfig config_;
    /** Shared so per-epoch segment devices alias one rebaked view. */
    std::shared_ptr<const index::InvertedIndex> index_;
    std::shared_ptr<const index::TombstoneSet> tombstones_;
    std::optional<index::Lexicon> lexicon_;
    std::optional<index::MemoryLayout> layout_;
    /** Set when config_.faults.enabled() or a mapped index is
     *  loaded (benign model, CRC verify only). */
    std::unique_ptr<mem::FaultModel> faultModel_;
    std::unique_ptr<engine::FaultPolicy> faultPolicy_;
    /** Set only when config_.cacheMB > 0. */
    std::unique_ptr<mem::BlockCache> cache_;
    double totalSeconds_ = 0.0;
    std::uint64_t totalQueries_ = 0;
    std::uint64_t totalScmBytes_ = 0;
    std::uint64_t totalDramBytes_ = 0;

    /**
     * Per-worker decode scratch, sized to the pool on first use and
     * reused across batches: repeated searchBatch() calls (and the
     * serving loop) run allocation-free on the decode path after
     * the first batch warms the buffers.
     */
    std::vector<engine::QueryArena> arenas_;

    trace::Recorder *recorder_ = nullptr;
    bool statsCaptureEnabled_ = false;
    std::string lastRunStatsJson_;
};

} // namespace boss::accel

#endif // BOSS_BOSS_DEVICE_H
