/**
 * @file
 * The serve path's live telemetry bundle: every metric the always-
 * on server updates per query lifecycle transition, pre-registered
 * into one Registry, plus the flight recorder.
 *
 * The serve layer calls the on*() hooks at each transition —
 * offered, admission decision, dispatch, build done, finish done,
 * terminal — with timestamps in this object's clock domain (µs
 * since construction; see nowUs()). Hooks are thread-safe and
 * lock-light: the generator, dispatcher, pool workers and finisher
 * all update concurrently while the snapshotter/HTTP exporter
 * render. Tests drive the hooks with virtual timestamps and get
 * deterministic windows.
 *
 * The hooks take the serve layer's own types from the header-only
 * serve/record.h; the library dependency still points the other way
 * (serve links telemetry, never the reverse).
 */

#ifndef BOSS_TELEMETRY_SERVE_TELEMETRY_H
#define BOSS_TELEMETRY_SERVE_TELEMETRY_H

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "serve/record.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/metrics.h"
#include "telemetry/registry.h"

namespace boss::telemetry
{

/**
 * Ingest-side metrics for mixed read/write serving: monotonic
 * counters mirroring index::segments::IngestCounters plus gauges of
 * the current segment topology. The ingest loop polls the live
 * index's counters and applies deltas here (the telemetry layer
 * stays free of index/ includes, matching this file's dependency
 * rule), so the /metrics surface gains an ingest section without
 * the serve hooks changing shape.
 */
class IngestMetrics
{
  public:
    /** Register every metric into @p registry (setup-time only). */
    void registerInto(Registry &registry);

    Counter docsAppended;
    Counter docsDeleted;
    Counter segmentsBaked;
    Counter merges;
    Counter refreshes;
    Gauge liveDocs;
    Gauge segments;
    Gauge epoch;
    Gauge bufferedDocs;
};

/**
 * DRAM block-cache tier metrics (the out-of-core serving path).
 * Monotonic counters; the serve layer polls the device's cache and
 * traffic counters and applies deltas here, keeping this layer free
 * of mem/ includes like IngestMetrics does for index/. Invariant at
 * quiescent points: hits + misses == fetches (metrics_check.py
 * verifies it on every scraped snapshot).
 */
class CacheMetrics
{
  public:
    /** Register every metric into @p registry (setup-time only). */
    void registerInto(Registry &registry);

    Counter fetches;
    Counter hits;
    Counter misses;
    Counter evictions;
    Counter dramBytes;
    Counter scmBytes;
};

class ServeTelemetry
{
  public:
    struct Config
    {
        /** Window slice width; windows are multiples of this. */
        double sliceUs = 1e6;
        std::vector<WindowSpec> windows = {
            {"1s", 1}, {"10s", 10}, {"60s", 60}};
        /**
         * SLO error budget: the tolerated bad-event fraction. The
         * default 0.01 encodes a 99% deadline-met objective; the
         * burn-rate gauges read 1.0 when misses+sheds consume the
         * budget exactly at the sustainable rate.
         */
        double errorBudget = 0.01;
        std::size_t flightSlowCapacity = 64;
        std::size_t flightShedCapacity = 64;
    };

    ServeTelemetry(); ///< default Config
    explicit ServeTelemetry(Config config);

    /** µs since this object was constructed (the metric epoch). */
    double nowUs() const;

    // ---- lifecycle hooks (thread-safe) ----
    void onOffered(double tUs);
    void onAdmission(double tUs, serve::Admission outcome,
                     std::size_t queueDepth);
    /** Admitted query reached the dispatcher after @p waitUs. */
    void onAdmit(double tUs, double waitUs);
    /** One host build stage completed (pool worker). */
    void onBuild(double tUs, double buildUs);
    /** One replay+merge stage completed (finisher). */
    void onFinish(double tUs, double finishUs);
    /** Per-shard replay accounting for one completed query. */
    void onShard(std::size_t shard, double simSeconds);
    /**
     * Terminal record for one offered query, from the run whose
     * epoch on this clock is @p epochUs; updates the outcome
     * counters, the latency/SLO windows and the flight recorder.
     * Exactly one terminal call per offered query reconciles
     * offered == completed + shed + expired at all quiescent
     * points.
     */
    void onTerminal(double tUs, const serve::QueryRecord &rec,
                    double epochUs);

    /**
     * Pre-size the per-shard breakdown (registers labeled
     * counters). Call before the snapshotter/HTTP exporter starts;
     * registration is not thread-safe against rendering.
     */
    void setShardCount(std::size_t shards);

    /** Stamp build-identity labels into the exposition. */
    void setBuildInfo(std::vector<Label> labels);

    Registry &registry() { return registry_; }
    const Registry &registry() const { return registry_; }
    FlightRecorder &flight() { return flight_; }
    const FlightRecorder &flight() const { return flight_; }
    const Config &config() const { return config_; }

    // Raw counters, for end-of-run reconciliation checks.
    std::uint64_t offered() const { return offered_.value(); }
    std::uint64_t completed() const { return completed_.value(); }
    std::uint64_t shed() const { return shed_.value(); }
    std::uint64_t expired() const { return expired_.value(); }
    std::uint64_t good() const { return good_.value(); }

  private:
    struct ShardMetrics
    {
        Counter queries;
        Gauge busySeconds;
    };

    Config config_;
    std::chrono::steady_clock::time_point epoch_;
    Registry registry_;
    FlightRecorder flight_;

    // Terminal accounting (exact).
    Counter offered_;
    Counter admitted_;
    Counter shedCapacity_;
    Counter shedDeadline_;
    Counter rejectedClosed_;
    Counter completed_;
    Counter shed_;
    Counter expired_;
    Counter good_;
    Counter deadlineMissed_;
    Counter flightRecorded_;
    Gauge queueDepth_;

    // Sliding windows (approximate, decaying).
    WindowedHistogram latencyUs_;
    WindowedHistogram queueWaitUs_;
    WindowedHistogram buildUs_;
    WindowedHistogram finishUs_;
    /** Fraction of the deadline budget each completion consumed. */
    WindowedHistogram sloBudget_;
    WindowedCounter offeredW_;
    WindowedCounter completedW_;
    BurnRate burn_;

    std::vector<std::unique_ptr<ShardMetrics>> shards_;
};

} // namespace boss::telemetry

#endif // BOSS_TELEMETRY_SERVE_TELEMETRY_H
