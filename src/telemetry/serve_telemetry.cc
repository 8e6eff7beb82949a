#include "telemetry/serve_telemetry.h"

#include <algorithm>
#include <cmath>

namespace boss::telemetry
{

namespace
{

std::uint64_t
maxWindowSlices(const std::vector<WindowSpec> &windows)
{
    std::uint64_t m = 1;
    for (const WindowSpec &w : windows)
        m = std::max(m, w.slices);
    return m;
}

WindowedHistogram::Config
histConfig(const ServeTelemetry::Config &cfg, double lo, double hi)
{
    WindowedHistogram::Config h;
    h.lo = lo;
    h.hi = hi;
    h.buckets = 56;
    h.sliceUs = cfg.sliceUs;
    // One slot per slice in the longest window plus headroom, so a
    // slice is never recycled while still inside any window.
    h.ringSlices =
        static_cast<std::size_t>(maxWindowSlices(cfg.windows)) + 2;
    return h;
}

WindowedCounter::Config
counterConfig(const ServeTelemetry::Config &cfg)
{
    WindowedCounter::Config c;
    c.sliceUs = cfg.sliceUs;
    c.ringSlices =
        static_cast<std::size_t>(maxWindowSlices(cfg.windows)) + 2;
    return c;
}

} // namespace

void
IngestMetrics::registerInto(Registry &registry)
{
    registry.addCounter("boss_ingest_docs_appended_total",
                        &docsAppended,
                        "documents appended to the live index");
    registry.addCounter("boss_ingest_docs_deleted_total",
                        &docsDeleted, "documents tombstone-deleted");
    registry.addCounter("boss_ingest_segments_baked_total",
                        &segmentsBaked,
                        "immutable segments baked from the buffer");
    registry.addCounter("boss_ingest_merges_total", &merges,
                        "background merge compactions completed");
    registry.addCounter("boss_ingest_refreshes_total", &refreshes,
                        "epoch publishes making ingest visible");
    registry.addGauge("boss_ingest_live_docs", &liveDocs,
                      "surviving (non-deleted) documents");
    registry.addGauge("boss_ingest_segments", &segments,
                      "segments in the current epoch");
    registry.addGauge("boss_ingest_epoch", &epoch,
                      "current published epoch");
    registry.addGauge("boss_ingest_buffered_docs", &bufferedDocs,
                      "appended docs not yet baked to a segment");
}

void
CacheMetrics::registerInto(Registry &registry)
{
    registry.addCounter("boss_cache_fetches_total", &fetches,
                        "block-cache lookups (cacheable reads)");
    registry.addCounter("boss_cache_hits_total", &hits,
                        "block-cache hits served at DRAM timing");
    registry.addCounter("boss_cache_misses_total", &misses,
                        "block-cache misses served by SCM");
    registry.addCounter("boss_cache_evictions_total", &evictions,
                        "blocks evicted by CLOCK replacement");
    registry.addCounter("boss_cache_dram_bytes_total", &dramBytes,
                        "bytes served by the DRAM cache tier");
    registry.addCounter("boss_cache_scm_bytes_total", &scmBytes,
                        "bytes served by the SCM device");
}

ServeTelemetry::ServeTelemetry() : ServeTelemetry(Config()) {}

ServeTelemetry::ServeTelemetry(Config config)
    : config_(std::move(config)),
      epoch_(std::chrono::steady_clock::now()),
      flight_(config_.flightSlowCapacity,
              config_.flightShedCapacity),
      latencyUs_(histConfig(config_, 1.0, 1e7)),
      queueWaitUs_(histConfig(config_, 1.0, 1e7)),
      buildUs_(histConfig(config_, 1.0, 1e6)),
      finishUs_(histConfig(config_, 1.0, 1e6)),
      sloBudget_(histConfig(config_, 1e-3, 1e3)),
      offeredW_(counterConfig(config_)),
      completedW_(counterConfig(config_)),
      burn_(config_.errorBudget, counterConfig(config_))
{
    registry_.setWindows(config_.windows);

    registry_.addCounter("boss_serve_offered_total", &offered_,
                         "queries offered by the load generator");
    registry_.addCounter("boss_serve_admitted_total", &admitted_,
                         "queries admitted past the queue");
    registry_.addCounter("boss_serve_shed_capacity_total",
                         &shedCapacity_,
                         "drop-tail refusals at a full queue");
    registry_.addCounter("boss_serve_shed_deadline_total",
                         &shedDeadline_,
                         "deadline-aware refusals and evictions");
    registry_.addCounter("boss_serve_rejected_closed_total",
                         &rejectedClosed_,
                         "offers refused by a closed queue");
    registry_.addCounter("boss_serve_completed_total", &completed_,
                         "queries executed to completion");
    registry_.addCounter("boss_serve_shed_total", &shed_,
                         "terminal shed outcomes");
    registry_.addCounter("boss_serve_expired_total", &expired_,
                         "queries expired before execution");
    registry_.addCounter("boss_serve_good_total", &good_,
                         "completions within deadline");
    registry_.addCounter("boss_serve_deadline_missed_total",
                         &deadlineMissed_,
                         "completions past their deadline");
    registry_.addCounter(
        "boss_serve_flight_recorded_total", &flightRecorded_,
        "terminal lifecycles offered to the flight recorder");
    registry_.addGauge("boss_serve_queue_depth", &queueDepth_,
                       "admission queue depth at last offer");
    registry_.addFormulaGauge(
        "boss_serve_flight_slow_entries",
        [this] {
            return static_cast<double>(flight_.slowCount());
        },
        "slow-query entries held by the flight recorder");
    registry_.addFormulaGauge(
        "boss_serve_flight_shed_entries",
        [this] {
            return static_cast<double>(flight_.shedCount());
        },
        "shed/expired entries held by the flight recorder");

    registry_.addWindowedHistogram(
        "boss_serve_latency_us", &latencyUs_,
        "completion latency from scheduled arrival (us)");
    registry_.addWindowedHistogram(
        "boss_serve_queue_wait_us", &queueWaitUs_,
        "scheduled arrival to dispatch (us)");
    registry_.addWindowedHistogram(
        "boss_serve_build_us", &buildUs_,
        "host build stage wall time (us)");
    registry_.addWindowedHistogram(
        "boss_serve_finish_us", &finishUs_,
        "replay + merge stage wall time (us)");
    registry_.addWindowedHistogram(
        "boss_serve_slo_budget", &sloBudget_,
        "fraction of the deadline budget consumed per completion");

    double sliceSeconds = config_.sliceUs / 1e6;
    registry_.addWindowedFormula(
        "boss_serve_offered_qps",
        [this, sliceSeconds](double tUs, std::uint64_t slices) {
            return static_cast<double>(
                       offeredW_.total(tUs, slices)) /
                   (sliceSeconds * static_cast<double>(slices));
        },
        "offered load over the window (queries/sec)");
    registry_.addWindowedFormula(
        "boss_serve_completed_qps",
        [this, sliceSeconds](double tUs, std::uint64_t slices) {
            return static_cast<double>(
                       completedW_.total(tUs, slices)) /
                   (sliceSeconds * static_cast<double>(slices));
        },
        "completions over the window (queries/sec)");
    registry_.addWindowedFormula(
        "boss_serve_slo_burn_rate",
        [this](double tUs, std::uint64_t slices) {
            return burn_.rate(tUs, slices);
        },
        "error-budget burn rate over the window (1.0 = budget "
        "consumed exactly at the sustainable rate)");
}

double
ServeTelemetry::nowUs() const
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

void
ServeTelemetry::onOffered(double tUs)
{
    offered_.inc();
    offeredW_.add(tUs);
}

void
ServeTelemetry::onAdmission(double tUs, serve::Admission outcome,
                            std::size_t queueDepth)
{
    (void)tUs;
    switch (outcome) {
    case serve::Admission::Admitted:
        admitted_.inc();
        break;
    case serve::Admission::ShedCapacity:
        shedCapacity_.inc();
        break;
    case serve::Admission::ShedDeadline:
        shedDeadline_.inc();
        break;
    case serve::Admission::Closed:
        rejectedClosed_.inc();
        break;
    }
    queueDepth_.set(static_cast<double>(queueDepth));
}

void
ServeTelemetry::onAdmit(double tUs, double waitUs)
{
    queueWaitUs_.sample(tUs, waitUs);
}

void
ServeTelemetry::onBuild(double tUs, double buildUs)
{
    buildUs_.sample(tUs, buildUs);
}

void
ServeTelemetry::onFinish(double tUs, double finishUs)
{
    finishUs_.sample(tUs, finishUs);
}

void
ServeTelemetry::onShard(std::size_t shard, double simSeconds)
{
    if (shard >= shards_.size())
        return; // setShardCount not called (or smaller topology)
    shards_[shard]->queries.inc();
    shards_[shard]->busySeconds.add(simSeconds);
}

void
ServeTelemetry::onTerminal(double tUs, const serve::QueryRecord &rec,
                           double epochUs)
{
    flightRecorded_.inc();
    switch (rec.status) {
    case serve::QueryStatus::Done: {
        completed_.inc();
        completedW_.add(tUs);
        double latency = rec.latencyUs();
        latencyUs_.sample(tUs, latency);
        double budgetSpan = rec.deadlineUs - rec.arrivalUs;
        if (std::isfinite(budgetSpan) && budgetSpan > 0.0)
            sloBudget_.sample(tUs, latency / budgetSpan);
        if (rec.metDeadline) {
            good_.inc();
        } else {
            deadlineMissed_.inc();
        }
        burn_.record(tUs, rec.metDeadline);
        break;
    }
    case serve::QueryStatus::Expired:
        expired_.inc();
        burn_.record(tUs, false);
        break;
    case serve::QueryStatus::Shed:
        shed_.inc();
        burn_.record(tUs, false);
        break;
    }
    flight_.record(rec, epochUs);
}

void
ServeTelemetry::setShardCount(std::size_t shards)
{
    while (shards_.size() < shards) {
        auto metrics = std::make_unique<ShardMetrics>();
        std::string shardLabel =
            std::to_string(shards_.size());
        registry_.addCounter(
            "boss_serve_shard_queries_total", &metrics->queries,
            "completed query replays per shard",
            {{"shard", shardLabel}});
        registry_.addGauge(
            "boss_serve_shard_busy_seconds",
            &metrics->busySeconds,
            "cumulative simulated device time per shard",
            {{"shard", shardLabel}});
        shards_.push_back(std::move(metrics));
    }
}

void
ServeTelemetry::setBuildInfo(std::vector<Label> labels)
{
    registry_.setBuildInfo(std::move(labels));
}

} // namespace boss::telemetry
