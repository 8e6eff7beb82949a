/**
 * @file
 * The always-on serving loop: open-loop generator, bounded
 * admission, pipelined execution, tail-latency accounting.
 *
 * Batch entry points (Device::searchBatch) answer "how fast can the
 * stack drain N queries"; a service cares about a different question
 * — "at an offered load of Q qps, what latency does the p99 query
 * see, and how much offered work still completes within its
 * deadline". The Server answers that one:
 *
 *   generator ──offer──▶ admission queue ──pop──▶ dispatcher
 *                                                   │ build (pool workers, concurrent)
 *                                                   ▼
 *                                               finisher ── replay + merge (serial)
 *
 *  - The generator offers queries on the schedule from arrival.h,
 *    indifferent to server progress (open loop). Latency is charged
 *    from the scheduled arrival.
 *  - The admission queue bounds memory and sheds load per policy
 *    (admission.h); every offered query gets a terminal record:
 *    Done, Expired, or Shed.
 *  - Each admitted query's host build runs on a pool worker, and
 *    completed builds finish in admission order on a dedicated
 *    thread, so the serial device replay + merge of query i overlaps
 *    the builds of queries i+1.. — the intra/inter-request overlap
 *    that lifts sustained throughput.
 *  - Results are computed in the build stage, so serve-mode top-k
 *    is bit-identical to batch-mode top-k regardless of thread count
 *    or completion order.
 *  - Each query's QueryRecord (record.h) is the one account of it:
 *    the report, the live telemetry and the Chrome trace all read it.
 */

#ifndef BOSS_SERVE_SERVER_H
#define BOSS_SERVE_SERVER_H

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "engine/arena.h"
#include "serve/admission.h"
#include "serve/arrival.h"
#include "serve/backend.h"
#include "serve/record.h"
#include "telemetry/serve_telemetry.h"

namespace boss::serve
{

struct ServeConfig
{
    ArrivalConfig arrivals;
    std::size_t queueCapacity = 256;
    ShedPolicy policy = ShedPolicy::DropTail;
    /**
     * Per-query completion deadline in microseconds, measured from
     * the scheduled arrival. Infinity disables SLO accounting
     * (every completion is goodput).
     */
    double deadlineUs = std::numeric_limits<double>::infinity();
    /**
     * Queries executed synchronously before the clock starts: warms
     * the per-worker decode arenas and code paths so the measured
     * window starts allocation-free. Excluded from all accounting.
     */
    std::size_t warmup = 0;
    /** Bound on builds outstanding past the dispatcher. */
    std::size_t maxInFlight = 64;
};

struct ServeReport
{
    std::vector<QueryRecord> records; ///< one per offered query
    std::uint64_t offered = 0;
    std::uint64_t completed = 0;
    std::uint64_t shed = 0;
    std::uint64_t expired = 0;
    std::uint64_t good = 0; ///< completed within deadline
    double elapsedUs = 0.0; ///< epoch → last completion (or close)
    double offeredQps = 0.0;
    double achievedQps = 0.0; ///< completed / elapsed
    double goodputQps = 0.0;  ///< good / elapsed
    /** Exact percentiles over completed queries' latencies. */
    double latencyP50Us = 0.0;
    double latencyP99Us = 0.0;
    double latencyP999Us = 0.0;
    double latencyMaxUs = 0.0;
    double queueWaitP99Us = 0.0;
    AdmissionCounters admission;
};

class Server
{
  public:
    Server(Backend &backend, ServeConfig config);

    /** Run one serving session over the (cycled) query set. */
    ServeReport run(const std::vector<workload::Query> &queries);
    ServeReport run(const std::vector<std::string> &qExpressions);

    /**
     * Attach live telemetry: every lifecycle transition then updates
     * the registry's counters and sliding windows *during* the run —
     * from the generator, dispatcher, pool-worker and finisher
     * threads — so an attached snapshotter or /metrics scrape sees
     * the overload as it happens, not a post-mortem. Also sizes the
     * per-shard breakdown from the backend; attach before starting
     * any snapshotter (registration is not render-safe). The
     * telemetry must outlive the runs; nullptr detaches.
     */
    void setTelemetry(telemetry::ServeTelemetry *telemetry);

  private:
    template <typename Q>
    ServeReport runImpl(const std::vector<Q> &queries);

    Backend &backend_;
    ServeConfig config_;
    telemetry::ServeTelemetry *telemetry_ = nullptr;

    /**
     * Per-worker decode scratch, persistent across runs (the warmed
     * buffers are the point of --warmup).
     */
    std::vector<engine::QueryArena> arenas_;
};

} // namespace boss::serve

#endif // BOSS_SERVE_SERVER_H
