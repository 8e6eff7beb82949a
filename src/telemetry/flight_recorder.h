/**
 * @file
 * Slow-query flight recorder: bounded in-memory evidence for tail
 * forensics.
 *
 * Always-on tracing of a long-running server is unaffordable, but
 * when an operator asks "what did the p999 look like", the interesting
 * queries are long gone. The flight recorder keeps just enough: a
 * bounded set of the *slowest* recently completed queries plus a
 * ring of the most recent shed/expired ones, each the query's own
 * serve::QueryRecord. On demand (HTTP /flight, or --flight-out at
 * exit) the buffer dumps as a Chrome trace through the existing
 * trace:: exporter — p999 forensics at ring-buffer cost instead of
 * always-on-tracing cost. The same renderer draws a whole run's
 * records (boss_serve --trace-out).
 */

#ifndef BOSS_TELEMETRY_FLIGHT_RECORDER_H
#define BOSS_TELEMETRY_FLIGHT_RECORDER_H

#include <cstdint>
#include <deque>
#include <mutex>
#include <ostream>
#include <vector>

#include "serve/record.h"

namespace boss::telemetry
{

/** A retained record and the epoch of the run that wrote it. */
struct FlightEntry
{
    serve::QueryRecord record;
    /**
     * The run's epoch on the telemetry clock (µs); the renderer adds
     * it to the record's run-relative timestamps, so entries from
     * several runs share one timeline.
     */
    double epochUs = 0.0;
};

class FlightRecorder
{
  public:
    /**
     * @param slowCapacity  completed queries retained (slowest-N)
     * @param shedCapacity  recent shed/expired queries retained
     */
    explicit FlightRecorder(std::size_t slowCapacity = 64,
                            std::size_t shedCapacity = 64);

    /**
     * Record a terminal record of the run whose epoch on the
     * telemetry clock is @p epochUs. Thread-safe.
     */
    void record(const serve::QueryRecord &rec, double epochUs);

    /** Total records ever offered to record(). */
    std::uint64_t recorded() const;
    std::size_t slowCount() const;
    std::size_t shedCount() const;
    /** Smallest latency still retained in the slow set (µs). */
    double slowThresholdUs() const;

    /**
     * Stable copy of the buffer: slow set sorted by descending
     * latency, then shed/expired in arrival order.
     */
    std::vector<FlightEntry> entries() const;

  private:
    const std::size_t slowCapacity_;
    const std::size_t shedCapacity_;

    mutable std::mutex mutex_;
    /** Min-heap by latency (front = fastest = next eviction). */
    std::vector<FlightEntry> slow_;
    std::deque<FlightEntry> shed_;
    std::uint64_t recorded_ = 0;
};

/**
 * Render @p entries as Chrome trace JSON via the trace:: exporter:
 * for each record a "queued" span (offer → dispatch) and a "serve"
 * span (build start → finish) on two host-µs lanes, or a "shed" or
 * "expired" instant, annotated with the id, deadline outcome,
 * latency and deadline slack.
 */
void dumpChromeTrace(std::ostream &os,
                     const std::vector<FlightEntry> &entries);

} // namespace boss::telemetry

#endif // BOSS_TELEMETRY_FLIGHT_RECORDER_H
