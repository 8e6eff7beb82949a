/**
 * @file
 * Structured per-query event recorder: the core of the
 * observability layer.
 *
 * Design goals, in order:
 *  1. Near-zero cost when disabled. Every instrumentation site holds
 *     a nullable Recorder pointer (or a null Scope); the disabled
 *     path is a single pointer test.
 *  2. Determinism. Events recorded by thread-pool workers go into
 *     per-worker buffers with no shared mutable state; merged() then
 *     orders events by (scope, sequence), where the scope key is the
 *     query's submission index. The merged stream is therefore
 *     bit-identical at any worker count (wall-clock timestamps of
 *     host-domain events excepted; the simulated-tick domain is
 *     exactly reproducible).
 *  3. One consistent timeline model. Lanes (Chrome trace "threads")
 *     belong to one of two clock domains: simulated ticks (BOSS
 *     cores, memory channels, the event-queue depth counter) or host
 *     wall microseconds (thread-pool workers building traces). The
 *     exporter keeps the domains in separate trace processes so the
 *     two time bases are never visually conflated.
 *
 * Phases: each parallel build or serial replay opens a phase via
 * beginPhase(); scope keys derived from a phase's base strictly
 * increase across phases, so consecutive searches on one Device
 * interleave correctly in the merged stream.
 */

#ifndef BOSS_TRACE_RECORDER_H
#define BOSS_TRACE_RECORDER_H

#include <array>
#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/types.h"

namespace boss::trace
{

/** Clock domain of a lane's timestamps. */
enum class Domain : std::uint8_t
{
    SimTicks,   ///< simulated picosecond ticks
    HostMicros, ///< host wall-clock microseconds since recorder epoch
};

enum class EventKind : std::uint8_t
{
    Span,    ///< [start, start+dur) duration event
    Instant, ///< point event
    Counter, ///< sampled value series
};

/** One key/value annotation. Keys must be string literals. */
struct EventArg
{
    const char *key;
    std::uint64_t value;
};

/**
 * One recorded event. POD with literal-string names so the hot path
 * never allocates. scope/seq are the deterministic merge keys.
 */
struct Event
{
    const char *name = "";
    EventKind kind = EventKind::Instant;
    std::uint16_t lane = 0;
    std::uint8_t numArgs = 0;
    double start = 0.0; ///< ticks or µs, per the lane's domain
    double dur = 0.0;   ///< spans only
    double value = 0.0; ///< counters only
    std::array<EventArg, 6> args{};
    std::uint64_t scope = 0;
    std::uint64_t seq = 0;
};

/** A timeline row: maps to one Chrome trace (process, thread). */
struct LaneInfo
{
    std::string process;
    std::string thread;
    Domain domain = Domain::SimTicks;
    int sortIndex = 0;
};

class Recorder;

/**
 * A lightweight recording handle bound to one buffer and one merge
 * scope. Null (default-constructed) scopes swallow events, so
 * instrumented code needs only `if (scope)` guards — or none at all
 * if an occasional dead store is acceptable.
 */
class Scope
{
  public:
    Scope() = default;

    explicit operator bool() const { return rec_ != nullptr; }

    void span(std::uint16_t lane, const char *name, double start,
              double dur, std::initializer_list<EventArg> args = {});
    void instant(std::uint16_t lane, const char *name, double ts,
                 std::initializer_list<EventArg> args = {});
    void counter(std::uint16_t lane, const char *name, double ts,
                 double value);

    /** Wall-clock µs since the recorder's epoch (0 when null). */
    double hostMicros() const;

  private:
    friend class Recorder;
    Scope(Recorder *rec, std::size_t buffer, std::uint64_t scope)
        : rec_(rec), buffer_(buffer), scope_(scope)
    {}

    Recorder *rec_ = nullptr;
    std::size_t buffer_ = 0;
    std::uint64_t scope_ = 0;
};

/**
 * The event recorder. Construct with the worker count of the thread
 * pool that will feed it (workers record into private buffers;
 * buffer 0 serves all single-threaded phases). All setup calls
 * (addLane, beginPhase) must happen on one thread between parallel
 * phases; event recording itself is lock- and wait-free.
 */
class Recorder
{
  public:
    /** @param workers thread-pool size this recorder will observe. */
    explicit Recorder(std::size_t workers = 0);

    /** Register a timeline row; returns its lane id. */
    std::uint16_t addLane(std::string process, std::string thread,
                          Domain domain, int sortIndex = 0);

    std::size_t workers() const { return buffers_.size() - 1; }

    /** The pre-registered host lane of pool worker @p worker. */
    std::uint16_t workerLane(std::size_t worker) const;

    /**
     * Open a new ordering phase. Returns the phase's scope base;
     * parallel recorders use base + itemIndex as their scope key.
     * Also rebinds the serial() scope to this phase.
     */
    std::uint64_t beginPhase();

    /** Recording handle for pool worker @p worker, scope @p key. */
    Scope scope(std::size_t worker, std::uint64_t key);

    /** Recording handle for single-threaded phases (replay, setup). */
    Scope serial() { return Scope(this, 0, serialScope_); }

    /** Wall-clock µs since this recorder was constructed. */
    double hostMicros() const;

    /** All events, deterministically ordered by (scope, seq). */
    std::vector<Event> merged() const;

    const std::vector<LaneInfo> &lanes() const { return lanes_; }

    /** Events recorded so far (diagnostics). */
    std::size_t eventCount() const;

  private:
    friend class Scope;

    /** One event buffer (serial phase or pool worker). */
    struct Buffer
    {
        std::vector<Event> events;
        std::uint64_t nextSeq = 0;
    };

    void push(std::size_t buffer, std::uint64_t scope, Event e);

    std::vector<Buffer> buffers_;
    std::vector<LaneInfo> lanes_;
    std::vector<std::uint16_t> workerLanes_;
    std::uint64_t phase_ = 0;
    std::uint64_t serialScope_ = 0;
    std::chrono::steady_clock::time_point epoch_;
};

} // namespace boss::trace

#endif // BOSS_TRACE_RECORDER_H
