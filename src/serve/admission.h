/**
 * @file
 * Bounded admission control for the serving pipeline.
 *
 * The queue between the load generator and the execution pipeline is
 * where overload becomes policy: when offered load exceeds capacity
 * something must give, and the admission queue decides what. Three
 * policies cover the serving experiments:
 *
 *  - Block: the generator waits for space. Nothing is shed; queueing
 *    delay grows without bound past saturation (the latency curve's
 *    "knee" becomes a wall). The right mode for bit-identity checks
 *    against batch execution, where every query must run.
 *  - DropTail: a full queue sheds the incoming request. Bounded
 *    memory and bounded queueing delay; goodput saturates at
 *    capacity while the excess is refused at the door.
 *  - DropDeadline: deadline-aware shedding. A full queue evicts the
 *    queued request with the earliest deadline if the newcomer has
 *    more slack (the evictee was the least likely to finish in
 *    time), otherwise sheds the newcomer. Under overload this
 *    converts shed capacity into goodput: work is spent on requests
 *    that can still meet their SLO.
 *
 * The queue itself is clock-free: requests carry their own
 * timestamps and deadlines, and expiry is enforced by the dispatcher
 * (a request may also expire *after* admission, mid-pipeline — the
 * server handles that; see server.h). Clock-free admission makes the
 * policies deterministically testable: a single-threaded test drives
 * offer()/tryPop() with virtual timestamps and the outcome depends
 * only on the call sequence, never on wall time.
 *
 * Thread-safe: one generator offering, one dispatcher popping is the
 * server's shape, but any number of each is safe.
 */

#ifndef BOSS_SERVE_ADMISSION_H
#define BOSS_SERVE_ADMISSION_H

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <limits>
#include <mutex>
#include <optional>

#include "engine/plan.h"
#include "serve/record.h"

namespace boss::serve
{

/** What a full (or closed) queue does with an incoming request. */
enum class ShedPolicy : std::uint8_t
{
    Block,
    DropTail,
    DropDeadline,
};

/** One in-flight query, carrying its own clock readings. */
struct ServeRequest
{
    /** Arrival index in the offered schedule (also the record id). */
    std::uint64_t id = 0;
    /** Index into the run's query set (id mod #queries). */
    std::size_t queryIndex = 0;
    /** Pre-computed plan; owned by the server for the whole run. */
    const engine::QueryPlan *plan = nullptr;
    /** Scheduled (open-loop) arrival, us from run epoch. */
    double arrivalUs = 0.0;
    /** When the generator actually offered it (>= arrivalUs). */
    double enqueueUs = 0.0;
    /** Absolute completion deadline, us from run epoch. */
    double deadlineUs = std::numeric_limits<double>::infinity();
};

struct AdmissionCounters
{
    std::uint64_t offered = 0;
    std::uint64_t admitted = 0;
    std::uint64_t shedCapacity = 0;
    std::uint64_t shedDeadline = 0;
    std::uint64_t rejectedClosed = 0;
    /** Peak depth observed at admission time. */
    std::uint64_t peakDepth = 0;
};

class AdmissionQueue
{
  public:
    explicit AdmissionQueue(std::size_t capacity,
                            ShedPolicy policy = ShedPolicy::DropTail);

    /**
     * Offer one request. Returns the admission decision; with the
     * DropDeadline policy an eviction surfaces through @p evicted
     * (the caller records the victim as shed). Block waits for
     * space — or for close(), which refuses the waiter.
     */
    Admission offer(ServeRequest request,
                    std::optional<ServeRequest> *evicted = nullptr);

    /** Pop the oldest admitted request without waiting. */
    std::optional<ServeRequest> tryPop();

    /**
     * Pop the oldest admitted request, waiting for one to arrive.
     * Returns nullopt only when the queue is closed and drained —
     * the dispatcher's termination signal.
     */
    std::optional<ServeRequest> pop();

    /**
     * Stop admitting: subsequent offers are refused, blocked offers
     * wake refused, and pop() drains what was admitted then returns
     * nullopt forever after.
     */
    void close();

    std::size_t capacity() const { return capacity_; }
    ShedPolicy policy() const { return policy_; }
    std::size_t size() const;
    AdmissionCounters counters() const;

  private:
    const std::size_t capacity_;
    const ShedPolicy policy_;

    mutable std::mutex mutex_;
    std::condition_variable notEmpty_;
    std::condition_variable notFull_;
    std::deque<ServeRequest> queue_;
    bool closed_ = false;
    AdmissionCounters counters_;
};

} // namespace boss::serve

#endif // BOSS_SERVE_ADMISSION_H
