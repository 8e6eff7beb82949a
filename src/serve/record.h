/**
 * @file
 * The one lifecycle record of a served query.
 *
 * Every offered query ends in exactly one QueryRecord. The server
 * writes it (server.h); the report, the live telemetry hooks, the
 * flight recorder and the Chrome trace all read that same record
 * (telemetry/). This header is header-only and depends only on
 * common/types.h and engine/topk.h, so the telemetry layer includes
 * it without linking the serve layer.
 */

#ifndef BOSS_SERVE_RECORD_H
#define BOSS_SERVE_RECORD_H

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/types.h"
#include "engine/topk.h"

namespace boss::serve
{

/** Outcome of one admission-queue offer. */
enum class Admission : std::uint8_t
{
    Admitted,
    ShedCapacity, ///< DropTail refusal at a full queue
    ShedDeadline, ///< DropDeadline refusal or eviction
    Closed,       ///< queue closed; request refused
};

enum class QueryStatus : std::uint8_t
{
    Shed,    ///< refused (or evicted) at admission
    Expired, ///< deadline already past at dispatch; never executed
    Done,    ///< executed; metDeadline says if it counts as goodput
};

/** Terminal record of one offered query (indexed by arrival id). */
struct QueryRecord
{
    std::uint64_t id = 0;
    std::size_t queryIndex = 0;
    QueryStatus status = QueryStatus::Shed;
    bool metDeadline = false;
    // Lifecycle timestamps, us from the run epoch; negative when the
    // query never reached that stage.
    double arrivalUs = 0.0;  ///< scheduled (open-loop) arrival
    double enqueueUs = -1.0; ///< offered to admission
    double admitUs = -1.0;    ///< popped by the dispatcher
    double startUs = -1.0;    ///< build began on a worker
    double buildEndUs = -1.0; ///< build completed on the worker
    double finishUs = -1.0;   ///< replay + merge completed
    /**
     * Completion deadline, us from the run epoch; infinity without
     * an SLO.
     */
    double deadlineUs = std::numeric_limits<double>::infinity();
    double simSeconds = 0.0; ///< modeled device time
    std::uint64_t deviceBytes = 0;
    std::vector<engine::Result> topk;

    /** Completion latency from scheduled arrival; 0 unless Done. */
    double latencyUs() const
    {
        return status == QueryStatus::Done ? finishUs - arrivalUs : 0.0;
    }
};

} // namespace boss::serve

#endif // BOSS_SERVE_RECORD_H
