#include "telemetry/flight_recorder.h"

#include <algorithm>
#include <cmath>

#include "trace/chrome_trace.h"
#include "trace/recorder.h"

namespace boss::telemetry
{

namespace
{

/** Min-heap order: the fastest retained query sits at the front. */
bool
slowerFirst(const FlightEntry &a, const FlightEntry &b)
{
    return a.record.latencyUs() > b.record.latencyUs();
}

} // namespace

FlightRecorder::FlightRecorder(std::size_t slowCapacity,
                               std::size_t shedCapacity)
    : slowCapacity_(slowCapacity), shedCapacity_(shedCapacity)
{
    slow_.reserve(slowCapacity_);
}

void
FlightRecorder::record(const serve::QueryRecord &rec, double epochUs)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++recorded_;
    if (rec.status == serve::QueryStatus::Done) {
        if (slowCapacity_ == 0)
            return;
        if (slow_.size() < slowCapacity_) {
            slow_.push_back({rec, epochUs});
            std::push_heap(slow_.begin(), slow_.end(), slowerFirst);
        } else if (rec.latencyUs() >
                   slow_.front().record.latencyUs()) {
            std::pop_heap(slow_.begin(), slow_.end(), slowerFirst);
            slow_.back() = {rec, epochUs};
            std::push_heap(slow_.begin(), slow_.end(), slowerFirst);
        }
        return;
    }
    if (shedCapacity_ == 0)
        return;
    if (shed_.size() == shedCapacity_)
        shed_.pop_front();
    shed_.push_back({rec, epochUs});
}

std::uint64_t
FlightRecorder::recorded() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return recorded_;
}

std::size_t
FlightRecorder::slowCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return slow_.size();
}

std::size_t
FlightRecorder::shedCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return shed_.size();
}

double
FlightRecorder::slowThresholdUs() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return slow_.empty() ? 0.0 : slow_.front().record.latencyUs();
}

std::vector<FlightEntry>
FlightRecorder::entries() const
{
    std::vector<FlightEntry> out;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        out = slow_;
        std::sort(out.begin(), out.end(),
                  [](const FlightEntry &a, const FlightEntry &b) {
                      if (a.record.latencyUs() != b.record.latencyUs())
                          return a.record.latencyUs() >
                                 b.record.latencyUs();
                      return a.record.id < b.record.id;
                  });
        out.insert(out.end(), shed_.begin(), shed_.end());
    }
    return out;
}

void
dumpChromeTrace(std::ostream &os, const std::vector<FlightEntry> &entries)
{
    // A private single-use recorder: one worker buffer (unused —
    // emission is serial) and two host-µs lanes.
    trace::Recorder rec(1);
    std::uint16_t qLane = rec.addLane("serve (host us)", "queued",
                                      trace::Domain::HostMicros, 100);
    std::uint16_t xLane = rec.addLane("serve (host us)", "execution",
                                      trace::Domain::HostMicros, 101);
    rec.beginPhase();
    trace::Scope scope = rec.serial();
    for (const FlightEntry &e : entries) {
        const serve::QueryRecord &q = e.record;
        switch (q.status) {
        case serve::QueryStatus::Done: {
            // Deadline budget left at finish, saturated at 0 (and 0
            // without an SLO).
            const double slack = q.deadlineUs - q.finishUs;
            scope.span(qLane, "queued", e.epochUs + q.enqueueUs,
                       q.admitUs - q.enqueueUs, {{"id", q.id}});
            scope.span(xLane, "serve", e.epochUs + q.startUs,
                       q.finishUs - q.startUs,
                       {{"id", q.id},
                        {"met", q.metDeadline ? 1u : 0u},
                        {"latency_us",
                         static_cast<std::uint64_t>(q.latencyUs())},
                        {"slack_us",
                         std::isfinite(slack) && slack > 0.0
                             ? static_cast<std::uint64_t>(slack)
                             : 0u}});
            break;
        }
        case serve::QueryStatus::Expired:
            scope.span(qLane, "queued", e.epochUs + q.enqueueUs,
                       q.admitUs - q.enqueueUs, {{"id", q.id}});
            scope.instant(xLane, "expired", e.epochUs + q.admitUs,
                          {{"id", q.id}});
            break;
        case serve::QueryStatus::Shed:
            scope.instant(qLane, "shed", e.epochUs + q.enqueueUs,
                          {{"id", q.id}});
            break;
        }
    }
    trace::writeChromeTrace(os, rec);
}

} // namespace boss::telemetry
