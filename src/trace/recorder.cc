#include "trace/recorder.h"

#include <algorithm>

#include "common/logging.h"
#include "common/thread_pool.h"

namespace boss::trace
{

Recorder::Recorder(std::size_t workers)
    : epoch_(std::chrono::steady_clock::now())
{
    if (workers == 0)
        workers = common::ThreadPool::global().size();
    buffers_.resize(workers + 1); // buffer 0: serial phases
    workerLanes_.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
        workerLanes_.push_back(addLane(
            "host", "pool.worker" + std::to_string(w),
            Domain::HostMicros, static_cast<int>(w)));
    }
}

std::uint16_t
Recorder::addLane(std::string process, std::string thread,
                  Domain domain, int sortIndex)
{
    BOSS_ASSERT(lanes_.size() < 0xFFFF, "lane table overflow");
    lanes_.push_back(LaneInfo{std::move(process), std::move(thread),
                              domain, sortIndex});
    return static_cast<std::uint16_t>(lanes_.size() - 1);
}

std::uint16_t
Recorder::workerLane(std::size_t worker) const
{
    BOSS_ASSERT(worker < workerLanes_.size(),
                "recorder sized for ", workerLanes_.size(),
                " workers, worker ", worker, " recorded; construct "
                "the Recorder after sizing the thread pool");
    return workerLanes_[worker];
}

std::uint64_t
Recorder::beginPhase()
{
    ++phase_;
    std::uint64_t base = phase_ << 32;
    serialScope_ = base;
    return base;
}

Scope
Recorder::scope(std::size_t worker, std::uint64_t key)
{
    BOSS_ASSERT(worker + 1 < buffers_.size(),
                "worker id out of recorder range");
    return Scope(this, worker + 1, key);
}

double
Recorder::hostMicros() const
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

void
Recorder::push(std::size_t buffer, std::uint64_t scope, Event e)
{
    auto &buf = buffers_[buffer];
    e.scope = scope;
    e.seq = buf.nextSeq++;
    buf.events.push_back(e);
}

std::vector<Event>
Recorder::merged() const
{
    std::vector<Event> all;
    all.reserve(eventCount());
    for (const auto &buf : buffers_)
        all.insert(all.end(), buf.events.begin(), buf.events.end());
    std::stable_sort(all.begin(), all.end(),
                     [](const Event &a, const Event &b) {
                         if (a.scope != b.scope)
                             return a.scope < b.scope;
                         return a.seq < b.seq;
                     });
    return all;
}

std::size_t
Recorder::eventCount() const
{
    std::size_t total = 0;
    for (const auto &buf : buffers_)
        total += buf.events.size();
    return total;
}

namespace
{

void
fillArgs(Event &e, std::initializer_list<EventArg> args)
{
    for (const EventArg &a : args) {
        if (e.numArgs == e.args.size())
            break; // silently drop beyond capacity
        e.args[e.numArgs++] = a;
    }
}

} // namespace

void
Scope::span(std::uint16_t lane, const char *name, double start,
            double dur, std::initializer_list<EventArg> args)
{
    if (rec_ == nullptr)
        return;
    Event e;
    e.name = name;
    e.kind = EventKind::Span;
    e.lane = lane;
    e.start = start;
    e.dur = dur;
    fillArgs(e, args);
    rec_->push(buffer_, scope_, e);
}

void
Scope::instant(std::uint16_t lane, const char *name, double ts,
               std::initializer_list<EventArg> args)
{
    if (rec_ == nullptr)
        return;
    Event e;
    e.name = name;
    e.kind = EventKind::Instant;
    e.lane = lane;
    e.start = ts;
    fillArgs(e, args);
    rec_->push(buffer_, scope_, e);
}

void
Scope::counter(std::uint16_t lane, const char *name, double ts,
               double value)
{
    if (rec_ == nullptr)
        return;
    Event e;
    e.name = name;
    e.kind = EventKind::Counter;
    e.lane = lane;
    e.start = ts;
    e.value = value;
    rec_->push(buffer_, scope_, e);
}

double
Scope::hostMicros() const
{
    return rec_ == nullptr ? 0.0 : rec_->hostMicros();
}

} // namespace boss::trace
