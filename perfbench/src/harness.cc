#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/buildinfo.h"
#include "kernels/kernels.h"
#include "trace/json.h"

namespace perfbench
{

using namespace boss;

namespace
{

const Clock::time_point kProcessEpoch = Clock::now();

/** All digits of a double, as JSON (non-finite values become null). */
std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
jsonString(const std::string &s)
{
    std::ostringstream os;
    trace::json::writeString(os, s);
    return os.str();
}

} // namespace

double
nowUs()
{
    return std::chrono::duration<double, std::micro>(Clock::now() -
                                                     kProcessEpoch)
        .count();
}

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double
median(std::vector<double> v)
{
    return percentile(std::move(v), 0.5);
}

double
peakRssMb()
{
    struct rusage ru
    {
    };
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::size_t
poolSizeFor(unsigned reservedThreads)
{
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    return hw > reservedThreads ? hw - reservedThreads : 1;
}

// ---- SpanLog -------------------------------------------------------------

std::uint64_t
SpanLog::reserveId()
{
    if (!enabled_)
        return 0;
    std::lock_guard<std::mutex> lock(mu_);
    return nextId_++;
}

void
SpanLog::addWithId(std::uint64_t id, std::string name, double startUs,
                   double durUs, std::uint64_t group,
                   std::uint64_t parent, std::uint32_t lane)
{
    if (!enabled_)
        return;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(
        {id, parent, group, std::move(name), startUs, durUs, lane});
}

std::uint64_t
SpanLog::add(std::string name, double startUs, double durUs,
             std::uint64_t group, std::uint64_t parent, std::uint32_t lane)
{
    if (!enabled_)
        return 0;
    std::lock_guard<std::mutex> lock(mu_);
    const std::uint64_t id = nextId_++;
    spans_.push_back(
        {id, parent, group, std::move(name), startUs, durUs, lane});
    return id;
}

std::size_t
SpanLog::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
}

std::map<std::string, std::pair<double, std::uint64_t>>
SpanLog::selfTimeByName() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::map<std::uint64_t, std::vector<std::pair<double, double>>> kids;
    for (const Span &s : spans_) {
        if (s.parent != 0)
            kids[s.parent].push_back({s.startUs, s.startUs + s.durUs});
    }
    std::map<std::string, std::pair<double, std::uint64_t>> out;
    for (const Span &s : spans_) {
        double covered = 0.0;
        auto it = kids.find(s.id);
        if (it != kids.end()) {
            // Union of the children's intervals, clipped to the parent.
            auto iv = it->second;
            std::sort(iv.begin(), iv.end());
            const double lo = s.startUs;
            const double hi = s.startUs + s.durUs;
            double curA = 0.0, curB = -1.0;
            for (auto [a, b] : iv) {
                a = std::max(a, lo);
                b = std::min(b, hi);
                if (b <= a)
                    continue;
                if (a > curB) {
                    if (curB > curA)
                        covered += curB - curA;
                    curA = a;
                    curB = b;
                } else {
                    curB = std::max(curB, b);
                }
            }
            if (curB > curA)
                covered += curB - curA;
        }
        auto &slot = out[s.name];
        slot.first += std::max(0.0, s.durUs - covered);
        slot.second += 1;
    }
    return out;
}

void
SpanLog::writeChromeTrace(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::ofstream os(path);
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    bool first = true;
    for (const Span &s : spans_) {
        if (!first)
            os << ",\n";
        first = false;
        os << "{\"name\":" << jsonString(s.name)
           << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.lane << ",\"ts\":";
        trace::json::writeFixed(os, s.startUs);
        os << ",\"dur\":";
        trace::json::writeFixed(os, s.durUs);
        os << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
           << ",\"query\":" << s.group << "}}";
    }
    os << "\n]}\n";
}

// ---- RunResult -----------------------------------------------------------

void
RunResult::metric(const std::string &name, double value,
                  const std::string &unit)
{
    metrics_.push_back({name, {value, unit}});
}

void
RunResult::note(const std::string &key, double value)
{
    notes_.push_back({key, jsonNumber(value)});
}

void
RunResult::noteText(const std::string &key, const std::string &value)
{
    notes_.push_back({key, jsonString(value)});
}

void
RunResult::noteList(const std::string &key, const std::vector<double> &values)
{
    std::string raw = "[";
    for (std::size_t i = 0; i < values.size(); ++i)
        raw += (i ? ", " : "") + jsonNumber(values[i]);
    notes_.push_back({key, raw + "]"});
}

void
RunResult::check(bool ok, const std::string &what)
{
    ++attempted_;
    if (!ok) {
        ++failed_;
        if (errors_.size() < 20)
            errors_.push_back("check failed: " + what);
    }
}

std::string
RunResult::contractJson() const
{
    std::ostringstream os;
    os << "{\"correct\": " << (correct() ? "true" : "false")
       << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
       << ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, vu] : metrics_) {
        os << (first ? "" : ", ") << jsonString(name)
           << ": {\"value\": " << jsonNumber(vu.first)
           << ", \"unit\": " << jsonString(vu.second) << "}";
        first = false;
    }
    os << "}}";
    return os.str();
}

std::string
RunResult::detailJson() const
{
    std::ostringstream os;
    os << "{";
    bool first = true;
    for (const auto &[key, raw] : notes_) {
        os << (first ? "" : ", ") << jsonString(key) << ": " << raw;
        first = false;
    }
    os << (first ? "" : ", ") << "\"errors\": [";
    for (std::size_t i = 0; i < errors_.size(); ++i)
        os << (i ? ", " : "") << jsonString(errors_[i]);
    os << "]}";
    return os.str();
}

// ---- TimedBackend --------------------------------------------------------

namespace
{

/** Wraps the inner handle with its build interval. */
struct TimedHandle
{
    serve::BuiltHandle inner;
    double buildStartUs = 0.0;
    double buildEndUs = 0.0;
};

} // namespace

serve::BuiltHandle
TimedBackend::build(const engine::QueryPlan &plan, engine::QueryArena &arena)
{
    auto h = std::make_shared<TimedHandle>();
    h->buildStartUs = nowUs();
    h->inner = inner_.build(plan, arena);
    h->buildEndUs = nowUs();
    return h;
}

serve::Finished
TimedBackend::finish(serve::BuiltHandle built)
{
    auto *h = static_cast<TimedHandle *>(built.get());
    Call call;
    call.buildStartUs = h->buildStartUs;
    call.buildEndUs = h->buildEndUs;
    call.partitions = inner_.shards();
    call.finishStartUs = nowUs();
    serve::Finished fin = inner_.finish(std::move(h->inner));
    call.finishEndUs = nowUs();
    {
        std::lock_guard<std::mutex> lock(mu_);
        calls_.push_back(call);
    }
    return fin;
}

std::vector<TimedBackend::Call>
TimedBackend::calls() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return calls_;
}

void
TimedBackend::reset()
{
    std::lock_guard<std::mutex> lock(mu_);
    calls_.clear();
}

// ---- Phase accounting ----------------------------------------------------

namespace
{

/** Completed records in admission (= finish) order. */
std::vector<const serve::QueryRecord *>
doneInFinishOrder(const serve::ServeReport &report)
{
    std::vector<const serve::QueryRecord *> done;
    for (const auto &rec : report.records) {
        if (rec.status == serve::QueryStatus::Done)
            done.push_back(&rec);
    }
    std::sort(done.begin(), done.end(),
              [](const auto *a, const auto *b) {
                  return a->admitUs < b->admitUs;
              });
    return done;
}

/**
 * serve.query / serve.build / serve.finish spans for one Server run.
 * The k-th finish call belongs to the k-th completed record in
 * admission order; the server's run epoch is recovered from the
 * finish end times.
 */
void
attachServeSpans(SpanLog &log, const serve::ServeReport &report,
                 const std::vector<TimedBackend::Call> &calls,
                 std::uint64_t &groupBase)
{
    if (!log.enabled())
        return;
    auto done = doneInFinishOrder(report);
    const std::size_t n = std::min(done.size(), calls.size());
    if (n == 0)
        return;
    // The server stamps finishUs right after finish() returns, so the
    // two clocks differ by the run epoch plus a few microseconds.
    std::vector<double> offsets;
    offsets.reserve(n);
    for (std::size_t k = 0; k < n; ++k)
        offsets.push_back(calls[k].finishEndUs - done[k]->finishUs);
    const double epochUs = median(std::move(offsets));
    for (std::size_t k = 0; k < n; ++k) {
        const serve::QueryRecord &rec = *done[k];
        const TimedBackend::Call &c = calls[k];
        const std::uint64_t group = groupBase + rec.id + 1;
        const double arrival = epochUs + rec.arrivalUs;
        const std::uint64_t parent = log.reserveId();
        log.add("serve.build", c.buildStartUs,
                c.buildEndUs - c.buildStartUs, group, parent, 1);
        log.add("serve.finish", c.finishStartUs,
                c.finishEndUs - c.finishStartUs, group, parent, 2);
        log.addWithId(parent, "serve.query", arrival,
                      c.finishEndUs - arrival, group, 0, 0);
    }
    groupBase += report.records.size() + 1;
}

} // namespace

void
PhaseStats::add(const serve::ServeReport &report,
                const std::vector<TimedBackend::Call> &calls)
{
    offered += report.offered;
    completed += report.completed;
    good += report.good;
    shed += report.shed;
    expired += report.expired;
    elapsedUs += report.elapsedUs;
    if (report.elapsedUs > 0.0)
        roundQps.push_back(static_cast<double>(report.completed) /
                           report.elapsedUs * 1e6);
    for (const auto &rec : report.records) {
        if (rec.enqueueUs >= 0.0)
            generatorLateMsMax = std::max(
                generatorLateMsMax, (rec.enqueueUs - rec.arrivalUs) / 1e3);
        if (rec.status != serve::QueryStatus::Done)
            continue;
        latencyMs.push_back((rec.finishUs - rec.arrivalUs) / 1e3);
        responseMs.push_back((rec.finishUs - rec.enqueueUs) / 1e3);
        queueWaitMs.push_back((rec.admitUs - rec.enqueueUs) / 1e3);
    }
    for (const auto &c : calls) {
        buildMs.push_back((c.buildEndUs - c.buildStartUs) / 1e3);
        finishMs.push_back((c.finishEndUs - c.finishStartUs) / 1e3);
        handoffMs.push_back((c.finishStartUs - c.buildEndUs) / 1e3);
        finisherBusyUs += c.finishEndUs - c.finishStartUs;
        partitions.push_back(static_cast<double>(c.partitions));
    }
}

void
PhaseStats::absorb(const PhaseStats &o)
{
    auto append = [](std::vector<double> &to,
                     const std::vector<double> &from) {
        to.insert(to.end(), from.begin(), from.end());
    };
    append(latencyMs, o.latencyMs);
    append(responseMs, o.responseMs);
    append(queueWaitMs, o.queueWaitMs);
    append(buildMs, o.buildMs);
    append(finishMs, o.finishMs);
    append(handoffMs, o.handoffMs);
    append(roundQps, o.roundQps);
    append(partitions, o.partitions);
    generatorLateMsMax = std::max(generatorLateMsMax, o.generatorLateMsMax);
    finisherBusyUs += o.finisherBusyUs;
    elapsedUs += o.elapsedUs;
    offered += o.offered;
    completed += o.completed;
    good += o.good;
    shed += o.shed;
    expired += o.expired;
}

serve::ServeReport
servePhase(serve::Backend &backend, TimedBackend *timed,
           const serve::ServeConfig &config,
           const std::vector<workload::Query> &queries, PhaseStats &stats,
           SpanLog &spans, std::uint64_t &groupBase,
           telemetry::ServeTelemetry *telemetry)
{
    if (timed != nullptr)
        timed->reset();
    serve::Server server(timed != nullptr ? *timed : backend, config);
    if (telemetry != nullptr)
        server.setTelemetry(telemetry);
    serve::ServeReport report = server.run(queries);
    std::vector<TimedBackend::Call> calls;
    if (timed != nullptr) {
        // Warmup queries run build+finish synchronously before the
        // clock starts, so they are the first calls recorded.
        calls = timed->calls();
        calls.erase(calls.begin(),
                    calls.begin() + static_cast<std::ptrdiff_t>(std::min(
                                        config.warmup, calls.size())));
    }
    stats.add(report, calls);
    attachServeSpans(spans, report, calls, groupBase);
    return report;
}

void
reportServeLayer(const PhaseStats &s, RunResult &result)
{
    double execMs = 0.0, handoff = 0.0;
    for (std::size_t i = 0; i < s.buildMs.size(); ++i) {
        execMs += s.buildMs[i] + s.handoffMs[i] + s.finishMs[i];
        handoff += s.handoffMs[i];
    }
    result.metric("serve.build_ms_p50", median(s.buildMs), "ms");
    result.metric("serve.build_ms_p99", percentile(s.buildMs, 0.99), "ms");
    result.metric("serve.finish_ms_p50", median(s.finishMs), "ms");
    result.metric("serve.finisher_busy_frac",
                  s.elapsedUs > 0.0 ? s.finisherBusyUs / s.elapsedUs : 0.0,
                  "fraction");
    result.metric("serve.handoff_wait_frac",
                  execMs > 0.0 ? handoff / execMs : 0.0, "fraction");
    result.metric("serve.queue_wait_p99_ms", percentile(s.queueWaitMs, 0.99),
                  "ms");
    result.metric("serve.generator_late_ms_max", s.generatorLateMsMax, "ms");
    result.metric("fanout.segments_p50", median(s.partitions), "count");
    result.metric("fanout.segments_max", percentile(s.partitions, 1.0),
                  "count");
}

void
noteAttribution(RunResult &result, const Options &opt, std::size_t poolSize)
{
    result.noteText("workload", opt.workload);
    result.note("seed", static_cast<double>(opt.seed));
    result.note("seconds", opt.seconds);
    result.note("trace", opt.trace ? 1.0 : 0.0);
    result.noteText("git", std::string(common::buildGitHash()));
    result.noteText("compiler", std::string(common::buildCompiler()));
    result.noteText("kernel_tier", std::string(kernels::activeTierName()));
    result.note("nproc", static_cast<double>(
                             std::max(1u, std::thread::hardware_concurrency())));
    result.note("pool_threads", static_cast<double>(poolSize));
}

void
noteInputs(RunResult &result, const std::vector<workload::Query> &queries,
           std::uint64_t corpusFingerprint)
{
    std::uint64_t h = kFnvBasis;
    for (const workload::Query &q : queries) {
        h = fnv(h, static_cast<std::uint64_t>(q.type));
        for (TermId t : q.terms)
            h = fnv(h, t);
    }
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    result.noteText("queries_fingerprint", buf);
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(corpusFingerprint));
    result.noteText("corpus_fingerprint", buf);
}

void
reportModeled(RunResult &result, const Options &opt, double simQps,
              double simLatencyUs, double scmBytesPerQuery)
{
    result.note("modeled.sim_qps", simQps);
    result.note("modeled.sim_latency_us", simLatencyUs);
    result.note("modeled.scm_bytes_per_query", scmBytesPerQuery);
    if (opt.trace)
        return;
    result.metric("sim_qps", simQps, "1/s");
    result.metric("sim_latency_us", simLatencyUs, "us");
    result.metric("scm_bytes_per_query", scmBytesPerQuery, "bytes");
}

void
notePhase(RunResult &result, const std::string &prefix,
          const PhaseStats &phase)
{
    result.note(prefix + ".offered", static_cast<double>(phase.offered));
    result.note(prefix + ".completed", static_cast<double>(phase.completed));
    result.note(prefix + ".shed", static_cast<double>(phase.shed));
    result.note(prefix + ".expired", static_cast<double>(phase.expired));
    result.note(prefix + ".latency_samples",
                static_cast<double>(phase.latencyMs.size()));
    result.note(prefix + ".generator_late_ms_max", phase.generatorLateMsMax);
}

} // namespace perfbench
