#include "serve/server.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <thread>

#include "common/logging.h"
#include "common/thread_pool.h"

namespace boss::serve
{

namespace
{

/** Exact interpolated percentile over a sorted sample vector. */
double
percentileSorted(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    double rank = q * static_cast<double>(sorted.size() - 1);
    auto lo = static_cast<std::size_t>(rank);
    std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    double frac = rank - static_cast<double>(lo);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

} // namespace

Server::Server(Backend &backend, ServeConfig config)
    : backend_(backend), config_(config)
{
    BOSS_ASSERT(config_.maxInFlight > 0, "need in-flight budget");
}

template <typename Q>
ServeReport
Server::runImpl(const std::vector<Q> &queries)
{
    BOSS_ASSERT(!queries.empty(), "serve run needs queries");
    common::ThreadPool &pool = common::ThreadPool::global();
    if (arenas_.size() < pool.size())
        arenas_.resize(pool.size());

    // Plans are computed once up front (serial, lexicon-aware), so
    // the generator and the build stage are parse-free and every
    // repetition of a query reuses one plan.
    std::vector<engine::QueryPlan> plans;
    plans.reserve(queries.size());
    for (const auto &q : queries)
        plans.push_back(backend_.plan(q));

    // Warmup: synchronous, before the epoch, unrecorded. Warms the
    // decode arenas and code paths so the measured window starts
    // allocation-free.
    for (std::size_t w = 0; w < config_.warmup; ++w) {
        BuiltHandle h =
            backend_.build(plans[w % plans.size()], arenas_[0]);
        backend_.finish(std::move(h));
    }

    const std::vector<double> schedule =
        makeArrivals(config_.arrivals);
    const std::size_t n = schedule.size();

    ServeReport report;
    report.records.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        QueryRecord &rec = report.records[i];
        rec.id = i;
        rec.queryIndex = i % plans.size();
        rec.arrivalUs = schedule[i];
        rec.deadlineUs = schedule[i] + config_.deadlineUs;
    }

    AdmissionQueue queue(config_.queueCapacity, config_.policy);

    const auto t0 = std::chrono::steady_clock::now();
    // Run-epoch offset on the telemetry clock: live hooks translate
    // run-relative timestamps into the metric windows' domain.
    const double telEpochUs =
        telemetry_ != nullptr ? telemetry_->nowUs() : 0.0;
    auto nowUs = [t0] {
        return std::chrono::duration<double, std::micro>(
                   std::chrono::steady_clock::now() - t0)
            .count();
    };

    // ---- Open-loop generator: offers on schedule, regardless of
    // server progress. (Block policy intentionally backpressures
    // the generator; see admission.h.)
    std::thread generator([&] {
        for (std::size_t i = 0; i < n; ++i) {
            std::this_thread::sleep_until(
                t0 +
                std::chrono::duration_cast<
                    std::chrono::steady_clock::duration>(
                    std::chrono::duration<double, std::micro>(
                        schedule[i])));
            QueryRecord &rec = report.records[i];
            ServeRequest req;
            req.id = i;
            req.queryIndex = rec.queryIndex;
            req.plan = &plans[rec.queryIndex];
            req.arrivalUs = schedule[i];
            req.enqueueUs = nowUs();
            req.deadlineUs = rec.deadlineUs;
            rec.enqueueUs = req.enqueueUs;
            std::optional<ServeRequest> evicted;
            Admission adm = queue.offer(std::move(req), &evicted);
            if (telemetry_ != nullptr) {
                double tTel = telEpochUs + rec.enqueueUs;
                telemetry_->onOffered(tTel);
                telemetry_->onAdmission(tTel, adm, queue.size());
                // A refusal is terminal right here; an admitted
                // query's terminal comes later from the pipeline.
                if (adm != Admission::Admitted)
                    telemetry_->onTerminal(tTel, rec, telEpochUs);
            }
            // Refusals keep the default Shed status. An eviction
            // victim was admitted earlier but never dispatched, so
            // this thread is its only writer.
            if (evicted.has_value()) {
                QueryRecord &victim = report.records[evicted->id];
                victim.status = QueryStatus::Shed;
                if (telemetry_ != nullptr)
                    telemetry_->onTerminal(telEpochUs + nowUs(),
                                           victim, telEpochUs);
            }
        }
        queue.close();
    });

    // ---- Builds fan out to pool workers; the finisher replays
    // completed builds in admission order, so device totals accrue
    // deterministically and the serial stage of query i overlaps the
    // builds of queries i+1..
    struct Completion
    {
        ServeRequest req;
        BuiltHandle built;
        std::exception_ptr error;
    };
    std::mutex pipeMutex;
    std::condition_variable pipeCv; // finisher <- completed builds
    std::condition_variable slotCv; // dispatcher <- freed slots
    std::map<std::uint64_t, Completion> ready;
    std::uint64_t submitted = 0;
    std::uint64_t finished = 0;
    std::size_t inFlight = 0;
    bool submitDone = false;
    std::exception_ptr pipeError;

    std::thread finisher([&] {
        std::uint64_t next = 0;
        for (;;) {
            Completion item;
            {
                std::unique_lock<std::mutex> lock(pipeMutex);
                pipeCv.wait(lock, [&] {
                    return ready.count(next) != 0 ||
                           (submitDone && finished == submitted);
                });
                auto it = ready.find(next);
                if (it == ready.end())
                    return; // submissions drained
                item = std::move(it->second);
                ready.erase(it);
            }
            QueryRecord &rec = report.records[item.req.id];
            if (item.error != nullptr) {
                std::lock_guard<std::mutex> lock(pipeMutex);
                if (pipeError == nullptr)
                    pipeError = item.error;
            } else {
                double f0 = nowUs();
                try {
                    Finished fin = backend_.finish(std::move(item.built));
                    double f1 = nowUs();
                    rec.status = QueryStatus::Done;
                    rec.finishUs = f1;
                    rec.metDeadline = f1 <= rec.deadlineUs;
                    rec.simSeconds = fin.simSeconds;
                    rec.deviceBytes = fin.deviceBytes;
                    rec.topk = std::move(fin.topk);
                    if (telemetry_ != nullptr) {
                        telemetry_->onFinish(telEpochUs + f1, f1 - f0);
                        for (std::size_t s = 0;
                             s < fin.shardSeconds.size(); ++s)
                            telemetry_->onShard(s, fin.shardSeconds[s]);
                        telemetry_->onTerminal(telEpochUs + f1, rec,
                                               telEpochUs);
                    }
                } catch (...) {
                    std::lock_guard<std::mutex> lock(pipeMutex);
                    if (pipeError == nullptr)
                        pipeError = std::current_exception();
                }
            }
            {
                std::lock_guard<std::mutex> lock(pipeMutex);
                ++finished;
                --inFlight;
            }
            slotCv.notify_one();
            pipeCv.notify_all();
            ++next;
        }
    });

    // ---- Dispatcher (this thread): pops admitted requests until
    // the queue is closed and drained.
    while (auto popped = queue.pop()) {
        ServeRequest req = std::move(*popped);
        QueryRecord &rec = report.records[req.id];
        double admitAt = nowUs();
        rec.admitUs = admitAt;
        if (admitAt > req.deadlineUs) {
            // Expired while queued: shed at dispatch, before any
            // work is spent on it.
            rec.status = QueryStatus::Expired;
            if (telemetry_ != nullptr)
                telemetry_->onTerminal(telEpochUs + admitAt, rec,
                                       telEpochUs);
            continue;
        }
        if (telemetry_ != nullptr)
            telemetry_->onAdmit(telEpochUs + admitAt,
                                admitAt - rec.arrivalUs);

        std::uint64_t seq;
        {
            std::unique_lock<std::mutex> lock(pipeMutex);
            slotCv.wait(lock, [&] {
                return inFlight < config_.maxInFlight;
            });
            ++inFlight;
            seq = submitted++;
        }
        pool.post([&, req, seq](std::size_t worker) {
            Completion item;
            QueryRecord &r = report.records[req.id];
            r.startUs = nowUs();
            try {
                item.built =
                    backend_.build(*req.plan, arenas_[worker]);
            } catch (...) {
                item.error = std::current_exception();
            }
            r.buildEndUs = nowUs();
            if (telemetry_ != nullptr)
                telemetry_->onBuild(telEpochUs + r.buildEndUs,
                                    r.buildEndUs - r.startUs);
            item.req = req;
            {
                // Notify under the lock: pool workers outlive this
                // frame, and pipeCv lives on it. Broadcasting while
                // holding pipeMutex keeps the finisher from waking,
                // draining, and letting the frame unwind while this
                // worker is still inside the broadcast.
                std::lock_guard<std::mutex> lock(pipeMutex);
                ready.emplace(seq, std::move(item));
                pipeCv.notify_all();
            }
        });
    }
    {
        std::lock_guard<std::mutex> lock(pipeMutex);
        submitDone = true;
    }
    pipeCv.notify_all();

    generator.join();
    finisher.join();
    report.elapsedUs = nowUs();
    if (pipeError != nullptr)
        std::rethrow_exception(pipeError);

    // ---- Accounting. Latency is charged from the *scheduled*
    // arrival (coordinated-omission-free); queue wait likewise.
    report.offered = n;
    report.admission = queue.counters();
    std::vector<double> latencies;
    std::vector<double> waits;
    latencies.reserve(n);
    for (QueryRecord &rec : report.records) {
        switch (rec.status) {
        case QueryStatus::Done:
            ++report.completed;
            if (rec.metDeadline)
                ++report.good;
            latencies.push_back(rec.latencyUs());
            waits.push_back(rec.admitUs - rec.arrivalUs);
            break;
        case QueryStatus::Expired:
            ++report.expired;
            break;
        case QueryStatus::Shed:
            ++report.shed;
            break;
        }
    }
    std::sort(latencies.begin(), latencies.end());
    std::sort(waits.begin(), waits.end());
    report.latencyP50Us = percentileSorted(latencies, 0.50);
    report.latencyP99Us = percentileSorted(latencies, 0.99);
    report.latencyP999Us = percentileSorted(latencies, 0.999);
    report.latencyMaxUs =
        latencies.empty() ? 0.0 : latencies.back();
    report.queueWaitP99Us = percentileSorted(waits, 0.99);
    double span = schedule.empty() ? 0.0 : schedule.back();
    report.offeredQps =
        span > 0.0 ? static_cast<double>(n) / span * 1e6 : 0.0;
    if (report.elapsedUs > 0.0) {
        report.achievedQps =
            static_cast<double>(report.completed) /
            report.elapsedUs * 1e6;
        report.goodputQps = static_cast<double>(report.good) /
                            report.elapsedUs * 1e6;
    }

    return report;
}

void
Server::setTelemetry(telemetry::ServeTelemetry *telemetry)
{
    telemetry_ = telemetry;
    if (telemetry_ != nullptr)
        telemetry_->setShardCount(backend_.shards());
}

ServeReport
Server::run(const std::vector<workload::Query> &queries)
{
    return runImpl(queries);
}

ServeReport
Server::run(const std::vector<std::string> &qExpressions)
{
    return runImpl(qExpressions);
}

} // namespace boss::serve
