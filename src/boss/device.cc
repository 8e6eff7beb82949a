#include "boss/device.h"

#include <algorithm>
#include <limits>
#include <map>
#include <sstream>

#include "common/buildinfo.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "engine/plan.h"
#include "kernels/kernels.h"
#include "engine/topk.h"
#include "index/serialize.h"

namespace boss::accel
{

namespace api_detail
{
/** Max terms four ganged BOSS cores handle in hardware. */
constexpr std::size_t kMaxHwTerms = 16;
/** Subquery width for host-managed wide unions. */
constexpr std::size_t kSplitWidth = 16;
} // namespace api_detail

namespace
{
/** Index images start above the device's reserved low region. */
constexpr Addr kImageBase = 0x10000;
} // namespace

Device::Device(DeviceConfig config) : config_(std::move(config))
{
    if (config_.faults.enabled()) {
        faultModel_ = std::make_unique<mem::FaultModel>(
            config_.faults, config_.faultSeed, config_.deviceId);
        faultPolicy_ =
            std::make_unique<engine::FaultPolicy>(*faultModel_);
    }
    if (config_.cacheMB > 0) {
        mem::BlockCacheConfig cc;
        cc.capacityBytes = static_cast<std::uint64_t>(
            config_.cacheMB * (1 << 20));
        cc.shards = config_.cacheShards;
        cache_ = std::make_unique<mem::BlockCache>(cc);
    }
}

Device::~Device() = default;

bool
Device::operational() const
{
    return faultModel_ == nullptr || !faultModel_->deviceDead();
}

void
Device::loadIndex(index::InvertedIndex index)
{
    loadSharedIndex(std::make_shared<const index::InvertedIndex>(
        std::move(index)));
}

void
Device::loadSharedIndex(
    std::shared_ptr<const index::InvertedIndex> index)
{
    BOSS_ASSERT(index != nullptr, "loadSharedIndex(nullptr)");
    index_ = std::move(index);
    layout_.emplace(*index_, kImageBase,
                    config_.mem.timing.granule);
}

void
Device::loadIndexFile(const std::string &path)
{
    loadIndex(index::loadIndexFile(path));
}

void
Device::loadTextIndex(index::TextIndex ti)
{
    loadIndex(std::move(ti.index));
    lexicon_.emplace(std::move(ti.lexicon));
}

void
Device::loadTextIndexFile(const std::string &path)
{
    loadTextIndex(index::loadTextIndexFile(path));
}

void
Device::loadMappedTextIndexFile(const std::string &path)
{
    auto mapped = index::MappedIndex::open(path);
    BOSS_ASSERT(mapped->hasLexicon(),
                "'", path, "' has no lexicon section (not a text "
                "index file)");
    lexicon_.emplace(mapped->loadLexicon());
    loadSharedIndex(index::MappedIndex::share(mapped));

    // Mapped payloads skip the load-time whole-file CRC, so decode
    // under a fault policy that checks each block's CRC on first
    // touch. Without configured faults the model is benign: no
    // injection, clean blocks verify once and then memoize, and
    // at-rest corruption in the mapping still hits the retry/drop
    // degrade path instead of crashing the process.
    if (faultPolicy_ == nullptr) {
        faultModel_ = std::make_unique<mem::FaultModel>(
            mem::FaultSpec{}, config_.faultSeed, config_.deviceId);
        faultPolicy_ =
            std::make_unique<engine::FaultPolicy>(*faultModel_);
    }
    faultPolicy_->enableVerifyOnce(*index_);
}

const index::Lexicon &
Device::lexicon() const
{
    BOSS_ASSERT(lexicon_.has_value(), "no lexicon loaded");
    return *lexicon_;
}

const index::InvertedIndex &
Device::index() const
{
    BOSS_ASSERT(index_ != nullptr, "no index loaded");
    return *index_;
}

const index::MemoryLayout &
Device::layout() const
{
    BOSS_ASSERT(layout_.has_value(), "no index loaded");
    return *layout_;
}

namespace
{

/**
 * Host-managed execution of a union with more than 16 terms (paper
 * Sec. IV-D): split into <=16-term subqueries, run each without
 * pruning or device top-k, gather the full scored lists in host
 * memory, and merge there.
 */
std::vector<engine::QueryPlan>
splitWidePlan(const engine::QueryPlan &plan)
{
    BOSS_ASSERT(plan.isPureUnion(),
                "queries with more than 16 terms are host-managed "
                "and only supported for pure unions");
    std::vector<engine::QueryPlan> subplans;
    engine::QueryPlan current;
    for (TermId t : plan.allTerms) {
        current.groups.push_back({t});
        current.allTerms.push_back(t);
        if (current.allTerms.size() == api_detail::kSplitWidth) {
            subplans.push_back(std::move(current));
            current = {};
        }
    }
    if (!current.groups.empty())
        subplans.push_back(std::move(current));
    return subplans;
}

} // namespace

BuiltQuery
Device::buildQuery(const engine::QueryPlan &plan,
                   engine::QueryArena &arena, trace::Scope scope,
                   std::uint16_t lane) const
{
    BOSS_ASSERT(index_ != nullptr, "search() before loadIndex()");
    // A lexicon-less plan resolves "t<N>" to any N, and the engine's
    // list lookup is unchecked. This is the one place that sees both
    // the plan and the placed index (a live epoch's view included).
    for (TermId t : plan.allTerms) {
        if (t >= index_->numTerms())
            BOSS_FATAL("query term t", t, " outside the index's ",
                       index_->numTerms(), " terms");
    }

    model::TraceOptions options =
        model::traceOptionsFor(config_.kind, config_.k);
    options.faults = faultPolicy_.get();
    options.tombstones = tombstones_.get();
    // Subqueries of host-managed wide unions run without pruning and
    // spill their full scored lists to the host.
    model::TraceOptions wideOptions = options;
    wideOptions.flags.blockSkip = false;
    wideOptions.flags.wandSkip = false;
    wideOptions.flags.storeAllResults = true;
    wideOptions.k = std::numeric_limits<std::size_t>::max() / 2;

    BuiltQuery run;
    double buildStart = scope.hostMicros();
    if (plan.allTerms.size() > api_detail::kMaxHwTerms) {
        // Host-managed split: gather and merge on the host. The
        // subqueries stay sequential inside this call so the
        // host-side merge is order-stable.
        std::map<DocId, Score> merged;
        for (const auto &sub : splitWidePlan(plan)) {
            std::vector<engine::Result> partial;
            run.traces.push_back(
                model::buildTrace(*index_, *layout_, sub,
                                  wideOptions, &partial, &arena,
                                  scope, lane));
            arena.reset();
            for (const auto &r : partial)
                merged[r.doc] += r.score;
        }
        engine::TopK topk(config_.k);
        for (const auto &[doc, score] : merged)
            topk.insert(doc, score);
        run.topk = topk.sorted();
    } else {
        run.traces.push_back(model::buildTrace(
            *index_, *layout_, plan, options, &run.topk, &arena,
            scope, lane));
        arena.reset();
    }
    if (scope) {
        scope.span(lane, "build", buildStart,
                   scope.hostMicros() - buildStart,
                   {{"terms", plan.allTerms.size()},
                    {"subqueries", run.traces.size()}});
    }
    return run;
}

SearchOutcome
Device::replayBuilt(std::vector<BuiltQuery> built)
{
    // Aggregate in submission order, then replay the whole group on
    // one event-driven device model (queries share the device). A
    // wide union's subquery traces fold into its one record.
    SearchOutcome outcome;
    std::vector<model::QueryTrace> traces;
    traces.reserve(built.size());
    for (std::size_t q = 0; q < built.size(); ++q) {
        trace::QuerySummary &s = outcome.summaries.emplace_back();
        s.query = q;
        for (auto &t : built[q].traces) {
            const trace::QuerySummary part = model::summarizeTrace(t);
            s.terms += part.terms;
            trace::addCounters(s, part);
            traces.push_back(std::move(t));
        }
        outcome.perQuery.push_back(std::move(built[q].topk));
    }
    // The combined outcome carries the last query's results when
    // batching; single-query callers get exactly their results.
    if (!outcome.perQuery.empty())
        outcome.topk = outcome.perQuery.back();

    model::SystemConfig sys;
    sys.kind = config_.kind;
    sys.cores = config_.cores;
    sys.mem = config_.mem;
    sys.link = config_.link;
    sys.label = config_.label;
    sys.faults = faultModel_.get();
    sys.cache = cache_.get();
    sys.cacheMem = config_.cacheMem;
    model::ReplayObservers observers;
    observers.recorder = recorder_;
    std::vector<model::QueryTiming> timings;
    observers.timings = &timings;
    std::ostringstream statsCapture;
    if (statsCaptureEnabled_) {
        observers.onModel = [&statsCapture](model::SystemModel &m) {
            m.statsRoot().dumpJson(statsCapture);
        };
    }
    auto metrics = model::replayTraces(traces, sys, observers);
    outcome.simSeconds = metrics.run.seconds;
    outcome.deviceBytes = metrics.run.deviceBytes;
    outcome.dramBytes = metrics.run.dramBytes;
    outcome.cacheLookups = metrics.run.cacheLookups;
    outcome.cacheHits = metrics.run.cacheHits;
    outcome.cacheMisses = metrics.run.cacheMisses;
    outcome.cacheEvictions = metrics.run.cacheEvictions;
    totalScmBytes_ += metrics.run.deviceBytes;
    totalDramBytes_ += metrics.run.dramBytes;
    if (statsCaptureEnabled_)
        lastRunStatsJson_ = statsCapture.str();
    // A query's time runs from its first trace's dispatch to its
    // last one's completion (moved-from trace lists keep their size).
    const sim::ClockDomain clock(
        model::costModelFor(config_.kind)->frequencyHz());
    const model::QueryTiming *timing = timings.data();
    for (std::size_t q = 0; q < built.size(); ++q) {
        Tick start = std::numeric_limits<Tick>::max();
        Tick end = 0;
        for (std::size_t i = 0; i < built[q].traces.size(); ++i) {
            start = std::min(start, timing->start);
            end = std::max(end, timing->end);
            ++timing;
        }
        if (end > start)
            outcome.summaries[q].cycles = clock.toCycles(end - start);
    }

    totalSeconds_ += outcome.simSeconds;
    totalQueries_ += outcome.perQuery.size();
    return outcome;
}

SearchOutcome
Device::runPlans(const std::vector<engine::QueryPlan> &plans)
{
    BOSS_ASSERT(index_ != nullptr, "search() before loadIndex()");

    if (!operational()) {
        // A lost device answers nothing; the caller (ShardedDevice)
        // degrades to partial coverage instead of crashing.
        SearchOutcome down;
        down.deviceFailed = true;
        down.perQuery.resize(plans.size());
        down.summaries.resize(plans.size());
        for (std::size_t q = 0; q < plans.size(); ++q)
            down.summaries[q].query = q;
        return down;
    }

    // Phase 1, parallel: every plan's functional execution + trace
    // build is independent of the others (the index and layout are
    // immutable), so the batch fans out across the host thread pool.
    // Plan i writes only runs[i]; the serial aggregation in
    // replayBuilt() walks runs[] in submission order, making the
    // outcome (results, counters and trace order) bit-identical to
    // a serial loop. The per-worker arenas persist across batches,
    // so repeated invocations skip the decode-buffer rewarm.
    std::vector<BuiltQuery> runs(plans.size());
    common::ThreadPool &pool = common::ThreadPool::global();
    if (arenas_.size() < pool.size())
        arenas_.resize(pool.size());
    std::uint64_t scopeBase =
        recorder_ != nullptr ? recorder_->beginPhase() : 0;
    pool.parallelFor(plans.size(), [&](std::size_t i,
                                       std::size_t worker) {
        trace::Scope scope;
        std::uint16_t lane = 0;
        if (recorder_ != nullptr) {
            scope = recorder_->scope(worker, scopeBase + i);
            lane = recorder_->workerLane(worker);
        }
        runs[i] = buildQuery(plans[i], arenas_[worker], scope, lane);
    });

    // Phase 2, serial: replay the whole batch on the device model.
    return replayBuilt(std::move(runs));
}

void
Device::writeStatsJson(std::ostream &os) const
{
    stats::Group poolGroup("host_pool");
    common::ThreadPool::global().registerStats(poolGroup);
    os << "{\n\"build\": {\"git\": \"" << common::buildGitHash()
       << "\", \"compiler\": \"" << common::buildCompiler()
       << "\"}";
    os << ",\n\"kernels\": \"" << kernels::activeTierName() << "\"";
    os << ",\n\"host_pool\":\n";
    poolGroup.dumpJson(os, 0);
    os << ",\n\"resilience\":\n";
    if (faultPolicy_ == nullptr) {
        os << "null";
    } else {
        os << "{\"device_dead\": " << (operational() ? "false" : "true")
           << ", \"crc_checks\": " << faultPolicy_->crcChecks()
           << ", \"crc_failures\": " << faultPolicy_->crcFailures()
           << ", \"crc_retries\": " << faultPolicy_->crcRetries()
           << ", \"blocks_dropped\": " << faultPolicy_->blocksDropped()
           << "}";
    }
    os << ",\n\"last_run\":\n";
    if (lastRunStatsJson_.empty()) {
        os << "null";
    } else {
        os << lastRunStatsJson_;
    }
    os << "\n}\n";
}

engine::QueryPlan
Device::plan(const std::string &qExpression)
{
    // With a lexicon loaded, quoted terms are words; otherwise the
    // synthetic t<N> naming applies.
    engine::TermResolver resolver;
    if (lexicon_.has_value()) {
        resolver = [this](std::string_view name) {
            auto id = lexicon_->lookup(name);
            if (!id.has_value())
                BOSS_FATAL("unknown query term '", std::string(name),
                           "'");
            return *id;
        };
    } else {
        resolver = engine::defaultTermResolver;
    }
    auto expr = engine::parseExpression(qExpression, resolver);
    return engine::planQuery(expr);
}

SearchOutcome
Device::search(const std::string &qExpression)
{
    return runPlans({plan(qExpression)});
}

SearchOutcome
Device::search(const workload::Query &query)
{
    return runPlans({engine::planQuery(query)});
}

SearchOutcome
Device::searchBatch(const std::vector<workload::Query> &queries)
{
    std::vector<engine::QueryPlan> plans;
    plans.reserve(queries.size());
    for (const auto &q : queries)
        plans.push_back(engine::planQuery(q));
    return runPlans(plans);
}

SearchOutcome
Device::searchBatch(const std::vector<std::string> &qExpressions)
{
    std::vector<engine::QueryPlan> plans;
    plans.reserve(qExpressions.size());
    for (const auto &q : qExpressions)
        plans.push_back(plan(q));
    return runPlans(plans);
}

SearchOutcome
Device::searchBatch(const std::vector<engine::QueryPlan> &plans)
{
    return runPlans(plans);
}

} // namespace boss::accel
