/**
 * @file
 * Shared machinery of the benchmark: options, the result record and
 * its JSON line, in-memory spans, the timed serve::Backend decorator,
 * and the small statistics every workload uses.
 *
 * Everything here drives the library from outside through its public
 * headers; no span or counter is added inside the library.
 */

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "serve/backend.h"
#include "serve/server.h"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Microseconds on the process-wide steady clock (span timebase). */
double nowUs();

/** Seconds elapsed since @p t0. */
double secondsSince(Clock::time_point t0);

/** Command-line options, identical for every workload. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Directory for the span file and the full result record. */
    std::string outDir = ".";
};

/** Interpolated percentile @p q in [0, 1]; 0 for an empty sample. */
double percentile(std::vector<double> v, double q);
double median(std::vector<double> v);

/** Peak resident set size of this process in MiB. */
double peakRssMb();

/** Host pool size: nproc minus the threads a workload keeps busy. */
std::size_t poolSizeFor(unsigned reservedThreads);

// ---- Spans -------------------------------------------------------------

/** One timed call: [startUs, startUs + durUs) on the steady clock. */
struct Span
{
    std::uint64_t id = 0;
    std::uint64_t parent = 0; ///< 0: a root span
    std::uint64_t group = 0;  ///< shared by every span of one query
    std::string name;
    double startUs = 0.0;
    double durUs = 0.0;
    std::uint32_t lane = 0; ///< display row in the trace viewer
};

/**
 * Spans kept in memory and written when the run exits. add() is
 * thread-safe; a disabled log records nothing and costs one branch.
 */
class SpanLog
{
  public:
    explicit SpanLog(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Record a span; returns its id (0 when disabled). */
    std::uint64_t add(std::string name, double startUs, double durUs,
                      std::uint64_t group = 0, std::uint64_t parent = 0,
                      std::uint32_t lane = 0);

    /** Reserve an id for a parent recorded after its children. */
    std::uint64_t reserveId();
    void addWithId(std::uint64_t id, std::string name, double startUs,
                   double durUs, std::uint64_t group,
                   std::uint64_t parent, std::uint32_t lane);

    /** Total self time (duration minus child coverage) per name, us. */
    std::map<std::string, std::pair<double, std::uint64_t>>
    selfTimeByName() const;

    /** Chrome trace-event JSON ("X" events; args carry id/parent). */
    void writeChromeTrace(const std::string &path) const;

    std::size_t size() const;

  private:
    bool enabled_;
    mutable std::mutex mu_;
    std::vector<Span> spans_;
    std::uint64_t nextId_ = 1;
};

// ---- Result ------------------------------------------------------------

/**
 * One run's outcome. The last stdout line is the contract's JSON
 * object (correct / attempted / failed / metrics); attribution and
 * the sample counts behind every percentile go to the line before it
 * and to the full record file.
 */
class RunResult
{
  public:
    void metric(const std::string &name, double value,
                const std::string &unit);
    /** Attribution entry; values are emitted as JSON numbers. */
    void note(const std::string &key, double value);
    /** Attribution entry emitted as a JSON string. */
    void noteText(const std::string &key, const std::string &value);
    /** Attribution entry emitted as a JSON array of numbers. */
    void noteList(const std::string &key, const std::vector<double> &values);

    /** Count one checked operation; @p ok false counts it failed. */
    void check(bool ok, const std::string &what);

    bool correct() const { return failed_ == 0; }

    /** The contract line: exactly correct/attempted/failed/metrics. */
    std::string contractJson() const;
    /** Attribution, counts and failure messages as one JSON object. */
    std::string detailJson() const;

  private:
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        metrics_;
    std::vector<std::pair<std::string, std::string>> notes_; ///< raw JSON
    std::vector<std::string> errors_; ///< first failed checks
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

// ---- Serving -----------------------------------------------------------

/**
 * serve::Backend decorator timing every build() and finish() call.
 * Handles are wrapped so finish() knows its build's interval; finish
 * calls arrive in the server's admission order, which is how spans
 * are tied to arrival ids after the run (see attachServeSpans).
 */
class TimedBackend final : public boss::serve::Backend
{
  public:
    explicit TimedBackend(boss::serve::Backend &inner) : inner_(inner) {}

    std::uint32_t shards() const override { return inner_.shards(); }
    boss::engine::QueryPlan plan(const std::string &expr) override
    {
        return inner_.plan(expr);
    }
    boss::engine::QueryPlan
    plan(const boss::workload::Query &query) override
    {
        return inner_.plan(query);
    }
    boss::serve::BuiltHandle build(const boss::engine::QueryPlan &plan,
                                   boss::engine::QueryArena &arena) override;
    boss::serve::Finished finish(boss::serve::BuiltHandle built) override;

    /** One finish() call and the build that fed it (steady-clock us). */
    struct Call
    {
        double buildStartUs = 0.0;
        double buildEndUs = 0.0;
        double finishStartUs = 0.0;
        double finishEndUs = 0.0;
        std::size_t partitions = 1; ///< shards searched
    };

    /** Calls in finish order; reset() drops them. */
    std::vector<Call> calls() const;
    void reset();

  private:
    boss::serve::Backend &inner_;
    mutable std::mutex mu_;
    std::vector<Call> calls_;
};

/** Per-phase serving numbers derived from one or more Server runs. */
struct PhaseStats
{
    std::vector<double> latencyMs;  ///< scheduled arrival -> finish
    std::vector<double> responseMs; ///< generator offer -> finish
    std::vector<double> queueWaitMs; ///< generator offer -> dispatch
    std::vector<double> buildMs;
    std::vector<double> finishMs;
    std::vector<double> handoffMs; ///< build end -> finish start
    double generatorLateMsMax = 0.0;
    double finisherBusyUs = 0.0;
    double elapsedUs = 0.0;
    std::uint64_t offered = 0;
    std::uint64_t completed = 0;
    std::uint64_t good = 0;
    std::uint64_t shed = 0;
    std::uint64_t expired = 0;
    std::vector<double> roundQps; ///< completions per host s, per run
    std::vector<double> partitions; ///< per finished query

    void add(const boss::serve::ServeReport &report,
             const std::vector<TimedBackend::Call> &calls);
    /** Fold another phase's samples and counters into this one. */
    void absorb(const PhaseStats &other);
};

/**
 * Run one Server session over @p queries. With @p timed set the
 * session is served through it (which must wrap @p backend), its
 * stage times feed @p stats, and its spans go to @p spans.
 */
boss::serve::ServeReport
servePhase(boss::serve::Backend &backend, TimedBackend *timed,
           const boss::serve::ServeConfig &config,
           const std::vector<boss::workload::Query> &queries,
           PhaseStats &stats, SpanLog &spans, std::uint64_t &groupBase,
           boss::telemetry::ServeTelemetry *telemetry = nullptr);

/** serve.* per-layer metrics from timed sessions. */
void reportServeLayer(const PhaseStats &stats, RunResult &result);

/** Attribution every workload stamps: build, tier, cores, pool, seed. */
void noteAttribution(RunResult &result, const Options &opt,
                     std::size_t poolSize);

/** FNV-1a fold of @p v into @p h; fingerprints the generated inputs. */
inline std::uint64_t
fnv(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xFF;
        h *= 0x100000001B3ull;
    }
    return h;
}
inline constexpr std::uint64_t kFnvBasis = 0xCBF29CE484222325ull;

/** Fingerprints of the query set and the corpus, as hex text. */
void noteInputs(RunResult &result,
                const std::vector<boss::workload::Query> &queries,
                std::uint64_t corpusFingerprint);

/**
 * The modeled end-to-end values. They are attribution in every run,
 * so a traced run can be checked against an untraced one, and
 * metrics in untraced runs.
 */
void reportModeled(RunResult &result, const Options &opt, double simQps,
                   double simLatencyUs, double scmBytesPerQuery);

/** Serving attribution: the sample counts and generator lateness. */
void notePhase(RunResult &result, const std::string &prefix,
               const PhaseStats &phase);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H
