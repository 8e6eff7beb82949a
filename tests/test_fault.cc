/**
 * @file
 * Fault-injection and resilience tests.
 *
 * Three layers are covered: the deterministic FaultModel itself
 * (same seed + spec => bit-identical fault schedule at any thread
 * or shard count), the CRC substrate (an exhaustive byte-flip sweep
 * over a serialized index — every flip must be detected or provably
 * harmless), and the end-to-end degrade paths (CRC retries, block
 * drops, dead-shard failover with partial coverage).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "api/sharded_device.h"
#include "boss/device.h"
#include "common/crc32.h"
#include "common/thread_pool.h"
#include "index/block_decoder.h"
#include "index/serialize.h"
#include "index/text_builder.h"
#include "mem/fault_model.h"
#include "workload/corpus.h"
#include "workload/queries.h"

namespace
{

using namespace boss;

// ---------------------------------------------------------------
// Spec parsing.
// ---------------------------------------------------------------

TEST(FaultSpecTest, ParsesFullSpec)
{
    mem::FaultSpec spec = mem::parseFaultSpec(
        "ber=1e-6,stuck=1e-4,degrade=0.01,degrade-ps=5000000,"
        "retries=5,dead-shard=2,dead-shard=7");
    EXPECT_DOUBLE_EQ(spec.bitErrorRate, 1e-6);
    EXPECT_DOUBLE_EQ(spec.stuckBlockRate, 1e-4);
    EXPECT_DOUBLE_EQ(spec.degradeRate, 0.01);
    EXPECT_EQ(spec.degradeLatency, 5'000'000u);
    EXPECT_EQ(spec.maxRetries, 5u);
    EXPECT_EQ(spec.deadDevices,
              (std::vector<std::uint32_t>{2, 7}));
    EXPECT_TRUE(spec.enabled());
}

TEST(FaultSpecTest, EmptySpecDisablesEverything)
{
    EXPECT_FALSE(mem::FaultSpec{}.enabled());
    EXPECT_FALSE(mem::parseFaultSpec("").enabled());
}

TEST(FaultSpecTest, RejectsMalformedSpecs)
{
    EXPECT_EXIT(mem::parseFaultSpec("frobnicate=1"),
                ::testing::ExitedWithCode(1), "fault spec");
    EXPECT_EXIT(mem::parseFaultSpec("ber=2.0"),
                ::testing::ExitedWithCode(1), "fault spec");
    EXPECT_EXIT(mem::parseFaultSpec("stuck=banana"),
                ::testing::ExitedWithCode(1), "fault spec");
}

// ---------------------------------------------------------------
// FaultModel determinism.
// ---------------------------------------------------------------

TEST(FaultModelTest, ScheduleIsPureFunctionOfSeedAndKey)
{
    mem::FaultSpec spec;
    spec.bitErrorRate = 1e-4;
    spec.stuckBlockRate = 0.01;
    spec.degradeRate = 0.05;

    mem::FaultModel a(spec, 42, 0);
    mem::FaultModel b(spec, 42, 0);

    std::vector<std::uint8_t> bufA(4096), bufB(4096);
    for (std::uint64_t key = 0; key < 500; ++key) {
        EXPECT_EQ(a.blockStuck(key), b.blockStuck(key));
        EXPECT_EQ(a.readDegraded(key << 12),
                  b.readDegraded(key << 12));
        std::fill(bufA.begin(), bufA.end(), 0xAB);
        std::fill(bufB.begin(), bufB.end(), 0xAB);
        std::uint32_t fa = a.corrupt(key, 0, bufA.data(), bufA.size());
        std::uint32_t fb = b.corrupt(key, 0, bufB.data(), bufB.size());
        EXPECT_EQ(fa, fb);
        EXPECT_EQ(bufA, bufB);
    }
}

TEST(FaultModelTest, QueryingOrderDoesNotChangeDecisions)
{
    // Access order must not matter: record decisions in forward key
    // order on one model, reverse order on a twin, and compare.
    mem::FaultSpec spec;
    spec.bitErrorRate = 1e-3;
    spec.stuckBlockRate = 0.02;
    mem::FaultModel fwd(spec, 7, 1);
    mem::FaultModel rev(spec, 7, 1);

    constexpr std::uint64_t kKeys = 300;
    std::vector<bool> stuckFwd(kKeys), stuckRev(kKeys);
    std::vector<std::uint32_t> flipsFwd(kKeys), flipsRev(kKeys);
    std::vector<std::uint8_t> buf(512);
    for (std::uint64_t k = 0; k < kKeys; ++k) {
        stuckFwd[k] = fwd.blockStuck(k);
        flipsFwd[k] = fwd.corrupt(k, 1, nullptr, buf.size());
    }
    for (std::uint64_t k = kKeys; k-- > 0;) {
        stuckRev[k] = rev.blockStuck(k);
        flipsRev[k] = rev.corrupt(k, 1, nullptr, buf.size());
    }
    EXPECT_EQ(stuckFwd, stuckRev);
    EXPECT_EQ(flipsFwd, flipsRev);
}

TEST(FaultModelTest, DevicesHaveIndependentSchedules)
{
    mem::FaultSpec spec;
    spec.stuckBlockRate = 0.5; // coarse enough to differ quickly
    mem::FaultModel dev0(spec, 99, 0);
    mem::FaultModel dev1(spec, 99, 1);
    bool differs = false;
    for (std::uint64_t k = 0; k < 64 && !differs; ++k)
        differs = dev0.blockStuck(k) != dev1.blockStuck(k);
    EXPECT_TRUE(differs);
}

TEST(FaultModelTest, CountingMatchesApplication)
{
    // corrupt(nullptr) must draw the same flips as corrupt(data).
    mem::FaultSpec spec;
    spec.bitErrorRate = 1e-3;
    mem::FaultModel m(spec, 3, 0);
    std::vector<std::uint8_t> data(2048, 0);
    for (std::uint64_t key = 0; key < 100; ++key) {
        std::uint32_t counted =
            m.corrupt(key, 0, nullptr, data.size());
        std::fill(data.begin(), data.end(), 0);
        std::uint32_t applied =
            m.corrupt(key, 0, data.data(), data.size());
        EXPECT_EQ(counted, applied);
        std::uint32_t popcount = 0;
        for (std::uint8_t byte : data)
            popcount += static_cast<std::uint32_t>(
                __builtin_popcount(byte));
        EXPECT_EQ(popcount, applied);
    }
}

TEST(FaultModelTest, AttemptsDrawIndependentFlips)
{
    // A retry is a fresh read: the flips of attempt 0 and attempt 1
    // must differ (else transient faults would never clear).
    mem::FaultSpec spec;
    spec.bitErrorRate = 1e-2;
    mem::FaultModel m(spec, 11, 0);
    bool differs = false;
    std::vector<std::uint8_t> a(1024), b(1024);
    for (std::uint64_t key = 0; key < 32 && !differs; ++key) {
        std::fill(a.begin(), a.end(), 0);
        std::fill(b.begin(), b.end(), 0);
        m.corrupt(key, 0, a.data(), a.size());
        m.corrupt(key, 1, b.data(), b.size());
        differs = a != b;
    }
    EXPECT_TRUE(differs);
}

TEST(FaultModelTest, BitErrorRateIsApproximatelyHonored)
{
    mem::FaultSpec spec;
    spec.bitErrorRate = 1e-3;
    mem::FaultModel m(spec, 5, 0);
    std::uint64_t flips = 0;
    constexpr std::size_t kBytes = 64 * 1024;
    constexpr std::uint64_t kReads = 50;
    for (std::uint64_t key = 0; key < kReads; ++key)
        flips += m.corrupt(key, 0, nullptr, kBytes);
    double expected =
        spec.bitErrorRate * 8.0 * kBytes * kReads; // ~26k flips
    EXPECT_GT(flips, expected * 0.9);
    EXPECT_LT(flips, expected * 1.1);
}

TEST(FaultModelTest, TinyBitErrorRateDoesNotOverflow)
{
    // Gap sampling at ber=1e-12 draws astronomically large gaps;
    // the model must stay well-defined (and almost never flip).
    mem::FaultSpec spec;
    spec.bitErrorRate = 1e-12;
    mem::FaultModel m(spec, 13, 0);
    std::uint64_t flips = 0;
    for (std::uint64_t key = 0; key < 1000; ++key)
        flips += m.corrupt(key, 0, nullptr, 4096);
    EXPECT_LT(flips, 5u);
}

TEST(FaultModelTest, DeadShardListOnlyKillsNamedDevices)
{
    mem::FaultSpec spec;
    spec.deadDevices = {1, 3};
    EXPECT_FALSE(mem::FaultModel(spec, 1, 0).deviceDead());
    EXPECT_TRUE(mem::FaultModel(spec, 1, 1).deviceDead());
    EXPECT_FALSE(mem::FaultModel(spec, 1, 2).deviceDead());
    EXPECT_TRUE(mem::FaultModel(spec, 1, 3).deviceDead());
}

// ---------------------------------------------------------------
// Byte-flip sweep: every corruption detected or provably harmless.
// ---------------------------------------------------------------

index::InvertedIndex
sweepIndex()
{
    workload::CorpusConfig cfg;
    cfg.name = "fault-sweep";
    cfg.numDocs = 400;
    cfg.vocabSize = 60;
    cfg.seed = 1234;
    workload::Corpus corpus(cfg);
    return corpus.buildIndex({0, 1, 2, 5, 9});
}

/** Semantic equality: same search-visible content. */
bool
indexEquals(const index::InvertedIndex &a,
            const index::InvertedIndex &b)
{
    if (a.numDocs() != b.numDocs() || a.numTerms() != b.numTerms() ||
        a.avgDocLen() != b.avgDocLen())
        return false;
    for (DocId d = 0; d < a.numDocs(); ++d) {
        if (a.doc(d).length != b.doc(d).length ||
            a.doc(d).norm != b.doc(d).norm)
            return false;
    }
    for (TermId t = 0; t < a.numTerms(); ++t) {
        if (a.list(t).idf != b.list(t).idf ||
            a.list(t).maxTermScore != b.list(t).maxTermScore)
            return false;
        if (index::decodeAll(a.list(t)) !=
            index::decodeAll(b.list(t)))
            return false;
    }
    return true;
}

TEST(CorruptionSweepTest, EveryByteFlipDetectedOrHarmless)
{
    index::InvertedIndex original = sweepIndex();
    std::stringstream buf;
    index::saveIndex(original, buf);
    const std::string image = buf.str();
    ASSERT_GT(image.size(), 1000u);

    std::size_t detected = 0;
    std::size_t harmless = 0;
    for (std::size_t off = 0; off < image.size(); ++off) {
        std::string damaged = image;
        damaged[off] =
            static_cast<char>(damaged[off] ^ 0x40); // flip one bit
        std::stringstream is(damaged);
        std::string error;
        auto loaded = index::tryLoadIndex(is, &error);
        if (!loaded.has_value()) {
            ++detected;
            continue;
        }
        // A flip the loader accepted must be provably harmless:
        // the loaded index is semantically identical to the
        // original (flips inside ignored padding would land here;
        // the format has none, so acceptance is a hard failure).
        ASSERT_TRUE(indexEquals(original, *loaded))
            << "undetected corruption at byte " << off;
        ++harmless;
    }
    EXPECT_EQ(detected + harmless, image.size());
    // The trailing file CRC nets every single-bit flip: nothing
    // should squeak through as "harmless" in this format.
    EXPECT_EQ(harmless, 0u) << "flips accepted: " << harmless;
}

// ---------------------------------------------------------------
// End-to-end degrade paths.
// ---------------------------------------------------------------

/** A search's counters summed over its per-query records. */
trace::QuerySummary
totals(const accel::SearchOutcome &out)
{
    trace::QuerySummary sum;
    for (const trace::QuerySummary &s : out.summaries)
        trace::addCounters(sum, s);
    return sum;
}

class FaultE2ETest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        workload::CorpusConfig cfg;
        cfg.name = "fault-e2e";
        cfg.numDocs = 12'000;
        cfg.vocabSize = 300;
        cfg.seed = 321;
        corpus_ = new workload::Corpus(cfg);

        workload::QueryWorkloadConfig qcfg;
        qcfg.vocabSize = cfg.vocabSize;
        qcfg.seed = 9;
        queries_ = new std::vector<workload::Query>(
            workload::sampleQueries(qcfg, 24));
        terms_ = new std::vector<TermId>(
            workload::collectTerms(*queries_));
    }

    static void
    TearDownTestSuite()
    {
        delete corpus_;
        delete queries_;
        delete terms_;
        corpus_ = nullptr;
        queries_ = nullptr;
        terms_ = nullptr;
    }

    void TearDown() override
    {
        common::ThreadPool::setGlobalThreads(1);
    }

    static workload::Corpus *corpus_;
    static std::vector<workload::Query> *queries_;
    static std::vector<TermId> *terms_;
};

workload::Corpus *FaultE2ETest::corpus_ = nullptr;
std::vector<workload::Query> *FaultE2ETest::queries_ = nullptr;
std::vector<TermId> *FaultE2ETest::terms_ = nullptr;

TEST_F(FaultE2ETest, DisabledSpecIsBitIdenticalToNoFaults)
{
    accel::Device plain;
    plain.loadIndex(corpus_->buildIndex(*terms_));
    auto ref = plain.searchBatch(*queries_);

    accel::DeviceConfig cfg;
    cfg.faults = mem::parseFaultSpec(""); // spec present, disabled
    accel::Device dev(cfg);
    dev.loadIndex(corpus_->buildIndex(*terms_));
    auto out = dev.searchBatch(*queries_);

    ASSERT_EQ(out.perQuery.size(), ref.perQuery.size());
    for (std::size_t q = 0; q < ref.perQuery.size(); ++q)
        EXPECT_EQ(out.perQuery[q], ref.perQuery[q]) << "query " << q;
    EXPECT_EQ(out.simSeconds, ref.simSeconds);
    EXPECT_EQ(out.summaries, ref.summaries);
    EXPECT_EQ(totals(out).crcRetries, 0u);
    EXPECT_EQ(totals(out).blocksDropped, 0u);
}

TEST_F(FaultE2ETest, TransientFlipsRetryAndComplete)
{
    accel::DeviceConfig cfg;
    cfg.faults = mem::parseFaultSpec("ber=5e-5");
    accel::Device dev(cfg);
    dev.loadIndex(corpus_->buildIndex(*terms_));
    auto out = dev.searchBatch(*queries_);

    ASSERT_EQ(out.perQuery.size(), queries_->size());
    EXPECT_GT(totals(out).crcRetries, 0u);
    ASSERT_NE(dev.faultPolicy(), nullptr);
    EXPECT_GT(dev.faultPolicy()->crcChecks(), 0u);
    EXPECT_EQ(dev.faultPolicy()->crcRetries(), totals(out).crcRetries);
}

TEST_F(FaultE2ETest, StuckBlocksDropButQueriesComplete)
{
    accel::DeviceConfig cfg;
    cfg.faults = mem::parseFaultSpec("stuck=0.05");
    accel::Device dev(cfg);
    dev.loadIndex(corpus_->buildIndex(*terms_));
    auto out = dev.searchBatch(*queries_);

    ASSERT_EQ(out.perQuery.size(), queries_->size());
    const std::uint64_t dropped = totals(out).blocksDropped;
    EXPECT_GT(dropped, 0u);
    EXPECT_EQ(dev.faultPolicy()->blocksDropped(), dropped);
    // Stuck media never clears: each drop burned the full retry
    // budget first.
    EXPECT_GE(dev.faultPolicy()->crcRetries(),
              dropped * cfg.faults.maxRetries);
}

TEST_F(FaultE2ETest, FaultOutcomesAreThreadCountInvariant)
{
    auto runOnce = [&](std::size_t threads) {
        common::ThreadPool::setGlobalThreads(threads);
        accel::DeviceConfig cfg;
        cfg.faults = mem::parseFaultSpec("ber=2e-5,stuck=0.02");
        cfg.faultSeed = 77;
        accel::Device dev(cfg);
        dev.loadIndex(corpus_->buildIndex(*terms_));
        return dev.searchBatch(*queries_);
    };
    auto a = runOnce(1);
    auto b = runOnce(8);
    ASSERT_EQ(a.perQuery.size(), b.perQuery.size());
    for (std::size_t q = 0; q < a.perQuery.size(); ++q)
        EXPECT_EQ(a.perQuery[q], b.perQuery[q]) << "query " << q;
    EXPECT_EQ(a.summaries, b.summaries);
    EXPECT_EQ(a.simSeconds, b.simSeconds);
}

TEST_F(FaultE2ETest, DegradedReadsSlowTheDeviceDown)
{
    accel::Device plain;
    plain.loadIndex(corpus_->buildIndex(*terms_));
    auto ref = plain.searchBatch(*queries_);

    accel::DeviceConfig cfg;
    cfg.faults = mem::parseFaultSpec("degrade=0.5");
    accel::Device dev(cfg);
    dev.loadIndex(corpus_->buildIndex(*terms_));
    auto out = dev.searchBatch(*queries_);

    // Same results (degrade is latency-only), slower device.
    ASSERT_EQ(out.perQuery.size(), ref.perQuery.size());
    for (std::size_t q = 0; q < ref.perQuery.size(); ++q)
        EXPECT_EQ(out.perQuery[q], ref.perQuery[q]) << "query " << q;
    EXPECT_GT(out.simSeconds, ref.simSeconds);
}

TEST_F(FaultE2ETest, DeadShardYieldsPartialCoverage)
{
    api::ShardedDeviceConfig cfg;
    cfg.shards = 4;
    cfg.device.faults = mem::parseFaultSpec("dead-shard=2");
    api::ShardedDevice dev(cfg);
    dev.loadShards(corpus_->buildShardedIndex(*terms_, 4));

    auto out = dev.searchBatch(*queries_);
    ASSERT_EQ(out.perQuery.size(), queries_->size());
    EXPECT_EQ(out.deadShards,
              (std::vector<std::uint32_t>{2}));
    ASSERT_EQ(out.summaries.size(), queries_->size());
    for (const trace::QuerySummary &s : out.summaries)
        EXPECT_EQ(s.shardsDropped, 1u);
    EXPECT_FALSE(dev.shard(2).operational());

    // Partial coverage == exactly the union of the surviving
    // shards: compare against a 3-shard merge of the same
    // partition's live shards.
    auto shards = corpus_->buildShardedIndex(*terms_, 4);
    for (std::size_t q = 0; q < 4; ++q) {
        for (const auto &r : out.perQuery[q]) {
            EXPECT_NE(shards.map.shardOf(r.doc), 2u)
                << "dead shard leaked doc " << r.doc;
        }
    }
}

TEST_F(FaultE2ETest, DeadShardStatsAndSummariesStayCoherent)
{
    api::ShardedDeviceConfig cfg;
    cfg.shards = 4;
    cfg.device.faults = mem::parseFaultSpec("dead-shard=0");
    api::ShardedDevice dev(cfg);
    dev.loadShards(corpus_->buildShardedIndex(*terms_, 4));
    auto agg = dev.searchBatch(*queries_).summaries;
    ASSERT_EQ(agg.size(), queries_->size());

    // The dead shard never ran: its own records are zeroed. The
    // merge sums the survivors' counters, takes the slowest one's
    // cycles and stamps the drop count on every record.
    std::vector<accel::SearchOutcome> perShard;
    for (std::uint32_t s = 0; s < dev.numShards(); ++s) {
        perShard.push_back(dev.shard(s).searchBatch(*queries_));
        ASSERT_EQ(perShard.back().summaries.size(), queries_->size());
    }
    EXPECT_TRUE(perShard[0].deviceFailed);
    std::uint64_t totalScored = 0;
    for (std::size_t q = 0; q < agg.size(); ++q) {
        trace::QuerySummary zeroed;
        zeroed.query = q;
        EXPECT_EQ(perShard[0].summaries[q], zeroed) << "query " << q;

        trace::QuerySummary expected = zeroed;
        expected.terms = perShard[1].summaries[q].terms;
        for (std::uint32_t s = 1; s < dev.numShards(); ++s) {
            const trace::QuerySummary &part = perShard[s].summaries[q];
            trace::addCounters(expected, part);
            expected.cycles = std::max(expected.cycles, part.cycles);
        }
        expected.shardsDropped = 1;
        EXPECT_EQ(agg[q], expected) << "query " << q;
        totalScored += agg[q].docsScored;
    }
    // Individual queries may legitimately score nothing (empty
    // conjunctions), but the surviving shards serve the batch.
    EXPECT_GT(totalScored, 0u);

    // The serve path drops the dead shard the same way.
    engine::QueryArena arena;
    auto served =
        dev.finishBuilt(dev.buildQuery(dev.plan(queries_->front()), arena));
    ASSERT_EQ(served.summaries.size(), 1u);
    EXPECT_EQ(served.summaries[0].shardsDropped, 1u);

    std::ostringstream os;
    dev.writeStatsJson(os);
    EXPECT_NE(os.str().find("\"dead_shards\": [0]"),
              std::string::npos)
        << os.str();
}

// ---------------------------------------------------------------
// Lazy CRC under MappedIndex: at-rest corruption is caught on
// first touch and degrades, never crashes.
// ---------------------------------------------------------------

TEST(MappedFaultTest, CorruptedPayloadDegradesOnFirstTouch)
{
    // A small text index with one heavily repeated word, saved to
    // disk and then damaged in that word's doc payload.
    const std::string cleanPath =
        testing::TempDir() + "fault_mapped_clean.idx";
    const std::string badPath =
        testing::TempDir() + "fault_mapped_bad.idx";
    {
        index::TextIndexBuilder builder;
        for (int d = 0; d < 3000; ++d) {
            std::string doc = "storage media block ";
            doc += (d % 2 ? "bandwidth search" : "latency decode");
            doc += d % 3 ? " channel" : " kernel";
            builder.addDocument(doc);
        }
        index::saveTextIndexFile(builder.build(), cleanPath);
    }

    // Locate one byte inside "storage"'s doc payload through the
    // mapping itself: payloads are views, so their file offsets are
    // directly computable.
    std::size_t payloadOffset = 0;
    {
        auto mapped = index::MappedIndex::open(cleanPath);
        auto lexicon = mapped->loadLexicon();
        auto term = lexicon.lookup("storage");
        ASSERT_TRUE(term.has_value());
        const auto &list = mapped->index().list(*term);
        ASSERT_FALSE(list.docPayload.empty());
        payloadOffset = mapped->fileOffset(list.docPayload.data());
    }
    {
        std::filesystem::copy_file(
            cleanPath, badPath,
            std::filesystem::copy_options::overwrite_existing);
        std::fstream f(badPath,
                       std::ios::in | std::ios::out | std::ios::binary);
        f.seekg(static_cast<std::streamoff>(payloadOffset));
        char byte = 0;
        f.get(byte);
        f.seekp(static_cast<std::streamoff>(payloadOffset));
        f.put(static_cast<char>(byte ^ 0xFF));
    }

    // The heap loader refuses the file outright (whole-file CRC).
    EXPECT_EXIT(
        {
            accel::Device heap;
            heap.loadTextIndexFile(badPath);
        },
        ::testing::ExitedWithCode(1), "");

    // The mapped loader starts fine -- integrity is lazy -- and the
    // first decode of the damaged block catches it via its per-block
    // CRC, burns the retry budget (the media really is corrupt, so
    // every re-read fails) and drops the block. Queries complete.
    accel::Device dev;
    dev.loadMappedTextIndexFile(badPath);
    EXPECT_TRUE(dev.operational());
    auto out = dev.search("\"storage\" AND \"media\"");
    EXPECT_GT(totals(out).crcRetries, 0u);
    EXPECT_GT(totals(out).blocksDropped, 0u);
    ASSERT_NE(dev.faultPolicy(), nullptr);
    EXPECT_EQ(dev.faultPolicy()->blocksDropped(),
              totals(out).blocksDropped);

    // An untouched term serves cleanly from the same damaged file.
    auto clean = dev.search("\"bandwidth\"");
    EXPECT_FALSE(clean.topk.empty());
    EXPECT_EQ(totals(clean).blocksDropped, 0u);

    std::filesystem::remove(cleanPath);
    std::filesystem::remove(badPath);
}

TEST_F(FaultE2ETest, AllShardsDeadIsFatal)
{
    api::ShardedDeviceConfig cfg;
    cfg.shards = 2;
    cfg.device.faults =
        mem::parseFaultSpec("dead-shard=0,dead-shard=1");
    api::ShardedDevice dev(cfg);
    dev.loadShards(corpus_->buildShardedIndex(*terms_, 2));
    EXPECT_EXIT(dev.searchBatch(*queries_),
                ::testing::ExitedWithCode(1), "shards dead");
}

} // namespace
