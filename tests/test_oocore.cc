/**
 * @file
 * Out-of-core differential tests.
 *
 * Two equivalences anchor the out-of-core tier: the bounded-memory
 * external-merge build must emit the exact bytes the in-memory
 * builder does (any budget, any number of spill runs), and the mmap
 * load path must serve the exact results the heap load path does.
 * Both are differential sweeps against the in-memory reference, so a
 * regression in either path shows up as a byte or result mismatch,
 * not a plausible-looking wrong answer.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "boss/device.h"
#include "index/external_build.h"
#include "index/serialize.h"
#include "index/text_builder.h"

namespace
{

using namespace boss;

/**
 * Deterministic synthetic corpus: Zipf-ish draws from a fixed word
 * pool, so repeated runs (and the two builders) see identical text.
 */
std::vector<std::string>
makeDocs(std::size_t count, std::uint32_t seed = 99)
{
    static const std::vector<std::string> kPool = {
        "storage",   "class",     "memory",   "bandwidth",
        "search",    "accelerator", "index",  "posting",
        "compressed", "block",    "metadata", "score",
        "ranking",   "query",     "latency",  "throughput",
        "device",    "channel",   "random",   "sequential",
        "decode",    "kernel",    "stream",   "prefetch",
        "cache",     "tier",      "dram",     "media",
        "crc",       "fault",     "retry",    "segment"};
    std::mt19937 rng(seed);
    std::uniform_int_distribution<std::size_t> lenDist(6, 24);
    // Zipf-ish skew: square a uniform draw so low pool indices (the
    // "popular" words) dominate, giving realistic term repetition.
    std::uniform_real_distribution<double> skew(0.0, 1.0);
    std::vector<std::string> docs;
    docs.reserve(count);
    for (std::size_t d = 0; d < count; ++d) {
        std::string doc;
        std::size_t len = lenDist(rng);
        for (std::size_t w = 0; w < len; ++w) {
            double u = skew(rng);
            std::size_t idx = static_cast<std::size_t>(
                u * u * static_cast<double>(kPool.size()));
            if (idx >= kPool.size())
                idx = kPool.size() - 1;
            if (!doc.empty())
                doc += ' ';
            doc += kPool[idx];
        }
        docs.push_back(std::move(doc));
    }
    return docs;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

std::string
tmpPath(const std::string &name)
{
    // ctest runs each test in its own process, several at once: a
    // suite's set-up in one must not rewrite or delete another's file.
    return testing::TempDir() + "oocore_" + std::to_string(::getpid()) +
           "_" + name;
}

/** The in-memory reference file for @p docs. */
std::string
writeReference(const std::vector<std::string> &docs,
               const std::string &path)
{
    index::TextIndexBuilder builder;
    for (const auto &d : docs)
        builder.addDocument(d);
    index::saveTextIndexFile(builder.build(), path);
    return readFile(path);
}

// ---------------------------------------------------------------
// External-merge build vs in-memory build: byte identity.
// ---------------------------------------------------------------

TEST(ExternalBuildTest, ByteIdenticalAcrossBudgetSweep)
{
    auto docs = makeDocs(1500);
    const std::string refPath = tmpPath("ref.idx");
    const std::string ref = writeReference(docs, refPath);
    ASSERT_GT(ref.size(), 1000u);

    // Budgets from "spills every few documents" to "never spills".
    const std::vector<std::uint64_t> budgets = {
        1 << 10, 8 << 10, 64 << 10, 256 << 20};
    for (std::uint64_t budget : budgets) {
        index::ExternalBuildConfig cfg;
        cfg.memoryBudgetBytes = budget;
        cfg.spillDir = tmpPath("spill");
        index::ExternalTextIndexer indexer(cfg);
        for (const auto &d : docs)
            indexer.addDocument(d);
        const std::string outPath = tmpPath("ext.idx");
        auto stats = indexer.finish(outPath);

        EXPECT_EQ(stats.numDocs, docs.size());
        EXPECT_EQ(readFile(outPath), ref)
            << "budget " << budget << " produced different bytes ("
            << stats.spillRuns << " spill runs)";
        // The spill scratch must not outlive the build.
        EXPECT_FALSE(std::filesystem::exists(cfg.spillDir));
        std::filesystem::remove(outPath);
    }
}

TEST(ExternalBuildTest, TinyBudgetForcesMultipleRuns)
{
    auto docs = makeDocs(800, 7);
    index::ExternalBuildConfig cfg;
    cfg.memoryBudgetBytes = 1 << 10; // 1 KB: spills constantly
    cfg.spillDir = tmpPath("runs.spill");
    index::ExternalTextIndexer indexer(cfg);
    for (const auto &d : docs)
        indexer.addDocument(d);
    const std::string outPath = tmpPath("runs.idx");
    auto stats = indexer.finish(outPath);

    EXPECT_GE(stats.spillRuns, 2u)
        << "budget too large to exercise the merge path";
    EXPECT_GT(stats.postingsSpilled, 0u);
    EXPECT_GT(stats.spillBytes, 0u);

    const std::string refPath = tmpPath("runs_ref.idx");
    EXPECT_EQ(readFile(outPath), writeReference(docs, refPath));
    std::filesystem::remove(outPath);
    std::filesystem::remove(refPath);
}

TEST(ExternalBuildTest, UnboundedBudgetNeverSpills)
{
    auto docs = makeDocs(300, 3);
    index::ExternalBuildConfig cfg;
    cfg.spillDir = tmpPath("nospill.spill");
    index::ExternalTextIndexer indexer(cfg);
    for (const auto &d : docs)
        indexer.addDocument(d);
    const std::string outPath = tmpPath("nospill.idx");
    auto stats = indexer.finish(outPath);
    EXPECT_EQ(stats.spillRuns, 0u);
    EXPECT_EQ(stats.postingsSpilled, 0u);
    EXPECT_FALSE(std::filesystem::exists(cfg.spillDir));
    std::filesystem::remove(outPath);
}

// ---------------------------------------------------------------
// mmap load vs heap load: bit-identical serving.
// ---------------------------------------------------------------

class MappedLoadTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        path_ = new std::string(tmpPath("mapped.idx"));
        auto docs = makeDocs(2000, 11);
        index::TextIndexBuilder builder;
        for (const auto &d : docs)
            builder.addDocument(d);
        index::saveTextIndexFile(builder.build(), *path_);
    }

    static void
    TearDownTestSuite()
    {
        std::filesystem::remove(*path_);
        delete path_;
        path_ = nullptr;
    }

    /** The golden query set: every operator, popular + rare terms. */
    static std::vector<std::string>
    goldenQueries()
    {
        return {
            "\"storage\"",
            "\"memory\" AND \"bandwidth\"",
            "\"search\" OR \"accelerator\"",
            "\"storage\" AND \"class\" AND \"memory\"",
            "\"cache\" OR \"tier\" OR \"dram\"",
            "\"segment\" AND \"crc\"",
            "\"query\" OR \"latency\" OR \"throughput\" OR "
            "\"decode\"",
        };
    }

    static std::string *path_;
};

std::string *MappedLoadTest::path_ = nullptr;

TEST_F(MappedLoadTest, TopKBitIdenticalToHeapLoad)
{
    accel::Device heap;
    heap.loadTextIndexFile(*path_);
    accel::Device mapped;
    mapped.loadMappedTextIndexFile(*path_);

    ASSERT_EQ(heap.index().numDocs(), mapped.index().numDocs());
    ASSERT_EQ(heap.index().numTerms(), mapped.index().numTerms());

    for (const std::string &q : goldenQueries()) {
        auto ref = heap.search(q);
        auto out = mapped.search(q);
        EXPECT_EQ(out.topk, ref.topk) << q;
        ASSERT_EQ(out.summaries.size(), 1u) << q;
        EXPECT_EQ(out.summaries[0].docsScored,
                  ref.summaries[0].docsScored)
            << q;
        EXPECT_EQ(out.simSeconds, ref.simSeconds) << q;
        // Clean data: first-touch verification never drops a block.
        EXPECT_EQ(out.summaries[0].blocksDropped, 0u) << q;
    }
}

TEST_F(MappedLoadTest, PayloadsStayViewsIntoTheMapping)
{
    auto mapped = index::MappedIndex::open(*path_);
    ASSERT_TRUE(mapped->hasLexicon());
    const index::InvertedIndex &idx = mapped->index();
    std::size_t views = 0;
    for (TermId t = 0; t < idx.numTerms(); ++t) {
        const auto &list = idx.list(t);
        if (list.docPayload.empty())
            continue;
        EXPECT_TRUE(list.docPayload.isView());
        // The view must point inside the mapping (fileOffset asserts
        // order; check the extent too).
        std::size_t off = mapped->fileOffset(list.docPayload.data());
        EXPECT_LT(off, mapped->fileSize());
        ++views;
    }
    EXPECT_GT(views, 0u);
}

TEST_F(MappedLoadTest, TryOpenRejectsJunk)
{
    const std::string junkPath = tmpPath("junk.idx");
    {
        std::ofstream out(junkPath, std::ios::binary);
        out << "this is not an index file, not even close";
    }
    std::string error;
    EXPECT_EQ(index::MappedIndex::tryOpen(junkPath, &error), nullptr);
    EXPECT_FALSE(error.empty());
    std::filesystem::remove(junkPath);
}

} // namespace
