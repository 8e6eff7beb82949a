/**
 * @file
 * Unit tests for the inverted-index substrate: BM25, the builder,
 * block metadata, the block decoder, memory layout and
 * serialization.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "common/rng.h"
#include "index/block_decoder.h"
#include "index/inverted_index.h"
#include "index/memory_layout.h"
#include "index/serialize.h"

namespace
{

using namespace boss;
using namespace boss::index;

PostingList
randomPostings(std::size_t n, std::uint32_t numDocs, std::uint64_t seed)
{
    Rng rng(seed);
    std::set<DocId> docs;
    while (docs.size() < n)
        docs.insert(static_cast<DocId>(rng.below(numDocs)));
    PostingList out;
    for (DocId d : docs)
        out.push_back({d, 1 + static_cast<TermFreq>(rng.below(20))});
    return out;
}

InvertedIndex
smallIndex(std::uint64_t seed = 1)
{
    const std::uint32_t numDocs = 5000;
    Rng rng(seed);
    std::vector<std::uint32_t> lengths(numDocs);
    for (auto &l : lengths)
        l = 50 + static_cast<std::uint32_t>(rng.below(500));

    IndexBuilder builder;
    builder.setDocLengths(lengths);
    builder.addTerm(0, randomPostings(900, numDocs, seed + 10));
    builder.addTerm(1, randomPostings(300, numDocs, seed + 11));
    builder.addTerm(2, randomPostings(40, numDocs, seed + 12));
    builder.addTerm(3, randomPostings(1, numDocs, seed + 13));
    return builder.build();
}

// ---------------------------------------------------------------
// BM25
// ---------------------------------------------------------------

TEST(Bm25Test, IdfDecreasesWithDf)
{
    Bm25 bm25({}, 100000, 300.0);
    EXPECT_GT(bm25.idf(10), bm25.idf(100));
    EXPECT_GT(bm25.idf(100), bm25.idf(10000));
    EXPECT_GT(bm25.idf(99999), 0.0); // always positive (the +1 form)
}

TEST(Bm25Test, NormGrowsWithDocLength)
{
    Bm25 bm25({}, 1000, 300.0);
    EXPECT_LT(bm25.docNorm(100), bm25.docNorm(300));
    EXPECT_LT(bm25.docNorm(300), bm25.docNorm(900));
    // At |D| == avgdl, norm == k1 exactly.
    EXPECT_NEAR(bm25.docNorm(300), 1.2f, 1e-5f);
}

TEST(Bm25Test, TermScoreSaturatesInTf)
{
    Bm25 bm25({}, 1000, 300.0);
    double idf = bm25.idf(50);
    float norm = bm25.docNorm(300);
    Score s1 = bm25.termScore(idf, 1, norm);
    Score s5 = bm25.termScore(idf, 5, norm);
    Score s50 = bm25.termScore(idf, 50, norm);
    EXPECT_LT(s1, s5);
    EXPECT_LT(s5, s50);
    // Saturation: the score approaches idf*(k1+1) from below.
    EXPECT_LT(s50, static_cast<Score>(idf * 2.2));
}

TEST(Bm25Test, FixedPointTracksFloat)
{
    Bm25 bm25({}, 100000, 300.0);
    double idf = bm25.idf(123);
    for (TermFreq tf : {1u, 3u, 17u}) {
        for (std::uint32_t len : {50u, 300u, 2000u}) {
            float norm = bm25.docNorm(len);
            double exact = bm25.termScore(idf, tf, norm);
            double fixed = bm25.termScoreFixed(idf, tf, norm).toDouble();
            EXPECT_NEAR(fixed, exact, 2e-3) << "tf=" << tf;
        }
    }
}

// ---------------------------------------------------------------
// Builder + block decode round trip.
// ---------------------------------------------------------------

class BuilderRoundTrip
    : public ::testing::TestWithParam<compress::Scheme>
{
};

TEST_P(BuilderRoundTrip, DecodesBackToPostings)
{
    const std::uint32_t numDocs = 3000;
    std::vector<std::uint32_t> lengths(numDocs, 200);
    IndexBuilder builder;
    builder.forceScheme(GetParam());
    builder.setDocLengths(lengths);
    PostingList postings = randomPostings(700, numDocs, 99);
    builder.addTerm(0, postings);
    InvertedIndex index = builder.build();

    EXPECT_EQ(index.list(0).scheme, GetParam());
    EXPECT_EQ(decodeAll(index.list(0)), postings);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, BuilderRoundTrip,
    ::testing::ValuesIn(compress::kAllSchemes),
    [](const ::testing::TestParamInfo<compress::Scheme> &info) {
        return std::string(schemeName(info.param));
    });

TEST(Builder, HybridRoundTrips)
{
    InvertedIndex index = smallIndex();
    for (TermId t = 0; t < index.numTerms(); ++t) {
        PostingList decoded = decodeAll(index.list(t));
        EXPECT_EQ(decoded.size(), index.list(t).docCount);
        EXPECT_TRUE(isValidPostingList(decoded));
    }
}

TEST(Builder, BlockMetadataConsistent)
{
    InvertedIndex index = smallIndex();
    const auto &list = index.list(0);
    PostingList decoded = decodeAll(list);

    std::size_t offset = 0;
    for (std::uint32_t b = 0; b < list.numBlocks(); ++b) {
        const BlockMeta &meta = list.blocks[b];
        EXPECT_EQ(meta.firstDoc, decoded[offset].doc);
        EXPECT_EQ(meta.lastDoc,
                  decoded[offset + meta.numElems - 1].doc);
        EXPECT_LE(meta.numElems, kBlockSize);
        offset += meta.numElems;
    }
    EXPECT_EQ(offset, decoded.size());
}

TEST(Builder, BlockMaxScoreIsUpperBound)
{
    InvertedIndex index = smallIndex();
    const auto &list = index.list(0);
    PostingList decoded = decodeAll(list);

    std::size_t offset = 0;
    for (std::uint32_t b = 0; b < list.numBlocks(); ++b) {
        const BlockMeta &meta = list.blocks[b];
        float observedMax = 0.f;
        for (std::uint32_t i = 0; i < meta.numElems; ++i) {
            const auto &p = decoded[offset + i];
            float s = index.scorer().termScore(list.idf, p.tf,
                                               index.doc(p.doc).norm);
            observedMax = std::max(observedMax, s);
        }
        EXPECT_FLOAT_EQ(meta.maxTermScore, observedMax);
        EXPECT_LE(observedMax, list.maxTermScore);
        offset += meta.numElems;
    }
}

TEST(Builder, SingleElementList)
{
    std::vector<std::uint32_t> lengths(100, 100);
    IndexBuilder builder;
    builder.setDocLengths(lengths);
    builder.addTerm(0, {{57, 3}});
    InvertedIndex index = builder.build();
    EXPECT_EQ(index.list(0).numBlocks(), 1u);
    EXPECT_EQ(decodeAll(index.list(0)),
              (PostingList{{57, 3}}));
}

TEST(Builder, DocZeroIsEncodable)
{
    std::vector<std::uint32_t> lengths(10, 100);
    IndexBuilder builder;
    builder.setDocLengths(lengths);
    builder.addTerm(0, {{0, 1}, {5, 2}});
    InvertedIndex index = builder.build();
    PostingList decoded = decodeAll(index.list(0));
    EXPECT_EQ(decoded[0].doc, 0u);
    EXPECT_EQ(decoded[1].doc, 5u);
}

TEST(Builder, HybridBeatsEveryFixedScheme)
{
    const std::uint32_t numDocs = 3000;
    std::vector<std::uint32_t> lengths(numDocs, 200);
    PostingList postings = randomPostings(700, numDocs, 7);

    auto sizeWith = [&](std::optional<compress::Scheme> s) {
        IndexBuilder b;
        if (s)
            b.forceScheme(*s);
        b.setDocLengths(lengths);
        b.addTerm(0, postings);
        return b.build().list(0).sizeBytes();
    };

    std::uint64_t hybrid = sizeWith(std::nullopt);
    for (compress::Scheme s : compress::kAllSchemes)
        EXPECT_LE(hybrid, sizeWith(s)) << schemeName(s);
}

// ---------------------------------------------------------------
// Memory layout.
// ---------------------------------------------------------------

TEST(MemoryLayoutTest, RegionsDisjointAndAligned)
{
    InvertedIndex index = smallIndex();
    const Addr align = 256;
    MemoryLayout layout(index, 0x1000, align);

    Addr prevEnd = 0x1000;
    for (TermId t = 0; t < index.numTerms(); ++t) {
        const auto &p = layout.list(t);
        EXPECT_EQ(p.metaAddr % align, 0u);
        EXPECT_EQ(p.docAddr % align, 0u);
        EXPECT_EQ(p.tfAddr % align, 0u);
        EXPECT_GE(p.metaAddr, prevEnd);
        EXPECT_GT(p.docAddr, p.metaAddr);
        EXPECT_GT(p.tfAddr, p.docAddr);
        prevEnd = p.tfAddr + index.list(t).tfPayload.size();
    }
    EXPECT_GE(layout.docNormAddr(0), prevEnd);
    EXPECT_EQ(layout.docNormAddr(10) - layout.docNormAddr(0),
              10 * kDocNormBytes);
    EXPECT_GT(layout.end(), layout.base());
    EXPECT_GE(layout.sizeBytes(), index.sizeBytes());
}

// ---------------------------------------------------------------
// Serialization.
// ---------------------------------------------------------------

TEST(Serialize, RoundTripsExactly)
{
    InvertedIndex index = smallIndex(5);
    std::stringstream buf;
    saveIndex(index, buf);
    InvertedIndex loaded = loadIndex(buf);

    EXPECT_EQ(loaded.numDocs(), index.numDocs());
    EXPECT_EQ(loaded.numTerms(), index.numTerms());
    EXPECT_DOUBLE_EQ(loaded.avgDocLen(), index.avgDocLen());
    EXPECT_EQ(loaded.sizeBytes(), index.sizeBytes());
    for (TermId t = 0; t < index.numTerms(); ++t) {
        EXPECT_EQ(loaded.list(t).scheme, index.list(t).scheme);
        EXPECT_EQ(decodeAll(loaded.list(t)), decodeAll(index.list(t)));
        EXPECT_FLOAT_EQ(loaded.list(t).idf, index.list(t).idf);
    }
    for (DocId d = 0; d < index.numDocs(); ++d) {
        EXPECT_EQ(loaded.doc(d).length, index.doc(d).length);
        EXPECT_FLOAT_EQ(loaded.doc(d).norm, index.doc(d).norm);
    }
}

TEST(Serialize, RejectsGarbage)
{
    std::stringstream buf;
    buf << "this is not an index";
    EXPECT_EXIT(loadIndex(buf), ::testing::ExitedWithCode(1),
                "bad magic|truncated");
}

TEST(Serialize, TryLoadAcceptsCleanStream)
{
    InvertedIndex index = smallIndex(6);
    std::stringstream buf;
    saveIndex(index, buf);
    std::string error;
    auto loaded = tryLoadIndex(buf, &error);
    ASSERT_TRUE(loaded.has_value()) << error;
    EXPECT_EQ(loaded->numDocs(), index.numDocs());
    EXPECT_EQ(loaded->sizeBytes(), index.sizeBytes());
}

/**
 * Feed one damaged index image to both readers -- the stream loader
 * and MappedIndex::tryOpen over a temp file private to the running
 * test and process -- and expect both to reject it. Returns the
 * stream and mapped errors.
 */
std::pair<std::string, std::string>
expectBothReject(const std::string &image, const std::string &what)
{
    std::stringstream is(image);
    std::string streamError;
    EXPECT_FALSE(tryLoadIndex(is, &streamError).has_value())
        << "stream reader accepted " << what;

    const auto *test =
        ::testing::UnitTest::GetInstance()->current_test_info();
    const std::string path = ::testing::TempDir() + test->name() +
                             "_" + std::to_string(::getpid()) + ".idx";
    {
        std::ofstream os(path, std::ios::binary);
        os.write(image.data(),
                 static_cast<std::streamsize>(image.size()));
    }
    std::string mappedError;
    EXPECT_EQ(MappedIndex::tryOpen(path, &mappedError), nullptr)
        << "mapped reader accepted " << what;
    std::remove(path.c_str());
    return {streamError, mappedError};
}

TEST(Serialize, RejectsTruncationAtAnyLength)
{
    InvertedIndex index = smallIndex(7);
    std::stringstream buf;
    saveIndex(index, buf);
    const std::string image = buf.str();
    ASSERT_GT(image.size(), 256u);

    // Every prefix is malformed: sample cut points densely at both
    // ends (headers, trailing CRC) and sparsely through the body.
    std::vector<std::size_t> cuts;
    for (std::size_t i = 0; i < 64; ++i)
        cuts.push_back(i);
    for (std::size_t i = 64; i + 64 < image.size(); i += 997)
        cuts.push_back(i);
    for (std::size_t i = image.size() - 64; i < image.size(); ++i)
        cuts.push_back(i);
    for (std::size_t cut : cuts) {
        expectBothReject(image.substr(0, cut),
                         "a prefix of " + std::to_string(cut) +
                             " bytes");
    }
}

TEST(Serialize, RejectsOversizedVectorCounts)
{
    InvertedIndex index = smallIndex(8);
    std::stringstream buf;
    saveIndex(index, buf);
    std::string image = buf.str();

    // The doc-table count sits right after magic(4) + version(4) +
    // k1(8) + b(8) + avgDocLen(8) + headerCrc(4) = 36 bytes.
    // Overwrite it with a count far past the file size: the loader
    // must reject it from the length budget alone, before
    // allocating anything.
    const std::size_t countOff = 36;
    std::uint64_t huge = 1ull << 60;
    std::memcpy(image.data() + countOff, &huge, sizeof(huge));
    const auto [streamError, mappedError] =
        expectBothReject(image, "a 2^60 doc-table count");
    EXPECT_NE(streamError.find("truncated"), std::string::npos)
        << streamError;
    EXPECT_NE(mappedError.find("truncated"), std::string::npos)
        << mappedError;
}

TEST(Serialize, FileLoaderRejectsTrailingGarbage)
{
    InvertedIndex index = smallIndex(9);
    std::string path =
        ::testing::TempDir() + "boss_trailing_garbage.idx";
    {
        std::ofstream os(path, std::ios::binary);
        saveIndex(index, os);
        os << "extra bytes after the index";
    }
    EXPECT_EXIT(loadIndexFile(path), ::testing::ExitedWithCode(1),
                "trailing garbage");
    std::remove(path.c_str());
}

TEST(Serialize, BlockCrcsSurviveRoundTrip)
{
    InvertedIndex index = smallIndex(10);
    std::stringstream buf;
    saveIndex(index, buf);
    InvertedIndex loaded = loadIndex(buf);
    for (TermId t = 0; t < index.numTerms(); ++t) {
        const auto &a = index.list(t);
        const auto &b = loaded.list(t);
        ASSERT_EQ(a.blocks.size(), b.blocks.size());
        for (std::size_t i = 0; i < a.blocks.size(); ++i) {
            EXPECT_EQ(a.blocks[i].docCrc, b.blocks[i].docCrc);
            EXPECT_EQ(a.blocks[i].tfCrc, b.blocks[i].tfCrc);
            EXPECT_NE(b.blocks[i].docCrc, 0u); // real payloads hash
        }
    }
}

} // namespace
