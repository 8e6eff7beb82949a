/**
 * @file
 * Unit and property tests for the compression codecs.
 *
 * The parameterized suites sweep every scheme over a range of value
 * distributions to establish the round-trip invariant; scheme-specific
 * suites pin down format details.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "common/rng.h"
#include "common/bitops.h"
#include "compress/bitpacking.h"
#include "compress/codec.h"
#include "compress/datapath.h"
#include "compress/pfordelta.h"
#include "compress/simple16.h"
#include "compress/simple8b.h"
#include "compress/varbyte.h"

namespace
{

using namespace boss::compress;
using boss::Rng;

std::vector<std::uint32_t>
randomValues(std::size_t n, std::uint32_t maxBits, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::uint32_t> v(n);
    for (auto &x : v)
        x = static_cast<std::uint32_t>(rng.next()) &
            boss::maskLow(maxBits);
    return v;
}

// ---------------------------------------------------------------
// Property: encode/decode round-trips for every scheme x shape.
// ---------------------------------------------------------------

struct RoundTripCase
{
    Scheme scheme;
    std::uint32_t maxBits;
    std::size_t count;
};

class CodecRoundTrip : public ::testing::TestWithParam<RoundTripCase>
{
};

TEST_P(CodecRoundTrip, RandomValues)
{
    const auto &param = GetParam();
    const Codec &codec = codecFor(param.scheme);
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        auto values = randomValues(param.count, param.maxBits, seed);
        BlockEncoding enc;
        ASSERT_TRUE(codec.encode(values, enc))
            << codec.name() << " failed to encode";
        std::vector<std::uint32_t> decoded(values.size());
        codec.decode(enc.bytes, decoded);
        EXPECT_EQ(decoded, values) << codec.name() << " seed " << seed;
    }
}

std::vector<RoundTripCase>
roundTripCases()
{
    std::vector<RoundTripCase> cases;
    for (Scheme s : kAllSchemes) {
        for (std::uint32_t bits : {1u, 4u, 7u, 13u, 20u, 27u}) {
            for (std::size_t count : {1u, 7u, 128u}) {
                cases.push_back({s, bits, count});
            }
        }
    }
    // Wide values: only schemes that support >= 2^28.
    for (Scheme s : {Scheme::BP, Scheme::VB, Scheme::PFD,
                     Scheme::OptPFD, Scheme::S8b}) {
        cases.push_back({s, 32, 128});
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, CodecRoundTrip, ::testing::ValuesIn(roundTripCases()),
    [](const ::testing::TestParamInfo<RoundTripCase> &info) {
        return std::string(schemeName(info.param.scheme)) + "_bits" +
               std::to_string(info.param.maxBits) + "_n" +
               std::to_string(info.param.count);
    });

// ---------------------------------------------------------------
// Property: all-zero and all-equal blocks round-trip.
// ---------------------------------------------------------------

class CodecDegenerate : public ::testing::TestWithParam<Scheme>
{
};

TEST_P(CodecDegenerate, AllZeros)
{
    const Codec &codec = codecFor(GetParam());
    std::vector<std::uint32_t> values(128, 0);
    BlockEncoding enc;
    ASSERT_TRUE(codec.encode(values, enc));
    std::vector<std::uint32_t> decoded(values.size());
    codec.decode(enc.bytes, decoded);
    EXPECT_EQ(decoded, values);
}

TEST_P(CodecDegenerate, AllEqual)
{
    const Codec &codec = codecFor(GetParam());
    std::vector<std::uint32_t> values(128, 123456);
    BlockEncoding enc;
    ASSERT_TRUE(codec.encode(values, enc));
    std::vector<std::uint32_t> decoded(values.size());
    codec.decode(enc.bytes, decoded);
    EXPECT_EQ(decoded, values);
}

TEST_P(CodecDegenerate, SingleValue)
{
    const Codec &codec = codecFor(GetParam());
    std::vector<std::uint32_t> values{42};
    BlockEncoding enc;
    ASSERT_TRUE(codec.encode(values, enc));
    std::vector<std::uint32_t> decoded(1);
    codec.decode(enc.bytes, decoded);
    EXPECT_EQ(decoded[0], 42u);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, CodecDegenerate, ::testing::ValuesIn(kAllSchemes),
    [](const ::testing::TestParamInfo<Scheme> &info) {
        return std::string(schemeName(info.param));
    });

// ---------------------------------------------------------------
// Scheme-specific behavior.
// ---------------------------------------------------------------

TEST(BitPacking, UsesMaxWidth)
{
    BitPackingCodec codec;
    std::vector<std::uint32_t> values(128, 1);
    values[7] = 0xFFFF; // forces 16-bit width
    BlockEncoding enc;
    ASSERT_TRUE(codec.encode(values, enc));
    EXPECT_EQ(enc.bitWidth, 16);
    EXPECT_EQ(enc.bytes.size(), 1 + (128 * 16 + 7) / 8);
}

TEST(VarByte, SmallValuesOneByte)
{
    VarByteCodec codec;
    std::vector<std::uint32_t> values = {0, 1, 127};
    BlockEncoding enc;
    ASSERT_TRUE(codec.encode(values, enc));
    EXPECT_EQ(enc.bytes.size(), 3u);
}

TEST(VarByte, BoundaryLengths)
{
    VarByteCodec codec;
    std::vector<std::uint32_t> values = {127, 128, 16383, 16384,
                                         0xFFFFFFFFu};
    BlockEncoding enc;
    ASSERT_TRUE(codec.encode(values, enc));
    // 1 + 2 + 2 + 3 + 5 bytes.
    EXPECT_EQ(enc.bytes.size(), 13u);
    std::vector<std::uint32_t> decoded(values.size());
    codec.decode(enc.bytes, decoded);
    EXPECT_EQ(decoded, values);
}

TEST(PForDelta, ExceptionsPatched)
{
    PForDeltaCodec codec;
    std::vector<std::uint32_t> values(128, 3); // 2 bits
    values[5] = 1 << 20;
    values[100] = (1 << 25) + 7;
    BlockEncoding enc;
    ASSERT_TRUE(codec.encode(values, enc));
    EXPECT_EQ(enc.exceptionCount, 2);
    EXPECT_LE(enc.bitWidth, 3); // 90th percentile width stays small
    std::vector<std::uint32_t> decoded(values.size());
    codec.decode(enc.bytes, decoded);
    EXPECT_EQ(decoded, values);
}

TEST(PForDelta, NinetyPercentRule)
{
    PForDeltaCodec codec;
    // 116 of 128 values (90.6%) need 4 bits, the rest 20: width 4.
    std::vector<std::uint32_t> values;
    for (int i = 0; i < 116; ++i)
        values.push_back(15);
    for (int i = 0; i < 12; ++i)
        values.push_back(1 << 19);
    BlockEncoding enc;
    ASSERT_TRUE(codec.encode(values, enc));
    EXPECT_EQ(enc.bitWidth, 4);
    EXPECT_EQ(enc.exceptionCount, 12);
}

TEST(OptPFD, NeverLargerThanPFD)
{
    PForDeltaCodec pfd;
    OptPForDeltaCodec opt;
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        auto values = randomValues(128, 17, seed);
        // Add a few spikes to create an exception-tradeoff decision.
        values[3] = 1 << 22;
        values[77] = 1 << 23;
        BlockEncoding ep, eo;
        ASSERT_TRUE(pfd.encode(values, ep));
        ASSERT_TRUE(opt.encode(values, eo));
        EXPECT_LE(eo.bytes.size(), ep.bytes.size()) << "seed " << seed;
        std::vector<std::uint32_t> decoded(values.size());
        opt.decode(eo.bytes, decoded);
        EXPECT_EQ(decoded, values);
    }
}

TEST(Simple16, RejectsWideValues)
{
    Simple16Codec codec;
    std::vector<std::uint32_t> values = {1u << 28};
    BlockEncoding enc;
    EXPECT_FALSE(codec.encode(values, enc));
}

TEST(Simple16, DensePackingOfOnes)
{
    Simple16Codec codec;
    std::vector<std::uint32_t> values(128, 1);
    BlockEncoding enc;
    ASSERT_TRUE(codec.encode(values, enc));
    // 4 full 28x1 words cover 112 values; the 16-value tail packs as
    // one 14x2 word plus one 2x14 word: 6 words = 24 bytes.
    EXPECT_EQ(enc.bytes.size(), 24u);
}

TEST(Simple16, ModeTableInvariants)
{
    for (const auto &mode : Simple16Codec::modeTable()) {
        std::uint32_t bits = 0;
        std::uint32_t count = 0;
        for (std::uint8_t r = 0; r < mode.numRuns; ++r) {
            bits += mode.runs[r].count * mode.runs[r].width;
            count += mode.runs[r].count;
        }
        EXPECT_LE(bits, 28u);
        EXPECT_EQ(count, mode.totalValues);
        EXPECT_GE(count, 1u);
    }
}

TEST(Simple8b, ZeroRunsUseZeroPayload)
{
    Simple8bCodec codec;
    std::vector<std::uint32_t> values(240, 0);
    BlockEncoding enc;
    ASSERT_TRUE(codec.encode(values, enc));
    EXPECT_EQ(enc.bytes.size(), 8u); // one selector-0 word
    std::vector<std::uint32_t> decoded(values.size());
    codec.decode(enc.bytes, decoded);
    EXPECT_EQ(decoded, values);
}

TEST(Simple8b, ModeTableInvariants)
{
    for (const auto &mode : Simple8bCodec::modeTable()) {
        EXPECT_LE(static_cast<std::uint32_t>(mode.count) * mode.width,
                  60u);
        EXPECT_GE(mode.count, 1u);
    }
}

TEST(Simple8b, SixtyBitValue)
{
    Simple8bCodec codec;
    std::vector<std::uint32_t> values = {0xFFFFFFFFu};
    BlockEncoding enc;
    ASSERT_TRUE(codec.encode(values, enc));
    std::vector<std::uint32_t> decoded(1);
    codec.decode(enc.bytes, decoded);
    EXPECT_EQ(decoded[0], 0xFFFFFFFFu);
}

// ---------------------------------------------------------------
// Hybrid selection.
// ---------------------------------------------------------------

TEST(Hybrid, PicksSmallest)
{
    // Tiny uniform values: S16 (28 x 1-bit per word) should beat VB
    // (1 byte per value) and BP-with-header.
    std::vector<std::uint32_t> ones(128, 1);
    BlockEncoding best;
    Scheme s = pickBestScheme(ones, best);
    std::size_t bestSize = best.bytes.size();
    for (Scheme other : kAllSchemes) {
        BlockEncoding enc;
        if (codecFor(other).encode(ones, enc)) {
            EXPECT_LE(bestSize, enc.bytes.size())
                << "picked " << schemeName(s) << " but "
                << schemeName(other) << " is smaller";
        }
    }
}

TEST(Hybrid, DecodableWithReportedScheme)
{
    Rng rng(99);
    for (int trial = 0; trial < 20; ++trial) {
        std::vector<std::uint32_t> values(128);
        for (auto &v : values)
            v = 1 + rng.below(1000);
        BlockEncoding best;
        Scheme s = pickBestScheme(values, best);
        std::vector<std::uint32_t> decoded(values.size());
        codecFor(s).decode(best.bytes, decoded);
        EXPECT_EQ(decoded, values);
    }
}

TEST(Hybrid, SkewedFavorsExceptionSchemes)
{
    // Mostly tiny values with rare huge spikes: OptPFD should win
    // over plain BP (which would pay the max width for every slot).
    std::vector<std::uint32_t> values(128, 2);
    values[64] = 1 << 24;
    BlockEncoding bp, best;
    ASSERT_TRUE(codecFor(Scheme::BP).encode(values, bp));
    pickBestScheme(values, best);
    EXPECT_LT(best.bytes.size(), bp.bytes.size());
}

} // namespace

// ---------------------------------------------------------------
// Adversarial differential fuzz: native codecs vs the programmable
// datapath across pathological value patterns.
// ---------------------------------------------------------------

namespace fuzz
{

using boss::compress::BlockEncoding;
using boss::compress::ProgrammableDecompressor;

std::vector<std::uint32_t>
pattern(int kind, std::size_t n, Rng &rng)
{
    std::vector<std::uint32_t> v(n);
    switch (kind) {
      case 0: // sawtooth: alternate tiny / large
        for (std::size_t i = 0; i < n; ++i)
            v[i] = (i % 2 == 0) ? 1u : (1u << 20) + i % 7;
        break;
      case 1: // ascending run
        for (std::size_t i = 0; i < n; ++i)
            v[i] = static_cast<std::uint32_t>(i);
        break;
      case 2: // long zero run with a spike at each end
        std::fill(v.begin(), v.end(), 0u);
        v.front() = 0x0FFFFFFu;
        v.back() = 0x0FFFFFFu;
        break;
      case 3: // powers of two (exercise every bit width)
        for (std::size_t i = 0; i < n; ++i)
            v[i] = 1u << (i % 28);
        break;
      case 4: // random with heavy duplicate blocks
        for (std::size_t i = 0; i < n; ++i)
            v[i] = static_cast<std::uint32_t>(rng.below(4));
        break;
      default: // uniform random under 2^27
        for (std::size_t i = 0; i < n; ++i)
            v[i] = static_cast<std::uint32_t>(rng.next()) &
                   boss::maskLow(27);
        break;
    }
    return v;
}

struct FuzzCase
{
    Scheme scheme;
    int kind;
};

class CodecFuzz : public ::testing::TestWithParam<FuzzCase>
{
};

TEST_P(CodecFuzz, NativeAndDatapathAgree)
{
    const auto &[scheme, kind] = GetParam();
    const Codec &native = codecFor(scheme);
    ProgrammableDecompressor dp =
        ProgrammableDecompressor::forScheme(scheme);
    Rng rng(1000 + kind);
    for (std::size_t n : {1u, 2u, 127u, 128u}) {
        auto values = pattern(kind, n, rng);
        BlockEncoding enc;
        ASSERT_TRUE(native.encode(values, enc))
            << schemeName(scheme) << " kind " << kind << " n " << n;
        std::vector<std::uint32_t> a(n), b(n);
        native.decode(enc.bytes, a);
        dp.decodeValues(enc.bytes, b);
        EXPECT_EQ(a, values)
            << schemeName(scheme) << " kind " << kind << " n " << n;
        EXPECT_EQ(b, values)
            << "datapath, " << schemeName(scheme) << " kind " << kind;
    }
}

std::vector<FuzzCase>
fuzzCases()
{
    // gtest lists each case with the object's bytes, padding included.
    // Value-initialised elements have zeroed padding, so the listed
    // names are the same on every run.
    std::vector<FuzzCase> cases(kAllSchemes.size() * 6);
    auto c = cases.begin();
    for (Scheme s : kAllSchemes) {
        for (int kind = 0; kind < 6; ++kind, ++c) {
            // Simple16 cannot represent values >= 2^28; every
            // pattern here stays below that by construction.
            c->scheme = s;
            c->kind = kind;
        }
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, CodecFuzz, ::testing::ValuesIn(fuzzCases()),
    [](const ::testing::TestParamInfo<FuzzCase> &info) {
        return std::string(schemeName(info.param.scheme)) + "_kind" +
               std::to_string(info.param.kind);
    });

} // namespace fuzz
