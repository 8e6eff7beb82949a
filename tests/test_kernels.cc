/**
 * @file
 * Kernel-layer unit tests: every SIMD tier available on the host
 * must be bit-identical to the scalar reference for each primitive
 * (bit unpack, prefix sum, VarByte decode, lower bound, BM25
 * scoring), across adversarial sizes, widths and alignments. Also
 * covers the dispatch surface (tier names, overrides, rejection of
 * unsupported tiers) and the aligned-allocator contract.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/aligned.h"
#include "common/bitops.h"
#include "common/rng.h"
#include "compress/varbyte.h"
#include "index/bm25.h"
#include "kernels/kernels.h"

namespace
{

using namespace boss;
namespace k = boss::kernels;

/** Restore auto tier selection when a test returns. */
struct TierGuard
{
    ~TierGuard() { k::setTier(k::bestSupportedTier()); }
};

// ---------------------------------------------------------------
// Dispatch surface.
// ---------------------------------------------------------------

TEST(KernelDispatchTest, TierNamesRoundTrip)
{
    EXPECT_EQ(k::tierName(k::Tier::Scalar), "scalar");
    EXPECT_EQ(k::tierName(k::Tier::Avx2), "avx2");
}

TEST(KernelDispatchTest, ScalarAlwaysSupported)
{
    EXPECT_TRUE(k::tierSupported(k::Tier::Scalar));
    auto tiers = k::availableTiers();
    ASSERT_FALSE(tiers.empty());
    EXPECT_EQ(tiers.front(), k::Tier::Scalar);
    // The best tier is always one of the available ones.
    EXPECT_NE(std::find(tiers.begin(), tiers.end(),
                        k::bestSupportedTier()),
              tiers.end());
}

TEST(KernelDispatchTest, SetTierByNameAcceptsKnownRejectsUnknown)
{
    TierGuard guard;
    EXPECT_TRUE(k::setTierByName("scalar"));
    EXPECT_EQ(k::activeTier(), k::Tier::Scalar);
    EXPECT_EQ(k::activeTierName(), "scalar");
    EXPECT_TRUE(k::setTierByName("auto"));
    EXPECT_EQ(k::activeTier(), k::bestSupportedTier());
    EXPECT_FALSE(k::setTierByName("avx512"));
    EXPECT_FALSE(k::setTierByName(""));
    // The removed SSE4.2 tier's name is an unknown name too, and a
    // rejected name leaves the active tier as it was.
    ASSERT_TRUE(k::setTierByName("scalar"));
    EXPECT_FALSE(k::setTierByName("sse42"));
    EXPECT_EQ(k::activeTier(), k::Tier::Scalar);
}

TEST(KernelDispatchTest, OpsFollowActiveTier)
{
    TierGuard guard;
    for (k::Tier t : k::availableTiers()) {
        k::setTier(t);
        EXPECT_EQ(&k::ops(), &k::opsFor(t))
            << "active table mismatch for " << k::tierName(t);
    }
}

// ---------------------------------------------------------------
// Aligned allocator.
// ---------------------------------------------------------------

TEST(AlignedVecTest, DataIsCacheLineAligned)
{
    for (std::size_t n : {1u, 3u, 63u, 64u, 65u, 1000u}) {
        AlignedVec<std::uint8_t> bytes(n);
        AlignedVec<std::uint32_t> words(n);
        EXPECT_TRUE(isKernelAligned(bytes.data())) << "n=" << n;
        EXPECT_TRUE(isKernelAligned(words.data())) << "n=" << n;
    }
}

TEST(AlignedVecTest, BehavesLikeVector)
{
    AlignedVec<std::uint32_t> v;
    for (std::uint32_t i = 0; i < 300; ++i)
        v.push_back(i);
    AlignedVec<std::uint32_t> w = v;
    w.erase(w.begin(), w.begin() + 100);
    EXPECT_EQ(w.size(), 200u);
    EXPECT_EQ(w.front(), 100u);
    EXPECT_TRUE(isKernelAligned(w.data()));
}

// ---------------------------------------------------------------
// Per-primitive tier equivalence.
// ---------------------------------------------------------------

/** Pack @p values LSB-first at @p width (BitWriter layout). */
std::vector<std::uint8_t>
pack(const std::vector<std::uint32_t> &values, std::uint32_t width)
{
    std::vector<std::uint8_t> bytes;
    BitWriter writer(bytes);
    for (auto v : values)
        writer.put(v, width);
    writer.flush();
    return bytes;
}

TEST(KernelEquivalenceTest, UnpackBitsMatchesBitReaderEveryWidth)
{
    const std::size_t sizes[] = {0, 1, 7, 8, 31, 32,
                                 33, 127, 128, 129, 200};
    for (std::uint32_t width = 1; width <= 32; ++width) {
        for (std::size_t n : sizes) {
            Rng rng(splitSeed(0x5EED, width * 1000 + n));
            std::vector<std::uint32_t> values(n);
            std::uint64_t bound = 1ull << width;
            for (auto &v : values)
                v = static_cast<std::uint32_t>(rng.below(bound));
            auto bytes = pack(values, width);

            // Reference: the BitReader loop the codecs used to run.
            std::vector<std::uint32_t> ref(n);
            BitReader reader(bytes.data(), bytes.size());
            for (auto &v : ref)
                v = reader.get(width);
            ASSERT_EQ(ref, values); // layout sanity

            for (k::Tier t : k::availableTiers()) {
                std::vector<std::uint32_t> out(n, 0xDEADBEEF);
                k::opsFor(t).unpackBits(bytes.data(), bytes.size(),
                                        out.data(), n, width);
                EXPECT_EQ(out, ref)
                    << k::tierName(t) << " width " << width
                    << " n " << n;
            }
        }
    }
}

TEST(KernelEquivalenceTest, UnpackBitsTruncatedInputReadsZeros)
{
    // A short payload must decode like BitReader: present bits, then
    // zeros -- and must never read past the span (ASan enforces).
    for (std::uint32_t width : {1u, 3u, 7u, 11u, 16u, 25u, 32u}) {
        Rng rng(splitSeed(0x7A11, width));
        std::vector<std::uint32_t> values(128);
        for (auto &v : values)
            v = static_cast<std::uint32_t>(rng.below(1ull << width));
        auto bytes = pack(values, width);
        for (std::size_t cut :
             {std::size_t{0}, std::size_t{1}, bytes.size() / 2,
              bytes.size() - 1}) {
            std::vector<std::uint32_t> ref(values.size());
            BitReader reader(bytes.data(), cut);
            for (auto &v : ref)
                v = reader.get(width);
            for (k::Tier t : k::availableTiers()) {
                std::vector<std::uint32_t> out(values.size());
                k::opsFor(t).unpackBits(bytes.data(), cut, out.data(),
                                        out.size(), width);
                EXPECT_EQ(out, ref) << k::tierName(t) << " width "
                                    << width << " cut " << cut;
            }
        }
    }
}

TEST(KernelEquivalenceTest, PrefixSumMatchesSerial)
{
    for (std::size_t n : {0u, 1u, 7u, 8u, 9u, 64u, 127u, 128u, 130u}) {
        Rng rng(splitSeed(0xACC, n));
        std::vector<std::uint32_t> gaps(n);
        for (auto &g : gaps)
            g = static_cast<std::uint32_t>(rng.below(1u << 20));
        auto base = static_cast<std::uint32_t>(rng.below(1u << 30));

        std::vector<std::uint32_t> ref = gaps;
        std::uint32_t acc = base;
        for (auto &v : ref) {
            acc += v;
            v = acc;
        }
        for (k::Tier t : k::availableTiers()) {
            std::vector<std::uint32_t> out = gaps;
            k::opsFor(t).prefixSum(out.data(), out.size(), base);
            EXPECT_EQ(out, ref) << k::tierName(t) << " n " << n;
        }
    }
}

TEST(KernelEquivalenceTest, DecodeVarByteMatchesScalar)
{
    compress::VarByteCodec vb;
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        Rng rng(splitSeed(0xB0B, seed));
        std::size_t n = 1 + rng.below(200);
        std::vector<std::uint32_t> values(n);
        for (auto &v : values) {
            // Mix of 1..5-byte encodings.
            int w = 1 + static_cast<int>(rng.below(32));
            v = static_cast<std::uint32_t>(rng.below(1ull << w));
        }
        compress::BlockEncoding enc;
        ASSERT_TRUE(vb.encode(values, enc));

        for (k::Tier t : k::availableTiers()) {
            std::vector<std::uint32_t> out(n, 0xDEADBEEF);
            std::size_t consumed = k::opsFor(t).decodeVarByte(
                enc.bytes.data(), enc.bytes.size(), out.data(), n);
            EXPECT_EQ(consumed, enc.bytes.size())
                << k::tierName(t) << " seed " << seed;
            EXPECT_EQ(out, values)
                << k::tierName(t) << " seed " << seed;
        }
    }
}

TEST(KernelEquivalenceTest, LowerBoundMatchesStd)
{
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        Rng rng(splitSeed(0x10B0, seed));
        std::size_t n = rng.below(260);
        std::vector<std::uint32_t> data(n);
        for (auto &d : data)
            d = static_cast<std::uint32_t>(
                rng.below(seed % 3 == 0 ? 50 : 0x100000000ull));
        std::sort(data.begin(), data.end());

        for (int probe = 0; probe < 50; ++probe) {
            std::uint32_t key;
            if (probe % 3 == 0 && n > 0) {
                key = data[rng.below(n)]; // exact hit (duplicates!)
            } else {
                key = static_cast<std::uint32_t>(
                    rng.below(0x100000000ull));
            }
            auto ref = static_cast<std::size_t>(
                std::lower_bound(data.begin(), data.end(), key) -
                data.begin());
            for (k::Tier t : k::availableTiers()) {
                EXPECT_EQ(k::opsFor(t).lowerBound(data.data(), n, key),
                          ref)
                    << k::tierName(t) << " seed " << seed << " key "
                    << key;
            }
        }
    }
}

TEST(KernelEquivalenceTest, ScoreBm25BitExactWithBm25TermScore)
{
    index::Bm25 bm25({}, 10000, 250.0);
    const double k1p1 = bm25.params().k1 + 1.0;
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        Rng rng(splitSeed(0xB25, seed));
        std::size_t n = 1 + rng.below(200);
        double idf = bm25.idf(
            1 + static_cast<std::uint32_t>(rng.below(9999)));
        std::vector<std::uint32_t> tfs(n);
        std::vector<float> norms(n);
        for (std::size_t i = 0; i < n; ++i) {
            tfs[i] =
                static_cast<std::uint32_t>(1 + rng.below(1u << 10));
            norms[i] = bm25.docNorm(
                1 + static_cast<std::uint32_t>(rng.below(2000)));
        }
        std::vector<float> ref(n);
        for (std::size_t i = 0; i < n; ++i)
            ref[i] = bm25.termScore(idf, tfs[i], norms[i]);

        for (k::Tier t : k::availableTiers()) {
            std::vector<float> out(n, -1.f);
            k::opsFor(t).scoreBm25(idf, k1p1, tfs.data(),
                                   norms.data(), n, out.data());
            // Bitwise comparison: == would accept -0.0 vs 0.0 and
            // hide NaN handling differences.
            EXPECT_EQ(std::memcmp(out.data(), ref.data(),
                                  n * sizeof(float)),
                      0)
                << k::tierName(t) << " seed " << seed;
        }
    }
}

} // namespace
