/**
 * @file
 * AVX2 kernel tier.
 *
 * Bit unpack exploits a property of the fixed LSB-first layout: with
 * a constant width w, value j = 8g+k starts at bit 8gw + kw, so a
 * group of 8 values has constant per-lane byte offsets (kw >> 3) and
 * shifts (kw & 7) relative to a group base that advances by exactly
 * w bytes. For w <= 16 the whole group spans w <= 16 bytes, so one
 * 16-byte load broadcast to both ymm lanes plus a per-width byte
 * shuffle (constexpr table), a variable shift, and a mask emits 8
 * values -- no gather. Widths 17..25 use one 32-bit gather per 8
 * values. Inputs too short for a full vector window are staged
 * through a zero-padded stack buffer, so no load ever leaves the
 * input span (ASan-clean on any buffer).
 *
 * The prefix sum is the classic in-register inclusive scan (shift-
 * add within 128-bit lanes, then lane/vector carry propagation);
 * integer adds make it trivially bit-exact. The BM25 scorer runs
 * 4-wide in double precision with the exact op sequence of
 * Bm25::termScore (mul, mul, div over add); this TU deliberately
 * compiles without -mfma so nothing can contract into an FMA and
 * change rounding versus the scalar tier.
 */

#include "kernels/kernels_impl.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <cstring>

namespace boss::kernels::detail
{

namespace
{

// Per-width shuffle constants for the w <= 16 unpack path. With a
// 16-byte group window broadcast to both ymm lanes, lane k's value
// lives in the bytes [(kw >> 3), (kw + w - 1) >> 3] at bit offset
// (kw & 7). All indexes are <= 15 because 8 values span exactly 8w
// bits and 8*16 - 1 = 127 -> byte 15. Bytes outside a value's span
// shuffle in as zero (0x80), which the post-shift mask would discard
// anyway, so garbage can never alias real data.
struct ShufTable {
    std::uint8_t shuf[17][32];
    std::uint32_t shift[17][8];
};

constexpr ShufTable
makeShufTable()
{
    ShufTable t{};
    for (unsigned w = 1; w <= 16; ++w) {
        for (unsigned k = 0; k < 8; ++k) {
            unsigned first = (k * w) >> 3;
            unsigned last = (k * w + w - 1) >> 3;
            for (unsigned b = 0; b < 4; ++b) {
                unsigned slot =
                    (k < 4 ? k * 4 : 16 + (k - 4) * 4) + b;
                unsigned idx = first + b;
                t.shuf[w][slot] = idx <= last
                                      ? static_cast<std::uint8_t>(idx)
                                      : std::uint8_t{0x80};
            }
            t.shift[w][k] = (k * w) & 7;
        }
    }
    return t;
}

constexpr ShufTable kShuf = makeShufTable();

/**
 * Unpack `groups` 8-value groups of width <= 16. The caller
 * guarantees `in` is readable for (groups - 1) * width + 16 bytes.
 */
inline void
avx2UnpackGroups16(const std::uint8_t *in, std::uint32_t *out,
                   std::size_t groups, std::uint32_t w)
{
    const __m256i shuf = _mm256_loadu_si256(
        reinterpret_cast<const __m256i *>(kShuf.shuf[w]));
    const __m256i shifts = _mm256_loadu_si256(
        reinterpret_cast<const __m256i *>(kShuf.shift[w]));
    const __m256i mask =
        _mm256_set1_epi32(static_cast<int>((1u << w) - 1u));
    for (std::size_t g = 0; g < groups; ++g) {
        __m256i win = _mm256_broadcastsi128_si256(_mm_loadu_si128(
            reinterpret_cast<const __m128i *>(in + g * w)));
        __m256i vals = _mm256_and_si256(
            _mm256_srlv_epi32(_mm256_shuffle_epi8(win, shuf), shifts),
            mask);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(out + 8 * g),
                            vals);
    }
}

void
avx2UnpackBits(const std::uint8_t *in, std::size_t inBytes,
               std::uint32_t *out, std::size_t n, std::uint32_t width)
{
    // Widths above 25 bits can straddle a 32-bit window (shift +
    // width > 32); they are rare for d-gaps, so take the scalar
    // 64-bit-window path.
    if (width > 25 || n < 8) {
        scalarUnpackBits(in, inBytes, out, n, width);
        return;
    }

    const std::uint32_t w = width;

    if (w <= 16) {
        // Shuffle path, in chunks of <= 16 groups (one full block).
        // When the input has fewer bytes than the last group's
        // 16-byte window needs, the chunk is staged through a
        // zero-padded stack buffer; padding bits decode as zero,
        // matching BitReader past-the-end semantics.
        while (n >= 8) {
            std::size_t groups = n / 8 < 16 ? n / 8 : 16;
            std::size_t lastEnd = (groups - 1) * w + 16;
            if (inBytes >= lastEnd) {
                avx2UnpackGroups16(in, out, groups, w);
            } else {
                alignas(32) std::uint8_t buf[16 * 16 + 16];
                std::memset(buf, 0, sizeof(buf));
                std::size_t copy =
                    inBytes < sizeof(buf) ? inBytes : sizeof(buf);
                std::memcpy(buf, in, copy);
                avx2UnpackGroups16(buf, out, groups, w);
            }
            // Each group consumes exactly w bytes (8w bits). On a
            // truncated input, stop advancing at the end; everything
            // from there on decodes as zero regardless of position.
            std::size_t consumed = groups * w;
            std::size_t adv = consumed < inBytes ? consumed : inBytes;
            in += adv;
            inBytes -= adv;
            out += groups * 8;
            n -= groups * 8;
        }
        if (n > 0)
            scalarUnpackBits(in, inBytes, out, n, width);
        return;
    }

    // Gather path for widths 17..25: per-lane constants for one
    // 8-value group.
    const __m256i baseOff = _mm256_setr_epi32(
        0, static_cast<int>(w >> 3), static_cast<int>(2 * w >> 3),
        static_cast<int>(3 * w >> 3), static_cast<int>(4 * w >> 3),
        static_cast<int>(5 * w >> 3), static_cast<int>(6 * w >> 3),
        static_cast<int>(7 * w >> 3));
    const __m256i shifts = _mm256_setr_epi32(
        0, static_cast<int>(w & 7), static_cast<int>(2 * w & 7),
        static_cast<int>(3 * w & 7), static_cast<int>(4 * w & 7),
        static_cast<int>(5 * w & 7), static_cast<int>(6 * w & 7),
        static_cast<int>(7 * w & 7));
    const __m256i mask = _mm256_set1_epi32(
        static_cast<int>((1u << w) - 1u));

    // Group g's widest lane reads 4 bytes at g*w + (7w >> 3); stop
    // before that window would cross the end of the input.
    const std::size_t lastLane = (7 * w) >> 3;
    std::size_t safeGroups = 0;
    if (inBytes >= lastLane + 4) {
        std::size_t maxBase = inBytes - 4 - lastLane;
        safeGroups = maxBase / w + 1;
    }
    const std::size_t groups = n / 8;
    if (safeGroups > groups)
        safeGroups = groups;

    for (std::size_t g = 0; g < safeGroups; ++g) {
        __m256i off = _mm256_add_epi32(
            baseOff, _mm256_set1_epi32(static_cast<int>(g * w)));
        __m256i words = _mm256_i32gather_epi32(
            reinterpret_cast<const int *>(in), off, 1);
        __m256i vals = _mm256_and_si256(
            _mm256_srlv_epi32(words, shifts), mask);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(out + 8 * g),
                            vals);
    }

    // Tail (partial group and/or gather-unsafe suffix): 8*safeGroups
    // values consumed exactly safeGroups*w bytes, so the scalar loop
    // resumes on a whole-byte boundary.
    std::size_t j0 = 8 * safeGroups;
    if (j0 < n) {
        std::size_t byteOff = safeGroups * w;
        scalarUnpackBits(in + byteOff, inBytes - byteOff, out + j0,
                         n - j0, width);
    }
}

void
avx2PrefixSum(std::uint32_t *values, std::size_t n, std::uint32_t base)
{
    std::size_t i = 0;
    __m256i carry = _mm256_set1_epi32(static_cast<int>(base));
    for (; i + 8 <= n; i += 8) {
        __m256i x = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(values + i));
        // Inclusive scan within each 128-bit lane...
        x = _mm256_add_epi32(x, _mm256_slli_si256(x, 4));
        x = _mm256_add_epi32(x, _mm256_slli_si256(x, 8));
        // ...then add the low lane's total into the high lane.
        __m256i t = _mm256_permute2x128_si256(x, x, 0x08);
        x = _mm256_add_epi32(x, _mm256_shuffle_epi32(t, 0xFF));
        x = _mm256_add_epi32(x, carry);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(values + i),
                            x);
        // Broadcast the running total (lane 7) for the next group.
        carry = _mm256_shuffle_epi32(
            _mm256_permute2x128_si256(x, x, 0x11), 0xFF);
    }
    std::uint32_t acc =
        static_cast<std::uint32_t>(_mm256_extract_epi32(carry, 0));
    for (; i < n; ++i) {
        acc += values[i];
        values[i] = acc;
    }
}

/**
 * Decode up to @p count VarByte values with the plain continuation
 * loop, advancing @p pos. Called for a whole batch when the
 * no-continuation window test fails, so the (frequent on
 * multi-byte encodings) mixed case pays one call and one window
 * retest per batch instead of per value.
 */
std::size_t
decodeVarByteRun(const std::uint8_t *in, std::size_t inBytes,
                 std::size_t &pos, std::uint32_t *out,
                 std::size_t count)
{
    for (std::size_t i = 0; i < count; ++i) {
        std::uint32_t acc = 0;
        while (true) {
            BOSS_ASSERT(pos < inBytes, "VB payload truncated");
            std::uint8_t b = in[pos++];
            acc = (acc << 7) | (b & 0x7F);
            if ((b & 0x80) == 0)
                break;
        }
        out[i] = acc;
    }
    return count;
}

std::size_t
avx2DecodeVarByte(const std::uint8_t *in, std::size_t inBytes,
                  std::uint32_t *out, std::size_t n)
{
    std::size_t pos = 0;
    std::size_t i = 0;
    while (i < n) {
        // 32 bytes with no continuation bit are 32 complete values.
        if (i + 32 <= n && pos + 32 <= inBytes) {
            __m256i v = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(in + pos));
            if (_mm256_movemask_epi8(v) == 0) {
                for (int c = 0; c < 4; ++c) {
                    __m128i chunk = _mm_loadl_epi64(
                        reinterpret_cast<const __m128i *>(in + pos +
                                                          8 * c));
                    _mm256_storeu_si256(
                        reinterpret_cast<__m256i *>(out + i + 8 * c),
                        _mm256_cvtepu8_epi32(chunk));
                }
                i += 32;
                pos += 32;
                continue;
            }
            // Mixed widths: decode a batch plainly, then retest.
            i += decodeVarByteRun(in, inBytes, pos, out + i, 16);
            continue;
        }
        i += decodeVarByteRun(in, inBytes, pos, out + i, 1);
    }
    return pos;
}

std::size_t
avx2LowerBound(const std::uint32_t *data, std::size_t n,
               std::uint32_t key)
{
    std::size_t i = 0;
    while (i + 32 <= n && data[i + 31] < key)
        i += 32;
    std::size_t cnt = i;
    const __m256i flip = _mm256_set1_epi32(
        static_cast<int>(0x80000000u));
    const __m256i keyv = _mm256_xor_si256(
        _mm256_set1_epi32(static_cast<int>(key)), flip);
    for (; i + 8 <= n; i += 8) {
        __m256i x = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(data + i));
        __m256i lt =
            _mm256_cmpgt_epi32(keyv, _mm256_xor_si256(x, flip));
        int m = _mm256_movemask_ps(_mm256_castsi256_ps(lt));
        cnt += static_cast<std::size_t>(_mm_popcnt_u32(
            static_cast<unsigned>(m)));
        if (m != 0xFF)
            return cnt;
    }
    for (; i < n; ++i) {
        if (data[i] < key)
            ++cnt;
        else
            break;
    }
    return cnt;
}

void
avx2ScoreBm25(double idf, double k1p1, const std::uint32_t *tfs,
              const float *norms, std::size_t n, float *out)
{
    const __m256d idfv = _mm256_set1_pd(idf);
    const __m256d kv = _mm256_set1_pd(k1p1);
    const __m128i flip = _mm_set1_epi32(static_cast<int>(0x80000000u));
    const __m256d two31 = _mm256_set1_pd(2147483648.0);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        __m128i tf = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(tfs + i));
        // Exact unsigned u32 -> double: (int32)(tf - 2^31) + 2^31.
        __m256d f = _mm256_add_pd(
            _mm256_cvtepi32_pd(_mm_xor_si128(tf, flip)), two31);
        __m256d nd = _mm256_cvtps_pd(_mm_loadu_ps(norms + i));
        __m256d num = _mm256_mul_pd(_mm256_mul_pd(idfv, f), kv);
        __m256d den = _mm256_add_pd(f, nd);
        _mm_storeu_ps(out + i,
                      _mm256_cvtpd_ps(_mm256_div_pd(num, den)));
    }
    if (i < n)
        scalarScoreBm25(idf, k1p1, tfs + i, norms + i, n - i, out + i);
}

} // namespace

const Ops kAvx2Ops = {
    &avx2UnpackBits, &avx2PrefixSum, &avx2DecodeVarByte,
    &avx2LowerBound, &avx2ScoreBm25,
};
const bool kAvx2Compiled = true;

} // namespace boss::kernels::detail

#else // !__AVX2__

namespace boss::kernels::detail
{

const Ops kAvx2Ops = kScalarOps;
const bool kAvx2Compiled = false;

} // namespace boss::kernels::detail

#endif
