/**
 * @file
 * Runtime-dispatched CPU kernels for the block decode/score datapath.
 *
 * BOSS decompresses fixed 128-entry posting blocks and scores them at
 * line rate; on the host side that datapath reduces to five scalar
 * loops (bit unpack, delta prefix-sum, VarByte decode, in-block
 * search, BM25 term scoring). This module provides those loops as
 * per-tier kernels -- portable scalar and AVX2 -- selected once at
 * startup from CPUID, with two hard guarantees:
 *
 *  1. Bit-exactness. Every tier produces byte-identical output to the
 *     scalar tier for every input, including float scoring (the SIMD
 *     scorer performs the exact IEEE op sequence of Bm25::termScore,
 *     and no kernel translation unit enables FMA contraction). The
 *     golden top-k fixture and the codec fuzz suite enforce this
 *     under every available tier.
 *
 *  2. Memory safety. Kernels never read or write outside the spans
 *     they are handed -- no trailing-slack contract, no overreads --
 *     so they are ASan-clean on arbitrary buffers.
 *
 * Tier selection: the best CPUID-supported tier wins by default; the
 * BOSS_KERNELS environment variable (scalar|avx2|auto) or
 * setTier()/setTierByName() (CLI --kernels flag, tests) override it.
 * Overrides requesting an unsupported tier fail loudly rather than
 * silently degrading.
 */

#ifndef BOSS_KERNELS_KERNELS_H
#define BOSS_KERNELS_KERNELS_H

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace boss::kernels
{

/** Instruction-set tiers, ordered from baseline to best. */
enum class Tier : std::uint8_t
{
    Scalar = 0,
    Avx2 = 1,
};

/** Lower-case tier name ("scalar", "avx2"). */
std::string_view tierName(Tier t);

/**
 * True when tier @p t can run here: the host CPU reports the feature
 * and the build compiled the tier's translation unit with the
 * matching -m flags.
 */
bool tierSupported(Tier t);

/** The best supported tier on this host (>= Tier::Scalar). */
Tier bestSupportedTier();

/** All supported tiers, baseline first (always contains Scalar). */
std::vector<Tier> availableTiers();

/**
 * The tier whose kernels ops() currently returns. Resolved on first
 * use from BOSS_KERNELS (default: auto = bestSupportedTier()).
 */
Tier activeTier();

/** Name of the active tier (for stats/summary fields). */
std::string_view activeTierName();

/**
 * Force the active tier. Fatal if @p t is not supported on this
 * host. Not thread-safe against in-flight queries: call at startup
 * or from single-threaded test code.
 */
void setTier(Tier t);

/**
 * Parse and apply a tier override: "scalar", "avx2" or "auto".
 * Returns false (and changes nothing) on an unknown name; fatal if
 * the named tier is unsupported on this host.
 */
bool setTierByName(std::string_view name);

/**
 * One tier's kernel table. All function pointers are always valid.
 */
struct Ops
{
    /**
     * Unpack @p n values of @p width bits (1..32) from the LSB-first
     * contiguous bitstream at [@p in, @p in + @p inBytes). Matches
     * BitWriter's layout; like BitReader, bits past the end of the
     * stream read as zero. Never touches memory outside the input
     * span or out[0, n).
     */
    void (*unpackBits)(const std::uint8_t *in, std::size_t inBytes,
                       std::uint32_t *out, std::size_t n,
                       std::uint32_t width);

    /**
     * In-place inclusive prefix sum over values[0, n) with carry-in
     * @p base: values[i] <- base + values[0] + ... + values[i], with
     * uint32 wrap-around (the delta -> absolute docID reconstruction).
     */
    void (*prefixSum)(std::uint32_t *values, std::size_t n,
                      std::uint32_t base);

    /**
     * Decode @p n VarByte values (MSB-first 7-bit groups, 0x80
     * continuation -- VarByteCodec's format). Fatal on a truncated
     * stream, mirroring the scalar decoder's assertion. Returns the
     * number of input bytes consumed.
     */
    std::size_t (*decodeVarByte)(const std::uint8_t *in,
                                 std::size_t inBytes,
                                 std::uint32_t *out, std::size_t n);

    /**
     * First index i in the ascending array data[0, n) with
     * data[i] >= key; n when every element is smaller. Branchless /
     * SIMD replacement for std::lower_bound on <= 128-entry blocks.
     */
    std::size_t (*lowerBound)(const std::uint32_t *data, std::size_t n,
                              std::uint32_t key);

    /**
     * Batch BM25 term scoring:
     *   out[i] = float(idf * tf[i] * k1p1 / (tf[i] + double(norm[i])))
     * -- the exact op sequence of Bm25::termScore, so results are
     * bit-identical to the scalar scorer in every tier.
     */
    void (*scoreBm25)(double idf, double k1p1,
                      const std::uint32_t *tfs, const float *norms,
                      std::size_t n, float *out);
};

/** The active tier's kernel table. */
const Ops &ops();

/** A specific tier's table (fatal if unsupported). */
const Ops &opsFor(Tier t);

} // namespace boss::kernels

#endif // BOSS_KERNELS_KERNELS_H
