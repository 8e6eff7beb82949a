/**
 * @file
 * Internal plumbing between the kernel tiers and the dispatcher.
 *
 * Each tier's translation unit defines one Ops table. The AVX2 TU is
 * compiled with its own -m flags (see CMakeLists.txt); when a
 * toolchain or target cannot build it, the TU falls back to the
 * scalar entry points and reports itself non-compiled, so the
 * dispatcher never exposes it. The scalar entry points are exported
 * here both for that fallback and so the AVX2 kernels can delegate
 * their unaligned/tail slices to the scalar code path.
 */

#ifndef BOSS_KERNELS_KERNELS_IMPL_H
#define BOSS_KERNELS_KERNELS_IMPL_H

#include "common/logging.h"
#include "kernels/kernels.h"

namespace boss::kernels::detail
{

// Scalar reference kernels (always available).
void scalarUnpackBits(const std::uint8_t *in, std::size_t inBytes,
                      std::uint32_t *out, std::size_t n,
                      std::uint32_t width);
void scalarPrefixSum(std::uint32_t *values, std::size_t n,
                     std::uint32_t base);
std::size_t scalarDecodeVarByte(const std::uint8_t *in,
                                std::size_t inBytes,
                                std::uint32_t *out, std::size_t n);
std::size_t scalarLowerBound(const std::uint32_t *data, std::size_t n,
                             std::uint32_t key);
void scalarScoreBm25(double idf, double k1p1, const std::uint32_t *tfs,
                     const float *norms, std::size_t n, float *out);

extern const Ops kScalarOps;
extern const Ops kAvx2Ops;

/** True when the AVX2 TU was compiled with its intrinsics. */
extern const bool kAvx2Compiled;

} // namespace boss::kernels::detail

#endif // BOSS_KERNELS_KERNELS_IMPL_H
