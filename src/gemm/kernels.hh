/**
 * @file
 * Internal blocked-kernel machinery shared by the GEMM translation
 * units. Not part of the public API.
 *
 * blockedGemmImpl is defined `static` so that each TU including this
 * header (the baseline-ISA gemm.cc and the -mavx2 -mfma
 * kernels_avx2.cc) gets its own internal-linkage copy compiled for
 * that TU's instruction set — no ODR hazards from mixing flags.
 */

#ifndef TWQ_GEMM_KERNELS_HH
#define TWQ_GEMM_KERNELS_HH

#include <algorithm>
#include <cstddef>

#include "gemm/gemm.hh"

namespace twq
{
namespace gemm
{

/**
 * Pack one A panel k-major: pack[kk * kMr + r] = A(i0 + r, k0 + kk),
 * reading A either as [m, lda] row-major (transA = false, lda = K) or
 * as its transpose stored [K, m] row-major (transA = true). Rows
 * beyond mr are zero-filled so the micro-kernel never branches on the
 * M edge inside the k loop.
 */
template <typename TIn>
static inline void
packA(const TIn *a, std::size_t m, std::size_t k, bool transA,
      std::size_t i0, std::size_t mr, std::size_t k0, std::size_t kb,
      TIn *pack)
{
    for (std::size_t kk = 0; kk < kb; ++kk) {
        TIn *dst = pack + kk * kMr;
        for (std::size_t r = 0; r < kMr; ++r) {
            if (r < mr)
                dst[r] = transA ? a[(k0 + kk) * m + (i0 + r)]
                                : a[(i0 + r) * k + (k0 + kk)];
            else
                dst[r] = TIn{};
        }
    }
}

/**
 * The blocked core: C = A(^T) B with an Mr x Nr register accumulator
 * tile, K split into kKc panels, and the A panel packed k-major.
 * Accumulation is one multiply-add per element per k, strictly
 * ascending in k (partial sums ride through C between panels), so the
 * result is independent of the M/N/K blocking.
 *
 * B and C carry explicit leading dimensions (ldb/ldc >= n) so a
 * caller can point b/c at a column block of wider operands and
 * compute just those columns — the seam the P-sharded per-tap GEMMs
 * split on. Each output element still accumulates its own ascending-k
 * sum, so any column split is bit-identical to the whole product.
 *
 * TIn is the operand type, TAcc the accumulator/output type (they
 * differ only for the int8 -> int32 kernel). `pack` must hold
 * packSize() TIn elements.
 */
template <typename TIn, typename TAcc>
static void
blockedGemmImpl(const TIn *a, const TIn *b, TAcc *c, std::size_t m,
                std::size_t k, std::size_t n, std::size_t ldb,
                std::size_t ldc, bool transA, TIn *pack)
{
    if (k == 0) {
        for (std::size_t i = 0; i < m; ++i)
            std::fill(c + i * ldc, c + i * ldc + n, TAcc{});
        return;
    }
    for (std::size_t k0 = 0; k0 < k; k0 += kKc) {
        const std::size_t kb = std::min(kKc, k - k0);
        const bool first = k0 == 0;
        for (std::size_t i0 = 0; i0 < m; i0 += kMr) {
            const std::size_t mr = std::min(kMr, m - i0);
            packA(a, m, k, transA, i0, mr, k0, kb, pack);

            std::size_t j0 = 0;
            for (; j0 + kNr <= n; j0 += kNr) {
                TAcc acc[kMr][kNr];
                for (std::size_t r = 0; r < kMr; ++r)
                    for (std::size_t cx = 0; cx < kNr; ++cx)
                        acc[r][cx] =
                            (!first && r < mr)
                                ? c[(i0 + r) * ldc + j0 + cx]
                                : TAcc{};
                for (std::size_t kk = 0; kk < kb; ++kk) {
                    const TIn *bk = b + (k0 + kk) * ldb + j0;
                    const TIn *ap = pack + kk * kMr;
                    for (std::size_t r = 0; r < kMr; ++r) {
                        const TAcc ar = static_cast<TAcc>(ap[r]);
                        for (std::size_t cx = 0; cx < kNr; ++cx)
                            acc[r][cx] +=
                                ar * static_cast<TAcc>(bk[cx]);
                    }
                }
                for (std::size_t r = 0; r < mr; ++r)
                    for (std::size_t cx = 0; cx < kNr; ++cx)
                        c[(i0 + r) * ldc + j0 + cx] = acc[r][cx];
            }
            // N edge: same per-element ascending-k accumulation.
            for (; j0 < n; ++j0) {
                for (std::size_t r = 0; r < mr; ++r) {
                    TAcc s = first ? TAcc{} : c[(i0 + r) * ldc + j0];
                    for (std::size_t kk = 0; kk < kb; ++kk)
                        s += static_cast<TAcc>(pack[kk * kMr + r]) *
                             static_cast<TAcc>(b[(k0 + kk) * ldb + j0]);
                    c[(i0 + r) * ldc + j0] = s;
                }
            }
        }
    }
}

/**
 * Scalar N-edge of the int8 widening kernels: the same ascending-k
 * int32 sums as the vector tiles, for columns [j0, n) of one packed
 * row block. One definition shared by every GemmS8Fn implementation,
 * so the edge contract cannot drift between ISAs.
 */
static inline void
gemmS8EdgeCols(const std::int8_t *pack, const std::int8_t *b,
               std::int32_t *c, std::size_t i0, std::size_t mr,
               std::size_t j0, std::size_t n, std::size_t k0,
               std::size_t kb, std::size_t ldb, std::size_t ldc,
               bool first)
{
    for (; j0 < n; ++j0) {
        for (std::size_t r = 0; r < mr; ++r) {
            std::int32_t s = first ? 0 : c[(i0 + r) * ldc + j0];
            for (std::size_t kk = 0; kk < kb; ++kk)
                s += static_cast<std::int32_t>(pack[kk * kMr + r]) *
                     static_cast<std::int32_t>(
                         b[(k0 + kk) * ldb + j0]);
            c[(i0 + r) * ldc + j0] = s;
        }
    }
}

/** The k == 0 degenerate case of a GemmS8Fn kernel: C := 0. */
static inline void
gemmS8ZeroC(std::int32_t *c, std::size_t m, std::size_t n,
            std::size_t ldc)
{
    for (std::size_t i = 0; i < m; ++i)
        std::fill(c + i * ldc, c + i * ldc + n, 0);
}

/// Double-precision whole-GEMM entry resolved into the kernel table.
using GemmDFn = void (*)(const double *a, const double *b, double *c,
                         std::size_t m, std::size_t k, std::size_t n,
                         std::size_t ldb, std::size_t ldc, bool transA,
                         double *pack);

/// AVX2+FMA kernel (kernels_avx2.cc); null when not compiled in or
/// the CPU lacks support.
GemmDFn avx2GemmD();

/// NEON kernel (kernels_neon.cc); null off aarch64.
GemmDFn neonGemmD();

/// int8 -> int32 widening entry resolved into the kernel table. The
/// widening call sites never transpose A, so no transA parameter.
using GemmS8Fn = void (*)(const std::int8_t *a, const std::int8_t *b,
                          std::int32_t *c, std::size_t m,
                          std::size_t k, std::size_t n,
                          std::size_t ldb, std::size_t ldc,
                          std::int8_t *pack);

/// AVX2 pairwise-widening kernel (kernels_int8_avx2.cc): operands
/// sign-extend to int16 and vpmaddwd pair-sums into the int32 tile.
/// Null when not compiled in or the CPU lacks AVX2.
GemmS8Fn avx2GemmS8();

/// AVX2 range-gated vpmaddubsw kernel (kernels_int8_avx2.cc): only
/// correct for A operands passing gemmS8PairSafe (the caller's
/// contract). Null when not compiled in or the CPU lacks AVX2.
GemmS8Fn avx2GemmS8Pair();

/// AVX-512 VNNI kernel (kernels_int8_vnni.cc): vpdpbusd on u8 x s8
/// with the packed A operand offset by +128 and a per-row
/// compensation term. Null when not compiled in or the CPU lacks any
/// of AVX2, AVX512F/VL/BW/VNNI (the TU's ISA flags).
GemmS8Fn vnniGemmS8();

/// NEON smull/sadalp widening kernel (kernels_neon.cc); null off
/// aarch64.
GemmS8Fn neonGemmS8();

} // namespace gemm
} // namespace twq

#endif // TWQ_GEMM_KERNELS_HH
