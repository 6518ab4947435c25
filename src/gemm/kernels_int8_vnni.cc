/**
 * @file
 * AVX-512 VNNI int8 -> int32 micro-kernel (`vpdpbusd` on 256-bit
 * vectors). This TU carries its own ISA flags (AVX2 and AVX512F/VL/
 * BW/VNNI, see CMakeLists.txt) and is selected at runtime only when
 * the CPU reports every one of them.
 *
 * `vpdpbusd` multiplies groups of four UNSIGNED bytes with four
 * signed bytes and accumulates the exact 4-product sum into int32 —
 * no int16 saturation stage, unlike `vpmaddubsw`. Our operands are
 * both signed, so the kernel uses the u8 x s8 offsetting trick: the B
 * operand is biased into unsigned range on the fly (b + 128, one XOR
 * with 0x80 per vector since (x + 128) mod 256 flips the sign bit),
 * the packed A panel stays signed as the broadcast operand, and the
 * surplus it introduces —
 *
 *     sum_k (b[k][j] + 128) * a[r][k]
 *         = sum_k b[k][j] * a[r][k] + 128 * sum_k a[r][k]
 *
 * — is removed by subtracting the per-row compensation
 * 128 * sum_k a[r][k], computed from the packed panel (k x 4 bytes)
 * and applied before the tile is stored, once per K panel, so partial
 * sums carried through C between panels are always exact. Intermediate
 * magnitudes stay below 2^31 for k <= 2^16 (asserted at the entry
 * point). K tails shorter than a quad pad the BROADCAST operand with
 * zero bytes, so the biased B lanes they face contribute 128 * 0 = 0.
 */

#include "gemm/kernels.hh"

#if defined(__AVX512F__) && defined(__AVX512VL__) && \
    defined(__AVX512BW__) && defined(__AVX512VNNI__)

#include <immintrin.h>

namespace twq
{
namespace gemm
{

namespace
{

/// Four packed A bytes (zero-padded past `live`) as one broadcastable
/// 32-bit lane, plus their sum for the compensation term.
inline int
packQuad(const std::int8_t *ap, std::size_t stride, std::size_t live,
         std::int32_t *sum)
{
    std::uint32_t quad = 0;
    for (std::size_t q = 0; q < 4; ++q) {
        const std::int8_t v = q < live ? ap[q * stride] : 0;
        quad |= static_cast<std::uint32_t>(
                    static_cast<std::uint8_t>(v))
                << (8 * q);
        *sum += v;
    }
    return static_cast<int>(quad);
}

void
vnniGemmS8Impl(const std::int8_t *a, const std::int8_t *b,
               std::int32_t *c, std::size_t m, std::size_t k,
               std::size_t n, std::size_t ldb, std::size_t ldc,
               std::int8_t *pack)
{
    if (k == 0) {
        gemmS8ZeroC(c, m, n, ldc);
        return;
    }
    constexpr std::size_t kNc = 16; // int32 columns per vector tile
    const __m128i bias = _mm_set1_epi8(static_cast<char>(0x80));
    for (std::size_t k0 = 0; k0 < k; k0 += kKc) {
        const std::size_t kb = std::min(kKc, k - k0);
        const bool first = k0 == 0;
        for (std::size_t i0 = 0; i0 < m; i0 += kMr) {
            const std::size_t mr = std::min(kMr, m - i0);
            packA(a, m, k, /*transA=*/false, i0, mr, k0, kb, pack);

            // Broadcast quads + per-row compensation assembled once
            // per panel — they depend only on the packed panel, not
            // the column tile. K tails shorter than a quad pad the
            // broadcast with zero bytes, so the biased B lanes they
            // face contribute 128 * 0 = 0.
            const std::size_t quads = (kb + 3) / 4;
            int aquad[kKc / 4][kMr];
            std::int32_t comp[kMr] = {0, 0, 0, 0};
            for (std::size_t q = 0; q < quads; ++q) {
                const std::size_t live =
                    std::min<std::size_t>(4, kb - 4 * q);
                for (std::size_t r = 0; r < kMr; ++r)
                    aquad[q][r] = packQuad(pack + 4 * q * kMr + r,
                                           kMr, live, &comp[r]);
            }

            std::size_t j0 = 0;
            for (; j0 + kNc <= n; j0 += kNc) {
                __m256i acc[kMr][2];
                for (std::size_t r = 0; r < kMr; ++r) {
                    if (!first && r < mr) {
                        const std::int32_t *cr =
                            c + (i0 + r) * ldc + j0;
                        acc[r][0] = _mm256_loadu_si256(
                            reinterpret_cast<const __m256i *>(cr));
                        acc[r][1] = _mm256_loadu_si256(
                            reinterpret_cast<const __m256i *>(cr + 8));
                    } else {
                        acc[r][0] = _mm256_setzero_si256();
                        acc[r][1] = _mm256_setzero_si256();
                    }
                }
                for (std::size_t qi = 0; qi < quads; ++qi) {
                    const std::size_t kk = 4 * qi;
                    const std::size_t live = std::min<std::size_t>(
                        4, kb - kk);
                    // Interleave four B rows into per-column quads
                    // (missing tail rows read as zero: their biased
                    // lanes meet zero A bytes).
                    const std::int8_t *brow =
                        b + (k0 + kk) * ldb + j0;
                    __m128i rows[4];
                    for (std::size_t q = 0; q < 4; ++q)
                        rows[q] =
                            q < live
                                ? _mm_loadu_si128(
                                      reinterpret_cast<const __m128i
                                                           *>(
                                          brow + q * ldb))
                                : _mm_setzero_si128();
                    const __m128i r01lo =
                        _mm_unpacklo_epi8(rows[0], rows[1]);
                    const __m128i r01hi =
                        _mm_unpackhi_epi8(rows[0], rows[1]);
                    const __m128i r23lo =
                        _mm_unpacklo_epi8(rows[2], rows[3]);
                    const __m128i r23hi =
                        _mm_unpackhi_epi8(rows[2], rows[3]);
                    const __m128i q0 = _mm_xor_si128(
                        _mm_unpacklo_epi16(r01lo, r23lo), bias);
                    const __m128i q1 = _mm_xor_si128(
                        _mm_unpackhi_epi16(r01lo, r23lo), bias);
                    const __m128i q2 = _mm_xor_si128(
                        _mm_unpacklo_epi16(r01hi, r23hi), bias);
                    const __m128i q3 = _mm_xor_si128(
                        _mm_unpackhi_epi16(r01hi, r23hi), bias);
                    const __m256i bq0 = _mm256_set_m128i(q1, q0);
                    const __m256i bq1 = _mm256_set_m128i(q3, q2);
                    for (std::size_t r = 0; r < kMr; ++r) {
                        const __m256i av =
                            _mm256_set1_epi32(aquad[qi][r]);
                        acc[r][0] =
                            _mm256_dpbusd_epi32(acc[r][0], bq0, av);
                        acc[r][1] =
                            _mm256_dpbusd_epi32(acc[r][1], bq1, av);
                    }
                }
                for (std::size_t r = 0; r < mr; ++r) {
                    const __m256i cv =
                        _mm256_set1_epi32(128 * comp[r]);
                    std::int32_t *cr = c + (i0 + r) * ldc + j0;
                    _mm256_storeu_si256(
                        reinterpret_cast<__m256i *>(cr),
                        _mm256_sub_epi32(acc[r][0], cv));
                    _mm256_storeu_si256(
                        reinterpret_cast<__m256i *>(cr + 8),
                        _mm256_sub_epi32(acc[r][1], cv));
                }
            }
            gemmS8EdgeCols(pack, b, c, i0, mr, j0, n, k0, kb, ldb,
                           ldc, first);
        }
    }
}

} // namespace

GemmS8Fn
vnniGemmS8()
{
    if (__builtin_cpu_supports("avx2") &&
        __builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512vl") &&
        __builtin_cpu_supports("avx512bw") &&
        __builtin_cpu_supports("avx512vnni"))
        return &vnniGemmS8Impl;
    return nullptr;
}

} // namespace gemm
} // namespace twq

#else // !(__AVX512F__ && __AVX512VL__ && __AVX512BW__ && __AVX512VNNI__)

namespace twq
{
namespace gemm
{

GemmS8Fn
vnniGemmS8()
{
    return nullptr;
}

} // namespace gemm
} // namespace twq

#endif
