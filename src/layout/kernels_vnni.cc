/**
 * @file
 * AVX-512 VNNI kernels for the quantized NCHWc8 per-tap GEMM (own ISA
 * flags in CMakeLists.txt: AVX512F/VL/BW/VNNI; runtime-gated on all
 * of them). The top layer of the layout::kernels() overlay chain.
 *
 *  - tapGemmU8: the layout-side `vpdpbusd` variant for 8-bit
 *    Winograd-domain operands, on 512-bit vectors. The requantized
 *    taps arrive biased into unsigned range (u + 128), the weights
 *    quad-interleaved ([co][cinp/4][8][4], packed once at
 *    weight-prepare time), and each instruction accumulates FOUR
 *    input channels for sixteen output lanes: one zmm holds output
 *    blocks (co, co+1) x 8 lanes, its weight vector assembled from
 *    the two blocks' 32-byte quad rows. The register tile is 2 output
 *    blocks x kTapPrU8 (8) tiles in 8 accumulators; each (quad, tile)
 *    costs one broadcast of the biased-u8 quad, shared by both
 *    blocks. Odd coutb runs the last block alone in the low half, and
 *    pn % 8 a narrower tile. The bias surplus is the prepare-time
 *    compensation 128 * sum_ic w per output lane, loaded as the
 *    accumulators' negative initial value — `vpdpbusd` keeps full
 *    precision on its 4-product sums, so the result is exactly the
 *    unbiased product.
 *  - tapGemmI16: the pair-interleaved int16 kernel (256-bit vectors)
 *    with `vpdpwssd` fusing the AVX2 version's vpmaddwd+vpaddd into
 *    one instruction; covers the 10-bit configurations the u8 kernel
 *    cannot.
 *
 * Integer sums are order-free: both kernels are bit-identical to
 * their scalar references.
 */

#include "layout/kernels.hh"

#if defined(__AVX512F__) && defined(__AVX512VL__) && \
    defined(__AVX512BW__) && defined(__AVX512VNNI__)

#include <cstring>
#include <immintrin.h>

namespace twq
{
namespace layout
{

namespace
{

constexpr std::size_t B = kLayoutBlock;
static_assert(B == 8, "one 8-lane i32 output block per zmm half");

/// Tiles per register tile of the zmm u8 tap GEMM.
constexpr std::size_t kTapPrU8 = 8;

// The 256-bit halves move through masked forms: GCC 12's unmasked
// insert / extract / zext / cast intrinsics pass an undefined operand
// that trips -Wmaybe-uninitialized.

/// 32 bytes of output block 0 in the low half of a zmm and, for NC ==
/// 2, 32 bytes of block 1 (`stride` bytes on) in the high half; zeros
/// otherwise.
template <std::size_t NC>
inline __m512i
loadBlocks(const void *p, std::size_t stride)
{
    const auto *b = static_cast<const char *>(p);
    const __m512i lo = _mm512_maskz_loadu_epi64(0x0F, b);
    if (NC == 1)
        return lo;
    return _mm512_mask_inserti64x4(
        lo, 0xFF, lo,
        _mm256_loadu_si256(reinterpret_cast<const __m256i *>(b + stride)),
        1);
}

/// The 8 lanes of output block H (0 or 1) of a zmm.
template <int H>
inline __m256i
block(__m512i v)
{
    return _mm512_mask_extracti64x4_epi64(_mm256_setzero_si256(), 0x0F,
                                          v, H);
}

/**
 * m[c][p] = sum over the cinb * 8 input channels of u[ic][p] *
 * w[c][ic] - comp[c] for NC (1 or 2) output blocks, whose weights are
 * wStride bytes apart, and NP (<= 8) tiles; u and m stride `pStride`
 * elements between c-blocks. The accumulators are named variables,
 * not an array: GCC 12 keeps a vpdpbusd accumulator array in memory,
 * storing all of it back every quad.
 */
template <std::size_t NC, std::size_t NP>
inline void
tapTileU8(const std::int8_t *w, std::size_t wStride,
          const std::uint8_t *u, const std::int32_t *comp,
          std::size_t cinb, std::size_t pStride, std::int32_t *m)
{
    static_assert(NP >= 1 && NP <= kTapPrU8);
    const __m512i negComp =
        _mm512_sub_epi32(_mm512_setzero_si512(),
                         loadBlocks<NC>(comp, B * sizeof *comp));
    __m512i a0 = negComp, a1 = negComp, a2 = negComp, a3 = negComp,
            a4 = negComp, a5 = negComp, a6 = negComp, a7 = negComp;
    for (std::size_t cb = 0; cb < cinb; ++cb) {
        // Quads 2cb and 2cb+1 are lanes 0-3 and 4-7 of block cb.
        for (std::size_t h = 0; h < 2; ++h) {
            const std::uint8_t *ub = u + cb * pStride + h * 4;
            const __m512i wv =
                loadBlocks<NC>(w + (2 * cb + h) * 4 * B, wStride);
            const auto dot = [&](std::size_t p, __m512i &acc) {
                if (p < NP) {
                    std::int32_t quad;
                    std::memcpy(&quad, ub + p * B, sizeof quad);
                    acc = _mm512_dpbusd_epi32(
                        acc, _mm512_set1_epi32(quad), wv);
                }
            };
            dot(0, a0), dot(1, a1), dot(2, a2), dot(3, a3);
            dot(4, a4), dot(5, a5), dot(6, a6), dot(7, a7);
        }
    }
    const __m512i acc[] = {a0, a1, a2, a3, a4, a5, a6, a7};
    for (std::size_t p = 0; p < NP; ++p) {
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(m + p * B),
                            block<0>(acc[p]));
        if (NC == 2)
            _mm256_storeu_si256(
                reinterpret_cast<__m256i *>(m + pStride + p * B),
                block<1>(acc[p]));
    }
}

/// tapTileU8 over NC output blocks for the pr (< kTapPrU8) tail tiles.
template <std::size_t NC>
void
tapTileU8Tail(std::size_t pr, const std::int8_t *w, std::size_t wStride,
              const std::uint8_t *u, const std::int32_t *comp,
              std::size_t cinb, std::size_t pStride, std::int32_t *m)
{
    switch (pr) {
      case 1: return tapTileU8<NC, 1>(w, wStride, u, comp, cinb, pStride, m);
      case 2: return tapTileU8<NC, 2>(w, wStride, u, comp, cinb, pStride, m);
      case 3: return tapTileU8<NC, 3>(w, wStride, u, comp, cinb, pStride, m);
      case 4: return tapTileU8<NC, 4>(w, wStride, u, comp, cinb, pStride, m);
      case 5: return tapTileU8<NC, 5>(w, wStride, u, comp, cinb, pStride, m);
      case 6: return tapTileU8<NC, 6>(w, wStride, u, comp, cinb, pStride, m);
      case 7: return tapTileU8<NC, 7>(w, wStride, u, comp, cinb, pStride, m);
    }
}

/// NC output blocks over tile columns [p0, p0 + pn).
template <std::size_t NC>
void
tapBlocksU8(const std::int8_t *w, std::size_t wStride,
            const std::uint8_t *u, const std::int32_t *comp,
            std::int32_t *m, std::size_t cinb, std::size_t P,
            std::size_t p0, std::size_t pn)
{
    const std::size_t pStride = P * B;
    std::size_t p = p0;
    for (; p + kTapPrU8 <= p0 + pn; p += kTapPrU8)
        tapTileU8<NC, kTapPrU8>(w, wStride, u + p * B, comp, cinb,
                                pStride, m + p * B);
    if (p < p0 + pn)
        tapTileU8Tail<NC>(p0 + pn - p, w, wStride, u + p * B, comp,
                          cinb, pStride, m + p * B);
}

void
vnniTapGemmU8(const std::int8_t *w, const std::uint8_t *u,
              const std::int32_t *comp, std::int32_t *m,
              std::size_t coutb, std::size_t cinb, std::size_t P,
              std::size_t p0, std::size_t pn)
{
    const std::size_t wStride = cinb * B * B; // one output block
    std::size_t co = 0;
    for (; co + 2 <= coutb; co += 2)
        tapBlocksU8<2>(w + co * wStride, wStride, u, comp + co * B,
                       m + co * P * B, cinb, P, p0, pn);
    if (co < coutb)
        tapBlocksU8<1>(w + co * wStride, wStride, u, comp + co * B,
                       m + co * P * B, cinb, P, p0, pn);
}

void
vnniTapGemmI16(const std::int16_t *w, const std::int16_t *u,
               std::int32_t *m, std::size_t coutb, std::size_t cinb,
               std::size_t P, std::size_t p0, std::size_t pn)
{
    const std::size_t pairs = cinb * B / 2;
    for (std::size_t co = 0; co < coutb; ++co) {
        const std::int16_t *wt = w + co * pairs * 2 * B;
        for (std::size_t p = p0; p < p0 + pn; p += kTapPr) {
            const std::size_t pr = std::min(kTapPr, p0 + pn - p);
            __m256i acc[kTapPr];
            for (std::size_t pp = 0; pp < pr; ++pp)
                acc[pp] = _mm256_setzero_si256();
            for (std::size_t cp = 0; cp < pairs; ++cp) {
                const std::int16_t *ub =
                    u + ((cp / 4) * P + p) * B + (cp % 4) * 2;
                const __m256i wv = _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(wt +
                                                      cp * 2 * B));
                for (std::size_t pp = 0; pp < pr; ++pp) {
                    std::int32_t pair;
                    std::memcpy(&pair, ub + pp * B, sizeof pair);
                    acc[pp] = _mm256_dpwssd_epi32(
                        acc[pp], _mm256_set1_epi32(pair), wv);
                }
            }
            for (std::size_t pp = 0; pp < pr; ++pp)
                _mm256_storeu_si256(
                    reinterpret_cast<__m256i *>(
                        m + (co * P + p + pp) * B),
                    acc[pp]);
        }
    }
}

} // namespace

LayoutKernels
vnniLayoutKernels()
{
    if (__builtin_cpu_supports("avx2") &&
        __builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512vl") &&
        __builtin_cpu_supports("avx512bw") &&
        __builtin_cpu_supports("avx512vnni")) {
        LayoutKernels k;
        k.tapGemmU8 = &vnniTapGemmU8;
        k.tapGemmI16 = &vnniTapGemmI16;
        k.name = "vnni512";
        return k;
    }
    return {};
}

} // namespace layout
} // namespace twq

#else // !(__AVX512F__ && __AVX512VL__ && __AVX512BW__ && __AVX512VNNI__)

namespace twq
{
namespace layout
{

LayoutKernels
vnniLayoutKernels()
{
    return {};
}

} // namespace layout
} // namespace twq

#endif
