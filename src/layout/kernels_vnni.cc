/**
 * @file
 * AVX-512 VNNI kernels for the quantized NCHWc8 per-tap GEMM
 * (256-bit vectors, requiring AVX512VL + AVX512VNNI; own ISA flags in
 * CMakeLists.txt, runtime-gated). The top layer of the
 * layout::kernels() overlay chain.
 *
 *  - tapGemmU8: the layout-side `vpdpbusd` variant for 8-bit
 *    Winograd-domain operands. The requantized taps arrive biased
 *    into unsigned range (u + 128), the weights quad-interleaved
 *    ([co][cinp/4][8][4], packed once at weight-prepare time), and
 *    each instruction accumulates FOUR input channels for all eight
 *    output lanes. The bias surplus is the prepare-time compensation
 *    128 * sum_ic w per output lane, loaded as the accumulators'
 *    negative initial value — `vpdpbusd` keeps full precision on its
 *    4-product sums, so the result is exactly the unbiased product.
 *  - tapGemmI16: the pair-interleaved int16 kernel with `vpdpwssd`
 *    fusing the AVX2 version's vpmaddwd+vpaddd into one instruction;
 *    covers the 10-bit configurations the u8 kernel cannot.
 *
 * Integer sums are order-free: both kernels are bit-identical to
 * their scalar references.
 */

#include "layout/kernels.hh"

#if defined(__AVX512VNNI__) && defined(__AVX512VL__)

#include <cstring>
#include <immintrin.h>

namespace twq
{
namespace layout
{

namespace
{

void
vnniTapGemmU8(const std::int8_t *w, const std::uint8_t *u,
              const std::int32_t *comp, std::int32_t *m,
              std::size_t coutb, std::size_t cinb, std::size_t P,
              std::size_t p0, std::size_t pn)
{
    constexpr std::size_t B = kLayoutBlock;
    static_assert(B == 8, "tap kernel assumes one 8-lane i32 vector");
    const std::size_t quads = cinb * B / 4;
    const __m256i zero = _mm256_setzero_si256();
    for (std::size_t co = 0; co < coutb; ++co) {
        const std::int8_t *wt = w + co * quads * 4 * B;
        const __m256i negComp = _mm256_sub_epi32(
            zero, _mm256_loadu_si256(
                      reinterpret_cast<const __m256i *>(comp +
                                                        co * B)));
        for (std::size_t p = p0; p < p0 + pn; p += kTapPr) {
            const std::size_t pr = std::min(kTapPr, p0 + pn - p);
            __m256i acc[kTapPr];
            for (std::size_t pp = 0; pp < pr; ++pp)
                acc[pp] = negComp;
            for (std::size_t q = 0; q < quads; ++q) {
                const std::uint8_t *ub =
                    u + ((q / 2) * P + p) * B + (q % 2) * 4;
                const __m256i wv = _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(wt +
                                                      q * 4 * B));
                for (std::size_t pp = 0; pp < pr; ++pp) {
                    std::int32_t quad;
                    std::memcpy(&quad, ub + pp * B, sizeof quad);
                    acc[pp] = _mm256_dpbusd_epi32(
                        acc[pp], _mm256_set1_epi32(quad), wv);
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

void
vnniTapGemmI16(const std::int16_t *w, const std::int16_t *u,
               std::int32_t *m, std::size_t coutb, std::size_t cinb,
               std::size_t P, std::size_t p0, std::size_t pn)
{
    constexpr std::size_t B = kLayoutBlock;
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
    if (__builtin_cpu_supports("avx512vnni") &&
        __builtin_cpu_supports("avx512vl")) {
        LayoutKernels k;
        k.tapGemmU8 = &vnniTapGemmU8;
        k.tapGemmI16 = &vnniTapGemmI16;
        k.name = "vnni";
        return k;
    }
    return {};
}

} // namespace layout
} // namespace twq

#else // !(__AVX512VNNI__ && __AVX512VL__)

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
