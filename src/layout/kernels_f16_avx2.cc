/**
 * @file
 * F16C + AVX2 + FMA kernels for the half-precision blocked Winograd
 * engine. This TU is compiled with -mavx2 -mfma -mf16c (see
 * CMakeLists.txt) on x86-64 and selected at runtime only when the CPU
 * reports all three features.
 *
 * The 8-wide c-block is exactly one ymm of floats, so the tap-GEMM
 * holds an 8-tile x 8 accumulator block in eight ymm registers, widens
 * each 8-half weight vector with a single `vcvtph2ps`, and broadcasts
 * U elements — half the weight-side bytes of the double kernel per
 * fused multiply-add. Narrowing uses `vcvtps2ph` with an explicit
 * round-to-nearest-even immediate, so results do not depend on MXCSR
 * state and match the software half exactly.
 */

#include "layout/kernels_f16.hh"

#if defined(__AVX2__) && defined(__FMA__) && defined(__F16C__)

#include <immintrin.h>

namespace twq
{
namespace layout
{

namespace
{

constexpr int kRne = _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC;

void
avx2Widen(const std::uint16_t *src, float *dst, std::size_t len)
{
    std::size_t i = 0;
    for (; i + 8 <= len; i += 8)
        _mm256_storeu_ps(
            dst + i,
            _mm256_cvtph_ps(_mm_loadu_si128(
                reinterpret_cast<const __m128i *>(src + i))));
    for (; i < len; ++i)
        dst[i] = softHalfToFloat(src[i]);
}

void
avx2Narrow(const float *src, std::uint16_t *dst, std::size_t len)
{
    std::size_t i = 0;
    for (; i + 8 <= len; i += 8)
        _mm_storeu_si128(
            reinterpret_cast<__m128i *>(dst + i),
            _mm256_cvtps_ph(_mm256_loadu_ps(src + i), kRne));
    for (; i < len; ++i)
        dst[i] = softFloatToHalf(src[i]);
}

/**
 * One PR x 8 accumulator block of the f16 tap-GEMM: output channel
 * block `wt`, tile columns [p, p + PR). PR is a compile-time count so
 * the accumulators stay in registers.
 */
template <std::size_t PR>
inline void
tapBlockF16(const std::uint16_t *wt, const float *u, float *m,
            std::size_t cinb, std::size_t P, std::size_t p)
{
    constexpr std::size_t B = kLayoutBlock;
    __m256 acc[PR];
    for (std::size_t pp = 0; pp < PR; ++pp)
        acc[pp] = _mm256_setzero_ps();
    for (std::size_t cbi = 0; cbi < cinb; ++cbi) {
        const float *ub = u + (cbi * P + p) * B;
        const std::uint16_t *wb = wt + cbi * B * B;
        for (std::size_t li = 0; li < B; ++li) {
            const __m256 w8 = _mm256_cvtph_ps(_mm_loadu_si128(
                reinterpret_cast<const __m128i *>(wb + li * B)));
            for (std::size_t pp = 0; pp < PR; ++pp)
                acc[pp] = _mm256_fmadd_ps(
                    _mm256_set1_ps(ub[pp * B + li]), w8, acc[pp]);
        }
    }
    for (std::size_t pp = 0; pp < PR; ++pp)
        _mm256_storeu_ps(m + (p + pp) * B, acc[pp]);
}

/**
 * Eight independent accumulators per block: with one ymm per tile,
 * four FMA chains left the kernel latency-bound. Every element still
 * accumulates in ascending input-channel order, so the block width
 * (8, then 4 and 1 for the remainder) never changes a result.
 */
void
avx2TapGemmF16(const std::uint16_t *w, const float *u, float *m,
               std::size_t coutb, std::size_t cinb, std::size_t P,
               std::size_t p0, std::size_t pn)
{
    constexpr std::size_t B = kLayoutBlock;
    static_assert(B == 8, "tap kernel assumes one 8-wide ps vector");
    const std::size_t cinp = cinb * B;
    const std::size_t pe = p0 + pn;
    for (std::size_t co = 0; co < coutb; ++co) {
        const std::uint16_t *wt = w + co * cinp * B;
        float *mc = m + co * P * B;
        std::size_t p = p0;
        for (; p + 8 <= pe; p += 8)
            tapBlockF16<8>(wt, u, mc, cinb, P, p);
        for (; p + 4 <= pe; p += 4)
            tapBlockF16<4>(wt, u, mc, cinb, P, p);
        for (; p < pe; ++p)
            tapBlockF16<1>(wt, u, mc, cinb, P, p);
    }
}

using TermF = WinoKronPlan<float>::Term;

/*
 * The fused fp32 transforms on half storage follow the fp64 kernels of
 * kernels_avx2.cc: each tile is staged as a contiguous [t][t][8] block
 * (widened from binary16 on the way in), and every pass updates a
 * whole row of t vectors per plan term, so one term decode feeds t
 * independent FMA chains held in registers. Each element sees its
 * terms in plan order — a multiply, then one FMA per term — which is
 * the soft reference's schedule, so results match it bit for bit.
 */

/**
 * acc[v] = sum over the terms [tb, te) of coeff * (8 floats at
 * x + in * STRIDE + v * OUTER), for N vectors. An empty term range
 * yields zeros.
 */
template <std::size_t N, std::size_t STRIDE, std::size_t OUTER>
inline void
sepPassF(const TermF *tb, const TermF *te, const float *x,
         __m256 (&acc)[N])
{
    if (tb == te) {
        for (std::size_t v = 0; v < N; ++v)
            acc[v] = _mm256_setzero_ps();
        return;
    }
    {
        const __m256 c = _mm256_broadcast_ss(&tb->coeff);
        const float *p = x + tb->in * STRIDE;
        for (std::size_t v = 0; v < N; ++v)
            acc[v] = _mm256_mul_ps(c, _mm256_loadu_ps(p + v * OUTER));
    }
    for (++tb; tb != te; ++tb) {
        const __m256 c = _mm256_broadcast_ss(&tb->coeff);
        const float *p = x + tb->in * STRIDE;
        for (std::size_t v = 0; v < N; ++v)
            acc[v] = _mm256_fmadd_ps(c, _mm256_loadu_ps(p + v * OUTER),
                                     acc[v]);
    }
}

/// Fused fp32 input transform on half storage for tile edge T.
template <std::size_t T>
void
winoInputTF16(const WinoKronPlan<float> &bt, const TileRow &r,
              const std::uint16_t *plane, float *u)
{
    constexpr std::size_t B = kLayoutBlock;
    alignas(32) float stage[T * T * B]; // d     [a][b][8]
    alignas(32) float tmp[T * T * B];   // d B   [a][j][8]
    const TermF *terms = bt.terms.data();
    const std::uint32_t *rs = bt.rowStart.data();
    const auto h = static_cast<std::ptrdiff_t>(r.h);
    const auto w = static_cast<std::ptrdiff_t>(r.w);
    const auto tt = static_cast<std::ptrdiff_t>(T);
    for (std::size_t i = 0; i < r.tiles; ++i) {
        const std::ptrdiff_t xs =
            r.x0 + static_cast<std::ptrdiff_t>(i * r.m);
        for (std::ptrdiff_t a = 0; a < tt; ++a) {
            const std::ptrdiff_t y = r.y0 + a;
            const bool yin = y >= 0 && y < h;
            const std::uint16_t *row = plane + (yin ? y : 0) * w * B;
            for (std::ptrdiff_t b = 0; b < tt; ++b) {
                const std::ptrdiff_t x = xs + b;
                _mm256_store_ps(
                    stage + (a * tt + b) * B,
                    yin && x >= 0 && x < w
                        ? _mm256_cvtph_ps(_mm_loadu_si128(
                              reinterpret_cast<const __m128i *>(
                                  row + x * B)))
                        : _mm256_setzero_ps());
            }
        }
        // Row pass: tmp[a][j] = sum_b B^T[j][b] d[a][b].
        for (std::size_t j = 0; j < T; ++j) {
            __m256 acc[T];
            sepPassF<T, B, T * B>(terms + rs[j], terms + rs[j + 1],
                                  stage, acc);
            for (std::size_t a = 0; a < T; ++a)
                _mm256_store_ps(tmp + (a * T + j) * B, acc[a]);
        }
        // Column pass: U[k][j] = sum_a B^T[k][a] tmp[a][j].
        for (std::size_t k = 0; k < T; ++k) {
            __m256 acc[T];
            sepPassF<T, T * B, B>(terms + rs[k], terms + rs[k + 1], tmp,
                                  acc);
            for (std::size_t j = 0; j < T; ++j)
                _mm256_storeu_ps(u + (k * T + j) * r.tapStride + i * B,
                                 acc[j]);
        }
    }
}

/**
 * Fused fp32 output transform on half storage for tile edge T: the
 * fp32 epilogue (vaddps, vmaxps with zero first) and one vcvtps2ph
 * RNE narrowing per written pixel.
 */
template <std::size_t T>
void
winoOutputTF16(const WinoKronPlan<float> &at, const TileRow &r,
               const float *mIn, std::uint16_t *plane,
               const float *bias8, bool relu)
{
    constexpr std::size_t B = kLayoutBlock;
    constexpr std::size_t M = T - 2;
    alignas(32) float stage[T * T * B]; // m     [a][b][8]
    alignas(32) float tmp[T * M * B];   // m A   [a][j2][8]
    const TermF *terms = at.terms.data();
    const std::uint32_t *rs = at.rowStart.data();
    const auto y0 = static_cast<std::size_t>(r.y0);
    const std::size_t rows = std::min(M, r.h - y0);
    const __m256 z = _mm256_setzero_ps();
    const __m256 bv = bias8 ? _mm256_loadu_ps(bias8) : z;
    for (std::size_t i = 0; i < r.tiles; ++i) {
        for (std::size_t k = 0; k < T * T; ++k)
            _mm256_store_ps(stage + k * B,
                            _mm256_loadu_ps(mIn + k * r.tapStride + i * B));
        // Row pass: tmp[a][j2] = sum_b A^T[j2][b] m[a][b].
        for (std::size_t j2 = 0; j2 < M; ++j2) {
            __m256 acc[T];
            sepPassF<T, B, T * B>(terms + rs[j2], terms + rs[j2 + 1],
                                  stage, acc);
            for (std::size_t a = 0; a < T; ++a)
                _mm256_store_ps(tmp + (a * M + j2) * B, acc[a]);
        }
        // Column pass + epilogue, in-range pixels only.
        const std::size_t x = static_cast<std::size_t>(r.x0) + i * r.m;
        const std::size_t cols = std::min(M, r.w - x);
        for (std::size_t j1 = 0; j1 < rows; ++j1) {
            __m256 acc[M];
            sepPassF<M, M * B, B>(terms + rs[j1], terms + rs[j1 + 1],
                                  tmp, acc);
            for (std::size_t j2 = 0; j2 < cols; ++j2) {
                __m256 v = acc[j2];
                if (bias8)
                    v = _mm256_add_ps(v, bv);
                if (relu)
                    v = _mm256_max_ps(z, v);
                _mm_storeu_si128(
                    reinterpret_cast<__m128i *>(
                        plane + ((y0 + j1) * r.w + x + j2) * B),
                    _mm256_cvtps_ph(v, kRne));
            }
        }
    }
}

void
avx2WinoInputF16(const WinoKronPlan<float> &bt, const TileRow &r,
                 const std::uint16_t *plane, float *u)
{
    withTileEdge(bt.rowsIn, [&](auto t) {
        winoInputTF16<decltype(t)::value>(bt, r, plane, u);
    });
}

void
avx2WinoOutputF16(const WinoKronPlan<float> &at, const TileRow &r,
                  const float *mIn, std::uint16_t *plane,
                  const float *bias8, bool relu)
{
    withTileEdge(at.rowsIn, [&](auto t) {
        winoOutputTF16<decltype(t)::value>(at, r, mIn, plane, bias8,
                                           relu);
    });
}

} // namespace

F16Kernels
avx2F16Kernels()
{
    if (__builtin_cpu_supports("avx2") &&
        __builtin_cpu_supports("fma") &&
        __builtin_cpu_supports("f16c")) {
        F16Kernels k;
        k.widen = &avx2Widen;
        k.narrow = &avx2Narrow;
        k.tapGemm = &avx2TapGemmF16;
        k.winoInput = &avx2WinoInputF16;
        k.winoOutput = &avx2WinoOutputF16;
        k.name = "avx2-f16c";
        return k;
    }
    return {};
}

} // namespace layout
} // namespace twq

#else // !(__AVX2__ && __FMA__ && __F16C__)

namespace twq
{
namespace layout
{

F16Kernels
avx2F16Kernels()
{
    return {};
}

} // namespace layout
} // namespace twq

#endif
