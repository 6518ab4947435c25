/**
 * @file
 * AVX-512F kernels for the fp64 NCHWc8 blocked Winograd passes. This
 * TU is compiled with -mavx512f (see CMakeLists.txt) on x86-64 and
 * selected at runtime only when the CPU reports avx512f; kernels()
 * overlays its entries on the AVX2 table.
 *
 * One 8-lane fp64 c-block (64 bytes) is exactly one zmm register:
 *
 *  - tapGemm holds a register tile of 2 output blocks x kTapPr512 (8)
 *    tiles — 16 accumulators fed, per input channel, by 2 weight
 *    loads and 8 broadcasts of U. Odd coutb runs a 1-block tile and
 *    pn % 8 a narrower one.
 *  - winoInputD / winoOutputD run the AVX2 kernels' separable
 *    schedule with one zmm per tap vector, so even F6 (t = 8) keeps a
 *    whole row of the tile in registers. Edge tiles are staged with
 *    whole-vector moves.
 *
 * Every element sees its terms in the scalar references' order: the
 * tap GEMM one FMA per input channel onto a zero accumulator in
 * ascending-channel order, the transforms a multiply for the first
 * plan term and one FMA per later term. The results are bit-identical
 * to scalarTapGemmD / scalarWinoInputD / scalarWinoOutputD, and so to
 * the AVX2 kernels.
 */

#include "layout/kernels.hh"

#if defined(__AVX512F__)

#include <immintrin.h>

namespace twq
{
namespace layout
{

namespace
{

constexpr std::size_t B = kLayoutBlock;
static_assert(B == 8, "the zmm kernels hold one c-block per register");

/// Tiles per register tile of the zmm tap GEMM.
constexpr std::size_t kTapPr512 = 8;

/**
 * m[c][p] = sum over the cinb * 8 input channels of w[c][ic] *
 * u[ic][p] for NC output blocks (weights wStride apart) and NP tiles,
 * with u and m strided by `pStride` elements between c-blocks.
 */
template <std::size_t NC, std::size_t NP>
inline void
tapTile(const double *w, std::size_t wStride, const double *u,
        std::size_t cinb, std::size_t pStride, double *m)
{
    __m512d acc[NC][NP];
    for (std::size_t c = 0; c < NC; ++c)
        for (std::size_t p = 0; p < NP; ++p)
            acc[c][p] = _mm512_setzero_pd();
    for (std::size_t cbi = 0; cbi < cinb; ++cbi) {
        const double *ub = u + cbi * pStride;
        const double *wb = w + cbi * B * B;
        for (std::size_t li = 0; li < B; ++li) {
            __m512d wv[NC];
            for (std::size_t c = 0; c < NC; ++c)
                wv[c] = _mm512_loadu_pd(wb + c * wStride + li * B);
            for (std::size_t p = 0; p < NP; ++p) {
                const __m512d uv = _mm512_set1_pd(ub[p * B + li]);
                for (std::size_t c = 0; c < NC; ++c)
                    acc[c][p] = _mm512_fmadd_pd(uv, wv[c], acc[c][p]);
            }
        }
    }
    for (std::size_t c = 0; c < NC; ++c)
        for (std::size_t p = 0; p < NP; ++p)
            _mm512_storeu_pd(m + c * pStride + p * B, acc[c][p]);
}

/// tapTile over NC output blocks for the pr (< kTapPr512) tail tiles.
template <std::size_t NC>
void
tapTileTail(std::size_t pr, const double *w, std::size_t wStride,
            const double *u, std::size_t cinb, std::size_t pStride,
            double *m)
{
    switch (pr) {
      case 1: return tapTile<NC, 1>(w, wStride, u, cinb, pStride, m);
      case 2: return tapTile<NC, 2>(w, wStride, u, cinb, pStride, m);
      case 3: return tapTile<NC, 3>(w, wStride, u, cinb, pStride, m);
      case 4: return tapTile<NC, 4>(w, wStride, u, cinb, pStride, m);
      case 5: return tapTile<NC, 5>(w, wStride, u, cinb, pStride, m);
      case 6: return tapTile<NC, 6>(w, wStride, u, cinb, pStride, m);
      case 7: return tapTile<NC, 7>(w, wStride, u, cinb, pStride, m);
    }
}

/// NC output blocks over tile columns [p0, p0 + pn).
template <std::size_t NC>
void
tapBlocks(const double *w, std::size_t wStride, const double *u,
          double *m, std::size_t cinb, std::size_t P, std::size_t p0,
          std::size_t pn)
{
    const std::size_t pStride = P * B;
    std::size_t p = p0;
    for (; p + kTapPr512 <= p0 + pn; p += kTapPr512)
        tapTile<NC, kTapPr512>(w, wStride, u + p * B, cinb, pStride,
                               m + p * B);
    if (p < p0 + pn)
        tapTileTail<NC>(p0 + pn - p, w, wStride, u + p * B, cinb,
                        pStride, m + p * B);
}

void
avx512TapGemmD(const double *w, const double *u, double *m,
               std::size_t coutb, std::size_t cinb, std::size_t P,
               std::size_t p0, std::size_t pn)
{
    const std::size_t wStride = cinb * B * B; // one output block
    std::size_t co = 0;
    for (; co + 2 <= coutb; co += 2)
        tapBlocks<2>(w + co * wStride, wStride, u, m + co * P * B, cinb,
                     P, p0, pn);
    if (co < coutb)
        tapBlocks<1>(w + co * wStride, wStride, u, m + co * P * B, cinb,
                     P, p0, pn);
}

using TermD = WinoKronPlan<double>::Term;

/**
 * acc[v] = sum over the terms [tb, te) of coeff * (8 doubles at
 * x + in * STRIDE + v * OUTER), for N vectors: a multiply for the
 * first term, one FMA per later term. An empty range yields zeros.
 */
template <std::size_t N, std::size_t STRIDE, std::size_t OUTER>
inline void
sepPass512(const TermD *tb, const TermD *te, const double *x,
           __m512d (&acc)[N])
{
    if (tb == te) {
        for (std::size_t v = 0; v < N; ++v)
            acc[v] = _mm512_setzero_pd();
        return;
    }
    {
        const __m512d c = _mm512_set1_pd(tb->coeff);
        const double *p = x + tb->in * STRIDE;
        for (std::size_t v = 0; v < N; ++v)
            acc[v] = _mm512_mul_pd(c, _mm512_loadu_pd(p + v * OUTER));
    }
    for (++tb; tb != te; ++tb) {
        const __m512d c = _mm512_set1_pd(tb->coeff);
        const double *p = x + tb->in * STRIDE;
        for (std::size_t v = 0; v < N; ++v)
            acc[v] = _mm512_fmadd_pd(c, _mm512_loadu_pd(p + v * OUTER),
                                     acc[v]);
    }
}

/**
 * One transform pass over a staged tile: for every output index o of
 * the plan, out[o][r] = sum over the terms of row o of coeff * x[in][r]
 * for all R rows r, with x[in][r] at x + in * STRIDE + r * OUTER.
 * `store(o, r, v)` receives each result vector.
 */
template <std::size_t R, std::size_t STRIDE, std::size_t OUTER,
          typename Store>
inline void
sepTile512(const WinoKronPlan<double> &plan, std::size_t outs,
           const double *x, Store store)
{
    const TermD *terms = plan.terms.data();
    const std::uint32_t *rs = plan.rowStart.data();
    for (std::size_t o = 0; o < outs; ++o) {
        __m512d acc[R];
        sepPass512<R, STRIDE, OUTER>(terms + rs[o], terms + rs[o + 1], x,
                                     acc);
        for (std::size_t r = 0; r < R; ++r)
            store(o, r, acc[r]);
    }
}

/**
 * Copy the T x T window at plane coordinates (y, x) into a contiguous
 * [T][T][8] stage, one zmm per pixel, zero outside the plane.
 */
template <std::size_t T>
inline void
stageTile512(const double *plane, std::ptrdiff_t h, std::ptrdiff_t w,
             std::ptrdiff_t y, std::ptrdiff_t x, double *stage)
{
    const auto tt = static_cast<std::ptrdiff_t>(T);
    const __m512d z = _mm512_setzero_pd();
    const bool xin = x >= 0 && x + tt <= w; // interior columns
    for (std::ptrdiff_t a = 0; a < tt; ++a) {
        double *dst = stage + a * tt * B;
        const std::ptrdiff_t yy = y + a;
        if (yy < 0 || yy >= h) {
            for (std::ptrdiff_t b = 0; b < tt; ++b)
                _mm512_store_pd(dst + b * B, z);
            continue;
        }
        const double *row = plane + yy * w * B;
        for (std::ptrdiff_t b = 0; b < tt; ++b) {
            const std::ptrdiff_t xx = x + b;
            _mm512_store_pd(dst + b * B,
                            xin || (xx >= 0 && xx < w)
                                ? _mm512_loadu_pd(row + xx * B)
                                : z);
        }
    }
}

/// Fused fp64 input transform for tile edge T (layout::WinoInputDFn).
template <std::size_t T>
void
winoInputT512(const WinoKronPlan<double> &bt, const TileRow &r,
              const double *plane, double *u)
{
    alignas(64) double stage[T * T * B]; // d     [a][b][8]
    alignas(64) double tmp[T * T * B];   // d B   [a][j][8]
    for (std::size_t i = 0; i < r.tiles; ++i) {
        stageTile512<T>(plane, static_cast<std::ptrdiff_t>(r.h),
                        static_cast<std::ptrdiff_t>(r.w), r.y0,
                        r.x0 + static_cast<std::ptrdiff_t>(i * r.m),
                        stage);
        // Row pass: tmp[a][j] = sum_b B^T[j][b] d[a][b].
        sepTile512<T, B, T * B>(
            bt, T, stage, [&](std::size_t j, std::size_t a, __m512d v) {
                _mm512_store_pd(tmp + (a * T + j) * B, v);
            });
        // Column pass: U[k][j] = sum_a B^T[k][a] tmp[a][j].
        double *ui = u + i * B;
        sepTile512<T, T * B, B>(
            bt, T, tmp, [&](std::size_t k, std::size_t j, __m512d v) {
                _mm512_storeu_pd(ui + (k * T + j) * r.tapStride, v);
            });
    }
}

/// Fused fp64 output transform for tile edge T (layout::WinoOutputDFn).
template <std::size_t T>
void
winoOutputT512(const WinoKronPlan<double> &at, const TileRow &r,
               const double *mIn, double *plane, const double *bias8,
               bool relu)
{
    constexpr std::size_t M = T - 2;
    alignas(64) double stage[T * T * B]; // m     [a][b][8]
    alignas(64) double tmp[T * M * B];   // m A   [a][j2][8]
    const auto y0 = static_cast<std::size_t>(r.y0);
    const std::size_t rows = std::min(M, r.h - y0);
    const __m512d z = _mm512_setzero_pd();
    const __m512d bv = bias8 ? _mm512_loadu_pd(bias8) : z;
    for (std::size_t i = 0; i < r.tiles; ++i) {
        for (std::size_t k = 0; k < T * T; ++k)
            _mm512_store_pd(stage + k * B,
                            _mm512_loadu_pd(mIn + k * r.tapStride + i * B));
        // Row pass: tmp[a][j2] = sum_b A^T[j2][b] m[a][b].
        sepTile512<T, B, T * B>(
            at, M, stage, [&](std::size_t j2, std::size_t a, __m512d v) {
                _mm512_store_pd(tmp + (a * M + j2) * B, v);
            });
        // Column pass + epilogue: y[j1][j2] = sum_a A^T[j1][a]
        // tmp[a][j2]; in-range pixels only.
        const std::size_t x = static_cast<std::size_t>(r.x0) + i * r.m;
        const std::size_t cols = std::min(M, r.w - x);
        sepTile512<M, M * B, B>(
            at, rows, tmp, [&](std::size_t j1, std::size_t j2, __m512d v) {
                if (j2 >= cols)
                    return;
                if (bias8)
                    v = _mm512_add_pd(v, bv);
                // vmaxpd with zero first: -0.0 and NaN pass through,
                // exactly `s < 0 ? 0 : s`. The all-lanes mask form is
                // the same instruction without the unmasked
                // intrinsic's undefined pass-through operand.
                if (relu)
                    v = _mm512_maskz_max_pd(0xFF, z, v);
                _mm512_storeu_pd(plane + ((y0 + j1) * r.w + x + j2) * B,
                                 v);
            });
    }
}

void
avx512WinoInputD(const WinoKronPlan<double> &bt, const TileRow &r,
                 const double *plane, double *u)
{
    withTileEdge(bt.rowsIn, [&](auto t) {
        winoInputT512<decltype(t)::value>(bt, r, plane, u);
    });
}

void
avx512WinoOutputD(const WinoKronPlan<double> &at, const TileRow &r,
                  const double *mIn, double *plane, const double *bias8,
                  bool relu)
{
    withTileEdge(at.rowsIn, [&](auto t) {
        winoOutputT512<decltype(t)::value>(at, r, mIn, plane, bias8,
                                           relu);
    });
}

} // namespace

LayoutKernels
avx512LayoutKernels()
{
    if (__builtin_cpu_supports("avx512f")) {
        LayoutKernels k;
        k.tapGemm = &avx512TapGemmD;
        k.winoInputD = &avx512WinoInputD;
        k.winoOutputD = &avx512WinoOutputD;
        k.name = "avx512";
        return k;
    }
    return {};
}

} // namespace layout
} // namespace twq

#else // !__AVX512F__

namespace twq
{
namespace layout
{

LayoutKernels
avx512LayoutKernels()
{
    return {};
}

} // namespace layout
} // namespace twq

#endif
