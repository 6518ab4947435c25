/**
 * @file
 * NEON kernels for the NCHWc8 blocked Winograd passes on aarch64,
 * where Advanced SIMD is baseline (no special compile flags). Same
 * schedules as the AVX2 TU with the 8-wide c-block held in four
 * float64x2 registers per accumulator row; scalar tails use std::fma
 * to match vfmaq's fused rounding.
 */

#include "layout/kernels.hh"

#if defined(__aarch64__)

#include <arm_neon.h>
#include <cmath>

namespace twq
{
namespace layout
{

namespace
{

void
neonTapGemmD(const double *w, const double *u, double *m,
             std::size_t coutb, std::size_t cinb, std::size_t P,
             std::size_t p0, std::size_t pn)
{
    constexpr std::size_t B = kLayoutBlock;
    constexpr std::size_t kVecs = B / 2;
    const std::size_t cinp = cinb * B;
    for (std::size_t co = 0; co < coutb; ++co) {
        const double *wt = w + co * cinp * B;
        for (std::size_t p = p0; p < p0 + pn; p += kTapPr) {
            const std::size_t pr = std::min(kTapPr, p0 + pn - p);
            float64x2_t acc[kTapPr][kVecs];
            for (std::size_t pp = 0; pp < pr; ++pp)
                for (std::size_t v = 0; v < kVecs; ++v)
                    acc[pp][v] = vdupq_n_f64(0.0);
            for (std::size_t cbi = 0; cbi < cinb; ++cbi) {
                const double *ub = u + (cbi * P + p) * B;
                const double *wb = wt + cbi * B * B;
                for (std::size_t li = 0; li < B; ++li) {
                    float64x2_t wv[kVecs];
                    for (std::size_t v = 0; v < kVecs; ++v)
                        wv[v] = vld1q_f64(wb + li * B + 2 * v);
                    for (std::size_t pp = 0; pp < pr; ++pp) {
                        const float64x2_t uv =
                            vdupq_n_f64(ub[pp * B + li]);
                        for (std::size_t v = 0; v < kVecs; ++v)
                            acc[pp][v] =
                                vfmaq_f64(acc[pp][v], uv, wv[v]);
                    }
                }
            }
            for (std::size_t pp = 0; pp < pr; ++pp) {
                double *dst = m + (co * P + p + pp) * B;
                for (std::size_t v = 0; v < kVecs; ++v)
                    vst1q_f64(dst + 2 * v, acc[pp][v]);
            }
        }
    }
}

void
neonKronD(const WinoKronPlan<double> &plan, const double *x,
          std::size_t len, double *y)
{
    for (std::size_t r = 0; r < plan.rowsOut; ++r) {
        double *yr = y + r * len;
        const std::uint32_t begin = plan.rowStart[r];
        const std::uint32_t end = plan.rowStart[r + 1];
        if (begin == end) {
            std::fill(yr, yr + len, 0.0);
            continue;
        }
        {
            const auto &t0 = plan.terms[begin];
            const double *xr = x + t0.in * len;
            const float64x2_t cv = vdupq_n_f64(t0.coeff);
            std::size_t l = 0;
            for (; l + 2 <= len; l += 2)
                vst1q_f64(yr + l,
                          vmulq_f64(cv, vld1q_f64(xr + l)));
            for (; l < len; ++l)
                yr[l] = t0.coeff * xr[l];
        }
        for (std::uint32_t ti = begin + 1; ti < end; ++ti) {
            const auto &term = plan.terms[ti];
            const double *xr = x + term.in * len;
            const float64x2_t cv = vdupq_n_f64(term.coeff);
            std::size_t l = 0;
            for (; l + 2 <= len; l += 2)
                vst1q_f64(yr + l,
                          vfmaq_f64(vld1q_f64(yr + l), cv,
                                    vld1q_f64(xr + l)));
            for (; l < len; ++l)
                yr[l] = std::fma(term.coeff, xr[l], yr[l]);
        }
    }
}

/**
 * Widening int16 tap-GEMM: vld2q_s16 de-interleaves a pair-
 * interleaved weight vector into the even/odd channel halves, and
 * two vmlal_s16 per half accumulate int16 x int16 products into the
 * int32 lane accumulators. Integer sums are order-free, so this is
 * bit-identical to the scalar reference.
 */
void
neonTapGemmI16(const std::int16_t *w, const std::int16_t *u,
               std::int32_t *m, std::size_t coutb, std::size_t cinb,
               std::size_t P, std::size_t p0, std::size_t pn)
{
    constexpr std::size_t B = kLayoutBlock;
    const std::size_t pairs = cinb * B / 2;
    for (std::size_t co = 0; co < coutb; ++co) {
        const std::int16_t *wt = w + co * pairs * 2 * B;
        for (std::size_t p = p0; p < p0 + pn; p += kTapPr) {
            const std::size_t pr = std::min(kTapPr, p0 + pn - p);
            int32x4_t acc[kTapPr][2];
            for (std::size_t pp = 0; pp < pr; ++pp) {
                acc[pp][0] = vdupq_n_s32(0);
                acc[pp][1] = vdupq_n_s32(0);
            }
            for (std::size_t cp = 0; cp < pairs; ++cp) {
                const std::int16_t *ub =
                    u + ((cp / 4) * P + p) * B + (cp % 4) * 2;
                const int16x8x2_t wv = vld2q_s16(wt + cp * 2 * B);
                for (std::size_t pp = 0; pp < pr; ++pp) {
                    const int16x4_t u0 = vdup_n_s16(ub[pp * B]);
                    const int16x4_t u1 = vdup_n_s16(ub[pp * B + 1]);
                    acc[pp][0] = vmlal_s16(
                        acc[pp][0], vget_low_s16(wv.val[0]), u0);
                    acc[pp][0] = vmlal_s16(
                        acc[pp][0], vget_low_s16(wv.val[1]), u1);
                    acc[pp][1] = vmlal_s16(
                        acc[pp][1], vget_high_s16(wv.val[0]), u0);
                    acc[pp][1] = vmlal_s16(
                        acc[pp][1], vget_high_s16(wv.val[1]), u1);
                }
            }
            for (std::size_t pp = 0; pp < pr; ++pp) {
                std::int32_t *dst = m + (co * P + p + pp) * B;
                vst1q_s32(dst, acc[pp][0]);
                vst1q_s32(dst + 4, acc[pp][1]);
            }
        }
    }
}

} // namespace

LayoutKernels
neonLayoutKernels()
{
    // Every other entry stays null, so kernels() keeps the scalar
    // form: the integer kron, requantization and dequant-scale passes
    // autovectorize well, and NEON's native rounding shifts (vrshr)
    // round halfway cases toward +inf, not away from zero, so a
    // hand-written version would have to spend the saved
    // instructions on sign fixups anyway. The u8 x s8 tap GEMM
    // exists for vpdpbusd hosts only.
    LayoutKernels k;
    k.tapGemm = &neonTapGemmD;
    k.kron = &neonKronD;
    k.tapGemmI16 = &neonTapGemmI16;
    k.name = "neon";
    return k;
}

} // namespace layout
} // namespace twq

#else // !__aarch64__

namespace twq
{
namespace layout
{

LayoutKernels
neonLayoutKernels()
{
    return {};
}

} // namespace layout
} // namespace twq

#endif
