/**
 * @file
 * AVX2+FMA kernels for the NCHWc8 blocked Winograd passes. This TU is
 * compiled with -mavx2 -mfma (see CMakeLists.txt) on x86-64 and
 * selected at runtime only when the CPU reports both features.
 *
 * The 8-wide c-block is exactly two ymm registers, so the tap-GEMM
 * holds a kTapPr x 8 accumulator tile in eight ymm registers, reads
 * each 8-channel weight vector with two contiguous loads, and
 * broadcasts U elements — every access on the blocked layout is unit
 * stride. All accumulation (including the kron scalar tail via
 * std::fma) is fused, in the same ascending-channel order as the
 * blocked gemm core, so results are bit-identical to the NCHW path on
 * FMA hardware and never depend on where an element falls in the
 * vector schedule.
 */

#include "layout/kernels.hh"

#if defined(__AVX2__) && defined(__FMA__)

#include <cmath>
#include <cstring>
#include <immintrin.h>

namespace twq
{
namespace layout
{

namespace
{

void
avx2TapGemmD(const double *w, const double *u, double *m,
             std::size_t coutb, std::size_t cinb, std::size_t P,
             std::size_t p0, std::size_t pn)
{
    constexpr std::size_t B = kLayoutBlock;
    static_assert(B == 8, "tap kernel assumes two 4-wide vectors");
    const std::size_t cinp = cinb * B;
    for (std::size_t co = 0; co < coutb; ++co) {
        const double *wt = w + co * cinp * B;
        for (std::size_t p = p0; p < p0 + pn; p += kTapPr) {
            const std::size_t pr = std::min(kTapPr, p0 + pn - p);
            __m256d acc[kTapPr][2];
            for (std::size_t pp = 0; pp < pr; ++pp) {
                acc[pp][0] = _mm256_setzero_pd();
                acc[pp][1] = _mm256_setzero_pd();
            }
            for (std::size_t cbi = 0; cbi < cinb; ++cbi) {
                const double *ub = u + (cbi * P + p) * B;
                const double *wb = wt + cbi * B * B;
                for (std::size_t li = 0; li < B; ++li) {
                    const __m256d w0 = _mm256_loadu_pd(wb + li * B);
                    const __m256d w1 =
                        _mm256_loadu_pd(wb + li * B + 4);
                    for (std::size_t pp = 0; pp < pr; ++pp) {
                        const __m256d uv =
                            _mm256_set1_pd(ub[pp * B + li]);
                        acc[pp][0] =
                            _mm256_fmadd_pd(uv, w0, acc[pp][0]);
                        acc[pp][1] =
                            _mm256_fmadd_pd(uv, w1, acc[pp][1]);
                    }
                }
            }
            for (std::size_t pp = 0; pp < pr; ++pp) {
                double *dst = m + (co * P + p + pp) * B;
                _mm256_storeu_pd(dst, acc[pp][0]);
                _mm256_storeu_pd(dst + 4, acc[pp][1]);
            }
        }
    }
}

void
avx2KronD(const WinoKronPlan<double> &plan, const double *x,
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
            const __m256d cv = _mm256_set1_pd(t0.coeff);
            std::size_t l = 0;
            for (; l + 4 <= len; l += 4)
                _mm256_storeu_pd(
                    yr + l,
                    _mm256_mul_pd(cv, _mm256_loadu_pd(xr + l)));
            for (; l < len; ++l)
                yr[l] = t0.coeff * xr[l];
        }
        for (std::uint32_t ti = begin + 1; ti < end; ++ti) {
            const auto &term = plan.terms[ti];
            const double *xr = x + term.in * len;
            const __m256d cv = _mm256_set1_pd(term.coeff);
            std::size_t l = 0;
            for (; l + 4 <= len; l += 4)
                _mm256_storeu_pd(
                    yr + l,
                    _mm256_fmadd_pd(cv, _mm256_loadu_pd(xr + l),
                                    _mm256_loadu_pd(yr + l)));
            for (; l < len; ++l)
                yr[l] = std::fma(term.coeff, xr[l], yr[l]);
        }
    }
}

/**
 * Widening int16 tap-GEMM: the 8-lane c-block is one ymm of int32
 * accumulators; each `vpmaddwd` consumes one broadcast pair of
 * adjacent blocked U values against a pair-interleaved 16-element
 * weight vector, accumulating two input channels for all 8 lanes.
 * Integer sums are order-free, so this is bit-identical to the
 * scalar reference.
 */
void
avx2TapGemmI16(const std::int16_t *w, const std::int16_t *u,
               std::int32_t *m, std::size_t coutb, std::size_t cinb,
               std::size_t P, std::size_t p0, std::size_t pn)
{
    constexpr std::size_t B = kLayoutBlock;
    static_assert(B == 8, "tap kernel assumes one 8-lane i32 vector");
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
                    acc[pp] = _mm256_add_epi32(
                        acc[pp],
                        _mm256_madd_epi16(_mm256_set1_epi32(pair),
                                          wv));
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

/**
 * Integer kron row passes: vpmulld/vpaddd AXPY chains (exact), with
 * +-1 coefficients — the majority for F2, common for F4 — taking a
 * multiply-free add/sub path (vpmulld costs two uops on most cores).
 */
void
avx2KronI32(const WinoKronPlan<std::int32_t> &plan,
            const std::int32_t *x, std::size_t len, std::int32_t *y)
{
    const __m256i zero = _mm256_setzero_si256();
    for (std::size_t r = 0; r < plan.rowsOut; ++r) {
        std::int32_t *yr = y + r * len;
        const std::uint32_t begin = plan.rowStart[r];
        const std::uint32_t end = plan.rowStart[r + 1];
        if (begin == end) {
            std::fill(yr, yr + len, 0);
            continue;
        }
        {
            const auto &t0 = plan.terms[begin];
            const std::int32_t *xr = x + t0.in * len;
            const __m256i cv = _mm256_set1_epi32(t0.coeff);
            std::size_t l = 0;
            for (; l + 8 <= len; l += 8) {
                const __m256i xv = _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(xr + l));
                __m256i v;
                if (t0.coeff == 1)
                    v = xv;
                else if (t0.coeff == -1)
                    v = _mm256_sub_epi32(zero, xv);
                else
                    v = _mm256_mullo_epi32(cv, xv);
                _mm256_storeu_si256(
                    reinterpret_cast<__m256i *>(yr + l), v);
            }
            for (; l < len; ++l)
                yr[l] = t0.coeff * xr[l];
        }
        for (std::uint32_t ti = begin + 1; ti < end; ++ti) {
            const auto &term = plan.terms[ti];
            const std::int32_t *xr = x + term.in * len;
            const __m256i cv = _mm256_set1_epi32(term.coeff);
            std::size_t l = 0;
            for (; l + 8 <= len; l += 8) {
                const __m256i xv = _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(xr + l));
                const __m256i yv = _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(yr + l));
                __m256i v;
                if (term.coeff == 1)
                    v = _mm256_add_epi32(yv, xv);
                else if (term.coeff == -1)
                    v = _mm256_sub_epi32(yv, xv);
                else
                    v = _mm256_add_epi32(
                        yv, _mm256_mullo_epi32(cv, xv));
                _mm256_storeu_si256(
                    reinterpret_cast<__m256i *>(yr + l), v);
            }
            for (; l < len; ++l)
                yr[l] += term.coeff * xr[l];
        }
    }
}

/**
 * Requantization narrowing: branch-free round-half-away-from-zero
 * (sign-fold, add bias, logical shift, sign-restore — identical
 * values to shiftRightRound), clamp to the `bits` range, pack pairs
 * of int32 vectors to int16 (the clamp keeps every value inside
 * int16, so vpackssdw saturation never engages).
 */
void
avx2RescaleI16(const std::int32_t *src, std::int16_t *dst,
               std::size_t len, int shift, int bits)
{
    const __m256i lov =
        _mm256_set1_epi32(-(std::int32_t{1} << (bits - 1)));
    const __m256i hiv =
        _mm256_set1_epi32((std::int32_t{1} << (bits - 1)) - 1);
    const __m256i bias = _mm256_set1_epi32(
        shift > 0 ? std::int32_t{1} << (shift - 1) : 0);
    const auto round1 = [&](__m256i v) {
        const __m256i sign = _mm256_srai_epi32(v, 31);
        const __m256i absv = _mm256_sub_epi32(
            _mm256_xor_si256(v, sign), sign);
        const __m256i sh = _mm256_srli_epi32(
            _mm256_add_epi32(absv, bias), shift);
        const __m256i r =
            _mm256_sub_epi32(_mm256_xor_si256(sh, sign), sign);
        return _mm256_max_epi32(_mm256_min_epi32(r, hiv), lov);
    };
    std::size_t i = 0;
    for (; i + 16 <= len; i += 16) {
        const __m256i a = round1(_mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(src + i)));
        const __m256i b = round1(_mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(src + i + 8)));
        // packs interleaves 128-bit lanes; vpermq restores order.
        const __m256i p = _mm256_permute4x64_epi64(
            _mm256_packs_epi32(a, b), 0xD8);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + i), p);
    }
    for (; i < len; ++i)
        dst[i] = static_cast<std::int16_t>(
            clampSigned(shiftRightRound(src[i], shift), bits));
}

/**
 * Biased-u8 requantization narrowing: the rescaleI16 rounding/clamp
 * core, then +128 and a pack to bytes (clamped values + 128 lie in
 * [0, 255], so vpackus saturation never engages). The 128-bit-lane
 * interleave of the two pack steps is undone by one vpermd.
 */
void
avx2RescaleU8(const std::int32_t *src, std::uint8_t *dst,
              std::size_t len, int shift, int bits)
{
    const __m256i lov =
        _mm256_set1_epi32(-(std::int32_t{1} << (bits - 1)));
    const __m256i hiv =
        _mm256_set1_epi32((std::int32_t{1} << (bits - 1)) - 1);
    const __m256i bias = _mm256_set1_epi32(
        shift > 0 ? std::int32_t{1} << (shift - 1) : 0);
    const __m256i off = _mm256_set1_epi32(128);
    const __m256i perm =
        _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
    const auto round1 = [&](__m256i v) {
        const __m256i sign = _mm256_srai_epi32(v, 31);
        const __m256i absv = _mm256_sub_epi32(
            _mm256_xor_si256(v, sign), sign);
        const __m256i sh = _mm256_srli_epi32(
            _mm256_add_epi32(absv, bias), shift);
        const __m256i r =
            _mm256_sub_epi32(_mm256_xor_si256(sh, sign), sign);
        return _mm256_add_epi32(
            _mm256_max_epi32(_mm256_min_epi32(r, hiv), lov), off);
    };
    std::size_t i = 0;
    for (; i + 32 <= len; i += 32) {
        const __m256i a = round1(_mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(src + i)));
        const __m256i b = round1(_mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(src + i + 8)));
        const __m256i c = round1(_mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(src + i + 16)));
        const __m256i d = round1(_mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(src + i + 24)));
        const __m256i p = _mm256_permutevar8x32_epi32(
            _mm256_packus_epi16(_mm256_packs_epi32(a, b),
                                _mm256_packs_epi32(c, d)),
            perm);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + i), p);
    }
    for (; i < len; ++i)
        dst[i] = static_cast<std::uint8_t>(
            clampSigned(shiftRightRound(src[i], shift), bits) + 128);
}

/**
 * Pow2 input quantization: exact-reciprocal multiply, vroundpd
 * (nearest-even == std::nearbyint under the default FP env), clamp,
 * convert — bit-identical to the scalar quantize() path.
 */
void
avx2QuantizeI32(const double *src, double inv, double lo, double hi,
                std::int32_t *dst, std::size_t len)
{
    const __m256d iv = _mm256_set1_pd(inv);
    const __m256d lov = _mm256_set1_pd(lo);
    const __m256d hiv = _mm256_set1_pd(hi);
    std::size_t i = 0;
    for (; i + 4 <= len; i += 4) {
        const __m256d q = _mm256_max_pd(
            _mm256_min_pd(
                _mm256_round_pd(
                    _mm256_mul_pd(_mm256_loadu_pd(src + i), iv),
                    _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC),
                hiv),
            lov);
        _mm_storeu_si128(reinterpret_cast<__m128i *>(dst + i),
                         _mm256_cvtpd_epi32(q));
    }
    for (; i < len; ++i)
        dst[i] = static_cast<std::int32_t>(
            std::clamp(std::nearbyint(src[i] * inv), lo, hi));
}

/**
 * Pow2 int8 activation quantization: the QuantizeI32 round/clamp per
 * 4 doubles, then four 8-wide int32 groups pack to 32 int8 via the
 * signed saturating packs (values are pre-clamped, so saturation
 * never alters them) with the same cross-lane fixup permute as the
 * rescale narrowing kernels. Bit-identical to the scalar reference.
 */
void
avx2QuantizeI8(const double *src, double inv, double lo, double hi,
               std::int8_t *dst, std::size_t len)
{
    const __m256d iv = _mm256_set1_pd(inv);
    const __m256d lov = _mm256_set1_pd(lo);
    const __m256d hiv = _mm256_set1_pd(hi);
    const __m256i perm = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
    const auto q4 = [&](const double *s) {
        return _mm256_cvtpd_epi32(_mm256_max_pd(
            _mm256_min_pd(
                _mm256_round_pd(
                    _mm256_mul_pd(_mm256_loadu_pd(s), iv),
                    _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC),
                hiv),
            lov));
    };
    const auto q8 = [&](const double *s) {
        return _mm256_set_m128i(q4(s + 4), q4(s));
    };
    std::size_t i = 0;
    for (; i + 32 <= len; i += 32) {
        const __m256i a = q8(src + i);
        const __m256i b = q8(src + i + 8);
        const __m256i c = q8(src + i + 16);
        const __m256i d = q8(src + i + 24);
        const __m256i p = _mm256_permutevar8x32_epi32(
            _mm256_packs_epi16(_mm256_packs_epi32(a, b),
                               _mm256_packs_epi32(c, d)),
            perm);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + i), p);
    }
    for (; i < len; ++i)
        dst[i] = static_cast<std::int8_t>(
            std::clamp(std::nearbyint(src[i] * inv), lo, hi));
}

/** FP dequant scale pass: cvtepi32->pd and one mul per 4 lanes. */
void
avx2ScaleI32F64(const std::int32_t *src, const double *scale8,
                double *dst, std::size_t tiles)
{
    const __m256d s0 = _mm256_loadu_pd(scale8);
    const __m256d s1 = _mm256_loadu_pd(scale8 + 4);
    for (std::size_t p = 0; p < tiles; ++p) {
        const __m128i a = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(src + p * 8));
        const __m128i b = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(src + p * 8 + 4));
        _mm256_storeu_pd(dst + p * 8,
                         _mm256_mul_pd(_mm256_cvtepi32_pd(a), s0));
        _mm256_storeu_pd(dst + p * 8 + 4,
                         _mm256_mul_pd(_mm256_cvtepi32_pd(b), s1));
    }
}

/**
 * Fused epilogue row pass: two ymm per 8-lane group. vmaxpd with the
 * zero vector as the FIRST operand returns the second on equal or
 * NaN, which is exactly `s < 0 ? 0 : s` — -0.0 and NaN pass through,
 * keeping the fused write bit-identical to the scalar separate pass.
 */
void
avx2EpilogueRowD(const double *src, double *dst, std::size_t dstStride,
                 std::size_t count, const double *bias8, bool relu)
{
    const __m256d z = _mm256_setzero_pd();
    if (bias8) {
        const __m256d b0 = _mm256_loadu_pd(bias8);
        const __m256d b1 = _mm256_loadu_pd(bias8 + 4);
        if (relu) {
            for (std::size_t i = 0; i < count; ++i) {
                const __m256d v0 = _mm256_max_pd(
                    z, _mm256_add_pd(_mm256_loadu_pd(src + i * 8),
                                     b0));
                const __m256d v1 = _mm256_max_pd(
                    z, _mm256_add_pd(_mm256_loadu_pd(src + i * 8 + 4),
                                     b1));
                _mm256_storeu_pd(dst + i * dstStride, v0);
                _mm256_storeu_pd(dst + i * dstStride + 4, v1);
            }
        } else {
            for (std::size_t i = 0; i < count; ++i) {
                _mm256_storeu_pd(
                    dst + i * dstStride,
                    _mm256_add_pd(_mm256_loadu_pd(src + i * 8), b0));
                _mm256_storeu_pd(
                    dst + i * dstStride + 4,
                    _mm256_add_pd(_mm256_loadu_pd(src + i * 8 + 4),
                                  b1));
            }
        }
    } else if (relu) {
        for (std::size_t i = 0; i < count; ++i) {
            _mm256_storeu_pd(
                dst + i * dstStride,
                _mm256_max_pd(z, _mm256_loadu_pd(src + i * 8)));
            _mm256_storeu_pd(
                dst + i * dstStride + 4,
                _mm256_max_pd(z, _mm256_loadu_pd(src + i * 8 + 4)));
        }
    } else {
        for (std::size_t i = 0; i < count; ++i) {
            _mm256_storeu_pd(dst + i * dstStride,
                             _mm256_loadu_pd(src + i * 8));
            _mm256_storeu_pd(dst + i * dstStride + 4,
                             _mm256_loadu_pd(src + i * 8 + 4));
        }
    }
}

using TermD = WinoKronPlan<double>::Term;
using TermI = WinoKronPlan<std::int32_t>::Term;

/*
 * The fused transform kernels stage each tile as a contiguous
 * [t][t][8] block, then run every pass as "for each output index, for
 * each of its plan terms, update a whole row of vectors": one term
 * decode feeds up to 2t independent FMA chains held in registers, and
 * every address is a compile-time offset from the staging base. Each
 * element still sees its terms in plan order — a multiply for the
 * first, one FMA per later term — which is the schedule of the scalar
 * reference (layout::sepPass), so the results match it bit for bit.
 */

/**
 * acc[v] = sum over the terms [tb, te) of coeff * (4 doubles at
 * x + in * STRIDE + (v / 2) * OUTER + (v % 2) * 4), for N vectors:
 * v / 2 walks the row being transformed, v % 2 the two halves of an
 * 8-lane block. An empty term range yields zeros.
 */
template <std::size_t N, std::size_t STRIDE, std::size_t OUTER>
inline void
sepPassD(const TermD *tb, const TermD *te, const double *x,
         __m256d (&acc)[N])
{
    if (tb == te) {
        for (std::size_t v = 0; v < N; ++v)
            acc[v] = _mm256_setzero_pd();
        return;
    }
    {
        const __m256d c = _mm256_broadcast_sd(&tb->coeff);
        const double *p = x + tb->in * STRIDE;
        for (std::size_t v = 0; v < N; ++v)
            acc[v] = _mm256_mul_pd(
                c, _mm256_loadu_pd(p + (v / 2) * OUTER + (v % 2) * 4));
    }
    for (++tb; tb != te; ++tb) {
        const __m256d c = _mm256_broadcast_sd(&tb->coeff);
        const double *p = x + tb->in * STRIDE;
        for (std::size_t v = 0; v < N; ++v)
            acc[v] = _mm256_fmadd_pd(
                c, _mm256_loadu_pd(p + (v / 2) * OUTER + (v % 2) * 4),
                acc[v]);
    }
}

/// Vectors per register block: 2t accumulators fit the 16 ymm up to
/// t = 6; F6 (t = 8) runs each row in two halves.
constexpr std::size_t
blockVecs(std::size_t rowVecs)
{
    return rowVecs <= 12 ? rowVecs : rowVecs / 2;
}

/**
 * One full transform pass over a staged tile: for every output index
 * o of the plan, out[o][r] = sum over the terms of row o of
 * coeff * x[in][r] for all R rows r (8 doubles each), with x[in][r] at
 * x + in * STRIDE + r * OUTER. `store(o, r, lo, hi)` receives each
 * result vector's two halves.
 */
template <std::size_t R, std::size_t STRIDE, std::size_t OUTER,
          typename Store>
inline void
sepTileD(const WinoKronPlan<double> &plan, std::size_t outs,
         const double *x, Store store)
{
    constexpr std::size_t NV = 2 * R;
    constexpr std::size_t CH = blockVecs(NV);
    const TermD *terms = plan.terms.data();
    const std::uint32_t *rs = plan.rowStart.data();
    for (std::size_t o = 0; o < outs; ++o) {
        for (std::size_t c0 = 0; c0 < NV; c0 += CH) {
            __m256d acc[CH];
            sepPassD<CH, STRIDE, OUTER>(terms + rs[o], terms + rs[o + 1],
                                        x + (c0 / 2) * OUTER, acc);
            for (std::size_t v = 0; v < CH; v += 2)
                store(o, (c0 + v) / 2, acc[v], acc[v + 1]);
        }
    }
}

/**
 * Copy the t x t window at plane coordinates (y, x) into a contiguous
 * [t][t][8] stage, zero outside the plane.
 */
template <std::size_t T, typename E>
inline void
stageTile(const E *plane, std::ptrdiff_t h, std::ptrdiff_t w,
          std::ptrdiff_t y, std::ptrdiff_t x, E *stage)
{
    constexpr std::size_t B = kLayoutBlock;
    constexpr std::size_t V = 32 / sizeof(E); // elements per ymm
    const auto tt = static_cast<std::ptrdiff_t>(T);
    const bool xin = x >= 0 && x + tt <= w;
    for (std::ptrdiff_t a = 0; a < tt; ++a) {
        E *dst = stage + a * tt * B;
        const std::ptrdiff_t yy = y + a;
        if (yy < 0 || yy >= h) {
            std::fill(dst, dst + T * B, E{});
            continue;
        }
        const E *row = plane + yy * w * B;
        if (xin) {
            const E *src = row + x * B;
            for (std::size_t e = 0; e < T * B; e += V)
                _mm256_store_si256(
                    reinterpret_cast<__m256i *>(dst + e),
                    _mm256_loadu_si256(
                        reinterpret_cast<const __m256i *>(src + e)));
            continue;
        }
        for (std::ptrdiff_t b = 0; b < tt; ++b) {
            const std::ptrdiff_t xx = x + b;
            if (xx >= 0 && xx < w)
                std::copy(row + xx * B, row + (xx + 1) * B,
                          dst + b * B);
            else
                std::fill(dst + b * B, dst + (b + 1) * B, E{});
        }
    }
}

/// Fused fp64 input transform for tile edge T (layout::WinoInputDFn).
template <std::size_t T>
void
winoInputTD(const WinoKronPlan<double> &bt, const TileRow &r,
            const double *plane, double *u)
{
    constexpr std::size_t B = kLayoutBlock;
    alignas(32) double stage[T * T * B]; // d     [a][b][8]
    alignas(32) double tmp[T * T * B];   // d B   [a][j][8]
    for (std::size_t i = 0; i < r.tiles; ++i) {
        stageTile<T>(plane, static_cast<std::ptrdiff_t>(r.h),
                     static_cast<std::ptrdiff_t>(r.w), r.y0,
                     r.x0 + static_cast<std::ptrdiff_t>(i * r.m),
                     stage);
        // Row pass: tmp[a][j] = sum_b B^T[j][b] d[a][b].
        sepTileD<T, B, T * B>(
            bt, T, stage,
            [&](std::size_t j, std::size_t a, __m256d lo, __m256d hi) {
                _mm256_store_pd(tmp + (a * T + j) * B, lo);
                _mm256_store_pd(tmp + (a * T + j) * B + 4, hi);
            });
        // Column pass: U[k][j] = sum_a B^T[k][a] tmp[a][j].
        double *ui = u + i * B;
        sepTileD<T, T * B, B>(
            bt, T, tmp,
            [&](std::size_t k, std::size_t j, __m256d lo, __m256d hi) {
                double *dst = ui + (k * T + j) * r.tapStride;
                _mm256_storeu_pd(dst, lo);
                _mm256_storeu_pd(dst + 4, hi);
            });
    }
}

/// Fused fp64 output transform for tile edge T (layout::WinoOutputDFn).
template <std::size_t T>
void
winoOutputTD(const WinoKronPlan<double> &at, const TileRow &r,
             const double *mIn, double *plane, const double *bias8,
             bool relu)
{
    constexpr std::size_t B = kLayoutBlock;
    constexpr std::size_t M = T - 2;
    alignas(32) double stage[T * T * B]; // m     [a][b][8]
    alignas(32) double tmp[T * M * B];   // m A   [a][j2][8]
    const auto y0 = static_cast<std::size_t>(r.y0);
    const std::size_t rows = std::min(M, r.h - y0);
    const __m256d z = _mm256_setzero_pd();
    const __m256d b0 = bias8 ? _mm256_loadu_pd(bias8) : z;
    const __m256d b1 = bias8 ? _mm256_loadu_pd(bias8 + 4) : z;
    for (std::size_t i = 0; i < r.tiles; ++i) {
        for (std::size_t k = 0; k < T * T; ++k) {
            const double *src = mIn + k * r.tapStride + i * B;
            _mm256_store_pd(stage + k * B, _mm256_loadu_pd(src));
            _mm256_store_pd(stage + k * B + 4, _mm256_loadu_pd(src + 4));
        }
        // Row pass: tmp[a][j2] = sum_b A^T[j2][b] m[a][b].
        sepTileD<T, B, T * B>(
            at, M, stage,
            [&](std::size_t j2, std::size_t a, __m256d lo, __m256d hi) {
                _mm256_store_pd(tmp + (a * M + j2) * B, lo);
                _mm256_store_pd(tmp + (a * M + j2) * B + 4, hi);
            });
        // Column pass + epilogue: y[j1][j2] = sum_a A^T[j1][a]
        // tmp[a][j2]; in-range pixels only.
        const std::size_t x = static_cast<std::size_t>(r.x0) + i * r.m;
        const std::size_t cols = std::min(M, r.w - x);
        sepTileD<M, M * B, B>(
            at, rows, tmp,
            [&](std::size_t j1, std::size_t j2, __m256d lo, __m256d hi) {
                if (j2 >= cols)
                    return;
                if (bias8) {
                    lo = _mm256_add_pd(lo, b0);
                    hi = _mm256_add_pd(hi, b1);
                }
                if (relu) {
                    lo = _mm256_max_pd(z, lo);
                    hi = _mm256_max_pd(z, hi);
                }
                double *dst = plane + ((y0 + j1) * r.w + x + j2) * B;
                _mm256_storeu_pd(dst, lo);
                _mm256_storeu_pd(dst + 4, hi);
            });
    }
}

/**
 * Integer counterpart of sepPassD: one 8-lane int32 vector per row
 * entry, +-1 coefficients taking the multiply-free add/sub path like
 * avx2KronI32. Exact.
 */
template <std::size_t N, std::size_t STRIDE, std::size_t OUTER>
inline void
sepPassI(const TermI *tb, const TermI *te, const std::int32_t *x,
         __m256i (&acc)[N])
{
    for (std::size_t v = 0; v < N; ++v)
        acc[v] = _mm256_setzero_si256();
    for (; tb != te; ++tb) {
        const std::int32_t *p = x + tb->in * STRIDE;
        const __m256i c = _mm256_set1_epi32(tb->coeff);
        for (std::size_t v = 0; v < N; ++v) {
            const __m256i xv = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(p + v * OUTER));
            if (tb->coeff == 1)
                acc[v] = _mm256_add_epi32(acc[v], xv);
            else if (tb->coeff == -1)
                acc[v] = _mm256_sub_epi32(acc[v], xv);
            else
                acc[v] = _mm256_add_epi32(acc[v],
                                          _mm256_mullo_epi32(c, xv));
        }
    }
}

/// Integer fused input transform for tile edge T; exact.
template <std::size_t T>
void
winoInputTI32(const WinoKronPlan<std::int32_t> &bt, const TileRow &r,
              const std::int32_t *plane, std::int32_t *u)
{
    constexpr std::size_t B = kLayoutBlock;
    alignas(32) std::int32_t stage[T * T * B];
    alignas(32) std::int32_t tmp[T * T * B];
    const TermI *terms = bt.terms.data();
    const std::uint32_t *rs = bt.rowStart.data();
    for (std::size_t i = 0; i < r.tiles; ++i) {
        stageTile<T>(plane, static_cast<std::ptrdiff_t>(r.h),
                     static_cast<std::ptrdiff_t>(r.w), r.y0,
                     r.x0 + static_cast<std::ptrdiff_t>(i * r.m),
                     stage);
        for (std::size_t j = 0; j < T; ++j) {
            __m256i acc[T];
            sepPassI<T, B, T * B>(terms + rs[j], terms + rs[j + 1],
                                  stage, acc);
            for (std::size_t a = 0; a < T; ++a)
                _mm256_store_si256(
                    reinterpret_cast<__m256i *>(tmp + (a * T + j) * B),
                    acc[a]);
        }
        for (std::size_t k = 0; k < T; ++k) {
            __m256i acc[T];
            sepPassI<T, T * B, B>(terms + rs[k], terms + rs[k + 1], tmp,
                                  acc);
            for (std::size_t j = 0; j < T; ++j)
                _mm256_storeu_si256(
                    reinterpret_cast<__m256i *>(
                        u + (k * T + j) * r.tapStride + i * B),
                    acc[j]);
        }
    }
}

void
avx2WinoInputD(const WinoKronPlan<double> &bt, const TileRow &r,
               const double *plane, double *u)
{
    withTileEdge(bt.rowsIn, [&](auto t) {
        winoInputTD<decltype(t)::value>(bt, r, plane, u);
    });
}

void
avx2WinoOutputD(const WinoKronPlan<double> &at, const TileRow &r,
                const double *mIn, double *plane, const double *bias8,
                bool relu)
{
    withTileEdge(at.rowsIn, [&](auto t) {
        winoOutputTD<decltype(t)::value>(at, r, mIn, plane, bias8,
                                         relu);
    });
}

void
avx2WinoInputI32(const WinoKronPlan<std::int32_t> &bt, const TileRow &r,
                 const std::int32_t *plane, std::int32_t *u)
{
    withTileEdge(bt.rowsIn, [&](auto t) {
        winoInputTI32<decltype(t)::value>(bt, r, plane, u);
    });
}

} // namespace

LayoutKernels
avx2LayoutKernels()
{
    if (__builtin_cpu_supports("avx2") &&
        __builtin_cpu_supports("fma")) {
        LayoutKernels k;
        k.tapGemm = &avx2TapGemmD;
        k.kron = &avx2KronD;
        k.tapGemmI16 = &avx2TapGemmI16;
        k.kronI32 = &avx2KronI32;
        k.rescaleI16 = &avx2RescaleI16;
        k.rescaleU8 = &avx2RescaleU8;
        k.scaleI32F64 = &avx2ScaleI32F64;
        k.quantizeI32 = &avx2QuantizeI32;
        k.quantizeI8 = &avx2QuantizeI8;
        k.epilogueRowD = &avx2EpilogueRowD;
        k.winoInputD = &avx2WinoInputD;
        k.winoInputI32 = &avx2WinoInputI32;
        k.winoOutputD = &avx2WinoOutputD;
        k.name = "avx2";
        return k;
    }
    return {};
}

} // namespace layout
} // namespace twq

#else // !(__AVX2__ && __FMA__)

namespace twq
{
namespace layout
{

LayoutKernels
avx2LayoutKernels()
{
    return {};
}

} // namespace layout
} // namespace twq

#endif
