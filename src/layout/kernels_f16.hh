/**
 * @file
 * IEEE-754 binary16 storage kernels for the half-precision blocked
 * Winograd engine. Not part of the public API.
 *
 * The fp16 engine stores weights and inter-layer activations as raw
 * half bits (std::uint16_t) in the NCHWc8 blocked layout and computes
 * in fp32: the fused input transform widens halves to floats, the
 * transforms and the per-tap GEMM run in float, and the fused output
 * transform narrows back to half with round-to-nearest-even. This
 * file provides the conversion and
 * float compute kernels behind a runtime-dispatched table mirroring
 * layout/kernels.hh:
 *
 *  - widen / narrow: bulk half <-> float conversion. The AVX2 TU uses
 *    F16C `vcvtph2ps` / `vcvtps2ph` (explicit RNE immediate), the NEON
 *    TU the aarch64 fp16 conversion instructions, and the soft
 *    fallback a bit-twiddling round-to-nearest-even that implements
 *    the identical IEEE semantics (subnormals, ties-to-even, overflow
 *    to infinity), so results never depend on which path ran.
 *
 *  - tapGemm: the float c-blocked per-tap product. Same contract as
 *    layout::TapGemmDFn but with float U/M and the blocked tap weights
 *    stored as halves — the kernel widens each 8-wide weight vector on
 *    the fly (one `vcvtph2ps` per 8 weights), halving weight-side
 *    bandwidth in the innermost loop. Accumulation is fused (fmaf in
 *    the scalar path) in ascending input-channel order.
 *
 *  - winoInput / winoOutput: the fused tile-local transforms of
 *    layout/kernels.hh in fp32 on half storage — the input kernel
 *    widens each tile vector once as it is read from the half
 *    activation, the output kernel narrows each result once (RNE)
 *    after the fp32 epilogue as it writes the half activation.
 */

#ifndef TWQ_LAYOUT_KERNELS_F16_HH
#define TWQ_LAYOUT_KERNELS_F16_HH

#include <cmath>
#include <cstdint>
#include <cstring>

#include "layout/kernels.hh"
#include "layout/layout.hh"
#include "winograd/tiled.hh"

namespace twq
{
namespace layout
{

/** Bulk half -> float widening. */
using HalfWidenFn = void (*)(const std::uint16_t *src, float *dst,
                             std::size_t len);

/** Bulk float -> half narrowing (round-to-nearest-even). */
using HalfNarrowFn = void (*)(const float *src, std::uint16_t *dst,
                              std::size_t len);

/**
 * Float per-tap product on half-stored blocked weights:
 * m[co, p, l] = sum_ic widen(w[co, ic, l]) * u[ic / 8, p, ic % 8],
 * with u [cinb, P, 8] float, w [coutb][cinb*8][8] half bits and m
 * [coutb, P, 8] float, over tile columns [p0, p0 + pn).
 */
using TapGemmF16Fn = void (*)(const std::uint16_t *w, const float *u,
                              float *m, std::size_t coutb,
                              std::size_t cinb, std::size_t P,
                              std::size_t p0, std::size_t pn);

/**
 * Fused fp32 input transform on half storage: layout::WinoInputDFn
 * with every tile element widened from binary16 on load.
 */
using WinoInputF16Fn = void (*)(const WinoKronPlan<float> &bt,
                                const TileRow &r,
                                const std::uint16_t *plane, float *u);

/**
 * Fused fp32 output transform on half storage: layout::WinoOutputDFn
 * with every written pixel narrowed to binary16 (one RNE rounding of
 * the fp32 epilogue result).
 */
using WinoOutputF16Fn = void (*)(const WinoKronPlan<float> &at,
                                 const TileRow &r, const float *mIn,
                                 std::uint16_t *plane,
                                 const float *bias8, bool relu);

/** One ISA's fp16 kernel set; null entries mean "not available". */
struct F16Kernels
{
    HalfWidenFn widen = nullptr;
    HalfNarrowFn narrow = nullptr;
    TapGemmF16Fn tapGemm = nullptr;
    WinoInputF16Fn winoInput = nullptr;
    WinoOutputF16Fn winoOutput = nullptr;
    const char *name = "soft";
};

/// F16C+AVX2+FMA kernels (kernels_f16_avx2.cc); nulls when not
/// compiled in or the CPU lacks F16C.
F16Kernels avx2F16Kernels();

/// NEON fp16 conversion kernels (kernels_f16_neon.cc); nulls off
/// aarch64.
F16Kernels neonF16Kernels();

/// The resolved process-wide fp16 kernel set (kernels_f16.cc). Every
/// field is non-null after resolution (soft fallbacks fill gaps).
const F16Kernels &f16Kernels();

/// Resolved table name ("avx2-f16c", "neon-fp16", "soft") — part of
/// PlanCache::signature() so cached plans never cross kernel tables.
const char *f16KernelName();

/**
 * Software IEEE binary16 narrowing of one float, round-to-nearest-
 * even with subnormal support and overflow to infinity — the exact
 * semantics of `vcvtps2ph` with the RNE immediate.
 */
inline std::uint16_t
softFloatToHalf(float f)
{
    std::uint32_t x;
    std::memcpy(&x, &f, sizeof x);
    const auto sign = static_cast<std::uint16_t>((x >> 16) & 0x8000u);
    const std::uint32_t abs = x & 0x7fffffffu;
    if (abs >= 0x7f800000u) // inf / NaN pass through
        return sign | (abs > 0x7f800000u ? 0x7e00u : 0x7c00u);
    if (abs >= 0x47800000u) // >= 65536: overflow to inf
        return sign | 0x7c00u;
    if (abs >= 0x38800000u) {
        // Normal half range. Rebias the exponent (127 -> 15), then
        // drop 13 mantissa bits with RNE; a rounding carry propagates
        // into the exponent (65519.996.. -> inf) by construction.
        const std::uint32_t m = abs - 0x38000000u;
        const std::uint32_t r = m >> 13;
        const std::uint32_t rem = m & 0x1fffu;
        const std::uint32_t h =
            r + ((rem > 0x1000u || (rem == 0x1000u && (r & 1u))) ? 1u
                                                                 : 0u);
        return sign | static_cast<std::uint16_t>(h);
    }
    if (abs < 0x33000000u) // < 2^-25: underflow to signed zero
        return sign;
    // Subnormal half: shift the 24-bit significand (implicit bit
    // restored) into the 10-bit field with RNE; rounding may carry
    // into the smallest normal (2^-14), which is the correct result.
    const std::uint32_t e = abs >> 23;
    const std::uint32_t m = (abs & 0x7fffffu) | 0x800000u;
    const std::uint32_t shift = 126u - e; // in [14, 24]
    const std::uint32_t r = m >> shift;
    const std::uint32_t half = 1u << (shift - 1);
    const std::uint32_t rem = m & ((1u << shift) - 1u);
    const std::uint32_t h =
        r + ((rem > half || (rem == half && (r & 1u))) ? 1u : 0u);
    return sign | static_cast<std::uint16_t>(h);
}

/** Software widening of one half to float (exact). */
inline float
softHalfToFloat(std::uint16_t h)
{
    const std::uint32_t sign = static_cast<std::uint32_t>(h & 0x8000u)
                               << 16;
    const std::uint32_t e = (h >> 10) & 0x1fu;
    std::uint32_t m = h & 0x3ffu;
    std::uint32_t x;
    if (e == 0) {
        if (m == 0) {
            x = sign; // signed zero
        } else {
            // Subnormal: renormalize into the float format.
            std::uint32_t sh = 0;
            while (!(m & 0x400u)) {
                m <<= 1;
                ++sh;
            }
            x = sign | ((113u - sh) << 23) | ((m & 0x3ffu) << 13);
        }
    } else if (e == 31) {
        x = sign | 0x7f800000u | (m << 13); // inf / NaN
    } else {
        x = sign | ((e + 112u) << 23) | (m << 13);
    }
    float f;
    std::memcpy(&f, &x, sizeof f);
    return f;
}

/** Scalar reference bulk widen. */
template <typename Dummy = void>
static void
softWiden(const std::uint16_t *src, float *dst, std::size_t len)
{
    for (std::size_t i = 0; i < len; ++i)
        dst[i] = softHalfToFloat(src[i]);
}

/** Scalar reference bulk narrow. */
template <typename Dummy = void>
static void
softNarrow(const float *src, std::uint16_t *dst, std::size_t len)
{
    for (std::size_t i = 0; i < len; ++i)
        dst[i] = softFloatToHalf(src[i]);
}

/**
 * Scalar reference float tap-GEMM on half-stored weights. Fused
 * multiply-adds in ascending input-channel order — the same schedule
 * as the AVX2 kernel, so both are bit-identical on FMA hardware.
 */
template <typename Dummy = void>
static void
softTapGemmF16(const std::uint16_t *w, const float *u, float *m,
               std::size_t coutb, std::size_t cinb, std::size_t P,
               std::size_t p0, std::size_t pn)
{
    constexpr std::size_t B = kLayoutBlock;
    constexpr std::size_t kPr = 4; // == layout::kTapPr
    const std::size_t cinp = cinb * B;
    for (std::size_t co = 0; co < coutb; ++co) {
        const std::uint16_t *wt = w + co * cinp * B;
        for (std::size_t p = p0; p < p0 + pn; p += kPr) {
            const std::size_t pr = std::min(kPr, p0 + pn - p);
            float acc[kPr][B] = {};
            for (std::size_t cbi = 0; cbi < cinb; ++cbi) {
                const float *ub = u + (cbi * P + p) * B;
                const std::uint16_t *wb = wt + cbi * B * B;
                for (std::size_t li = 0; li < B; ++li) {
                    float w8[B];
                    for (std::size_t l = 0; l < B; ++l)
                        w8[l] = softHalfToFloat(wb[li * B + l]);
                    for (std::size_t pp = 0; pp < pr; ++pp) {
                        const float uv = ub[pp * B + li];
                        for (std::size_t l = 0; l < B; ++l)
                            acc[pp][l] =
                                std::fmaf(uv, w8[l], acc[pp][l]);
                    }
                }
            }
            for (std::size_t pp = 0; pp < pr; ++pp) {
                float *dst = m + (co * P + p + pp) * B;
                for (std::size_t l = 0; l < B; ++l)
                    dst[l] = acc[pp][l];
            }
        }
    }
}

/** Scalar reference of the fused half-storage input transform. */
template <typename Dummy = void>
static void
softWinoInputF16(const WinoKronPlan<float> &bt, const TileRow &r,
                 const std::uint16_t *plane, float *u)
{
    winoInputRef(bt, r, plane, u, softHalfToFloat);
}

/** Scalar reference of the fused half-storage output transform. */
template <typename Dummy = void>
static void
softWinoOutputF16(const WinoKronPlan<float> &at, const TileRow &r,
                  const float *mIn, std::uint16_t *plane,
                  const float *bias8, bool relu)
{
    winoOutputRef(at, r, mIn, plane, bias8, relu, softFloatToHalf);
}

} // namespace layout

/**
 * Elementwise double -> binary16 conversion (any layout): each value
 * rounds double->float->half, both steps RNE — the documented storage
 * rounding of the f16 engine. `out` is reshaped to `in`'s shape.
 */
void tensorDToF16(const TensorD &in, TensorF16 &out);

/** Elementwise binary16 -> double (exact). `out` is reshaped. */
void tensorF16ToD(const TensorF16 &in, TensorD &out);

} // namespace twq

#endif // TWQ_LAYOUT_KERNELS_F16_HH
