/**
 * @file
 * Internal SIMD kernel machinery for the NCHWc8 blocked-layout
 * Winograd passes. Not part of the public API.
 *
 * Mirrors gemm/kernels.hh: the scalar reference implementations are
 * defined `static` so every TU including this header compiles its own
 * internal-linkage copy under that TU's instruction-set flags, and
 * the ISA TUs — AVX2 (-mavx2 -mfma), AVX-512F (-mavx512f), AVX-512
 * VNNI and NEON — export resolver functions that return all-null
 * tables when unsupported. kernels() stacks them into one overlay
 * chain, scalar <- AVX2 | NEON <- AVX-512 <- VNNI, each layer filling
 * only its non-null entries.
 *
 * Two kernels make up the blocked hot path:
 *
 *  - tapGemm: the c-blocked per-tap product. U holds a tap as
 *    [Cinb, P, 8] (8 input channels contiguous per tile), the weights
 *    as [Coutb][Cinb*8][8] (8 output channels contiguous per input
 *    channel), and M is produced as [Coutb, P, 8] — so the inner loop
 *    broadcasts one U element and multiply-accumulates an 8-wide
 *    contiguous weight vector into an 8-wide accumulator: the c-block
 *    is the SIMD lane dimension, two ymm or one zmm register.
 *    Accumulation runs one fused multiply-add per element onto a zero
 *    accumulator, in strictly ascending input-channel order — the
 *    order of the blocked gemm core — so every kernel is bit-identical
 *    to scalarTapGemmD, and on FMA hardware to the NCHW per-tap GEMM.
 *
 *  - winoInput / winoOutput: the fused, tile-local transforms around
 *    it. The input kernel reads each t x t x 8 tile straight from the
 *    NCHWc8 activation, applies B^T d B separably (a row pass, then a
 *    column pass, over the rows of B^T as a sparse plan) and writes
 *    the t*t tap vectors of U; the output kernel reads the t*t tap
 *    vectors of M, applies A^T m A the same way plus the fused
 *    bias/ReLU, and writes the in-range pixels of the output. The
 *    tile never leaves registers and L1 — there is no V or Y buffer.
 *    Every term is a multiply (the first of a row) or a fused
 *    multiply-add, in plan order, so the AVX2 and AVX-512 kernels
 *    are bit-identical to the scalar references.
 *
 *  - kron: the B^T (x) B^T / A^T (x) A^T row passes over flat blocked
 *    buffers — the staged form of the same transforms, kept for the
 *    int8 engines' FP dequant, the tests' oracle and stage timing.
 *    The explicit kernel vectorizes the AXPY chain with FMA (the
 *    first term a multiply, later terms fused multiply-adds, scalar
 *    tail via std::fma so lane position never changes rounding).
 */

#ifndef TWQ_LAYOUT_KERNELS_HH
#define TWQ_LAYOUT_KERNELS_HH

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <type_traits>

#include "common/bits.hh"
#include "common/logging.hh"
#include "layout/layout.hh"
#include "winograd/tiled.hh"

namespace twq
{
namespace layout
{

/**
 * Tiles per accumulator block of the scalar, AVX2 and NEON tap-GEMM
 * kernels and of the VNNI int16 one, and the column granularity
 * winogradTapGemmBlocked shards by. The zmm kernels' register tile is
 * 8 tiles: the AVX-512 fp64 GEMM keeps 2 output blocks x 8 tiles in
 * 16 zmm, the VNNI u8 GEMM 2 output blocks x 8 tiles in 8 zmm (one
 * block pair per register). Both take any column range, with a
 * narrower tile for the tail.
 */
inline constexpr std::size_t kTapPr = 4;

/**
 * Blocked per-tap product over tile columns [p0, p0 + pn) of a tap:
 * m[co, p, l] = sum_ic w[co, ic, l] * u[ic / 8, p, ic % 8], with u
 * [cinb, P, 8], w [coutb][cinb*8][8] and m [coutb, P, 8].
 */
using TapGemmDFn = void (*)(const double *w, const double *u,
                            double *m, std::size_t coutb,
                            std::size_t cinb, std::size_t P,
                            std::size_t p0, std::size_t pn);

/**
 * Widening int16 -> int32 counterpart backing the quantized blocked
 * pipeline (quant/int_wino_blocked.hh). Same contract as TapGemmDFn,
 * but the weights come PAIR-INTERLEAVED along the input channels:
 * w[co][cp][l][2] holds channels (2cp, 2cp + 1) of lane l adjacent,
 * so the AVX2 kernel feeds `vpmaddwd` directly — one broadcast of two
 * adjacent u values (contiguous in the blocked [cinb, P, 8] layout)
 * against a pair-interleaved 16-element weight vector pair-sums two
 * input channels for all 8 lanes per instruction. cinb * 8 is even by
 * construction, so pairs never straddle a block. Operands hold at
 * most `winogradBits` <= 10 bits, so products fit int16 x int16 ->
 * int32 exactly, and the int32 accumulation is wrap-free for the
 * channel counts the pipeline asserts. Integer sums are order-free:
 * every kernel is bit-identical to the scalar reference.
 */
using TapGemmI16Fn = void (*)(const std::int16_t *w,
                              const std::int16_t *u, std::int32_t *m,
                              std::size_t coutb, std::size_t cinb,
                              std::size_t P, std::size_t p0,
                              std::size_t pn);

/** Largest transform tile edge (F6: t = 8); sizes kernel staging. */
inline constexpr std::size_t kMaxWinoT = 8;

/**
 * Call fn(std::integral_constant<std::size_t, t>{}) for a transform
 * tile edge t of F2/F4/F6 (4, 6, 8): the vector kernels instantiate
 * one body per edge so every tile loop has a compile-time trip count.
 */
template <typename Fn>
inline void
withTileEdge(std::size_t t, Fn fn)
{
    switch (t) {
      case 4:
        return fn(std::integral_constant<std::size_t, 4>{});
      case 6:
        return fn(std::integral_constant<std::size_t, 6>{});
      case 8:
        return fn(std::integral_constant<std::size_t, 8>{});
    }
    twq_panic("fused winograd kernel: unsupported tile edge ", t);
}

/**
 * One row of tiles in one channel-block plane ([h, w, 8]): the unit
 * of work of the fused transform kernels. Tile i of the row has its
 * origin at plane coordinates (y0, x0 + i*m). Tap k of tile i lives
 * at offset k * tapStride + i * 8 of the U / M pointer handed to the
 * kernel, i.e. the kernel sees the row's slice of a [t*t, Cb, P, 8]
 * buffer.
 */
struct TileRow
{
    std::size_t h = 0, w = 0;     ///< plane height / width
    std::ptrdiff_t y0 = 0;        ///< plane row of the tiles' origin
    std::ptrdiff_t x0 = 0;        ///< plane column of tile 0's origin
    std::size_t m = 0;            ///< tile step (output tile edge)
    std::size_t tiles = 0;        ///< tiles in the row
    std::size_t tapStride = 0;    ///< elements between taps of U / M
};

/**
 * Fused input transform over one row of tiles: for every tile, d is
 * the t x t window of `plane` (t = bt.rowsIn; pixels outside the
 * plane read as zero) and U = B^T d B is written as its t*t tap
 * vectors. `bt` holds the rows of B^T (winoInputSep).
 */
using WinoInputDFn = void (*)(const WinoKronPlan<double> &bt,
                              const TileRow &r, const double *plane,
                              double *u);

/** Integer counterpart of WinoInputDFn (exact — order-free sums). */
using WinoInputI32Fn = void (*)(const WinoKronPlan<std::int32_t> &bt,
                                const TileRow &r,
                                const std::int32_t *plane,
                                std::int32_t *u);

/**
 * Fused output transform over one row of tiles: for every tile, m is
 * the t x t tile of tap vectors read from `mIn`, Y = A^T m A (`at`
 * holds the rows of A^T, winoOutputSep), and each in-range pixel of
 * the m x m result is written to `plane` at (y0 + j1, x0 + i*m + j2)
 * through the fused epilogue: + bias8[l] when bias8 is non-null
 * (never + 0.0, which would flip -0.0), then `s < 0 ? 0 : s` when
 * `relu` — the exact semantics of EpilogueRowDFn.
 */
using WinoOutputDFn = void (*)(const WinoKronPlan<double> &at,
                               const TileRow &r, const double *mIn,
                               double *plane, const double *bias8,
                               bool relu);

/** applyKron over rows of length `len` (identical contract). */
using KronDFn = void (*)(const WinoKronPlan<double> &plan,
                         const double *x, std::size_t len, double *y);

/** Integer applyKron counterpart (exact — order-free int sums). */
using KronI32Fn = void (*)(const WinoKronPlan<std::int32_t> &plan,
                           const std::int32_t *x, std::size_t len,
                           std::int32_t *y);

/**
 * The S_B requantization narrowing pass of the quantized blocked
 * pipeline: dst[i] = clampSigned(shiftRightRound(src[i], shift),
 * bits) as int16, for shift >= 0 (S_B never scales up). Exact
 * (branch-free sign arithmetic computes the identical
 * round-half-away-from-zero result).
 */
using RescaleI16Fn = void (*)(const std::int32_t *src,
                              std::int16_t *dst, std::size_t len,
                              int shift, int bits);

/**
 * u8 x s8 counterpart of TapGemmI16Fn for 8-bit Winograd-domain
 * operands, the layout-side `vpdpbusd` variant: `u` holds the
 * requantized taps biased into unsigned range (value + 128), `w` the
 * QUAD-interleaved signed weights ([co][cinp/4][8][4], four input
 * channels per lane adjacent), and `comp` the per-output-lane
 * compensation 128 * sum_ic w[co, ic, l] for this tap (precomputed
 * at weight-prepare time — the weights are static), subtracted so
 * the result equals the unbiased product exactly:
 *
 *     sum_ic (u + 128) * w - 128 * sum_ic w = sum_ic u * w.
 */
using TapGemmU8Fn = void (*)(const std::int8_t *w,
                             const std::uint8_t *u,
                             const std::int32_t *comp,
                             std::int32_t *m, std::size_t coutb,
                             std::size_t cinb, std::size_t P,
                             std::size_t p0, std::size_t pn);

/**
 * RescaleI16Fn counterpart emitting the biased u8 operand of
 * TapGemmU8Fn: dst[i] = u8(clampSigned(shiftRightRound(src[i],
 * shift), bits) + 128), for bits <= 8.
 */
using RescaleU8Fn = void (*)(const std::int32_t *src,
                             std::uint8_t *dst, std::size_t len,
                             int shift, int bits);

/**
 * The spatial-domain input quantization of the quantized blocked
 * pipeline for POWER-OF-TWO scales: dst[i] =
 * clamp(nearbyint(src[i] * inv), lo, hi) with inv = 1 / scale.
 * Division by a power of two is exact and so is multiplication by
 * its reciprocal, and vroundpd's round-to-nearest-even is exactly
 * std::nearbyint under the default FP environment — so this is
 * bit-identical to quantize() from quant/quantizer.hh, element for
 * element. Non-pow2 scales must keep the scalar divide.
 */
using QuantizeI32Fn = void (*)(const double *src, double inv,
                               double lo, double hi,
                               std::int32_t *dst, std::size_t len);

/**
 * QuantizeI32Fn narrowing counterpart for the int8 im2col engine's
 * activation quantization: dst[i] = int8(clamp(nearbyint(src[i] *
 * inv), lo, hi)), in the style of the rescale* narrowing kernels.
 * Bit-identical to quantize() from quant/quantizer.hh when `inv` is
 * the exact reciprocal of the scale (power-of-two scales); arbitrary
 * scales must keep the scalar divide.
 */
using QuantizeI8Fn = void (*)(const double *src, double inv, double lo,
                              double hi, std::int8_t *dst,
                              std::size_t len);

/**
 * The fused bias/ReLU epilogue over one untile output row: `count`
 * groups of 8 lanes, group i read from src + i*8 (tile columns are
 * contiguous in Y) and written to dst + i*dstStride (the untiled
 * surface strides by m*8 between tile points of one row),
 *
 *     dst[i*dstStride + l] = relu(src[i*8 + l] + bias8[l]).
 *
 * bias8 may be null (ReLU only) and relu false (bias only) — a null
 * bias must NOT degenerate to adding 0.0, which would flip -0.0
 * outputs to +0.0. The ReLU select is exactly `s < 0 ? 0 : s`: -0.0
 * and NaN pass through unchanged, so the fused write is bit-identical
 * to the separate-pass epilogue (vmaxpd with the zero operand first
 * has precisely these semantics).
 */
using EpilogueRowDFn = void (*)(const double *src, double *dst,
                                std::size_t dstStride,
                                std::size_t count, const double *bias8,
                                bool relu);

/**
 * The FP dequant scale pass of the quantized blocked pipeline: one
 * (tap, coutb) slice of the GEMM output M scaled per lane,
 * dst[p*8 + l] = double(src[p*8 + l]) * scale8[l] over `tiles`
 * tiles.
 */
using ScaleI32F64Fn = void (*)(const std::int32_t *src,
                               const double *scale8, double *dst,
                               std::size_t tiles);

/** One ISA's kernel set; null entries mean "not available here". */
struct LayoutKernels
{
    TapGemmDFn tapGemm = nullptr;
    KronDFn kron = nullptr;
    TapGemmI16Fn tapGemmI16 = nullptr;
    KronI32Fn kronI32 = nullptr;
    RescaleI16Fn rescaleI16 = nullptr;
    /// u8 x s8 tap GEMM for 8-bit operands; null everywhere except
    /// AVX-512 VNNI hosts (plain AVX2's vpmaddubsw would saturate).
    TapGemmU8Fn tapGemmU8 = nullptr;
    RescaleU8Fn rescaleU8 = nullptr;
    ScaleI32F64Fn scaleI32F64 = nullptr;
    QuantizeI32Fn quantizeI32 = nullptr;
    QuantizeI8Fn quantizeI8 = nullptr;
    EpilogueRowDFn epilogueRowD = nullptr;
    WinoInputDFn winoInputD = nullptr;
    WinoInputI32Fn winoInputI32 = nullptr;
    WinoOutputDFn winoOutputD = nullptr;
    const char *name = "scalar";
};

/// AVX2+FMA kernels (kernels_avx2.cc); nulls when not compiled in or
/// the CPU lacks support.
LayoutKernels avx2LayoutKernels();

/// NEON kernels (kernels_neon.cc); nulls off aarch64.
LayoutKernels neonLayoutKernels();

/// AVX-512F fp64 kernels (kernels_avx512.cc): the zmm tap GEMM and
/// fused input / output transforms; nulls when not compiled in or the
/// CPU lacks AVX512F.
LayoutKernels avx512LayoutKernels();

/// AVX-512 VNNI kernels (kernels_vnni.cc): the zmm vpdpbusd u8 x s8
/// tap GEMM and a vpdpwssd int16 tap GEMM; nulls when not compiled in
/// or the CPU lacks any of AVX2, AVX512F/VL/BW/VNNI (the TU's ISA
/// flags).
LayoutKernels vnniLayoutKernels();

/**
 * The resolved process-wide kernel set (wino_blocked.cc): the overlay
 * chain scalar <- AVX2 | NEON <- AVX-512 <- VNNI, each layer filling
 * only its non-null entries. The name joins the contributing layers
 * with '+' (e.g. "avx2+avx512+vnni512"; "scalar" when none did).
 */
const LayoutKernels &kernels();

/**
 * Scalar reference tap-GEMM; the autovectorization-friendly shape.
 * std::fma keeps it bit-identical to the vector kernels on any target.
 */
template <typename Dummy = void>
static void
scalarTapGemmD(const double *w, const double *u, double *m,
               std::size_t coutb, std::size_t cinb, std::size_t P,
               std::size_t p0, std::size_t pn)
{
    constexpr std::size_t B = kLayoutBlock;
    const std::size_t cinp = cinb * B;
    for (std::size_t co = 0; co < coutb; ++co) {
        const double *wt = w + co * cinp * B;
        for (std::size_t p = p0; p < p0 + pn; p += kTapPr) {
            const std::size_t pr = std::min(kTapPr, p0 + pn - p);
            double acc[kTapPr][B] = {};
            for (std::size_t cbi = 0; cbi < cinb; ++cbi) {
                const double *ub = u + (cbi * P + p) * B;
                const double *wb = wt + cbi * B * B;
                for (std::size_t li = 0; li < B; ++li) {
                    const double *w8 = wb + li * B;
                    for (std::size_t pp = 0; pp < pr; ++pp) {
                        const double uv = ub[pp * B + li];
                        for (std::size_t l = 0; l < B; ++l)
                            acc[pp][l] =
                                std::fma(uv, w8[l], acc[pp][l]);
                    }
                }
            }
            for (std::size_t pp = 0; pp < pr; ++pp) {
                double *dst = m + (co * P + p + pp) * B;
                for (std::size_t l = 0; l < B; ++l)
                    dst[l] = acc[pp][l];
            }
        }
    }
}

/** Scalar reference kron row pass (same schedule as applyKron). */
template <typename Dummy = void>
static void
scalarKronD(const WinoKronPlan<double> &plan, const double *x,
            std::size_t len, double *y)
{
    applyKron(plan, x, len, y);
}

/** Scalar reference integer kron row pass. */
template <typename Dummy = void>
static void
scalarKronI32(const WinoKronPlan<std::int32_t> &plan,
              const std::int32_t *x, std::size_t len, std::int32_t *y)
{
    applyKron(plan, x, len, y);
}

/** Scalar reference of the requantization narrowing pass. */
template <typename Dummy = void>
static void
scalarRescaleI16(const std::int32_t *src, std::int16_t *dst,
                 std::size_t len, int shift, int bits)
{
    for (std::size_t i = 0; i < len; ++i)
        dst[i] = static_cast<std::int16_t>(
            clampSigned(shiftRightRound(src[i], shift), bits));
}

/** Scalar reference of the pow2 input quantization. */
template <typename Dummy = void>
static void
scalarQuantizeI32(const double *src, double inv, double lo, double hi,
                  std::int32_t *dst, std::size_t len)
{
    for (std::size_t i = 0; i < len; ++i)
        dst[i] = static_cast<std::int32_t>(
            std::clamp(std::nearbyint(src[i] * inv), lo, hi));
}

/** Scalar reference of the pow2 int8 activation quantization. */
template <typename Dummy = void>
static void
scalarQuantizeI8(const double *src, double inv, double lo, double hi,
                 std::int8_t *dst, std::size_t len)
{
    for (std::size_t i = 0; i < len; ++i)
        dst[i] = static_cast<std::int8_t>(
            std::clamp(std::nearbyint(src[i] * inv), lo, hi));
}

/**
 * Scalar reference of the fused epilogue row pass. The per-mode tight
 * loops matter even here: one data-dependent ReLU branch per lane
 * mispredicts ~half the time over a whole activation surface.
 */
template <typename T>
inline void
epilogueRowRef(const T *src, T *dst, std::size_t dstStride,
               std::size_t count, const T *bias8, bool relu)
{
    constexpr std::size_t B = kLayoutBlock;
    if (bias8 && relu) {
        for (std::size_t i = 0; i < count; ++i)
            for (std::size_t l = 0; l < B; ++l) {
                const T s = src[i * B + l] + bias8[l];
                dst[i * dstStride + l] = s < T{} ? T{} : s;
            }
    } else if (bias8) {
        for (std::size_t i = 0; i < count; ++i)
            for (std::size_t l = 0; l < B; ++l)
                dst[i * dstStride + l] = src[i * B + l] + bias8[l];
    } else if (relu) {
        for (std::size_t i = 0; i < count; ++i)
            for (std::size_t l = 0; l < B; ++l) {
                const T s = src[i * B + l];
                dst[i * dstStride + l] = s < T{} ? T{} : s;
            }
    } else {
        for (std::size_t i = 0; i < count; ++i)
            std::copy(src + i * B, src + (i + 1) * B,
                      dst + i * dstStride);
    }
}

/// One term of a sparse transform row: c * x, or c * x + acc. Fused
/// for floating point (std::fma has float and double overloads), so
/// a vector kernel issuing one vfmadd per term matches it bit for bit.
template <typename T>
inline T
sepTerm(T c, T x, T acc)
{
    if constexpr (std::is_floating_point_v<T>)
        return std::fma(c, x, acc);
    else
        return acc + c * x;
}

/**
 * out[j] = sum over the terms of plan row j of coeff * in[term.in],
 * 8 lanes per vector, for every row j of the plan. `in` and `out`
 * are arrays of 8-lane vectors strided by inStride / outStride
 * elements. An empty row writes zeros.
 */
template <typename T>
inline void
sepPass(const WinoKronPlan<T> &plan, const T *in, std::size_t inStride,
        T *out, std::size_t outStride)
{
    constexpr std::size_t B = kLayoutBlock;
    for (std::size_t j = 0; j < plan.rowsOut; ++j) {
        T acc[B] = {};
        const std::uint32_t begin = plan.rowStart[j];
        const std::uint32_t end = plan.rowStart[j + 1];
        if (begin != end) {
            const auto &t0 = plan.terms[begin];
            for (std::size_t l = 0; l < B; ++l)
                acc[l] = t0.coeff * in[t0.in * inStride + l];
        }
        for (std::uint32_t ti = begin + 1; ti < end; ++ti) {
            const auto &term = plan.terms[ti];
            for (std::size_t l = 0; l < B; ++l)
                acc[l] = sepTerm(term.coeff, in[term.in * inStride + l],
                                 acc[l]);
        }
        std::copy(acc, acc + B, out + j * outStride);
    }
}

/**
 * Scalar reference of the fused input transform for any element
 * type: `load` widens one stored element S to the compute type T.
 * The row pass computes tmp[a] = (d B)[a] for every tile row a, the
 * column pass U[i][j] = (B^T tmp)[i][j]; the AVX2 kernels run the
 * identical schedule.
 */
template <typename T, typename S, typename Load>
inline void
winoInputRef(const WinoKronPlan<T> &bt, const TileRow &r,
             const S *plane, T *u, Load load)
{
    constexpr std::size_t B = kLayoutBlock;
    const std::size_t t = bt.rowsIn;
    const auto h = static_cast<std::ptrdiff_t>(r.h);
    const auto w = static_cast<std::ptrdiff_t>(r.w);
    T src[kMaxWinoT * B];
    T tmp[kMaxWinoT * kMaxWinoT * B]; // [a][j][8]
    T col[kMaxWinoT * B];
    for (std::size_t i = 0; i < r.tiles; ++i) {
        const std::ptrdiff_t xs =
            r.x0 + static_cast<std::ptrdiff_t>(i * r.m);
        for (std::size_t a = 0; a < t; ++a) {
            const std::ptrdiff_t y =
                r.y0 + static_cast<std::ptrdiff_t>(a);
            for (std::size_t b = 0; b < t; ++b) {
                const std::ptrdiff_t x =
                    xs + static_cast<std::ptrdiff_t>(b);
                const bool in = y >= 0 && y < h && x >= 0 && x < w;
                for (std::size_t l = 0; l < B; ++l)
                    src[b * B + l] =
                        in ? load(plane[(y * w + x) * B + l]) : T{};
            }
            sepPass(bt, src, B, tmp + a * t * B, B);
        }
        for (std::size_t j = 0; j < t; ++j) {
            sepPass(bt, tmp + j * B, t * B, col, B);
            for (std::size_t k = 0; k < t; ++k)
                std::copy(col + k * B, col + (k + 1) * B,
                          u + (k * t + j) * r.tapStride + i * B);
        }
    }
}

/**
 * Scalar reference of the fused output transform: `store` narrows one
 * compute-type result T into the stored element D.
 */
template <typename T, typename D, typename Store>
inline void
winoOutputRef(const WinoKronPlan<T> &at, const TileRow &r,
              const T *mIn, D *plane, const T *bias8, bool relu,
              Store store)
{
    constexpr std::size_t B = kLayoutBlock;
    const std::size_t t = at.rowsIn;
    const std::size_t m = at.rowsOut;
    const std::size_t rows =
        std::min(m, r.h - static_cast<std::size_t>(r.y0));
    T src[kMaxWinoT * B];
    T tmp[kMaxWinoT * kMaxWinoT * B]; // [a][j2][8]
    T col[kMaxWinoT * B];
    for (std::size_t i = 0; i < r.tiles; ++i) {
        const std::size_t x =
            static_cast<std::size_t>(r.x0) + i * r.m;
        const std::size_t cols = std::min(m, r.w - x);
        for (std::size_t a = 0; a < t; ++a) {
            for (std::size_t b = 0; b < t; ++b)
                std::copy(mIn + (a * t + b) * r.tapStride + i * B,
                          mIn + (a * t + b) * r.tapStride + (i + 1) * B,
                          src + b * B);
            sepPass(at, src, B, tmp + a * m * B, B);
        }
        for (std::size_t j2 = 0; j2 < cols; ++j2) {
            sepPass(at, tmp + j2 * B, m * B, col, B);
            for (std::size_t j1 = 0; j1 < rows; ++j1) {
                D *dst = plane + ((static_cast<std::size_t>(r.y0) + j1) *
                                      r.w +
                                  x + j2) *
                                     B;
                for (std::size_t l = 0; l < B; ++l) {
                    T s = col[j1 * B + l];
                    if (bias8)
                        s = s + bias8[l];
                    if (relu)
                        s = s < T{} ? T{} : s;
                    dst[l] = store(s);
                }
            }
        }
    }
}

/** Scalar reference of the fp64 fused input transform. */
template <typename Dummy = void>
static void
scalarWinoInputD(const WinoKronPlan<double> &bt, const TileRow &r,
                 const double *plane, double *u)
{
    winoInputRef(bt, r, plane, u, [](double v) { return v; });
}

/** Scalar reference of the integer fused input transform. */
template <typename Dummy = void>
static void
scalarWinoInputI32(const WinoKronPlan<std::int32_t> &bt,
                   const TileRow &r, const std::int32_t *plane,
                   std::int32_t *u)
{
    winoInputRef(bt, r, plane, u, [](std::int32_t v) { return v; });
}

/** Scalar reference of the fp64 fused output transform. */
template <typename Dummy = void>
static void
scalarWinoOutputD(const WinoKronPlan<double> &at, const TileRow &r,
                  const double *mIn, double *plane,
                  const double *bias8, bool relu)
{
    winoOutputRef(at, r, mIn, plane, bias8, relu,
                  [](double v) { return v; });
}

/** Scalar reference of the double epilogue row pass. */
template <typename Dummy = void>
static void
scalarEpilogueRowD(const double *src, double *dst,
                   std::size_t dstStride, std::size_t count,
                   const double *bias8, bool relu)
{
    epilogueRowRef(src, dst, dstStride, count, bias8, relu);
}

/** Scalar reference of the FP dequant scale pass. */
template <typename Dummy = void>
static void
scalarScaleI32F64(const std::int32_t *src, const double *scale8,
                  double *dst, std::size_t tiles)
{
    constexpr std::size_t B = kLayoutBlock;
    for (std::size_t p = 0; p < tiles; ++p)
        for (std::size_t l = 0; l < B; ++l)
            dst[p * B + l] =
                static_cast<double>(src[p * B + l]) * scale8[l];
}

/** Scalar reference of the biased-u8 requantization pass. */
template <typename Dummy = void>
static void
scalarRescaleU8(const std::int32_t *src, std::uint8_t *dst,
                std::size_t len, int shift, int bits)
{
    for (std::size_t i = 0; i < len; ++i)
        dst[i] = static_cast<std::uint8_t>(
            clampSigned(shiftRightRound(src[i], shift), bits) + 128);
}

/** Scalar reference u8 x s8 tap-GEMM on quad-interleaved weights. */
template <typename Dummy = void>
static void
scalarTapGemmU8(const std::int8_t *w, const std::uint8_t *u,
                const std::int32_t *comp, std::int32_t *m,
                std::size_t coutb, std::size_t cinb, std::size_t P,
                std::size_t p0, std::size_t pn)
{
    constexpr std::size_t B = kLayoutBlock;
    const std::size_t quads = cinb * B / 4; // channel quads
    for (std::size_t co = 0; co < coutb; ++co) {
        const std::int8_t *wt = w + co * quads * 4 * B;
        const std::int32_t *cv = comp + co * B;
        for (std::size_t p = p0; p < p0 + pn; p += kTapPr) {
            const std::size_t pr = std::min(kTapPr, p0 + pn - p);
            std::int32_t acc[kTapPr][B];
            for (std::size_t pp = 0; pp < pr; ++pp)
                for (std::size_t l = 0; l < B; ++l)
                    acc[pp][l] = -cv[l];
            for (std::size_t q = 0; q < quads; ++q) {
                // Channels 4q..4q+3 live in block q / 2 at lane
                // offset 4 * (q % 2) — adjacent in the blocked U.
                const std::uint8_t *ub =
                    u + ((q / 2) * P + p) * B + (q % 2) * 4;
                const std::int8_t *wb = wt + q * 4 * B;
                for (std::size_t pp = 0; pp < pr; ++pp)
                    for (std::size_t l = 0; l < B; ++l)
                        for (std::size_t j = 0; j < 4; ++j)
                            acc[pp][l] +=
                                static_cast<std::int32_t>(
                                    ub[pp * B + j]) *
                                static_cast<std::int32_t>(
                                    wb[l * 4 + j]);
            }
            for (std::size_t pp = 0; pp < pr; ++pp) {
                std::int32_t *dst = m + (co * P + p + pp) * B;
                for (std::size_t l = 0; l < B; ++l)
                    dst[l] = acc[pp][l];
            }
        }
    }
}

/** Scalar reference widening tap-GEMM on pair-interleaved weights. */
template <typename Dummy = void>
static void
scalarTapGemmI16(const std::int16_t *w, const std::int16_t *u,
                 std::int32_t *m, std::size_t coutb, std::size_t cinb,
                 std::size_t P, std::size_t p0, std::size_t pn)
{
    constexpr std::size_t B = kLayoutBlock;
    const std::size_t pairs = cinb * B / 2; // channel pairs
    for (std::size_t co = 0; co < coutb; ++co) {
        const std::int16_t *wt = w + co * pairs * 2 * B;
        for (std::size_t p = p0; p < p0 + pn; p += kTapPr) {
            const std::size_t pr = std::min(kTapPr, p0 + pn - p);
            std::int32_t acc[kTapPr][B] = {};
            for (std::size_t cp = 0; cp < pairs; ++cp) {
                // Channels (2cp, 2cp+1) live in block cp / 4 at lane
                // offset 2 * (cp % 4) — adjacent in the blocked U.
                const std::int16_t *ub =
                    u + ((cp / 4) * P + p) * B + (cp % 4) * 2;
                const std::int16_t *wb = wt + cp * 2 * B;
                for (std::size_t pp = 0; pp < pr; ++pp) {
                    const std::int32_t u0 = ub[pp * B];
                    const std::int32_t u1 = ub[pp * B + 1];
                    for (std::size_t l = 0; l < B; ++l)
                        acc[pp][l] += u0 * wb[l * 2] +
                                      u1 * wb[l * 2 + 1];
                }
            }
            for (std::size_t pp = 0; pp < pr; ++pp) {
                std::int32_t *dst = m + (co * P + p + pp) * B;
                for (std::size_t l = 0; l < B; ++l)
                    dst[l] = acc[pp][l];
            }
        }
    }
}

} // namespace layout
} // namespace twq

#endif // TWQ_LAYOUT_KERNELS_HH
