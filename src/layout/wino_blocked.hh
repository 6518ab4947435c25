/**
 * @file
 * NCHWc8 blocked-layout Winograd execution: the scatter — per-tap
 * GEMM — gather pipeline of winograd/tiled.hh, re-laid so every hot
 * access is unit stride and fused so each tile is transformed where
 * it is read.
 *
 * The served path is three stages:
 *
 *   input   [N, Cinb, H, W, 8]        (layout/layout.hh NCHWc8)
 *     -> fused input transform: each t x t x 8 tile is read straight
 *        from the activation and B^T d B is applied in registers
 *   U       [t*t, Cinb, P, 8]
 *     -> per-tap GEMM, the c-block as the SIMD lane dimension
 *   M       [t*t, Coutb, P, 8]
 *     -> fused output transform: A^T m A, bias/ReLU epilogue, and a
 *        write of the in-range pixels
 *   output  [N, Coutb, Ho, Wo, 8]
 *
 * with P = N * tilesY * tilesX. Both transforms apply the rows of
 * B^T / A^T as sparse plans (winoInputSep / winoOutputSep), a row
 * pass then a column pass per tile (layout/kernels.hh) — 264 terms
 * per F4 input tile where the Kronecker form B^T ⊗ B^T has 484 — and
 * no raw-tile (V) or back-transformed (Y) buffer exists. The staged
 * functions (winogradGatherTilesBlocked, the kron kernels,
 * winogradUntileBlocked) remain as the tests' oracle and for stage
 * timing.
 *
 * Numerics: the tap GEMM accumulates each element in ascending input
 * channel order with one fused multiply-add per term, like the
 * blocked gemm core, so it is bit-identical to the NCHW per-tap GEMM
 * on FMA hardware. The fused transforms reassociate the kron's sums
 * (row then column pass instead of one L ⊗ L row), so fp results
 * agree with the staged pipeline to rounding, not bit for bit;
 * integer transforms are exact either way. Every tile is computed the
 * same way wherever it falls and every element's sum is independent
 * of P, so batched execution is bit-identical to sequential and
 * sharded execution to serial.
 */

#ifndef TWQ_LAYOUT_WINO_BLOCKED_HH
#define TWQ_LAYOUT_WINO_BLOCKED_HH

#include "gemm/parallel.hh"
#include "layout/kernels_f16.hh"
#include "layout/layout.hh"
#include "winograd/tiled.hh"

namespace twq
{

/**
 * Tap-major weights re-blocked for the NCHWc8 per-tap kernel: tap k
 * is [Coutb][Cinb*8][8] with the last axis the 8 output channels of
 * a block. Rows past Cout and columns past Cin are zero, so padded
 * lanes never contribute to (or receive) logical values.
 */
struct BlockedTapWeights
{
    WinoVariant variant = WinoVariant::F2;
    std::size_t cout = 0;  ///< logical output channels
    std::size_t cin = 0;   ///< logical input channels
    std::size_t coutb = 0; ///< output channel blocks
    std::size_t cinb = 0;  ///< input channel blocks
    /// [t*t][coutb][cinb*8][8]
    std::vector<double> taps;

    const double *
    tap(std::size_t k) const
    {
        return taps.data() +
               k * coutb * cinb * kLayoutBlock * kLayoutBlock;
    }
};

/** Re-block tap-major weights (winograd/tiled.hh) for the kernel. */
BlockedTapWeights blockedTapWeights(const WinogradTapWeights<double> &w);

/**
 * Half-precision storage variant of BlockedTapWeights: the same
 * [t*t][coutb][cinb*8][8] blocking with every coefficient narrowed to
 * IEEE binary16 (round-to-nearest-even). The tap-GEMM widens one
 * 8-half vector per fused multiply-add, halving weight-side bandwidth.
 */
struct BlockedTapWeightsF16
{
    WinoVariant variant = WinoVariant::F2;
    std::size_t cout = 0;  ///< logical output channels
    std::size_t cin = 0;   ///< logical input channels
    std::size_t coutb = 0; ///< output channel blocks
    std::size_t cinb = 0;  ///< input channel blocks
    /// [t*t][coutb][cinb*8][8] IEEE halves
    std::vector<std::uint16_t> taps;

    const std::uint16_t *
    tap(std::size_t k) const
    {
        return taps.data() +
               k * coutb * cinb * kLayoutBlock * kLayoutBlock;
    }
};

/** Re-block tap-major weights and narrow them to binary16 storage. */
BlockedTapWeightsF16
blockedTapWeightsF16(const WinogradTapWeights<double> &w);

/** Name of the blocked-layout kernel set in use ("avx2", ...). */
const char *layoutKernelName();

/** WinoDims for a blocked [N, Cb, H, W, 8] input shape; d.cin counts
 * physical lanes (Cb * 8). */
WinoDims winoDimsBlocked(const Shape &s, WinoVariant v,
                         std::size_t pad);

/**
 * Blocked counterpart of winogradGatherTiles: copy every (padded)
 * input tile of the NCHWc8 batch into V ([t*t, Cinb, P, 8]) as whole
 * 8-channel vectors. Every element of V is written. The staged
 * reference of the fused input transform (with the kron kernels).
 */
template <typename T>
void winogradGatherTilesBlocked(const Tensor<T> &input, WinoVariant v,
                                std::size_t pad, Tensor<T> &V);

/**
 * Blocked per-tap GEMM: M[k] = W[k] * U[k] on the c-blocked operands
 * (see layout/kernels.hh). Taps — further split into P column blocks
 * when taps alone would under-fill the pool — shard across `runner`;
 * every shard computes the same per-element ascending-channel sums,
 * so parallel execution is bit-identical to serial.
 */
void winogradTapGemmBlocked(const BlockedTapWeights &w,
                            const TensorD &U, TensorD &M,
                            gemm::ParallelRunner *runner = nullptr);

/**
 * Blocked counterpart of winogradUntile: write the A-transformed tile
 * rows Y ([m*m, Coutb, P, 8]) into the NCHWc8 output (edge tiles
 * clipped), 8-wide vectors at a time. `out` must be pre-shaped
 * [N, Coutb, Ho, Wo, 8]. The staged reference of the fused output
 * transform, and the untile of the int8 engine's FP dequant.
 *
 * Optional fused epilogue: a non-null `bias8` ([Coutb*8], tail lanes
 * zero) is added per output lane and `relu` clamps negatives to zero
 * as each vector is written — the untile touches every output exactly
 * once, so the epilogue costs no extra memory pass and is
 * bit-identical to a separate bias/ReLU sweep.
 */
template <typename T>
void winogradUntileBlocked(const Tensor<T> &Y, WinoVariant v,
                           Tensor<T> &out, const T *bias8 = nullptr,
                           bool relu = false);

/**
 * Fused input transform: U ([t*t, Cinb, P, 8], reshaped as needed) =
 * B^T d B for every tile d of the NCHWc8 `input`, read straight from
 * the activation — the gather and the B-kron in one pass
 * (layout::LayoutKernels::winoInputD / winoInputI32). The integer
 * form equals winogradGatherTilesBlocked + kronI32 exactly; the fp64
 * form agrees with gather + kron to rounding. Tile rows shard across
 * `runner` without changing a result.
 */
void winogradInputTransformBlocked(const TensorD &input, WinoVariant v,
                                   std::size_t pad, TensorD &U,
                                   gemm::ParallelRunner *runner = nullptr);
void winogradInputTransformBlocked(const TensorI32 &input,
                                   WinoVariant v, std::size_t pad,
                                   TensorI32 &U,
                                   gemm::ParallelRunner *runner = nullptr);

/**
 * Half-storage fused input transform: the fp32 U of the f16 engine,
 * each binary16 tile element widened once as it is read
 * (layout::F16Kernels::winoInput).
 */
void winogradInputTransformBlocked(const TensorF16 &input,
                                   WinoVariant v, std::size_t pad,
                                   TensorF &U,
                                   gemm::ParallelRunner *runner = nullptr);

/**
 * Fused output transform: for every tile m of M ([t*t, Coutb, P, 8]),
 * A^T m A with the fused epilogue is written to the in-range pixels
 * of the pre-shaped NCHWc8 `out` ([N, Coutb, Ho, Wo, 8]) — the A-kron
 * and the untile in one pass. A non-null `bias8` ([Coutb*8], tail
 * lanes zero) is added per output lane and `relu` clamps negatives to
 * zero, with exactly the semantics of winogradUntileBlocked's
 * epilogue.
 */
void winogradOutputTransformBlocked(const TensorD &M, WinoVariant v,
                                    TensorD &out,
                                    const double *bias8 = nullptr,
                                    bool relu = false,
                                    gemm::ParallelRunner *runner = nullptr);

/**
 * Half-storage fused output transform: the fp32 result and epilogue
 * of each pixel are narrowed to binary16 once (round-to-nearest-even)
 * as they are written (layout::F16Kernels::winoOutput).
 */
void winogradOutputTransformBlocked(const TensorF &M, WinoVariant v,
                                    TensorF16 &out,
                                    const float *bias8 = nullptr,
                                    bool relu = false,
                                    gemm::ParallelRunner *runner = nullptr);

/**
 * Full blocked-layout Winograd convolution with caller-provided
 * buffers (e.g. ScratchArena slots): fused input transform into U,
 * per-tap GEMM into M, fused output transform (with the `bias8` /
 * `relu` epilogue) into `out`. `out` must be pre-shaped
 * [N, Coutb, Ho, Wo, 8]; U and M are reshaped as needed.
 */
void conv2dWinogradBlockedInto(const TensorD &input,
                               const BlockedTapWeights &w,
                               std::size_t pad, TensorD &U, TensorD &M,
                               TensorD &out,
                               gemm::ParallelRunner *runner = nullptr,
                               const double *bias8 = nullptr,
                               bool relu = false);

/** Convenience wrapper allocating its own buffers. */
TensorD conv2dWinogradBlocked(const TensorD &input,
                              const BlockedTapWeights &w,
                              std::size_t pad = 1);

/**
 * Half-storage blocked Winograd convolution: NCHWc8 binary16
 * activations in and out, binary16 weights, all arithmetic in fp32.
 *
 *   input [N, Cinb, H, W, 8] halves -widen + fused B^T d B-> U (fp32)
 *   U -tap GEMM-> M (fp32)
 *   M -fused A^T m A + epilogue + narrow-> out [N, Coutb, Ho, Wo, 8]
 *
 * The fused bias/ReLU epilogue is applied in fp32 before the
 * narrowing, so each stored half is a single round-to-nearest-even of
 * the fp32 epilogue result. `out` must be pre-shaped; U and M are
 * reshaped as needed.
 */
void conv2dWinogradBlockedF16Into(const TensorF16 &input,
                                  const BlockedTapWeightsF16 &w,
                                  std::size_t pad, TensorF &U,
                                  TensorF &M, TensorF16 &out,
                                  gemm::ParallelRunner *runner = nullptr,
                                  const float *bias8 = nullptr,
                                  bool relu = false);

/** Convenience wrapper allocating its own buffers. */
TensorF16 conv2dWinogradBlockedF16(const TensorF16 &input,
                                   const BlockedTapWeightsF16 &w,
                                   std::size_t pad = 1,
                                   const float *bias8 = nullptr,
                                   bool relu = false);

extern template void winogradGatherTilesBlocked(const Tensor<double> &,
                                                WinoVariant,
                                                std::size_t,
                                                Tensor<double> &);
extern template void
winogradGatherTilesBlocked(const Tensor<std::int32_t> &, WinoVariant,
                           std::size_t, Tensor<std::int32_t> &);
extern template void winogradUntileBlocked(const Tensor<double> &,
                                           WinoVariant,
                                           Tensor<double> &,
                                           const double *, bool);
extern template void
winogradUntileBlocked(const Tensor<std::int64_t> &, WinoVariant,
                      Tensor<std::int64_t> &, const std::int64_t *,
                      bool);

} // namespace twq

#endif // TWQ_LAYOUT_WINO_BLOCKED_HH
