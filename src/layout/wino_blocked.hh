/**
 * @file
 * NCHWc8 blocked-layout Winograd execution: the scatter — per-tap
 * GEMM — gather pipeline of winograd/tiled.hh, re-laid so every hot
 * access is unit stride, fused so each tile is transformed where it
 * is read, and run one L2-resident chunk of tiles at a time.
 *
 * The served path walks a layer's N * tilesY tile rows (one image row
 * of tilesX tiles across every channel block) in chunks of whole rows
 * (tileChunks), and runs three stages per chunk:
 *
 *   input   [N, Cinb, H, W, 8]        (layout/layout.hh NCHWc8)
 *     -> fused input transform: each t x t x 8 tile is read straight
 *        from the activation and B^T d B is applied in registers
 *   U       [t*t, Cinb, S, 8]         the chunk's Pc <= S tiles
 *     -> per-tap GEMM, the c-block as the SIMD lane dimension
 *   M       [t*t, Coutb, S, 8]
 *     -> fused output transform: A^T m A, bias/ReLU epilogue, and a
 *        write of the in-range pixels
 *   output  [N, Coutb, Ho, Wo, 8]
 *
 * U and M are chunk buffers: one [lanes x chunk] allocation per
 * engine, sized by the chunk geometry rather than by the layer, so a
 * worker's scratch does not grow with batch size and stays hot from
 * layer to layer. S is the chunk's tile extent, padded by one tile
 * when the tap stride would be a multiple of 4 KiB (kAliasStrideBytes).
 * With a runner, chunks shard across lanes, each lane working in its
 * own slice of the buffers — one parallel region per layer.
 *
 * All three stages dispatch through layout::kernels(), an overlay
 * chain scalar <- AVX2 | NEON <- AVX-512 <- VNNI; on AVX-512F hosts
 * the fp64 stages hold one c-block (8 doubles) per zmm register.
 *
 * Both transforms apply the rows of B^T / A^T as sparse plans
 * (winoInputSep / winoOutputSep), a row pass then a column pass per
 * tile (layout/kernels.hh) — 264 terms per F4 input tile where the
 * Kronecker form B^T ⊗ B^T has 484 — and no raw-tile (V) or
 * back-transformed (Y) buffer exists. The whole-layer functions
 * (winogradInputTransformBlocked, winogradTapGemmBlocked,
 * winogradOutputTransformBlocked) and the staged ones
 * (winogradGatherTilesBlocked, the kron kernels,
 * winogradUntileBlocked) remain as the tests' oracle and for stage
 * timing.
 *
 * Numerics: the tap GEMM accumulates each element in ascending input
 * channel order with one fused multiply-add per term, like the
 * blocked gemm core, so it is bit-identical to the NCHW per-tap GEMM
 * on FMA hardware, and every ISA's kernels are bit-identical to the
 * scalar references. The fused transforms reassociate the kron's sums
 * (row then column pass instead of one L ⊗ L row), so fp results
 * agree with the staged pipeline to rounding, not bit for bit;
 * integer transforms are exact either way. Every tile is computed the
 * same way wherever it falls and every element's sum is independent
 * of P, so chunked execution is bit-identical to the whole-layer
 * composition, batched to sequential and sharded to serial.
 */

#ifndef TWQ_LAYOUT_WINO_BLOCKED_HH
#define TWQ_LAYOUT_WINO_BLOCKED_HH

#include <functional>

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
 * Whole-layer fused input transform: U ([t*t, Cinb, P, 8], reshaped
 * as needed) = B^T d B for every tile d of the NCHWc8 `input`, read
 * straight from the activation — the gather and the B-kron in one
 * pass (layout::LayoutKernels::winoInputD / winoInputI32). The
 * integer form equals winogradGatherTilesBlocked + kronI32 exactly;
 * the fp64 form agrees with gather + kron to rounding. The engines
 * run the same kernels per chunk (winogradInputTransformChunk).
 */
void winogradInputTransformBlocked(const TensorD &input, WinoVariant v,
                                   std::size_t pad, TensorD &U);
void winogradInputTransformBlocked(const TensorI32 &input,
                                   WinoVariant v, std::size_t pad,
                                   TensorI32 &U);

/**
 * Half-storage fused input transform: the fp32 U of the f16 engine,
 * each binary16 tile element widened once as it is read
 * (layout::F16Kernels::winoInput).
 */
void winogradInputTransformBlocked(const TensorF16 &input,
                                   WinoVariant v, std::size_t pad,
                                   TensorF &U);

/**
 * Whole-layer fused output transform: for every tile m of M
 * ([t*t, Coutb, P, 8]), A^T m A with the fused epilogue is written to
 * the in-range pixels of the pre-shaped NCHWc8 `out`
 * ([N, Coutb, Ho, Wo, 8]) — the A-kron and the untile in one pass. A
 * non-null `bias8` ([Coutb*8], tail lanes zero) is added per output
 * lane and `relu` clamps negatives to zero, with exactly the semantics
 * of winogradUntileBlocked's epilogue.
 */
void winogradOutputTransformBlocked(const TensorD &M, WinoVariant v,
                                    TensorD &out,
                                    const double *bias8 = nullptr,
                                    bool relu = false);

/**
 * Half-storage fused output transform: the fp32 result and epilogue
 * of each pixel are narrowed to binary16 once (round-to-nearest-even)
 * as they are written (layout::F16Kernels::winoOutput).
 */
void winogradOutputTransformBlocked(const TensorF &M, WinoVariant v,
                                    TensorF16 &out,
                                    const float *bias8 = nullptr,
                                    bool relu = false);

/// Byte budget of one chunk's U + M buffers: half of a 2 MiB L2,
/// leaving the rest to the streamed tap weights and activation rows.
inline constexpr std::size_t kChunkBudgetBytes = std::size_t{1} << 20;

/// Fewest tiles per chunk when a layer is split to feed runner lanes:
/// below it the per-chunk tap loop overhead outweighs the parallelism.
inline constexpr std::size_t kChunkMinTiles = 16;

/// A tap stride that is a multiple of this many bytes puts every tap
/// of a tile in the same L1 set; chunk buffers are padded away from it.
inline constexpr std::size_t kAliasStrideBytes = 4096;

/**
 * How a layer's tiles split into chunks. The layer has `rows` =
 * N * tilesY tile rows of `tilesX` tiles; chunk c holds rows
 * [firstRow(c), firstRow(c + 1)), so chunks differ by at most one row.
 * A chunk buffer over Cb channel blocks is [t*t, Cb, tapStrideTiles,
 * 8]: tile i of the chunk sits at column i, and the columns past the
 * chunk's own tiles are padding.
 */
struct TileChunks
{
    std::size_t rows = 0;           ///< tile rows of the layer
    std::size_t tilesX = 0;         ///< tiles per row
    std::size_t chunks = 0;         ///< chunk count (>= 1)
    std::size_t rowsPerChunk = 0;   ///< rows of the largest chunk
    /// Tile columns per channel block of a chunk buffer: the chunk
    /// capacity (the rows that fit kChunkBudgetBytes, at most `rows`)
    /// times tilesX, plus one when the tap stride, Cb * that * 8
    /// elements, would be a multiple of kAliasStrideBytes for Cinb or
    /// Coutb.
    std::size_t tapStrideTiles = 0;

    std::size_t
    firstRow(std::size_t c) const
    {
        return rows * c / chunks;
    }

    /// Elements of one lane's chunk buffer over `cb` channel blocks.
    std::size_t
    laneElems(std::size_t tt, std::size_t cb) const
    {
        return tt * cb * tapStrideTiles * kLayoutBlock;
    }
};

/**
 * The chunk geometry of a layer (pure; derived from shapes only).
 * `elemBytes` is the widest element of the engine's chunk buffers;
 * `lanes` the runner's lane count (1 when serial). Chunks are whole
 * tile rows; their U + M (cinb + coutb blocks of elemBytes elements)
 * stay within kChunkBudgetBytes unless a single row exceeds it. With
 * several lanes the layer splits into about a multiple of `lanes`
 * chunks, each of at least kChunkMinTiles tiles, so every lane gets
 * work when there are enough rows.
 */
TileChunks tileChunks(const WinoDims &d, std::size_t cinb,
                      std::size_t coutb, std::size_t elemBytes,
                      std::size_t lanes);

/** One chunk as the walker hands it out. */
struct TileChunk
{
    std::size_t row0 = 0;        ///< first tile row
    std::size_t rows = 0;        ///< tile rows in the chunk
    std::size_t tiles = 0;       ///< rows * tilesX: the chunk's Pc
    std::size_t strideTiles = 0; ///< TileChunks::tapStrideTiles
};

/**
 * The chunk walker: run fn(chunk, lane) for every chunk of `c` —
 * across `runner` when given (one task per chunk; `lane` indexes the
 * caller's [lanes x chunk] buffers), serially on lane 0 otherwise.
 */
void forEachTileChunk(
    gemm::ParallelRunner *runner, const TileChunks &c,
    const std::function<void(const TileChunk &, std::size_t lane)> &fn);

/**
 * Grow `buf` to at least `elems` elements (never shrinking it) and
 * return its storage: chunk buffers are flat, so a layer with smaller
 * chunks reuses the allocation as is.
 */
template <typename T>
T *
chunkBuffer(Tensor<T> &buf, std::size_t elems)
{
    if (buf.numel() < elems)
        buf = Tensor<T>({elems});
    return buf.data();
}

/**
 * The fused integer input transform of one chunk: the tiles of rows
 * [c.row0, c.row0 + c.rows) of the NCHWc8 `input`, written to the
 * chunk buffer `u` ([t*t, Cinb, c.strideTiles, 8]).
 */
void winogradInputTransformChunk(const TensorI32 &input, WinoVariant v,
                                 std::size_t pad, const TileChunk &c,
                                 std::int32_t *u);

/**
 * The fused output transform of one chunk: A^T m A with the epilogue
 * for the tiles of chunk buffer `m` ([t*t, Coutb, c.strideTiles, 8]),
 * written to the rows [c.row0, c.row0 + c.rows) of the pre-shaped
 * NCHWc8 `out`.
 */
void winogradOutputTransformChunk(const double *m, WinoVariant v,
                                  const TileChunk &c, TensorD &out,
                                  const double *bias8, bool relu);

/**
 * Full blocked-layout Winograd convolution, one chunk at a time:
 * fused input transform into the chunk's U, per-tap GEMM into its M,
 * fused output transform (with the `bias8` / `relu` epilogue) into
 * `out`. `out` must be pre-shaped [N, Coutb, Ho, Wo, 8]; U and M are
 * caller-provided chunk buffers (e.g. ScratchArena slots), grown to
 * [lanes x chunk] as needed and never shrunk.
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
 * activations in and out, binary16 weights, all arithmetic in fp32,
 * walked chunk by chunk like conv2dWinogradBlockedInto:
 *
 *   input [N, Cinb, H, W, 8] halves -widen + fused B^T d B-> U (fp32)
 *   U -tap GEMM-> M (fp32)
 *   M -fused A^T m A + epilogue + narrow-> out [N, Coutb, Ho, Wo, 8]
 *
 * The fused bias/ReLU epilogue is applied in fp32 before the
 * narrowing, so each stored half is a single round-to-nearest-even of
 * the fp32 epilogue result. `out` must be pre-shaped; U and M are
 * chunk buffers, grown as needed.
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
