/**
 * @file
 * NCHWc8 blocked-layout integer Winograd execution: the quantized
 * residue-GEMM pipeline of quant/int_winograd.hh re-laid so the
 * c-block is the SIMD lane dimension end to end, closing the last
 * major path that still ran strided NCHW.
 *
 * The stages are those of IntWinogradConv's integer pipeline, run on
 * blocked buffers. The input is quantized once per layer; every later
 * stage runs one chunk of tile rows at a time on the chunk walker of
 * layout/wino_blocked.hh (tileChunks, forEachTileChunk), in
 * [lanes x chunk] buffers of Pc <= S tiles:
 *
 *   quantize  blocked f64 input -> int32 xq, elementwise, whole layer
 *             (padded lanes quantize 0 -> 0, so they stay invisible)
 *   input     the fused integer input transform: each t x t x 8 tile
 *             of the chunk read straight from xq, exact B^T d B
 *             applied separably, the t*t tap vectors written to U32
 *             [t*t, Cinb, S, 8] (integer sums are exact, so U32
 *             equals the staged gather + B^T (x) B^T kron bit for bit)
 *   rescale   the per-tap S_B requantization, clamped to
 *             `winogradBits` — which always fits int16, so the GEMM
 *             operand narrows to U16 [t*t, Cinb, S, 8] (or biased u8
 *             for the VNNI kernel)
 *   GEMM      per-tap widening products into M with the c-block as
 *             the SIMD lane dimension. 8-bit operands on a VNNI host
 *             take the u8 x s8 kernel (layout::TapGemmU8Fn: biased-u8
 *             taps, quad-interleaved weights, zmm vpdpbusd over a
 *             register tile of 2 output blocks x 8 tiles); otherwise
 *             int16 x int16 -> int32 on pair-interleaved weights
 *             (layout::TapGemmI16Fn: VNNI vpdpwssd / AVX2 vpmaddwd /
 *             NEON smlal / scalar)
 *   rescale   per GEMM slice: the FP gather multiplies each tap
 *             slice by S_BG (a per-lane scale vector, with sx folded
 *             in) into Md; the fully integer path left-shifts each
 *             (tap, oc) slice to the channel's common power-of-two
 *             scale, widening the chunk into its tiles of a
 *             whole-layer int64 buffer
 *   output    FP path only: the fused output transform of the fp64
 *             engine (winogradOutputTransformChunk — A^T m A, the
 *             untile and the bias/ReLU epilogue in one pass over the
 *             chunk's Md)
 *
 * Every integer stage computes the same order-free sums as the NCHW
 * oracle, so forwardInt8 is bit-identical to
 * IntWinogradConv::forwardInt8 (modulo the NCHWc8 layout of the
 * returned tensors). The FP dequant of forwardInto rounds differently
 * from the oracle's per-tile Kronecker row passes; the tested
 * contract is agreement with IntWinogradConv::forward within a
 * relative 1e-9 per element. The result is deterministic and
 * independent of batch size and sharding. Overflow is excluded by
 * construction: operands are bounded by 2^(winogradBits-1) <= 2^9,
 * so int32 accumulation over cinb*8 channels is wrap-free for any
 * channel count the constructor accepts (asserted).
 */

#ifndef TWQ_QUANT_INT_WINO_BLOCKED_HH
#define TWQ_QUANT_INT_WINO_BLOCKED_HH

#include <vector>

#include "layout/wino_blocked.hh"
#include "quant/int_winograd.hh"

namespace twq
{

/**
 * The blocked execution state derived from a prepared IntWinogradConv:
 * copies its configuration and input scales, and packs its quantized
 * weights for the one tap kernel this host runs. It keeps no
 * reference to the source, which may be destroyed once this object
 * is built.
 */
class BlockedIntWinograd
{
  public:
    explicit BlockedIntWinograd(const IntWinogradConv &conv);

    /**
     * Quantized inference on an NCHWc8 input, dequantized into the
     * pre-shaped NCHWc8 `out` ([N, Coutb, Ho, Wo, 8]; padded lanes
     * are zeroed). Caller-provided buffers (e.g. ScratchArena slots)
     * are sized as needed: xq to the input's shape, the rest grown to
     * [lanes x chunk] chunk buffers that never shrink, so the steady
     * state performs no allocations. A non-null `runner` shards the
     * chunks across its lanes (bit-identical to serial — integer sums
     * are order-free, and the FP dequant computes each pixel alone,
     * so results never depend on batch size or sharding). Agrees
     * with IntWinogradConv::forward on the equivalent NCHW input
     * within a relative 1e-9 per element (exact integer stages, FP
     * dequant checked to tolerance). A non-null `bias8` ([Coutb*8],
     * tail lanes zero) and `relu` are the fused FP epilogue of the
     * output transform (winogradOutputTransformChunk).
     */
    void forwardInto(const TensorD &input, TensorI32 &xq,
                     TensorI32 &U32, TensorI16 &U16, TensorI8 &U8,
                     TensorI32 &M, TensorD &Md, TensorD &out,
                     gemm::ParallelRunner *runner = nullptr,
                     const double *bias8 = nullptr,
                     bool relu = false) const;

    /** Convenience wrapper allocating its own buffers. */
    TensorD forward(const TensorD &input) const;

    /**
     * Fully integer blocked path (requires pow2Scales): rescale,
     * output transform and requantization run with integer adds and
     * shifts only. Returns the NCHWc8 int8 output (padded lanes
     * zero); logical lanes are bit-identical to
     * IntWinogradConv::forwardInt8.
     */
    TensorI8 forwardInt8(const TensorD &input, double *out_scale,
                         bool fuse_relu = false) const;

    std::size_t cout() const { return cout_; }
    std::size_t cin() const { return cin_; }
    std::size_t coutb() const { return coutb_; }
    std::size_t cinb() const { return cinb_; }
    const IntWinogradConfig &config() const { return cfg_; }

  private:
    /// One lane's chunk buffers for the integer stages.
    struct ChunkBuffers
    {
        std::int32_t *u32 = nullptr; ///< B-transformed taps
        std::int16_t *u16 = nullptr; ///< int16 operand; null with u8
        std::uint8_t *u8 = nullptr;  ///< biased-u8 operand, or null
        std::int32_t *m = nullptr;   ///< widening GEMM output
        std::size_t uElems = 0;      ///< one lane's U elements
        std::size_t mElems = 0;      ///< one lane's M elements

        /// Lane `l`'s slice of [lanes x chunk] buffers.
        ChunkBuffers lane(std::size_t l) const;
    };

    /// Quantize the whole blocked input into xq, once per layer.
    void quantizeInput(const TensorD &input, TensorI32 &xq) const;

    /// The chunk geometry both forward paths walk.
    TileChunks chunks(const WinoDims &d, std::size_t lanes) const;

    /// Grow the [lanes x chunk] integer buffers; lane 0's slice.
    ChunkBuffers chunkBuffers(const TileChunks &c, std::size_t lanes,
                              TensorI32 &U32, TensorI16 &U16,
                              TensorI8 &U8, TensorI32 &M) const;

    /// The integer stages of one chunk, shared by both forward paths:
    /// fused input transform, S_B rescale (shift- or round-based),
    /// widening per-tap GEMM into b.m. With the u8 kernel engaged
    /// (8-bit operands on a VNNI host) the rescale emits the
    /// biased-u8 operand; otherwise the int16 path runs.
    void scatterGemmChunk(const TensorI32 &xq, const TileChunk &c,
                          bool useShifts, const ChunkBuffers &b) const;

    IntWinogradConfig cfg_;
    double sx_ = 1.0; ///< spatial activation scale s_x
    MatrixD sb_;      ///< [t,t] integer-domain input divisors S_B
    std::size_t cout_ = 0;
    std::size_t cin_ = 0;
    std::size_t coutb_ = 0;
    std::size_t cinb_ = 0;
    /// Take the u8 x s8 tap kernel: 8-bit Winograd domain on a host
    /// providing layout::LayoutKernels::tapGemmU8 (VNNI).
    bool use8_ = false;
    /// Quantized tap weights for the int16 kernel (empty when use8_):
    /// [t*t][coutb][cinp/2][8][2], pair-interleaved along the input
    /// channels; rows past Cout and columns past Cin are zero.
    std::vector<std::int16_t> wq16_;
    /// For the u8 kernel (empty unless use8_): quad-interleaved
    /// signed weights [t*t][coutb][cinp/4][8][4] and the
    /// per-(tap, output-lane) bias compensation 128 * sum_ic w
    /// ([t*t][coutb*8]).
    std::vector<std::int8_t> wq8_;
    std::vector<std::int32_t> comp_;
    /// Per-(tap, lane) dequant scales S_BG * sx for the FP gather:
    /// [t*t][coutb*8], padded lanes zero so they come out exactly
    /// zero without a separate clearing pass.
    std::vector<double> sbgSx_;
    /// Per-oc common power-of-two S_BG scale (min over taps) and the
    /// relative left-shifts above it, precomputed for forwardInt8
    /// (pow2Scales configurations only).
    std::vector<int> comLog2_;
    std::vector<std::vector<int>> relShift_;
};

} // namespace twq

#endif // TWQ_QUANT_INT_WINO_BLOCKED_HH
