/**
 * @file
 * Flat tap-major Winograd execution: scatter – per-tap GEMM – gather.
 *
 * The tile-at-a-time implementations in winograd/conv.hh apply the
 * whole pipeline to one [t, t] tile at a time through heap-allocated
 * Matrix temporaries, which wastes the batch-level parallelism the
 * algorithm exposes. This header provides the production layout used
 * by fast Winograd implementations (cf. Lavin & Gray; TVM):
 *
 *   scatter  B^T x B for every tile of the batch, written tap-major
 *            into one contiguous buffer U of shape [t*t, Cin, P] with
 *            P = N * tilesY * tilesX,
 *   GEMM     t*t independent [Cout, Cin] x [Cin, P] matrix products
 *            into M of shape [t*t, Cout, P],
 *   gather   A^T Y A per (oc, p) column of M, written straight into
 *            the NCHW output.
 *
 * Per element the arithmetic (and its accumulation order over input
 * channels) is identical to conv2dWinogradPre, so results match the
 * tile-at-a-time reference bit for bit on hardware without FMA
 * contraction, and within rounding everywhere else. The same three
 * stages run the winograd-aware training layer (nn/wino_conv).
 */

#ifndef TWQ_WINOGRAD_TILED_HH
#define TWQ_WINOGRAD_TILED_HH

#include <cstdint>
#include <vector>

#include "gemm/gemm.hh"
#include "gemm/parallel.hh"
#include "tensor/im2col.hh"
#include "tensor/tensor.hh"
#include "winograd/conv.hh"
#include "winograd/matrices.hh"

namespace twq
{

/** Tile geometry of one Winograd launch. */
struct WinoDims
{
    std::size_t t = 0;       ///< transformed tile size
    std::size_t m = 0;       ///< output tile size
    std::size_t n = 0;       ///< batch
    std::size_t cin = 0;
    std::size_t ho = 0;      ///< output height
    std::size_t wo = 0;      ///< output width
    std::size_t tilesY = 0;
    std::size_t tilesX = 0;
    std::size_t tiles = 0;   ///< P = n * tilesY * tilesX
};

/** Geometry for an NCHW input under a variant and padding. */
WinoDims winoDims(const Shape &input, WinoVariant v, std::size_t pad);

/**
 * Weights re-laid tap-major: one flat [Cout, Cin] matrix per tap,
 * contiguous as [t*t][Cout][Cin]. This is the layout the per-tap GEMM
 * consumes directly; the transform matrices are cached alongside so
 * the hot path never rebuilds them from rationals.
 */
template <typename T>
struct WinogradTapWeights
{
    WinoVariant variant = WinoVariant::F2;
    std::size_t cout = 0;
    std::size_t cin = 0;
    /// [t*t][cout][cin]; tap k holds G f G^T sampled at tap k.
    std::vector<T> taps;

    const T *
    tap(std::size_t k) const
    {
        return taps.data() + k * cout * cin;
    }

    T &
    at(std::size_t k, std::size_t oc, std::size_t ic)
    {
        return taps[(k * cout + oc) * cin + ic];
    }
};

/** Transform [Cout, Cin, 3, 3] weights straight into tap-major form. */
template <typename T>
WinogradTapWeights<T> winogradPrepareTapWeights(const Tensor<T> &weights,
                                                WinoVariant v);

/** Re-lay per-(oc,ic)-tile weights (winograd/conv.hh) tap-major. */
template <typename T>
WinogradTapWeights<T> tapMajorWeights(const WinogradWeights<T> &w);

/**
 * Sparse schedule of a tile transform L s L^T, flattened to the
 * Kronecker product L ⊗ L acting on the tap dimension: output row r
 * is Σ coeff * input row `in` over this row's terms. Applied to the
 * flat [taps, C*P] buffers, every pass is a contiguous row AXPY, so
 * the transforms vectorize exactly like the per-tap GEMM instead of
 * running tiny t x t matmuls per tile. Zero entries of L (half of
 * B^T/A^T for F2/F4) never appear as terms.
 */
template <typename T>
struct WinoKronPlan
{
    struct Term
    {
        std::uint16_t in;
        T coeff;
    };
    std::size_t rowsOut = 0;
    std::size_t rowsIn = 0;
    std::vector<Term> terms;            ///< rows concatenated
    std::vector<std::uint32_t> rowStart; ///< [rowsOut + 1]
};

/** Build the L ⊗ L plan from an exact rational transform matrix. */
template <typename T>
WinoKronPlan<T> makeKronPlan(const Matrix<Rational> &l);

/**
 * Cached rows of B^T (separable input transform) for a variant: the
 * plan of L = B^T itself rather than L ⊗ L (rowsOut = L.rows(),
 * rowsIn = L.cols()). A tile-local kernel applies L s L^T as two
 * passes of this plan — one over the rows of the tile s, one over its
 * columns — so an F4 input tile costs 2 * 6 * 22 = 264 terms where
 * B^T ⊗ B^T has 22 * 22 = 484.
 */
template <typename T>
const WinoKronPlan<T> &winoInputSep(WinoVariant v);

/** Cached rows of A^T (separable output transform) for a variant. */
template <typename T>
const WinoKronPlan<T> &winoOutputSep(WinoVariant v);

/** Cached B^T ⊗ B^T (input transform) for a variant. */
template <typename T>
const WinoKronPlan<T> &winoInputKron(WinoVariant v);

/** Cached A^T ⊗ A^T (output transform) for a variant. */
template <typename T>
const WinoKronPlan<T> &winoOutputKron(WinoVariant v);

/** Cached B ⊗ B (transposed input transform, training backward). */
template <typename T>
const WinoKronPlan<T> &winoInputKronT(WinoVariant v);

/** Cached A ⊗ A (transposed output transform, training backward). */
template <typename T>
const WinoKronPlan<T> &winoOutputKronT(WinoVariant v);

/** y[r] = Σ coeff * x[in] over rows of length `len`. */
template <typename T>
void applyKron(const WinoKronPlan<T> &plan, const T *x, std::size_t len,
               T *y);

/**
 * Stage 1 of the scatter: copy every (padded) input tile of the batch
 * into V, reshaped to [t*t, Cin, P] — pure data movement, the
 * B-transform runs afterwards as row passes over V. Every element of
 * V is written, so no clearing is needed, and a caller reusing the
 * buffer across batches performs no allocation once shapes stabilize.
 */
template <typename T>
void winogradGatherTiles(const Tensor<T> &input, WinoVariant v,
                         std::size_t pad, Tensor<T> &V);

/**
 * Transposed counterpart of winogradGatherTiles: scatter-ADD tile
 * rows of V back into the (padded) input geometry. Overlapping tile
 * windows accumulate; `grad` must be pre-shaped NCHW. Used by the
 * training backward to push B-domain gradients into the input.
 */
template <typename T>
void winogradScatterAddTiles(const Tensor<T> &V, WinoVariant v,
                             std::size_t pad, Tensor<T> &grad);

/**
 * Scatter stage: gather raw tiles into V, then apply the B-transform
 * as Kronecker row passes into U ([t*t, Cin, P]).
 */
template <typename T>
void winogradScatter(const Tensor<T> &input, WinoVariant v,
                     std::size_t pad, Tensor<T> &V, Tensor<T> &U);

/**
 * GEMM stage: M[k] = W[k] * U[k] for every tap k, with W[k] the
 * [Cout, Cin] tap slice, each product running the blocked gemm core.
 * M is reshaped to [t*t, Cout, P]. The t*t taps are independent: when
 * `runner` is non-null they are sharded across it (pack buffers drawn
 * from `packs` when provided), and when taps alone would under-fill
 * the pool each tap's product is further split into P column blocks
 * (gemm::colShards). Every shard computes the same per-element
 * ascending-k sums it would serially, so parallel execution is
 * bit-identical to serial under any shard plan.
 */
template <typename T>
void winogradTapGemm(const WinogradTapWeights<T> &w, const Tensor<T> &U,
                     Tensor<T> &M,
                     gemm::ParallelRunner *runner = nullptr,
                     gemm::PackPool *packs = nullptr);

/**
 * Stage 2 of the gather: write the A-transformed tile rows Y
 * ([m*m, Cout, P]) into the NCHW output (edge tiles clipped). `out`
 * must already have shape [n, Cout, ho, wo].
 *
 * Optional fused epilogue: a non-null `bias` ([Cout]) is added per
 * output channel and `relu` clamps negatives to zero, both applied to
 * each element as it is written — the untile already touches every
 * output exactly once, so the epilogue costs no extra memory pass and
 * is bit-identical to a separate bias/ReLU sweep over the output.
 */
template <typename T>
void winogradUntile(const Tensor<T> &Y, WinoVariant v, Tensor<T> &out,
                    const T *bias = nullptr, bool relu = false);

/**
 * Gather stage: A-transform M as Kronecker row passes into Y
 * ([m*m, Cout, P]), then untile into the NCHW output (with the
 * untile's optional fused bias/ReLU epilogue).
 */
template <typename T>
void winogradGather(const Tensor<T> &M, WinoVariant v, Tensor<T> &Y,
                    Tensor<T> &out, const T *bias = nullptr,
                    bool relu = false);

/**
 * Full tiled Winograd convolution with caller-provided buffers (e.g.
 * ScratchArena slots): V raw tiles, U transformed tiles, M GEMM
 * output, Y back-transformed tiles. `out` must be pre-shaped to
 * [n, Cout, ho, wo]; the buffers are reshaped as needed. A non-null
 * `runner` shards the per-tap GEMMs (see winogradTapGemm). `bias` /
 * `relu` are the untile's fused epilogue (see winogradUntile).
 */
template <typename T>
void conv2dWinogradTiledInto(const Tensor<T> &input,
                             const WinogradTapWeights<T> &w,
                             std::size_t pad, Tensor<T> &V, Tensor<T> &U,
                             Tensor<T> &M, Tensor<T> &Y, Tensor<T> &out,
                             gemm::ParallelRunner *runner = nullptr,
                             gemm::PackPool *packs = nullptr,
                             const T *bias = nullptr, bool relu = false);

/** Convenience wrapper allocating its own buffers. */
template <typename T>
Tensor<T> conv2dWinogradTiled(const Tensor<T> &input,
                              const WinogradTapWeights<T> &w,
                              std::size_t pad = 1);

// Raw-pointer helpers shared with the training layer
// (nn/wino_conv). The
// t x t products run gemm::referenceGemm — operands this small never
// amortize the blocked core's packing.

/**
 * y = l x l^T for flat row-major square tiles ([t,t]); `tmp` is a
 * caller-provided [t*t] workspace. Accumulation order matches
 * matmul() so results are bit-compatible with the reference path.
 */
template <typename T>
inline void
transformTileFlat(const T *l, const T *x, std::size_t t, T *tmp, T *y)
{
    gemm::referenceGemm(l, x, tmp, t, t, t);
    // y = tmp * l^T without materializing the transpose.
    for (std::size_t i = 0; i < t; ++i) {
        for (std::size_t j = 0; j < t; ++j) {
            T s{};
            for (std::size_t k = 0; k < t; ++k)
                s += tmp[i * t + k] * l[j * t + k];
            y[i * t + j] = s;
        }
    }
}

/**
 * res = a y a^T with a of shape [m, t] (flat row-major) and y [t, t];
 * res is [m, m], tmp a caller-provided [m*t] workspace.
 */
template <typename T>
inline void
outputTransformFlat(const T *a, const T *y, std::size_t m, std::size_t t,
                    T *tmp, T *res)
{
    gemm::referenceGemm(a, y, tmp, m, t, t);
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < m; ++j) {
            T s{};
            for (std::size_t k = 0; k < t; ++k)
                s += tmp[i * t + k] * a[j * t + k];
            res[i * m + j] = s;
        }
    }
}

/**
 * Copy the [t, t] input window feeding output block (ty*m, tx*m) of
 * image n, channel c into flat row-major `tile`; out-of-range samples
 * (padding) read as zero.
 */
template <typename T>
inline void
extractInputTileFlat(const Tensor<T> &input, std::size_t n,
                     std::size_t c, std::size_t ty, std::size_t tx,
                     const WinoDims &d, std::size_t pad, T *tile)
{
    const std::size_t h = input.dim(2);
    const std::size_t w = input.dim(3);
    const T *plane =
        input.data() + (n * input.dim(1) + c) * h * w;
    const std::ptrdiff_t y0 = static_cast<std::ptrdiff_t>(ty * d.m) -
                              static_cast<std::ptrdiff_t>(pad);
    const std::ptrdiff_t x0 = static_cast<std::ptrdiff_t>(tx * d.m) -
                              static_cast<std::ptrdiff_t>(pad);
    for (std::size_t i = 0; i < d.t; ++i) {
        const std::ptrdiff_t iy = y0 + static_cast<std::ptrdiff_t>(i);
        T *row = tile + i * d.t;
        if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(h)) {
            for (std::size_t j = 0; j < d.t; ++j)
                row[j] = T{};
            continue;
        }
        const T *src = plane + static_cast<std::size_t>(iy) * w;
        for (std::size_t j = 0; j < d.t; ++j) {
            const std::ptrdiff_t ix =
                x0 + static_cast<std::ptrdiff_t>(j);
            row[j] = (ix < 0 || ix >= static_cast<std::ptrdiff_t>(w))
                         ? T{}
                         : src[static_cast<std::size_t>(ix)];
        }
    }
}

extern template struct WinogradTapWeights<float>;
extern template struct WinogradTapWeights<double>;
extern template struct WinoKronPlan<float>;
extern template struct WinoKronPlan<double>;
extern template struct WinoKronPlan<std::int32_t>;
extern template struct WinoKronPlan<std::int64_t>;
extern template WinogradTapWeights<float>
winogradPrepareTapWeights(const Tensor<float> &, WinoVariant);
extern template WinogradTapWeights<double>
winogradPrepareTapWeights(const Tensor<double> &, WinoVariant);
extern template WinogradTapWeights<float>
tapMajorWeights(const WinogradWeights<float> &);
extern template WinogradTapWeights<double>
tapMajorWeights(const WinogradWeights<double> &);
extern template WinoKronPlan<float> makeKronPlan(const Matrix<Rational> &);
extern template WinoKronPlan<double>
makeKronPlan(const Matrix<Rational> &);
extern template WinoKronPlan<std::int32_t>
makeKronPlan(const Matrix<Rational> &);
extern template WinoKronPlan<std::int64_t>
makeKronPlan(const Matrix<Rational> &);
extern template const WinoKronPlan<float> &winoInputSep(WinoVariant);
extern template const WinoKronPlan<double> &winoInputSep(WinoVariant);
extern template const WinoKronPlan<std::int32_t> &
winoInputSep(WinoVariant);
extern template const WinoKronPlan<float> &winoOutputSep(WinoVariant);
extern template const WinoKronPlan<double> &winoOutputSep(WinoVariant);
extern template const WinoKronPlan<float> &winoInputKron(WinoVariant);
extern template const WinoKronPlan<double> &winoInputKron(WinoVariant);
extern template const WinoKronPlan<std::int32_t> &
winoInputKron(WinoVariant);
extern template const WinoKronPlan<float> &winoOutputKron(WinoVariant);
extern template const WinoKronPlan<double> &winoOutputKron(WinoVariant);
extern template const WinoKronPlan<std::int64_t> &
winoOutputKron(WinoVariant);
extern template const WinoKronPlan<double> &winoInputKronT(WinoVariant);
extern template const WinoKronPlan<double> &winoOutputKronT(WinoVariant);
extern template void applyKron(const WinoKronPlan<float> &,
                               const float *, std::size_t, float *);
extern template void applyKron(const WinoKronPlan<double> &,
                               const double *, std::size_t, double *);
extern template void applyKron(const WinoKronPlan<std::int32_t> &,
                               const std::int32_t *, std::size_t,
                               std::int32_t *);
extern template void applyKron(const WinoKronPlan<std::int64_t> &,
                               const std::int64_t *, std::size_t,
                               std::int64_t *);
extern template void winogradGatherTiles(const Tensor<float> &,
                                         WinoVariant, std::size_t,
                                         Tensor<float> &);
extern template void winogradGatherTiles(const Tensor<double> &,
                                         WinoVariant, std::size_t,
                                         Tensor<double> &);
extern template void winogradScatterAddTiles(const Tensor<double> &,
                                             WinoVariant, std::size_t,
                                             Tensor<double> &);
extern template void winogradScatter(const Tensor<float> &, WinoVariant,
                                     std::size_t, Tensor<float> &,
                                     Tensor<float> &);
extern template void winogradScatter(const Tensor<double> &, WinoVariant,
                                     std::size_t, Tensor<double> &,
                                     Tensor<double> &);
extern template void winogradTapGemm(const WinogradTapWeights<float> &,
                                     const Tensor<float> &,
                                     Tensor<float> &,
                                     gemm::ParallelRunner *,
                                     gemm::PackPool *);
extern template void winogradTapGemm(const WinogradTapWeights<double> &,
                                     const Tensor<double> &,
                                     Tensor<double> &,
                                     gemm::ParallelRunner *,
                                     gemm::PackPool *);
extern template void winogradUntile(const Tensor<float> &, WinoVariant,
                                    Tensor<float> &, const float *,
                                    bool);
extern template void winogradUntile(const Tensor<double> &, WinoVariant,
                                    Tensor<double> &, const double *,
                                    bool);
extern template void winogradGather(const Tensor<float> &, WinoVariant,
                                    Tensor<float> &, Tensor<float> &,
                                    const float *, bool);
extern template void winogradGather(const Tensor<double> &, WinoVariant,
                                    Tensor<double> &, Tensor<double> &,
                                    const double *, bool);
extern template void
conv2dWinogradTiledInto(const Tensor<float> &,
                        const WinogradTapWeights<float> &, std::size_t,
                        Tensor<float> &, Tensor<float> &,
                        Tensor<float> &, Tensor<float> &,
                        Tensor<float> &, gemm::ParallelRunner *,
                        gemm::PackPool *, const float *, bool);
extern template void
conv2dWinogradTiledInto(const Tensor<double> &,
                        const WinogradTapWeights<double> &, std::size_t,
                        Tensor<double> &, Tensor<double> &,
                        Tensor<double> &, Tensor<double> &,
                        Tensor<double> &, gemm::ParallelRunner *,
                        gemm::PackPool *, const double *, bool);
extern template Tensor<float>
conv2dWinogradTiled(const Tensor<float> &,
                    const WinogradTapWeights<float> &, std::size_t);
extern template Tensor<double>
conv2dWinogradTiled(const Tensor<double> &,
                    const WinogradTapWeights<double> &, std::size_t);

} // namespace twq

#endif // TWQ_WINOGRAD_TILED_HH
