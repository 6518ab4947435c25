#include "layout/wino_blocked.hh"

#include <algorithm>
#include <functional>
#include <string>

#include "common/logging.hh"
#include "layout/kernels.hh"
#include "obs/perf.hh"
#include "obs/trace.hh"

namespace twq
{

namespace
{

constexpr std::size_t kB = kLayoutBlock;

const layout::LayoutKernels &
table()
{
    return layout::kernels();
}

} // namespace

WinoDims
winoDimsBlocked(const Shape &s, WinoVariant v, std::size_t pad)
{
    twq_assert(s.size() == 5 && s[4] == kB,
               "expected an NCHWc8 shape [N, Cb, H, W, 8]");
    // winoDims only derives tile geometry from N/H/W; feed it the
    // padded channel count so d.cin counts physical lanes.
    return winoDims({s[0], s[1] * kB, s[2], s[3]}, v, pad);
}

namespace layout
{

namespace
{

/// Put every non-null entry of `top` over `k`. Returns whether `top`
/// contributed any entry.
bool
overlay(LayoutKernels &k, const LayoutKernels &top)
{
    bool any = false;
    const auto put = [&any](auto &dst, auto src) {
        if (src) {
            dst = src;
            any = true;
        }
    };
    put(k.tapGemm, top.tapGemm);
    put(k.kron, top.kron);
    put(k.tapGemmI16, top.tapGemmI16);
    put(k.kronI32, top.kronI32);
    put(k.rescaleI16, top.rescaleI16);
    put(k.tapGemmU8, top.tapGemmU8);
    put(k.rescaleU8, top.rescaleU8);
    put(k.scaleI32F64, top.scaleI32F64);
    put(k.quantizeI32, top.quantizeI32);
    put(k.quantizeI8, top.quantizeI8);
    put(k.epilogueRowD, top.epilogueRowD);
    put(k.winoInputD, top.winoInputD);
    put(k.winoInputI32, top.winoInputI32);
    put(k.winoOutputD, top.winoOutputD);
    return any;
}

} // namespace

const LayoutKernels &
kernels()
{
    // The overlay chain scalar <- AVX2 | NEON <- AVX-512 <- VNNI: each
    // ISA table fills only the entries it has. The name lists the
    // layers that contributed because it participates in
    // PlanCache::signature(): plans measured with one kernel set are
    // not valid for another.
    static std::string name;
    static const LayoutKernels t = [] {
        LayoutKernels k;
        k.tapGemm = &scalarTapGemmD<>;
        k.kron = &scalarKronD<>;
        k.tapGemmI16 = &scalarTapGemmI16<>;
        k.kronI32 = &scalarKronI32<>;
        k.rescaleI16 = &scalarRescaleI16<>;
        k.rescaleU8 = &scalarRescaleU8<>;
        k.scaleI32F64 = &scalarScaleI32F64<>;
        k.quantizeI32 = &scalarQuantizeI32<>;
        k.quantizeI8 = &scalarQuantizeI8<>;
        k.epilogueRowD = &scalarEpilogueRowD<>;
        k.winoInputD = &scalarWinoInputD<>;
        k.winoInputI32 = &scalarWinoInputI32<>;
        k.winoOutputD = &scalarWinoOutputD<>;
        // AVX2 and NEON never both resolve: each is null off its
        // architecture.
        for (const LayoutKernels &layer :
             {avx2LayoutKernels(), neonLayoutKernels(),
              avx512LayoutKernels(), vnniLayoutKernels()})
            if (overlay(k, layer))
                name.append(name.empty() ? "" : "+").append(layer.name);
        k.name = name.empty() ? "scalar" : name.c_str();
        return k;
    }();
    return t;
}

} // namespace layout

const char *
layoutKernelName()
{
    return table().name;
}

BlockedTapWeights
blockedTapWeights(const WinogradTapWeights<double> &w)
{
    const WinoSpec spec = winoSpec(w.variant);
    const std::size_t tt = spec.t * spec.t;
    BlockedTapWeights out;
    out.variant = w.variant;
    out.cout = w.cout;
    out.cin = w.cin;
    out.coutb = layoutBlocks(w.cout);
    out.cinb = layoutBlocks(w.cin);
    const std::size_t cinp = out.cinb * kB;
    out.taps.assign(tt * out.coutb * cinp * kB, 0.0);
    for (std::size_t k = 0; k < tt; ++k) {
        const double *src = w.tap(k);
        double *dst = out.taps.data() + k * out.coutb * cinp * kB;
        for (std::size_t oc = 0; oc < w.cout; ++oc) {
            const std::size_t co = oc / kB;
            const std::size_t lo = oc % kB;
            for (std::size_t ic = 0; ic < w.cin; ++ic)
                dst[(co * cinp + ic) * kB + lo] =
                    src[oc * w.cin + ic];
        }
    }
    return out;
}

template <typename T>
void
winogradGatherTilesBlocked(const Tensor<T> &input, WinoVariant v,
                           std::size_t pad, Tensor<T> &V)
{
    const WinoDims d = winoDimsBlocked(input.shape(), v, pad);
    const std::size_t cb = input.dim(1);
    const std::size_t h = input.dim(2);
    const std::size_t w = input.dim(3);
    const std::size_t tt = d.t * d.t;
    const Shape want{tt, cb, d.tiles, kB};
    if (V.shape() != want)
        V = Tensor<T>(want);

    for (std::size_t k = 0; k < tt; ++k) {
        const std::ptrdiff_t dy =
            static_cast<std::ptrdiff_t>(k / d.t) -
            static_cast<std::ptrdiff_t>(pad);
        const std::ptrdiff_t dx =
            static_cast<std::ptrdiff_t>(k % d.t) -
            static_cast<std::ptrdiff_t>(pad);
        for (std::size_t n = 0; n < d.n; ++n) {
            for (std::size_t b = 0; b < cb; ++b) {
                const T *plane =
                    input.data() + (n * cb + b) * h * w * kB;
                T *dstc =
                    V.data() + ((k * cb + b) * d.tiles +
                                n * d.tilesY * d.tilesX) *
                                   kB;
                for (std::size_t ty = 0; ty < d.tilesY; ++ty) {
                    T *dst = dstc + ty * d.tilesX * kB;
                    const std::ptrdiff_t iy =
                        static_cast<std::ptrdiff_t>(ty * d.m) + dy;
                    if (iy < 0 ||
                        iy >= static_cast<std::ptrdiff_t>(h)) {
                        std::fill(dst, dst + d.tilesX * kB, T{});
                        continue;
                    }
                    const T *srow =
                        plane + static_cast<std::size_t>(iy) * w * kB;
                    for (std::size_t tx = 0; tx < d.tilesX; ++tx) {
                        const std::ptrdiff_t ix =
                            static_cast<std::ptrdiff_t>(tx * d.m) +
                            dx;
                        T *dv = dst + tx * kB;
                        if (ix < 0 ||
                            ix >= static_cast<std::ptrdiff_t>(w)) {
                            std::fill(dv, dv + kB, T{});
                        } else {
                            const T *sv =
                                srow +
                                static_cast<std::size_t>(ix) * kB;
                            std::copy(sv, sv + kB, dv);
                        }
                    }
                }
            }
        }
    }
}

void
winogradTapGemmBlocked(const BlockedTapWeights &w, const TensorD &U,
                       TensorD &M, gemm::ParallelRunner *runner)
{
    const WinoSpec spec = winoSpec(w.variant);
    const std::size_t tt = spec.t * spec.t;
    twq_assert(U.rank() == 4 && U.dim(0) == tt &&
                   U.dim(1) == w.cinb && U.dim(3) == kB,
               "scatter buffer does not match blocked tap weights");
    const std::size_t tiles = U.dim(2);
    const Shape want{tt, w.coutb, tiles, kB};
    if (M.shape() != want)
        M = TensorD(want);
    gemm::runTapColBlocks(
        runner, tt, tiles, layout::kTapPr,
        [&](std::size_t k, std::size_t j0, std::size_t jn,
            std::size_t) {
            table().tapGemm(w.tap(k),
                            U.data() + k * w.cinb * tiles * kB,
                            M.data() + k * w.coutb * tiles * kB,
                            w.coutb, w.cinb, tiles, j0, jn);
        });
}

namespace
{

/// Type-dispatch onto the resolved epilogue row kernel.
inline void
epilogueRow(const double *src, double *dst, std::size_t stride,
            std::size_t count, const double *b8, bool relu)
{
    table().epilogueRowD(src, dst, stride, count, b8, relu);
}

/// Integer untiles (the int8 accumulator path) have no SIMD row
/// kernel; the exact overload above wins for double.
template <typename T>
inline void
epilogueRow(const T *src, T *dst, std::size_t stride,
            std::size_t count, const T *b8, bool relu)
{
    twq::layout::epilogueRowRef(src, dst, stride, count, b8, relu);
}

} // namespace

template <typename T>
void
winogradUntileBlocked(const Tensor<T> &Y, WinoVariant v, Tensor<T> &out,
                      const T *bias8, bool relu)
{
    const WinoSpec spec = winoSpec(v);
    const std::size_t m = spec.m;
    const std::size_t mm = m * m;
    twq_assert(out.rank() == 5 && out.dim(4) == kB,
               "winogradUntileBlocked expects an NCHWc8 output");
    const std::size_t n = out.dim(0);
    const std::size_t cb = out.dim(1);
    const std::size_t ho = out.dim(2);
    const std::size_t wo = out.dim(3);
    const std::size_t tilesY = (ho + m - 1) / m;
    const std::size_t tilesX = (wo + m - 1) / m;
    const std::size_t tiles = n * tilesY * tilesX;
    twq_assert(Y.rank() == 4 && Y.dim(0) == mm && Y.dim(1) == cb &&
                   Y.dim(2) == tiles && Y.dim(3) == kB,
               "tile buffer does not match the output geometry");

    for (std::size_t k = 0; k < mm; ++k) {
        const std::size_t j1 = k / m;
        const std::size_t j2 = k % m;
        // For a fixed k the valid tile columns form a prefix: the
        // output column ox = tx*m + j2 grows monotonically with tx,
        // so each (in, b, ty) row collapses to one row-kernel call
        // over `cnt` contiguous source groups, strided into the
        // output plane. The kernel is dispatched (AVX2 where the
        // host has it) because this nest is too deep for the
        // autovectorizer: inline lane loops stay scalar and the
        // branchy ReLU costs more than the memory pass the fusion
        // deletes.
        const std::size_t cnt =
            j2 < wo ? (wo - j2 + m - 1) / m : 0;
        if (cnt == 0)
            continue;
        for (std::size_t in = 0; in < n; ++in) {
            for (std::size_t b = 0; b < cb; ++b) {
                T *plane =
                    out.data() + (in * cb + b) * ho * wo * kB;
                const T *srcc =
                    Y.data() + ((k * cb + b) * tiles +
                                in * tilesY * tilesX) *
                                   kB;
                const T *bv = bias8 ? bias8 + b * kB : nullptr;
                for (std::size_t ty = 0; ty < tilesY; ++ty) {
                    const std::size_t oy = ty * m + j1;
                    if (oy >= ho)
                        continue;
                    T *drow = plane + oy * wo * kB + j2 * kB;
                    const T *src = srcc + ty * tilesX * kB;
                    epilogueRow(src, drow, m * kB, cnt, bv, relu);
                }
            }
        }
    }
}

TileChunks
tileChunks(const WinoDims &d, std::size_t cinb, std::size_t coutb,
           std::size_t elemBytes, std::size_t lanes)
{
    TileChunks c;
    c.rows = d.n * d.tilesY;
    c.tilesX = d.tilesX;
    // Bytes of U + M per tile column of a chunk buffer.
    const std::size_t tileBytes =
        d.t * d.t * (cinb + coutb) * kB * elemBytes;
    // The chunk capacity: the most rows whose buffers, padding tile
    // included, fit the budget (one row when even that does not), and
    // no more than the layer has. Buffers are laid out for it, so they
    // are the same size for every batch at least that large.
    const std::size_t budgetTiles = kChunkBudgetBytes / tileBytes;
    const std::size_t capRows = std::min(
        c.rows,
        budgetTiles > d.tilesX ? (budgetTiles - 1) / d.tilesX : 1);
    c.chunks = (c.rows + capRows - 1) / capRows;
    if (lanes > 1) {
        // Round up to whole waves of lanes, but split no finer than
        // kChunkMinTiles per chunk (nor coarser than the budget).
        const std::size_t minRows =
            (kChunkMinTiles + d.tilesX - 1) / d.tilesX;
        const std::size_t finest =
            std::max(c.chunks, c.rows / minRows);
        c.chunks = std::min(finest,
                            (c.chunks + lanes - 1) / lanes * lanes);
    }
    c.rowsPerChunk = (c.rows + c.chunks - 1) / c.chunks;
    c.tapStrideTiles = capRows * d.tilesX;
    const auto aliases = [&](std::size_t cb) {
        return cb * c.tapStrideTiles * kB * elemBytes %
                   kAliasStrideBytes ==
               0;
    };
    // One more tile breaks the alias, unless Cb * 8 elements alone are
    // a multiple of the alias stride (no tile count helps then).
    if (aliases(cinb) || aliases(coutb))
        ++c.tapStrideTiles;
    return c;
}

void
forEachTileChunk(
    gemm::ParallelRunner *runner, const TileChunks &c,
    const std::function<void(const TileChunk &, std::size_t)> &fn)
{
    gemm::runTasks(runner, c.chunks, [&](std::size_t i, std::size_t lane) {
        const std::size_t r0 = c.firstRow(i);
        const std::size_t rows = c.firstRow(i + 1) - r0;
        fn(TileChunk{r0, rows, rows * c.tilesX, c.tapStrideTiles}, lane);
    });
}

namespace
{

/// Drive a fused input kernel over the tile rows of chunk `c` of the
/// NCHWc8 `input`, every channel block, writing the chunk buffer u
/// [t*t, Cb, c.strideTiles, 8].
template <typename S, typename T, typename Kernel>
void
inputChunk(const Tensor<S> &input, WinoVariant v, std::size_t pad,
           const WinoKronPlan<T> &bt, const TileChunk &c, T *u,
           Kernel kernel)
{
    const WinoDims d = winoDimsBlocked(input.shape(), v, pad);
    const std::size_t cb = input.dim(1);
    const std::size_t h = input.dim(2);
    const std::size_t w = input.dim(3);
    const auto p = static_cast<std::ptrdiff_t>(pad);
    for (std::size_t r = 0; r < c.rows; ++r) {
        const std::size_t ty = (c.row0 + r) % d.tilesY;
        const std::size_t n = (c.row0 + r) / d.tilesY;
        const auto y0 = static_cast<std::ptrdiff_t>(ty * d.m) - p;
        const layout::TileRow tr{h,   w,        y0, -p,
                                 d.m, d.tilesX, cb * c.strideTiles * kB};
        for (std::size_t b = 0; b < cb; ++b)
            kernel(bt, tr, input.data() + (n * cb + b) * h * w * kB,
                   u + (b * c.strideTiles + r * d.tilesX) * kB);
    }
}

/// Drive a fused output kernel over the tile rows of chunk `c` of the
/// pre-shaped NCHWc8 `out`, every channel block, reading the chunk
/// buffer m [t*t, Cb, c.strideTiles, 8].
template <typename T, typename D, typename Kernel>
void
outputChunk(const T *m, const WinoKronPlan<T> &at, const TileChunk &c,
            Tensor<D> &out, const T *bias8, bool relu, Kernel kernel)
{
    twq_assert(out.rank() == 5 && out.dim(4) == kB,
               "the fused output transform expects an NCHWc8 output");
    const std::size_t mo = at.rowsOut;
    const std::size_t cb = out.dim(1);
    const std::size_t ho = out.dim(2);
    const std::size_t wo = out.dim(3);
    const std::size_t tilesY = (ho + mo - 1) / mo;
    const std::size_t tilesX = (wo + mo - 1) / mo;
    for (std::size_t r = 0; r < c.rows; ++r) {
        const std::size_t ty = (c.row0 + r) % tilesY;
        const std::size_t in = (c.row0 + r) / tilesY;
        const auto y0 = static_cast<std::ptrdiff_t>(ty * mo);
        const layout::TileRow tr{ho, wo,     y0, 0,
                                 mo, tilesX, cb * c.strideTiles * kB};
        for (std::size_t b = 0; b < cb; ++b)
            kernel(at, tr, m + (b * c.strideTiles + r * tilesX) * kB,
                   out.data() + (in * cb + b) * ho * wo * kB,
                   bias8 ? bias8 + b * kB : nullptr, relu);
    }
}

/// The whole-layer transforms: the layer as one chunk of P columns.
template <typename S, typename T, typename Kernel>
void
inputTransform(const Tensor<S> &input, WinoVariant v, std::size_t pad,
               const WinoKronPlan<T> &bt, Tensor<T> &U, Kernel kernel)
{
    const WinoDims d = winoDimsBlocked(input.shape(), v, pad);
    const Shape want{d.t * d.t, input.dim(1), d.tiles, kB};
    if (U.shape() != want)
        U = Tensor<T>(want);
    inputChunk(input, v, pad, bt,
               TileChunk{0, d.n * d.tilesY, d.tiles, d.tiles}, U.data(),
               kernel);
}

template <typename T, typename D, typename Kernel>
void
outputTransform(const Tensor<T> &M, const WinoKronPlan<T> &at,
                Tensor<D> &out, const T *bias8, bool relu, Kernel kernel)
{
    twq_assert(out.rank() == 5 && out.dim(4) == kB,
               "the fused output transform expects an NCHWc8 output");
    const std::size_t m = at.rowsOut;
    const std::size_t tilesY = (out.dim(2) + m - 1) / m;
    const std::size_t tilesX = (out.dim(3) + m - 1) / m;
    const std::size_t tiles = out.dim(0) * tilesY * tilesX;
    twq_assert(M.rank() == 4 && M.dim(0) == at.rowsIn * at.rowsIn &&
                   M.dim(1) == out.dim(1) && M.dim(2) == tiles &&
                   M.dim(3) == kB,
               "tap buffer does not match the output geometry");
    outputChunk(M.data(), at,
                TileChunk{0, out.dim(0) * tilesY, tiles, tiles}, out,
                bias8, relu, kernel);
}

} // namespace

void
winogradInputTransformBlocked(const TensorD &input, WinoVariant v,
                              std::size_t pad, TensorD &U)
{
    inputTransform(input, v, pad, winoInputSep<double>(v), U,
                   table().winoInputD);
}

void
winogradInputTransformBlocked(const TensorI32 &input, WinoVariant v,
                              std::size_t pad, TensorI32 &U)
{
    inputTransform(input, v, pad, winoInputSep<std::int32_t>(v), U,
                   table().winoInputI32);
}

void
winogradInputTransformBlocked(const TensorF16 &input, WinoVariant v,
                              std::size_t pad, TensorF &U)
{
    inputTransform(input, v, pad, winoInputSep<float>(v), U,
                   layout::f16Kernels().winoInput);
}

void
winogradOutputTransformBlocked(const TensorD &M, WinoVariant v,
                               TensorD &out, const double *bias8,
                               bool relu)
{
    outputTransform(M, winoOutputSep<double>(v), out, bias8, relu,
                    table().winoOutputD);
}

void
winogradOutputTransformBlocked(const TensorF &M, WinoVariant v,
                               TensorF16 &out, const float *bias8,
                               bool relu)
{
    outputTransform(M, winoOutputSep<float>(v), out, bias8, relu,
                    layout::f16Kernels().winoOutput);
}

void
winogradInputTransformChunk(const TensorI32 &input, WinoVariant v,
                            std::size_t pad, const TileChunk &c,
                            std::int32_t *u)
{
    inputChunk(input, v, pad, winoInputSep<std::int32_t>(v), c, u,
               table().winoInputI32);
}

void
winogradOutputTransformChunk(const double *m, WinoVariant v,
                             const TileChunk &c, TensorD &out,
                             const double *bias8, bool relu)
{
    outputChunk(m, winoOutputSep<double>(v), c, out, bias8, relu,
                table().winoOutputD);
}

namespace
{

/**
 * The fp64 and f16 engines' chunk walk: per chunk, the fused input
 * transform into the lane's U, the per-tap GEMM into its M, and the
 * fused output transform into `out`.
 */
template <typename S, typename T, typename Weights, typename Input,
          typename Gemm, typename Output>
void
convChunked(const Tensor<S> &input, const Weights &w, std::size_t pad,
            Tensor<T> &U, Tensor<T> &M, Tensor<S> &out,
            gemm::ParallelRunner *runner, const T *bias8, bool relu,
            Input inKernel, Gemm gemmKernel, Output outKernel)
{
    const WinoDims d = winoDimsBlocked(input.shape(), w.variant, pad);
    twq_assert(input.dim(1) == w.cinb,
               "input channel blocks do not match prepared weights");
    twq_assert(out.rank() == 5 && out.dim(0) == d.n &&
                   out.dim(1) == w.coutb && out.dim(2) == d.ho &&
                   out.dim(3) == d.wo && out.dim(4) == kB,
               "output tensor not pre-shaped for the blocked launch");
    const std::size_t tt = d.t * d.t;
    const std::size_t lanes = runner ? runner->lanes() : 1;
    const TileChunks c = tileChunks(d, w.cinb, w.coutb, sizeof(T), lanes);
    const std::size_t uElems = c.laneElems(tt, w.cinb);
    const std::size_t mElems = c.laneElems(tt, w.coutb);
    T *u = chunkBuffer(U, lanes * uElems);
    T *m = chunkBuffer(M, lanes * mElems);
    const WinoKronPlan<T> &bt = winoInputSep<T>(w.variant);
    const WinoKronPlan<T> &at = winoOutputSep<T>(w.variant);
    forEachTileChunk(runner, c, [&](const TileChunk &ch, std::size_t lane) {
        T *ul = u + lane * uElems;
        T *ml = m + lane * mElems;
        inputChunk(input, w.variant, pad, bt, ch, ul, inKernel);
        for (std::size_t k = 0; k < tt; ++k)
            gemmKernel(w.tap(k), ul + k * w.cinb * ch.strideTiles * kB,
                       ml + k * w.coutb * ch.strideTiles * kB, w.coutb,
                       w.cinb, ch.strideTiles, 0, ch.tiles);
        outputChunk(ml, at, ch, out, bias8, relu, outKernel);
    });
}

} // namespace

void
conv2dWinogradBlockedInto(const TensorD &input,
                          const BlockedTapWeights &w, std::size_t pad,
                          TensorD &U, TensorD &M, TensorD &out,
                          gemm::ParallelRunner *runner,
                          const double *bias8, bool relu)
{
    TWQ_SPAN("winoc8.tiles");
    TWQ_STAGE_PERF("winoc8.tiles");
    convChunked(input, w, pad, U, M, out, runner, bias8, relu,
                table().winoInputD, table().tapGemm, table().winoOutputD);
}

TensorD
conv2dWinogradBlocked(const TensorD &input, const BlockedTapWeights &w,
                      std::size_t pad)
{
    const WinoDims d = winoDimsBlocked(input.shape(), w.variant, pad);
    TensorD U, M;
    TensorD out({d.n, w.coutb, d.ho, d.wo, kB});
    conv2dWinogradBlockedInto(input, w, pad, U, M, out);
    return out;
}

BlockedTapWeightsF16
blockedTapWeightsF16(const WinogradTapWeights<double> &w)
{
    const WinoSpec spec = winoSpec(w.variant);
    const std::size_t tt = spec.t * spec.t;
    BlockedTapWeightsF16 out;
    out.variant = w.variant;
    out.cout = w.cout;
    out.cin = w.cin;
    out.coutb = layoutBlocks(w.cout);
    out.cinb = layoutBlocks(w.cin);
    const std::size_t cinp = out.cinb * kB;
    const std::size_t total = tt * out.coutb * cinp * kB;
    // Re-block in fp32, then narrow the whole buffer in one pass so
    // the stored half is a single round-to-nearest-even of the fp32
    // coefficient (the zero padding narrows to +0).
    std::vector<float> tmp(total, 0.0f);
    for (std::size_t k = 0; k < tt; ++k) {
        const double *src = w.tap(k);
        float *dst = tmp.data() + k * out.coutb * cinp * kB;
        for (std::size_t oc = 0; oc < w.cout; ++oc) {
            const std::size_t co = oc / kB;
            const std::size_t lo = oc % kB;
            for (std::size_t ic = 0; ic < w.cin; ++ic)
                dst[(co * cinp + ic) * kB + lo] =
                    static_cast<float>(src[oc * w.cin + ic]);
        }
    }
    out.taps.resize(total);
    layout::f16Kernels().narrow(tmp.data(), out.taps.data(), total);
    return out;
}

void
conv2dWinogradBlockedF16Into(const TensorF16 &input,
                             const BlockedTapWeightsF16 &w,
                             std::size_t pad, TensorF &U, TensorF &M,
                             TensorF16 &out,
                             gemm::ParallelRunner *runner,
                             const float *bias8, bool relu)
{
    TWQ_SPAN("winoc8h.tiles");
    TWQ_STAGE_PERF("winoc8h.tiles");
    const layout::F16Kernels &hk = layout::f16Kernels();
    convChunked(input, w, pad, U, M, out, runner, bias8, relu,
                hk.winoInput, hk.tapGemm, hk.winoOutput);
}

TensorF16
conv2dWinogradBlockedF16(const TensorF16 &input,
                         const BlockedTapWeightsF16 &w, std::size_t pad,
                         const float *bias8, bool relu)
{
    const WinoDims d = winoDimsBlocked(input.shape(), w.variant, pad);
    TensorF U, M;
    TensorF16 out({d.n, w.coutb, d.ho, d.wo, kB});
    conv2dWinogradBlockedF16Into(input, w, pad, U, M, out, nullptr,
                                 bias8, relu);
    return out;
}

template void winogradGatherTilesBlocked(const Tensor<double> &,
                                         WinoVariant, std::size_t,
                                         Tensor<double> &);
template void
winogradGatherTilesBlocked(const Tensor<std::int32_t> &, WinoVariant,
                           std::size_t, Tensor<std::int32_t> &);
template void winogradUntileBlocked(const Tensor<double> &, WinoVariant,
                                    Tensor<double> &, const double *,
                                    bool);
template void winogradUntileBlocked(const Tensor<std::int64_t> &,
                                    WinoVariant,
                                    Tensor<std::int64_t> &,
                                    const std::int64_t *, bool);

} // namespace twq
