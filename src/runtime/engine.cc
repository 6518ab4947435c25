#include "runtime/engine.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <string>

#include "common/logging.hh"
#include "gemm/gemm.hh"
#include "layout/kernels.hh"
#include "layout/wino_blocked.hh"
#include "obs/perf.hh"
#include "obs/trace.hh"
#include "quant/calibration.hh"
#include "quant/int_wino_blocked.hh"
#include "quant/quantizer.hh"
#include "winograd/tiled.hh"

namespace twq
{

namespace
{

/** Per-layer scratch slot names, resolved once at prepare() time. */
ScratchArena::Slot
layerSlot(const char *what, const std::string &layer)
{
    return ScratchArena::resolve(std::string(what) + ":" + layer);
}

/**
 * Validate a fused epilogue against the layer and return its bias
 * (empty = none). Central so every backend enforces the same
 * contract: a bias must carry exactly one addend per output channel.
 */
std::vector<double>
epilogueBias(const Epilogue &e, const ConvLayerDesc &desc)
{
    if (e.bias.empty())
        return {};
    twq_assert(e.bias.size() == desc.cout, "epilogue bias size ",
               e.bias.size(), " != cout ", desc.cout, " on layer ",
               desc.name);
    return e.bias;
}

/** The same bias re-laid per NCHWc8 lane: [coutb*8], tail zero. */
template <typename T>
std::vector<T>
blockedBias(const std::vector<double> &bias)
{
    if (bias.empty())
        return {};
    std::vector<T> b8(layoutBlocks(bias.size()) * kLayoutBlock, T{});
    for (std::size_t i = 0; i < bias.size(); ++i)
        b8[i] = static_cast<T>(bias[i]);
    return b8;
}

// GEMM pack buffers are shape-independent (gemm::packSize() elements),
// so one process-wide slot name per element type serves every layer.
ScratchArena::Slot
packSlotD()
{
    static const ScratchArena::Slot slot =
        ScratchArena::resolve("gemm.pack.d");
    return slot;
}

ScratchArena::Slot
packSlotI8()
{
    static const ScratchArena::Slot slot =
        ScratchArena::resolve("gemm.pack.i8");
    return slot;
}

// ------------------------------------------------------------- im2col

struct Im2colPrepared : PreparedLayer
{
    TensorD wmat; ///< [Cout, Cin*K*K] packed GEMM operand
    ConvParams params;
    ScratchArena::Slot cols = 0; ///< column-buffer slot
    std::vector<double> bias;    ///< fused epilogue; empty = none
    bool relu = false;
};

class Im2colBackend : public ConvBackend
{
  public:
    ConvEngine kind() const override { return ConvEngine::Im2col; }

    bool
    supports(const ConvLayerDesc &) const override
    {
        return true; // the universal fallback
    }

    std::shared_ptr<const PreparedLayer>
    prepare(const ConvLayerDesc &desc, const TensorD &weights,
            const LayerBuild &build) const override
    {
        auto prep = std::make_shared<Im2colPrepared>();
        prep->wmat = packConvWeights(weights);
        prep->params = build.params;
        prep->cols = layerSlot("im2col.cols", desc.name);
        prep->bias = epilogueBias(build.epilogue, desc);
        prep->relu = build.epilogue.relu;
        return prep;
    }

    Shape
    outputShape(const PreparedLayer &prep,
                const Shape &input) const override
    {
        const auto &p = static_cast<const Im2colPrepared &>(prep);
        return {input[0], p.wmat.dim(0), p.params.outSize(input[2]),
                p.params.outSize(input[3])};
    }

    void
    run(const PreparedLayer &prep, const TensorD &input,
        ScratchArena &scratch, TensorD &out,
        const RunContext &ctx) const override
    {
        const auto &p = static_cast<const Im2colPrepared &>(prep);
        const std::size_t k = p.params.kernel;
        const std::size_t spatial = p.params.outSize(input.dim(2)) *
                                    p.params.outSize(input.dim(3));
        const std::size_t ckk = input.dim(1) * k * k;
        TensorD &cols = scratch.tensor(p.cols, {ckk, spatial});
        const double macs = static_cast<double>(p.wmat.dim(0)) *
                            static_cast<double>(ckk) *
                            static_cast<double>(spatial);
        TWQ_SPAN("im2col.conv");
        TWQ_STAGE_PERF("im2col.conv");
        conv2dIm2colPackedInto(input, p.wmat, p.params, cols, out,
                               ctx.runnerFor(macs), ctx.packs,
                               p.bias.empty() ? nullptr : p.bias.data(),
                               p.relu);
    }
};

// ------------------------------------------------------ FP32 Winograd

struct WinogradFp32Prepared : PreparedLayer
{
    /// Tap-major [t*t][Cout][Cin] weights feeding the per-tap GEMM.
    WinogradTapWeights<double> weights;
    std::size_t pad = 1;
    ScratchArena::Slot tiles = 0;   ///< V raw-tile slot
    ScratchArena::Slot scatter = 0; ///< U buffer slot
    ScratchArena::Slot gemm = 0;    ///< M buffer slot
    ScratchArena::Slot back = 0;    ///< Y back-transform slot
    std::vector<double> bias;       ///< fused epilogue; empty = none
    bool relu = false;
};

class WinogradFp32Backend : public ConvBackend
{
  public:
    ConvEngine kind() const override { return ConvEngine::WinogradFp32; }

    bool
    supports(const ConvLayerDesc &desc) const override
    {
        return desc.winogradEligible();
    }

    std::shared_ptr<const PreparedLayer>
    prepare(const ConvLayerDesc &desc, const TensorD &weights,
            const LayerBuild &build) const override
    {
        twq_assert(supports(desc),
                   "winograd-fp32 backend on ineligible layer ",
                   desc.name);
        auto prep = std::make_shared<WinogradFp32Prepared>();
        prep->weights =
            winogradPrepareTapWeights(weights, build.variant);
        prep->pad = build.params.pad;
        prep->tiles = layerSlot("wino.V", desc.name);
        prep->scatter = layerSlot("wino.U", desc.name);
        prep->gemm = layerSlot("wino.M", desc.name);
        prep->back = layerSlot("wino.Y", desc.name);
        prep->bias = epilogueBias(build.epilogue, desc);
        prep->relu = build.epilogue.relu;
        return prep;
    }

    Shape
    outputShape(const PreparedLayer &prep,
                const Shape &input) const override
    {
        const auto &p = static_cast<const WinogradFp32Prepared &>(prep);
        const ConvParams cp{3, 1, p.pad};
        return {input[0], p.weights.cout, cp.outSize(input[2]),
                cp.outSize(input[3])};
    }

    void
    run(const PreparedLayer &prep, const TensorD &input,
        ScratchArena &scratch, TensorD &out,
        const RunContext &ctx) const override
    {
        const auto &p = static_cast<const WinogradFp32Prepared &>(prep);
        const WinoDims d =
            winoDims(input.shape(), p.weights.variant, p.pad);
        TensorD &V = scratch.tensor(
            p.tiles, {d.t * d.t, p.weights.cin, d.tiles});
        TensorD &U = scratch.tensor(
            p.scatter, {d.t * d.t, p.weights.cin, d.tiles});
        TensorD &M = scratch.tensor(
            p.gemm, {d.t * d.t, p.weights.cout, d.tiles});
        TensorD &Y = scratch.tensor(
            p.back, {d.m * d.m, p.weights.cout, d.tiles});
        const double macs = static_cast<double>(d.t * d.t) *
                            static_cast<double>(p.weights.cout) *
                            static_cast<double>(p.weights.cin) *
                            static_cast<double>(d.tiles);
        conv2dWinogradTiledInto(input, p.weights, p.pad, V, U, M, Y,
                                out, ctx.runnerFor(macs), ctx.packs,
                                p.bias.empty() ? nullptr : p.bias.data(),
                                p.relu);
    }
};

// ------------------------------------------- blocked-layout Winograd

/** A blocked Winograd layer's physical MACs: the padded lanes compute
 * too. */
double
blockedMacs(const WinoDims &d, std::size_t cinb, std::size_t coutb)
{
    return static_cast<double>(d.t * d.t) *
           static_cast<double>(coutb * kLayoutBlock) *
           static_cast<double>(cinb * kLayoutBlock) *
           static_cast<double>(d.tiles);
}

struct WinogradBlockedPrepared : PreparedLayer
{
    /// c-blocked tap weights feeding the NCHWc8 per-tap kernel.
    BlockedTapWeights weights;
    std::size_t pad = 1;
    ScratchArena::Slot scatter = 0; ///< U chunk-buffer slot
    ScratchArena::Slot gemm = 0;    ///< M chunk-buffer slot
    std::vector<double> bias8;      ///< per-lane bias [coutb*8]; empty = none
    bool relu = false;
};

/**
 * FP32 Winograd on the NCHWc8 blocked activation layout
 * (layout/wino_blocked.hh): run() consumes and produces blocked
 * [N, C/8, H, W, 8] tensors, so a session whose chain stays on this
 * backend keeps its inter-layer activations blocked and pays layout
 * conversion only at network ingress and egress.
 */
class WinogradBlockedBackend : public ConvBackend
{
  public:
    ConvEngine
    kind() const override
    {
        return ConvEngine::WinogradBlocked;
    }

    bool
    supports(const ConvLayerDesc &desc) const override
    {
        return desc.winogradEligible();
    }

    ActLayout
    inputLayout() const override
    {
        return ActLayout::NCHWc8;
    }

    ActLayout
    outputLayout() const override
    {
        return ActLayout::NCHWc8;
    }

    std::shared_ptr<const PreparedLayer>
    prepare(const ConvLayerDesc &desc, const TensorD &weights,
            const LayerBuild &build) const override
    {
        twq_assert(supports(desc),
                   "winograd-blocked backend on ineligible layer ",
                   desc.name);
        auto prep = std::make_shared<WinogradBlockedPrepared>();
        prep->weights = blockedTapWeights(
            winogradPrepareTapWeights(weights, build.variant));
        prep->pad = build.params.pad;
        // Chunk buffers are sized by the chunk geometry, not by the
        // layer (layout/wino_blocked.hh), so one process-wide slot per
        // buffer serves every layer and stays hot from layer to layer.
        prep->scatter = ScratchArena::resolve("winoc8.U");
        prep->gemm = ScratchArena::resolve("winoc8.M");
        prep->bias8 = blockedBias<double>(
            epilogueBias(build.epilogue, desc));
        prep->relu = build.epilogue.relu;
        return prep;
    }

    Shape
    outputShape(const PreparedLayer &prep,
                const Shape &input) const override
    {
        const auto &p =
            static_cast<const WinogradBlockedPrepared &>(prep);
        twq_assert(input.size() == 5 && input[4] == kLayoutBlock,
                   "winograd-blocked backend expects NCHWc8 input");
        const ConvParams cp{3, 1, p.pad};
        return {input[0], p.weights.coutb, cp.outSize(input[2]),
                cp.outSize(input[3]), kLayoutBlock};
    }

    void
    run(const PreparedLayer &prep, const TensorD &input,
        ScratchArena &scratch, TensorD &out,
        const RunContext &ctx) const override
    {
        const auto &p =
            static_cast<const WinogradBlockedPrepared &>(prep);
        const WinoDims d =
            winoDimsBlocked(input.shape(), p.weights.variant, p.pad);
        conv2dWinogradBlockedInto(
            input, p.weights, p.pad, scratch.buffer<double>(p.scatter),
            scratch.buffer<double>(p.gemm), out,
            ctx.runnerFor(blockedMacs(d, p.weights.cinb, p.weights.coutb)),
            p.bias8.empty() ? nullptr : p.bias8.data(), p.relu);
    }
};

// -------------------------------------- blocked-layout int8 Winograd

struct WinogradBlockedInt8Prepared : PreparedLayer
{
    /// The layer's scales, packed tap weights and blocked execution;
    /// holds no reference to the IntWinogradConv it was built from.
    std::unique_ptr<BlockedIntWinograd> blocked;
    ScratchArena::Slot quantized = 0; ///< int32 blocked-input slot
    // Chunk-buffer slots:
    ScratchArena::Slot scatter = 0;   ///< int32 B-transformed taps
    ScratchArena::Slot narrowed = 0;  ///< int16 GEMM operand
    ScratchArena::Slot narrowed8 = 0; ///< biased-u8 GEMM operand
    ScratchArena::Slot gemm = 0;      ///< int32 M
    ScratchArena::Slot dequant = 0;   ///< f64 rescaled M
    std::vector<double> bias8; ///< per-lane bias [coutb*8]; empty = none
    bool relu = false;
};

/**
 * int8 tap-wise quantized Winograd on the NCHWc8 blocked activation
 * layout (quant/int_wino_blocked.hh): blocked tiles quantize in
 * place, the per-tap widening GEMM runs the int16 (or VNNI u8)
 * c-block kernel, the tap-wise S_BG rescale is applied per GEMM
 * slice, and the fused output transform dequantizes. Outputs agree
 * with the IntWinogradConv oracle within a relative 1e-9 (and are
 * bit-identical to its forwardInt8 on the fully integer path).
 */
class WinogradBlockedInt8Backend : public ConvBackend
{
  public:
    ConvEngine
    kind() const override
    {
        return ConvEngine::WinogradBlockedInt8;
    }

    bool
    supports(const ConvLayerDesc &desc) const override
    {
        return desc.winogradEligible();
    }

    ActLayout
    inputLayout() const override
    {
        return ActLayout::NCHWc8;
    }

    ActLayout
    outputLayout() const override
    {
        return ActLayout::NCHWc8;
    }

    std::shared_ptr<const PreparedLayer>
    prepare(const ConvLayerDesc &desc, const TensorD &weights,
            const LayerBuild &build) const override
    {
        twq_assert(supports(desc),
                   "winograd-blocked-int8 backend on ineligible "
                   "layer ",
                   desc.name);
        twq_assert(build.calibration && !build.calibration->empty(),
                   "winograd-blocked-int8 backend needs calibration "
                   "samples");
        IntWinogradConfig cfg = build.quant;
        cfg.variant = build.variant;
        cfg.pad = build.params.pad;
        auto prep = std::make_shared<WinogradBlockedInt8Prepared>();
        // Calibrates and quantizes; the blocked engine copies what it
        // runs, so the NCHW weights are dropped once it is built.
        const IntWinogradConv conv(weights, *build.calibration, cfg,
                                   build.calCache);
        prep->blocked = std::make_unique<BlockedIntWinograd>(conv);
        prep->quantized = ScratchArena::resolve("winoc8i.xq");
        prep->scatter = ScratchArena::resolve("winoc8i.U32");
        prep->narrowed = ScratchArena::resolve("winoc8i.U16");
        prep->narrowed8 = ScratchArena::resolve("winoc8i.U8");
        prep->gemm = ScratchArena::resolve("winoc8i.M");
        prep->dequant = ScratchArena::resolve("winoc8i.Md");
        prep->bias8 = blockedBias<double>(
            epilogueBias(build.epilogue, desc));
        prep->relu = build.epilogue.relu;
        return prep;
    }

    Shape
    outputShape(const PreparedLayer &prep,
                const Shape &input) const override
    {
        const auto &p =
            static_cast<const WinogradBlockedInt8Prepared &>(prep);
        twq_assert(input.size() == 5 && input[4] == kLayoutBlock,
                   "winograd-blocked-int8 backend expects NCHWc8 "
                   "input");
        const ConvParams cp{3, 1, p.blocked->config().pad};
        return {input[0], p.blocked->coutb(), cp.outSize(input[2]),
                cp.outSize(input[3]), kLayoutBlock};
    }

    void
    run(const PreparedLayer &prep, const TensorD &input,
        ScratchArena &scratch, TensorD &out,
        const RunContext &ctx) const override
    {
        const auto &p =
            static_cast<const WinogradBlockedInt8Prepared &>(prep);
        const IntWinogradConfig &cfg = p.blocked->config();
        const WinoDims d =
            winoDimsBlocked(input.shape(), cfg.variant, cfg.pad);
        p.blocked->forwardInto(
            input, scratch.tensorI32(p.quantized, input.shape()),
            scratch.buffer<std::int32_t>(p.scatter),
            scratch.buffer<std::int16_t>(p.narrowed),
            scratch.buffer<std::int8_t>(p.narrowed8),
            scratch.buffer<std::int32_t>(p.gemm),
            scratch.buffer<double>(p.dequant), out,
            ctx.runnerFor(
                blockedMacs(d, p.blocked->cinb(), p.blocked->coutb())),
            p.bias8.empty() ? nullptr : p.bias8.data(), p.relu);
    }
};

// --------------------------------------- binary16 blocked Winograd

struct WinogradBlockedF16Prepared : PreparedLayer
{
    /// c-blocked tap weights narrowed to binary16 storage.
    BlockedTapWeightsF16 weights;
    std::size_t pad = 1;
    ScratchArena::Slot scatter = 0; ///< U fp32 chunk-buffer slot
    ScratchArena::Slot gemm = 0;    ///< M fp32 chunk-buffer slot
    ScratchArena::Slot inHalf = 0;  ///< half input slot (run() seam)
    ScratchArena::Slot outHalf = 0; ///< half output slot (run() seam)
    std::vector<float> bias8; ///< per-lane bias [coutb*8]; empty = none
    bool relu = false;
};

/**
 * Half-storage blocked Winograd (layout/wino_blocked.hh): weights and
 * inter-layer activations live as IEEE binary16 in NCHWc8, halving
 * both bandwidths; all arithmetic runs in fp32. The hot path is
 * runF16(); run() exists for the session's probe and conversion seams
 * and pays an explicit double<->half conversion on either side.
 */
class WinogradBlockedF16Backend : public ConvBackend
{
  public:
    ConvEngine
    kind() const override
    {
        return ConvEngine::WinogradBlockedF16;
    }

    bool
    supports(const ConvLayerDesc &desc) const override
    {
        return desc.winogradEligible();
    }

    ActLayout
    inputLayout() const override
    {
        return ActLayout::NCHWc8;
    }

    ActLayout
    outputLayout() const override
    {
        return ActLayout::NCHWc8;
    }

    bool
    f16Storage() const override
    {
        return true;
    }

    std::shared_ptr<const PreparedLayer>
    prepare(const ConvLayerDesc &desc, const TensorD &weights,
            const LayerBuild &build) const override
    {
        twq_assert(supports(desc),
                   "winograd-blocked-f16 backend on ineligible layer ",
                   desc.name);
        auto prep = std::make_shared<WinogradBlockedF16Prepared>();
        prep->weights = blockedTapWeightsF16(
            winogradPrepareTapWeights(weights, build.variant));
        prep->pad = build.params.pad;
        prep->scatter = ScratchArena::resolve("winoc8h.U");
        prep->gemm = ScratchArena::resolve("winoc8h.M");
        prep->inHalf = ScratchArena::resolve("winoc8h.xh");
        prep->outHalf = ScratchArena::resolve("winoc8h.yh");
        prep->bias8 = blockedBias<float>(
            epilogueBias(build.epilogue, desc));
        prep->relu = build.epilogue.relu;
        return prep;
    }

    Shape
    outputShape(const PreparedLayer &prep,
                const Shape &input) const override
    {
        const auto &p =
            static_cast<const WinogradBlockedF16Prepared &>(prep);
        twq_assert(input.size() == 5 && input[4] == kLayoutBlock,
                   "winograd-blocked-f16 backend expects NCHWc8 "
                   "input");
        const ConvParams cp{3, 1, p.pad};
        return {input[0], p.weights.coutb, cp.outSize(input[2]),
                cp.outSize(input[3]), kLayoutBlock};
    }

    void
    runF16(const PreparedLayer &prep, const TensorF16 &input,
           ScratchArena &scratch, TensorF16 &out,
           const RunContext &ctx) const override
    {
        const auto &p =
            static_cast<const WinogradBlockedF16Prepared &>(prep);
        const WinoDims d = winoDimsBlocked(
            input.shape(), p.weights.variant, p.pad);
        conv2dWinogradBlockedF16Into(
            input, p.weights, p.pad, scratch.buffer<float>(p.scatter),
            scratch.buffer<float>(p.gemm), out,
            ctx.runnerFor(blockedMacs(d, p.weights.cinb, p.weights.coutb)),
            p.bias8.empty() ? nullptr : p.bias8.data(), p.relu);
    }

    void
    run(const PreparedLayer &prep, const TensorD &input,
        ScratchArena &scratch, TensorD &out,
        const RunContext &ctx) const override
    {
        // Conversion seam: narrow the double input to storage halves,
        // drive the binary16 hot path, widen the result back. The
        // stored-half activations are exactly what a chained f16 run
        // would see, so probe accuracy measures the real engine.
        const auto &p =
            static_cast<const WinogradBlockedF16Prepared &>(prep);
        TensorF16 &xh = scratch.tensorF16(p.inHalf, input.shape());
        tensorDToF16(input, xh);
        TensorF16 &yh = scratch.tensorF16(
            p.outHalf, outputShape(prep, input.shape()));
        runF16(prep, xh, scratch, yh, ctx);
        tensorF16ToD(yh, out);
    }
};

// ------------------------------------------------- int8 im2col GEMM

struct Im2colInt8Prepared : PreparedLayer
{
    TensorI8 wq;             ///< [Cout, Cin*K*K] int8 GEMM operand
    std::vector<double> sw;  ///< per-output-channel weight scales
    double sx = 1.0;         ///< activation scale (calibrated)
    bool pow2Sx = false; ///< sx is a power of two (exact reciprocal)
    bool pairSafe = false; ///< weights pass gemm::gemmS8PairSafe
    int bits = 8;
    ConvParams params;
    ScratchArena::Slot quantized = 0; ///< int8 input slot
    ScratchArena::Slot cols = 0;      ///< int8 column-buffer slot
    ScratchArena::Slot acc = 0;       ///< int32 accumulator slot
    std::vector<double> bias;         ///< fused epilogue; empty = none
    bool relu = false;
};

/**
 * The quantized path's universal fallback (ROADMAP item): weights are
 * quantized to int8 per output channel, activations layer-wise from
 * calibration, and the lowered product runs the widening int8 -> int32
 * micro-kernel; the int32 accumulator dequantizes into the FP output
 * so layers chain normally. Supports any kernel/stride, giving
 * winograd-ineligible layers an apples-to-apples quantized baseline.
 */
class Im2colInt8Backend : public ConvBackend
{
  public:
    ConvEngine kind() const override { return ConvEngine::Im2colInt8; }

    bool
    supports(const ConvLayerDesc &) const override
    {
        return true; // any kernel/stride, like fp im2col
    }

    std::shared_ptr<const PreparedLayer>
    prepare(const ConvLayerDesc &desc, const TensorD &weights,
            const LayerBuild &build) const override
    {
        twq_assert(build.calibration && !build.calibration->empty(),
                   "im2col-int8 backend needs calibration samples");
        auto prep = std::make_shared<Im2colInt8Prepared>();
        prep->params = build.params;
        // Operands are stored in int8 tensors, so wider configured
        // spatial widths (the 10-bit int-Winograd configs) clamp to
        // the 8 bits this engine can actually represent.
        prep->bits = std::min(build.quant.spatialBits, 8);
        prep->quantized = layerSlot("im8.xq", desc.name);
        prep->cols = layerSlot("im8.cols", desc.name);
        prep->acc = layerSlot("im8.acc", desc.name);
        prep->bias = epilogueBias(build.epilogue, desc);
        prep->relu = build.epilogue.relu;

        // Activation scale from the layer's calibration activations;
        // shared with the layer's other quantized candidates when the
        // session provides a calibration cache.
        MaxCalibrator localCal;
        if (!build.calCache) {
            for (const TensorD &x : *build.calibration)
                localCal.observeAll(x.storage());
            countCalibrationPass();
        }
        const MaxCalibrator &xcal =
            build.calCache ? build.calCache->spatial() : localCal;
        prep->sx = xcal.scale(prep->bits);
        if (build.quant.pow2Scales)
            prep->sx = pow2Ceil(prep->sx);
        // A power-of-two scale has an exact reciprocal, so the
        // vectorized multiply-by-reciprocal quantization is
        // bit-identical to the scalar divide.
        int e = 0;
        prep->pow2Sx = std::frexp(prep->sx, &e) == 0.5;

        // Per-output-channel weight quantization on the packed
        // [Cout, Cin*K*K] layout.
        const TensorD wmat = packConvWeights(weights);
        const std::size_t cout = wmat.dim(0);
        const std::size_t ckk = wmat.dim(1);
        prep->wq = TensorI8({cout, ckk});
        prep->sw.resize(cout);
        for (std::size_t oc = 0; oc < cout; ++oc) {
            double mx = 0.0;
            for (std::size_t i = 0; i < ckk; ++i)
                mx = std::max(mx, std::abs(wmat[oc * ckk + i]));
            double s = scaleForMax(std::max(mx, 1e-30), prep->bits);
            if (build.quant.pow2Scales)
                s = pow2Ceil(s);
            prep->sw[oc] = s;
            for (std::size_t i = 0; i < ckk; ++i)
                prep->wq[oc * ckk + i] = static_cast<std::int8_t>(
                    quantize(wmat[oc * ckk + i], s, prep->bits));
        }
        // One scan of the static weights decides whether the
        // vpmaddubsw GEMM fast path is provably saturation-free for
        // this layer (valid for any activations and row sub-block).
        prep->pairSafe =
            gemm::gemmS8PairSafe(prep->wq.data(), cout, ckk);
        return prep;
    }

    Shape
    outputShape(const PreparedLayer &prep,
                const Shape &input) const override
    {
        const auto &p = static_cast<const Im2colInt8Prepared &>(prep);
        return {input[0], p.wq.dim(0), p.params.outSize(input[2]),
                p.params.outSize(input[3])};
    }

    void
    run(const PreparedLayer &prep, const TensorD &input,
        ScratchArena &scratch, TensorD &out,
        const RunContext &ctx) const override
    {
        const auto &p = static_cast<const Im2colInt8Prepared &>(prep);
        const std::size_t n = input.dim(0);
        const std::size_t cout = p.wq.dim(0);
        const std::size_t ckk = p.wq.dim(1);
        const std::size_t ho = p.params.outSize(input.dim(2));
        const std::size_t wo = p.params.outSize(input.dim(3));
        const std::size_t spatial = ho * wo;

        TensorI8 &xq = scratch.tensorI8(p.quantized, input.shape());
        {
            TWQ_SPAN("im8.quantize");
            TWQ_STAGE_PERF("im8.quantize");
            if (p.pow2Sx) {
                // Vectorized narrowing quantization (exact for pow2
                // scales — see layout::QuantizeI8Fn).
                layout::kernels().quantizeI8(
                    input.data(), 1.0 / p.sx,
                    static_cast<double>(quantMin(p.bits)),
                    static_cast<double>(quantMax(p.bits)), xq.data(),
                    input.numel());
            } else {
                for (std::size_t i = 0; i < input.numel(); ++i)
                    xq[i] = static_cast<std::int8_t>(
                        quantize(input[i], p.sx, p.bits));
            }
        }

        TensorI8 &cols = scratch.tensorI8(p.cols, {ckk, spatial});
        TensorI32 &acc = scratch.tensorI32(p.acc, {cout, spatial});
        const double macs = static_cast<double>(cout) *
                            static_cast<double>(ckk) *
                            static_cast<double>(spatial);
        gemm::ParallelRunner *runner = ctx.runnerFor(macs);
        gemm::PackPool *packs = runner ? ctx.packs : nullptr;

        for (std::size_t in = 0; in < n; ++in) {
            {
                TWQ_SPAN("im8.lower");
                TWQ_STAGE_PERF("im8.lower");
                im2colInto(xq, in, p.params, cols);
            }
            // Output-channel row blocks, as in the FP im2col path.
            {
                TWQ_SPAN("im8.gemm");
                TWQ_STAGE_PERF("im8.gemm");
                gemm::runRowBlocks(
                    runner, cout, gemm::kMr,
                    [&](std::size_t r0, std::size_t rows,
                        std::size_t lane) {
                        const std::int8_t *w0 =
                            p.wq.data() + r0 * ckk;
                        std::int32_t *c0 =
                            acc.data() + r0 * spatial;
                        std::int8_t *pk =
                            gemm::lanePack<std::int8_t>(packs, lane);
                        if (p.pairSafe)
                            gemm::gemmS8S32Pair(w0, cols.data(), c0,
                                                rows, ckk, spatial,
                                                pk);
                        else
                            gemm::gemmS8S32(w0, cols.data(), c0,
                                            rows, ckk, spatial, pk);
                    });
            }

            // Dequantize into the FP output plane — y = acc * sx * sw
            // — with the fused epilogue (bias add, ReLU) folded into
            // the same write.
            TWQ_SPAN("im8.dequant");
            TWQ_STAGE_PERF("im8.dequant");
            double *dst = out.data() + in * cout * spatial;
            for (std::size_t oc = 0; oc < cout; ++oc) {
                const double s = p.sx * p.sw[oc];
                const double bc = p.bias.empty() ? 0.0 : p.bias[oc];
                const bool hasBias = !p.bias.empty();
                const std::int32_t *src = acc.data() + oc * spatial;
                double *row = dst + oc * spatial;
                for (std::size_t i = 0; i < spatial; ++i) {
                    double v = static_cast<double>(src[i]) * s;
                    if (hasBias)
                        v += bc;
                    if (p.relu && v < 0.0)
                        v = 0.0;
                    row[i] = v;
                }
            }
        }
    }
};

} // namespace

void
ConvBackend::runF16(const PreparedLayer &, const TensorF16 &,
                    ScratchArena &, TensorF16 &,
                    const RunContext &) const
{
    twq_panic("backend ", convEngineName(kind()),
              " has no binary16 hot path (f16Storage() is false)");
}

double *
ArenaPackPool::packD(std::size_t lane)
{
    twq_assert(lane < arenas_->size(),
               "pack lane beyond the arena pool — runner lanes() "
               "exceeds the arenas this pool was built over");
    return (*arenas_)[lane]
        .tensor(packSlotD(), {gemm::packSize()})
        .data();
}

std::int8_t *
ArenaPackPool::packI8(std::size_t lane)
{
    twq_assert(lane < arenas_->size(),
               "pack lane beyond the arena pool — runner lanes() "
               "exceeds the arenas this pool was built over");
    return (*arenas_)[lane]
        .tensorI8(packSlotI8(), {gemm::packSize()})
        .data();
}

double
timeBackendRun(const ConvBackend &backend, const PreparedLayer &prep,
               const TensorD &input, ScratchArena &scratch, int iters)
{
    using Clock = std::chrono::steady_clock;
    TensorD out(backend.outputShape(prep, input.shape()));
    backend.run(prep, input, scratch, out); // warmup (fills arena)
    double best = std::numeric_limits<double>::infinity();
    for (int i = 0; i < iters; ++i) {
        const auto t0 = Clock::now();
        backend.run(prep, input, scratch, out);
        const double sec =
            std::chrono::duration<double>(Clock::now() - t0).count();
        best = std::min(best, sec);
    }
    return best;
}

double
timeBackendRunF16(const ConvBackend &backend,
                  const PreparedLayer &prep, const TensorF16 &input,
                  ScratchArena &scratch, int iters)
{
    using Clock = std::chrono::steady_clock;
    TensorF16 out(backend.outputShape(prep, input.shape()));
    backend.runF16(prep, input, scratch, out,
                   RunContext{}); // warmup (fills arena)
    double best = std::numeric_limits<double>::infinity();
    for (int i = 0; i < iters; ++i) {
        const auto t0 = Clock::now();
        backend.runF16(prep, input, scratch, out, RunContext{});
        const double sec =
            std::chrono::duration<double>(Clock::now() - t0).count();
        best = std::min(best, sec);
    }
    return best;
}

EngineRegistry::EngineRegistry()
{
    registerBackend(std::make_shared<Im2colBackend>());
    registerBackend(std::make_shared<WinogradFp32Backend>());
    registerBackend(std::make_shared<Im2colInt8Backend>());
    registerBackend(std::make_shared<WinogradBlockedBackend>());
    registerBackend(std::make_shared<WinogradBlockedInt8Backend>());
    registerBackend(std::make_shared<WinogradBlockedF16Backend>());
}

EngineRegistry &
EngineRegistry::instance()
{
    static EngineRegistry registry;
    return registry;
}

void
EngineRegistry::registerBackend(std::shared_ptr<ConvBackend> backend)
{
    std::lock_guard<std::mutex> lock(mu_);
    for (auto &b : backends_) {
        if (b->kind() == backend->kind()) {
            b = std::move(backend);
            return;
        }
    }
    backends_.push_back(std::move(backend));
}

std::shared_ptr<const ConvBackend>
EngineRegistry::get(ConvEngine e) const
{
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto &b : backends_)
        if (b->kind() == e)
            return b;
    twq_panic("no backend registered for engine ", convEngineName(e));
}

} // namespace twq
