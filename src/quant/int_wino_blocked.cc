#include "quant/int_wino_blocked.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/bits.hh"
#include "common/logging.hh"
#include "layout/kernels.hh"
#include "obs/perf.hh"
#include "obs/trace.hh"
#include "quant/quantizer.hh"

namespace twq
{

namespace
{

constexpr std::size_t kB = kLayoutBlock;

} // namespace

BlockedIntWinograd::BlockedIntWinograd(const IntWinogradConv &conv)
    : cfg_(conv.config()), sx_(conv.inputScale()),
      sb_(conv.inputTapScale()), cout_(conv.cout()), cin_(conv.cin()),
      coutb_(layoutBlocks(conv.cout())),
      cinb_(layoutBlocks(conv.cin()))
{
    const WinoSpec spec = winoSpec(cfg_.variant);
    const std::size_t tt = spec.t * spec.t;
    const std::size_t cinp = cinb_ * kB;

    // Wrap-free int32 accumulation in the widening tap GEMM:
    // |w|, |u| <= 2^(winogradBits - 1), summed over cinp lanes.
    const std::int64_t mag = std::int64_t{1}
                             << (cfg_.winogradBits - 1);
    twq_assert(static_cast<std::int64_t>(cinp) * mag * mag <
                   (std::int64_t{1} << 31),
               "blocked int winograd: channel count too large for "
               "exact int32 accumulation at this bit width");
    // The int32 kron of the B-transform is bounded by the plan's
    // coefficient mass (< 2^7 for F2/F4) times the spatial range.
    twq_assert(cfg_.spatialBits <= 16,
               "blocked int winograd: spatial bit width too large "
               "for the int32 transform buffers");

    // Re-lay the quantized tap-major weights [t*t][Cout][Cin] for the
    // one tap kernel this layer runs: 8-bit operands on a vpdpbusd
    // host take the quad-interleaved u8-kernel weights
    // [t*t][coutb][cinp/4][8][4] and the per-(tap, lane) bias
    // compensation 128 * sum_ic w; everything else the
    // pair-interleaved int16 weights [t*t][coutb][cinp/2][8][2].
    // Rows past Cout and columns past Cin stay zero.
    const std::vector<std::int64_t> &taps = conv.tapWeights();
    use8_ = cfg_.winogradBits <= 8 &&
            layout::kernels().tapGemmU8 != nullptr;
    if (use8_) {
        wq8_.assign(tt * coutb_ * cinp * kB, 0);
        comp_.assign(tt * coutb_ * kB, 0);
    } else {
        wq16_.assign(tt * coutb_ * cinp * kB, 0);
    }
    for (std::size_t k = 0; k < tt; ++k) {
        for (std::size_t oc = 0; oc < cout_; ++oc) {
            std::int32_t sum = 0;
            for (std::size_t ic = 0; ic < cin_; ++ic) {
                const std::int64_t v =
                    taps[(k * cout_ + oc) * cin_ + ic];
                const std::size_t row = k * coutb_ + oc / kB;
                if (use8_) {
                    wq8_[((row * (cinp / 4) + ic / 4) * kB + oc % kB) *
                             4 +
                         ic % 4] = static_cast<std::int8_t>(v);
                    sum += static_cast<std::int32_t>(v);
                } else {
                    wq16_[((row * (cinp / 2) + ic / 2) * kB +
                           oc % kB) *
                              2 +
                          ic % 2] = static_cast<std::int16_t>(v);
                }
            }
            if (use8_)
                comp_[k * coutb_ * kB + oc] = 128 * sum;
        }
    }

    // Per-(tap, lane) FP dequant scales with sx folded in; padded
    // lanes scale by zero, which pins them to exact 0.0 in the
    // output without a separate clearing pass.
    const ScaleSet &ws = conv.weightScales();
    sbgSx_.assign(tt * coutb_ * kB, 0.0);
    for (std::size_t k = 0; k < tt; ++k)
        for (std::size_t oc = 0; oc < cout_; ++oc)
            sbgSx_[k * coutb_ * kB + oc] =
                sb_(k / spec.t, k % spec.t) *
                ws.at(oc, k / spec.t, k % spec.t) * sx_;

    // Per-channel common scale + relative shifts for the fully
    // integer path (defined for power-of-two scales only).
    if (cfg_.pow2Scales) {
        comLog2_.resize(cout_);
        relShift_.assign(cout_, std::vector<int>(tt, 0));
        for (std::size_t oc = 0; oc < cout_; ++oc) {
            int lo = std::numeric_limits<int>::max();
            std::vector<int> logs(tt);
            for (std::size_t i = 0; i < spec.t; ++i) {
                for (std::size_t j = 0; j < spec.t; ++j) {
                    const double sbg =
                        sb_(i, j) * ws.at(oc, i, j);
                    logs[i * spec.t + j] = log2Exact(sbg);
                    lo = std::min(lo, logs[i * spec.t + j]);
                }
            }
            comLog2_[oc] = lo;
            for (std::size_t k = 0; k < tt; ++k)
                relShift_[oc][k] = logs[k] - lo;
        }
    }
}

void
BlockedIntWinograd::quantizeInput(const TensorD &input,
                                  TensorI32 &xq) const
{
    twq_assert(input.rank() == 5 && input.dim(1) == cinb_,
               "input channel blocks do not match prepared weights");
    // Spatial-domain quantization of the blocked input in place of
    // layout (padded lanes hold 0.0 and quantize to 0). Power-of-two
    // scales take the vectorized exact-reciprocal kernel, which is
    // bit-identical to quantize(); free scales keep the scalar
    // divide.
    TWQ_SPAN("winoc8i.quantize");
    TWQ_STAGE_PERF("winoc8i.quantize");
    if (xq.shape() != input.shape())
        xq = TensorI32(input.shape());
    if (cfg_.pow2Scales) {
        layout::kernels().quantizeI32(
            input.data(), 1.0 / sx_,
            static_cast<double>(quantMin(cfg_.spatialBits)),
            static_cast<double>(quantMax(cfg_.spatialBits)), xq.data(),
            input.numel());
    } else {
        for (std::size_t i = 0; i < input.numel(); ++i)
            xq[i] = static_cast<std::int32_t>(
                quantize(input[i], sx_, cfg_.spatialBits));
    }
}

TileChunks
BlockedIntWinograd::chunks(const WinoDims &d, std::size_t lanes) const
{
    // Md, the fp64 dequant buffer, is the widest chunk element.
    return tileChunks(d, cinb_, coutb_, sizeof(double), lanes);
}

void
BlockedIntWinograd::scatterGemmChunk(const TensorI32 &xq,
                                     const TileChunk &c, bool useShifts,
                                     const ChunkBuffers &b) const
{
    const std::size_t t = winoSpec(cfg_.variant).t;
    const std::size_t tt = t * t;
    const std::size_t cinp = cinb_ * kB;
    const std::size_t S = c.strideTiles;
    const layout::LayoutKernels &lk = layout::kernels();

    // The exact integer B-transform, fused with the tile gather (each
    // tile read straight from xq).
    winogradInputTransformChunk(xq, cfg_.variant, cfg_.pad, c, b.u32);

    // The tap-wise S_B requantization narrowing into the GEMM
    // operand, one (tap, channel block) row of the chunk's tiles at a
    // time: straight into the biased-u8 operand of the vpdpbusd tap
    // kernel (value + 128) when it is engaged, into int16 otherwise.
    // Round(x / s) rounds half away from zero, matching the shifts
    // exactly for power-of-two scales.
    const std::size_t len = c.tiles * kB;
    for (std::size_t k = 0; k < tt; ++k) {
        const double s = sb_(k / t, k % t);
        const int shift = useShifts ? log2Exact(s) : 0;
        for (std::size_t cb = 0; cb < cinb_; ++cb) {
            const std::size_t at = (k * cinb_ + cb) * S * kB;
            const std::int32_t *src = b.u32 + at;
            if (use8_ && useShifts) {
                lk.rescaleU8(src, b.u8 + at, len, shift,
                             cfg_.winogradBits);
            } else if (useShifts) {
                lk.rescaleI16(src, b.u16 + at, len, shift,
                              cfg_.winogradBits);
            } else {
                for (std::size_t l = 0; l < len; ++l) {
                    const std::int64_t q = clampSigned(
                        static_cast<std::int64_t>(std::round(
                            static_cast<double>(src[l]) / s)),
                        cfg_.winogradBits);
                    if (use8_)
                        b.u8[at + l] = static_cast<std::uint8_t>(q + 128);
                    else
                        b.u16[at + l] = static_cast<std::int16_t>(q);
                }
            }
        }
    }

    // Widening per-tap GEMM with the c-block as the SIMD lane
    // dimension (exact integer sums).
    for (std::size_t k = 0; k < tt; ++k) {
        std::int32_t *mk = b.m + k * coutb_ * S * kB;
        if (use8_)
            lk.tapGemmU8(wq8_.data() + k * coutb_ * cinp * kB,
                         b.u8 + k * cinb_ * S * kB,
                         comp_.data() + k * coutb_ * kB, mk, coutb_,
                         cinb_, S, 0, c.tiles);
        else
            lk.tapGemmI16(wq16_.data() + k * coutb_ * cinp * kB,
                          b.u16 + k * cinb_ * S * kB, mk, coutb_, cinb_,
                          S, 0, c.tiles);
    }
}

BlockedIntWinograd::ChunkBuffers
BlockedIntWinograd::ChunkBuffers::lane(std::size_t l) const
{
    ChunkBuffers b = *this;
    b.u32 += l * uElems;
    b.u16 = u16 ? u16 + l * uElems : nullptr;
    b.u8 = u8 ? u8 + l * uElems : nullptr;
    b.m += l * mElems;
    return b;
}

BlockedIntWinograd::ChunkBuffers
BlockedIntWinograd::chunkBuffers(const TileChunks &c, std::size_t lanes,
                                 TensorI32 &U32, TensorI16 &U16,
                                 TensorI8 &U8, TensorI32 &M) const
{
    const std::size_t t = winoSpec(cfg_.variant).t;
    ChunkBuffers b;
    b.uElems = c.laneElems(t * t, cinb_);
    b.mElems = c.laneElems(t * t, coutb_);
    b.u32 = chunkBuffer(U32, lanes * b.uElems);
    if (use8_)
        b.u8 = reinterpret_cast<std::uint8_t *>(
            chunkBuffer(U8, lanes * b.uElems));
    else
        b.u16 = chunkBuffer(U16, lanes * b.uElems);
    b.m = chunkBuffer(M, lanes * b.mElems);
    return b;
}

void
BlockedIntWinograd::forwardInto(const TensorD &input, TensorI32 &xq,
                                TensorI32 &U32, TensorI16 &U16,
                                TensorI8 &U8, TensorI32 &M,
                                TensorD &Md, TensorD &out,
                                gemm::ParallelRunner *runner,
                                const double *bias8, bool relu) const
{
    const WinoDims d =
        winoDimsBlocked(input.shape(), cfg_.variant, cfg_.pad);
    twq_assert(out.rank() == 5 && out.dim(0) == d.n &&
                   out.dim(1) == coutb_ && out.dim(2) == d.ho &&
                   out.dim(3) == d.wo && out.dim(4) == kB,
               "output tensor not pre-shaped for the blocked launch");
    const std::size_t tt = d.t * d.t;
    quantizeInput(input, xq);

    TWQ_SPAN("winoc8i.tiles");
    TWQ_STAGE_PERF("winoc8i.tiles");
    const std::size_t lanes = runner ? runner->lanes() : 1;
    const TileChunks c = chunks(d, lanes);
    const ChunkBuffers all = chunkBuffers(c, lanes, U32, U16, U8, M);
    double *md = chunkBuffer(Md, lanes * all.mElems);
    forEachTileChunk(runner, c, [&](const TileChunk &ch, std::size_t lane) {
        // The S_B requantization by shifts and by round(x/s) agree
        // exactly for power-of-two scales; shifts are integer-only
        // and markedly cheaper, so the FP path takes them whenever
        // the config allows.
        const ChunkBuffers b = all.lane(lane);
        scatterGemmChunk(xq, ch, /*useShifts=*/cfg_.pow2Scales, b);
        // Dequant: the tap-wise S_BG rescale (sx folded in) as one
        // per-lane scale vector over each (tap, coutb) slice, then
        // the fused FP output transform (A^T m A + untile + epilogue
        // in one pass). Padded lanes scale by zero, so the output
        // kernel writes them as exact zeros.
        double *mdl = md + lane * all.mElems;
        for (std::size_t k = 0; k < tt; ++k)
            for (std::size_t co = 0; co < coutb_; ++co) {
                const std::size_t at =
                    (k * coutb_ + co) * ch.strideTiles * kB;
                layout::kernels().scaleI32F64(
                    b.m + at, sbgSx_.data() + (k * coutb_ + co) * kB,
                    mdl + at, ch.tiles);
            }
        winogradOutputTransformChunk(mdl, cfg_.variant, ch, out, bias8,
                                     relu);
    });
}

TensorD
BlockedIntWinograd::forward(const TensorD &input) const
{
    const WinoDims d =
        winoDimsBlocked(input.shape(), cfg_.variant, cfg_.pad);
    TensorI32 xq, U32, M;
    TensorI16 U16;
    TensorI8 U8;
    TensorD Md;
    TensorD out({d.n, coutb_, d.ho, d.wo, kB});
    forwardInto(input, xq, U32, U16, U8, M, Md, out);
    return out;
}

TensorI8
BlockedIntWinograd::forwardInt8(const TensorD &input,
                                double *out_scale,
                                bool fuse_relu) const
{
    twq_assert(cfg_.pow2Scales,
               "forwardInt8 requires power-of-two scales");
    const WinoDims d =
        winoDimsBlocked(input.shape(), cfg_.variant, cfg_.pad);
    const std::size_t tt = d.t * d.t;
    const std::size_t hw = d.ho * d.wo;

    // Pass 1: the integer stages chunk by chunk, exactly as the served
    // path runs them, with each chunk's M widened into its tiles of
    // M64: the S_BG rescale as pure left-shifts relative to the
    // channel's common scale. This is the oracle-parity path, not the
    // serving hot path, so the buffers are local.
    TensorI32 xq, U32, M;
    TensorI16 U16;
    TensorI8 U8;
    quantizeInput(input, xq);
    const TileChunks c = chunks(d, 1);
    const ChunkBuffers b = chunkBuffers(c, 1, U32, U16, U8, M);
    TensorI64 M64({tt, coutb_, d.tiles, kB});
    forEachTileChunk(nullptr, c, [&](const TileChunk &ch, std::size_t) {
        scatterGemmChunk(xq, ch, /*useShifts=*/true, b);
        for (std::size_t k = 0; k < tt; ++k) {
            for (std::size_t co = 0; co < coutb_; ++co) {
                const std::int32_t *src =
                    b.m + (k * coutb_ + co) * ch.strideTiles * kB;
                std::int64_t *dst =
                    M64.data() + ((k * coutb_ + co) * d.tiles +
                                  ch.row0 * d.tilesX) *
                                     kB;
                for (std::size_t l = 0; l < kB; ++l) {
                    const std::size_t oc = co * kB + l;
                    const int sh = oc < cout_ ? relShift_[oc][k] : 0;
                    for (std::size_t p = 0; p < ch.tiles; ++p)
                        dst[p * kB + l] =
                            static_cast<std::int64_t>(src[p * kB + l])
                            << sh;
                }
            }
        }
    });

    // Integer A-transform as Kronecker row passes (exact), untiled
    // into the blocked spatial int64 output.
    TensorI64 Y64({d.m * d.m, coutb_, d.tiles, kB});
    applyKron(winoOutputKron<std::int64_t>(cfg_.variant), M64.data(),
              coutb_ * d.tiles * kB, Y64.data());
    TensorI64 raw({d.n, coutb_, d.ho, d.wo, kB});
    winogradUntileBlocked(Y64, cfg_.variant, raw);

    // Pass 2: pick a power-of-two output scale covering the observed
    // range over the logical lanes and requantize with shifts —
    // identical comparisons to the NCHW reference, so the scale and
    // every output value match bit for bit.
    double abs_max = 0.0;
    for (std::size_t in = 0; in < d.n; ++in)
        for (std::size_t oc = 0; oc < cout_; ++oc) {
            const std::int64_t *src =
                raw.data() +
                (in * coutb_ + oc / kB) * hw * kB + oc % kB;
            for (std::size_t i = 0; i < hw; ++i) {
                const double real =
                    static_cast<double>(src[i * kB]) *
                    std::exp2(comLog2_[oc]) * sx_;
                abs_max = std::max(abs_max, std::abs(real));
            }
        }
    const double sy =
        pow2Ceil(scaleForMax(std::max(abs_max, 1e-30), 8));
    if (out_scale)
        *out_scale = sy;
    const int sy_log2 = log2Exact(sy);
    const int sx_log2 = log2Exact(sx_);

    TensorI8 out({d.n, coutb_, d.ho, d.wo, kB}); // padded lanes stay 0
    for (std::size_t in = 0; in < d.n; ++in) {
        for (std::size_t oc = 0; oc < cout_; ++oc) {
            // q = raw >> (log2 sy - log2 s_com - log2 s_x).
            const int shift = sy_log2 - comLog2_[oc] - sx_log2;
            const std::int64_t *src =
                raw.data() +
                (in * coutb_ + oc / kB) * hw * kB + oc % kB;
            std::int8_t *dst =
                out.data() +
                (in * coutb_ + oc / kB) * hw * kB + oc % kB;
            for (std::size_t i = 0; i < hw; ++i) {
                std::int64_t v = src[i * kB];
                if (fuse_relu && v < 0)
                    v = 0;
                dst[i * kB] = static_cast<std::int8_t>(
                    clampSigned(shiftRightRound(v, shift), 8));
            }
        }
    }
    return out;
}

} // namespace twq
