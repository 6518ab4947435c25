/**
 * @file
 * Bit-identity of the NCHWc8 blocked integer Winograd pipeline
 * against the tile-at-a-time IntWinogradConv oracle, across variants,
 * bit widths, quantization granularities, and shapes with odd H/W and
 * C % 8 != 0. The fully integer path (forwardInt8) must match
 * IntWinogradConv::forwardInt8 bit for bit — integer sums
 * are order-free, so the blocked re-layout cannot change a single
 * value. The FP dequant path runs the vectorized blocked form (FMA
 * Kronecker row passes), so like the FP blocked pipeline it is
 * tolerance-equal to the NCHW engine. Also covers the widening
 * layout kernels (tap GEMM, integer kron, requantization narrowing)
 * against their scalar references, and sharded == serial bit-identity
 * for the blocked int8 chunk walk. The two largest cases span several
 * chunks with chunk edges inside images. The blocked engine owns what
 * it runs, so it keeps working after its source conv is destroyed.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <limits>
#include <memory>
#include <string>

#include "common/rng.hh"
#include "layout/kernels.hh"
#include "quant/int_wino_blocked.hh"
#include "quant/quantizer.hh"
#include "runtime/thread_pool.hh"

namespace twq
{
namespace
{

TensorD
randomTensor(const Shape &shape, std::uint64_t seed)
{
    TensorD t(shape);
    Rng rng(seed);
    rng.fillNormal(t.storage(), 0.0, 1.0);
    return t;
}

struct Case
{
    WinoVariant variant;
    int winogradBits;
    QuantGranularity granularity;
    bool pow2;
    Shape input;        ///< NCHW logical input
    std::size_t cout;
};

class BlockedIntWino : public ::testing::TestWithParam<Case>
{
  protected:
    IntWinogradConfig
    makeConfig() const
    {
        const Case &c = GetParam();
        IntWinogradConfig cfg;
        cfg.variant = c.variant;
        cfg.winogradBits = c.winogradBits;
        cfg.granularity = c.granularity;
        cfg.pow2Scales = c.pow2;
        return cfg;
    }
};

TEST_P(BlockedIntWino, ForwardMatchesNchwPipeline)
{
    const Case &c = GetParam();
    const IntWinogradConfig cfg = makeConfig();
    const TensorD w = randomTensor({c.cout, c.input[1], 3, 3}, 1000);
    const std::vector<TensorD> cal{randomTensor(c.input, 1001)};
    const IntWinogradConv conv(w, cal, cfg);
    const BlockedIntWinograd blk(conv);
    EXPECT_EQ(blk.cout(), conv.cout());
    EXPECT_EQ(blk.cinb(), layoutBlocks(conv.cin()));

    const TensorD x = randomTensor(c.input, 1002);
    TensorD xb(blockedShape(x.shape()));
    nchwToBlocked(x, xb);

    const TensorD ref = conv.forward(x);
    const TensorD outBlocked = blk.forward(xb);
    TensorD out(ref.shape());
    blockedToNchw(outBlocked, out);
    for (std::size_t i = 0; i < ref.numel(); ++i)
        ASSERT_NEAR(out[i], ref[i],
                    1e-9 * (std::abs(ref[i]) + 1.0))
            << "element " << i;

    // Padded output lanes must be exact zeros, or reused arena slots
    // would leak stale values across calls.
    const std::size_t hw = outBlocked.dim(2) * outBlocked.dim(3);
    for (std::size_t in = 0; in < outBlocked.dim(0); ++in)
        for (std::size_t co = 0; co < outBlocked.dim(1); ++co)
            for (std::size_t l = 0; l < kLayoutBlock; ++l) {
                if (co * kLayoutBlock + l < blk.cout())
                    continue;
                const double *plane =
                    outBlocked.data() +
                    (in * outBlocked.dim(1) + co) * hw * kLayoutBlock;
                for (std::size_t i = 0; i < hw; ++i)
                    ASSERT_EQ(plane[i * kLayoutBlock + l], 0.0);
            }
}

TEST_P(BlockedIntWino, ForwardInt8BitIdenticalToReference)
{
    const Case &c = GetParam();
    if (!c.pow2)
        GTEST_SKIP() << "forwardInt8 requires power-of-two scales";
    const IntWinogradConfig cfg = makeConfig();
    const TensorD w = randomTensor({c.cout, c.input[1], 3, 3}, 2000);
    const std::vector<TensorD> cal{randomTensor(c.input, 2001)};
    const IntWinogradConv conv(w, cal, cfg);
    const BlockedIntWinograd blk(conv);

    const TensorD x = randomTensor(c.input, 2002);
    TensorD xb(blockedShape(x.shape()));
    nchwToBlocked(x, xb);
    for (const bool relu : {false, true}) {
        double s_blk = 0.0, s_ref = 0.0;
        const TensorI8 blocked = blk.forwardInt8(xb, &s_blk, relu);
        const TensorI8 ref = conv.forwardInt8(x, &s_ref, relu);
        EXPECT_EQ(s_blk, s_ref);
        TensorI8 out(ref.shape());
        blockedToNchw(blocked, out);
        for (std::size_t i = 0; i < ref.numel(); ++i)
            ASSERT_EQ(out[i], ref[i])
                << "element " << i << " relu=" << relu;
    }
}

TEST_P(BlockedIntWino, OutlivesItsSourceConv)
{
    const Case &c = GetParam();
    const IntWinogradConfig cfg = makeConfig();
    const TensorD w = randomTensor({c.cout, c.input[1], 3, 3}, 5000);
    const std::vector<TensorD> cal{randomTensor(c.input, 5001)};
    // Calibration is deterministic, so a second conv built from the
    // same data is an identical oracle that outlives the source.
    const IntWinogradConv oracle(w, cal, cfg);
    std::unique_ptr<BlockedIntWinograd> blk;
    {
        const IntWinogradConv source(w, cal, cfg);
        blk = std::make_unique<BlockedIntWinograd>(source);
    }

    const TensorD x = randomTensor(c.input, 5002);
    TensorD xb(blockedShape(x.shape()));
    nchwToBlocked(x, xb);
    const TensorD ref = oracle.forward(x);
    TensorD out(ref.shape());
    blockedToNchw(blk->forward(xb), out);
    for (std::size_t i = 0; i < ref.numel(); ++i)
        ASSERT_NEAR(out[i], ref[i], 1e-9 * (std::abs(ref[i]) + 1.0))
            << "element " << i;

    if (!c.pow2)
        return; // forwardInt8 requires power-of-two scales
    double s_blk = 0.0, s_ref = 0.0;
    const TensorI8 ref8 = oracle.forwardInt8(x, &s_ref);
    TensorI8 out8(ref8.shape());
    blockedToNchw(blk->forwardInt8(xb, &s_blk), out8);
    EXPECT_EQ(s_blk, s_ref);
    for (std::size_t i = 0; i < ref8.numel(); ++i)
        ASSERT_EQ(out8[i], ref8[i]) << "element " << i;
}

TEST_P(BlockedIntWino, ReusedBuffersAreStableAcrossBatchChanges)
{
    const Case &c = GetParam();
    const IntWinogradConfig cfg = makeConfig();
    const TensorD w = randomTensor({c.cout, c.input[1], 3, 3}, 3000);
    const std::vector<TensorD> cal{randomTensor(c.input, 3001)};
    const IntWinogradConv conv(w, cal, cfg);
    const BlockedIntWinograd blk(conv);

    TensorI32 xq, U32, M;
    TensorI16 U16;
    TensorI8 U8;
    TensorD Md;
    Shape big = c.input;
    big[0] *= 2;
    const TensorD x1 = randomTensor(big, 3002);
    const TensorD x2 = randomTensor(c.input, 3003);
    for (const TensorD *x : {&x1, &x2, &x1}) {
        TensorD xb(blockedShape(x->shape()));
        nchwToBlocked(*x, xb);
        const ConvParams p{3, 1, cfg.pad};
        TensorD out({x->dim(0), blk.coutb(), p.outSize(x->dim(2)),
                     p.outSize(x->dim(3)), kLayoutBlock});
        blk.forwardInto(xb, xq, U32, U16, U8, M, Md, out);
        const TensorD expect = blk.forward(xb);
        ASSERT_EQ(out.shape(), expect.shape());
        for (std::size_t i = 0; i < out.numel(); ++i)
            ASSERT_EQ(out[i], expect[i]);
    }
}

TEST_P(BlockedIntWino, ShardedTapGemmIsBitIdenticalToSerial)
{
    const Case &c = GetParam();
    const IntWinogradConfig cfg = makeConfig();
    const TensorD w = randomTensor({c.cout, c.input[1], 3, 3}, 4000);
    const std::vector<TensorD> cal{randomTensor(c.input, 4001)};
    const IntWinogradConv conv(w, cal, cfg);
    const BlockedIntWinograd blk(conv);

    Shape big = c.input;
    big[0] = 3; // enough tiles for the P-sharded grid to engage
    const TensorD x = randomTensor(big, 4002);
    TensorD xb(blockedShape(x.shape()));
    nchwToBlocked(x, xb);

    ThreadPool pool(5);
    PoolRunner runner(pool, pool.size());
    TensorI32 xq, U32, M;
    TensorI16 U16;
    TensorI8 U8;
    TensorD Md;
    const ConvParams p{3, 1, cfg.pad};
    TensorD serial({big[0], blk.coutb(), p.outSize(big[2]),
                    p.outSize(big[3]), kLayoutBlock});
    TensorD parallel(serial.shape());
    blk.forwardInto(xb, xq, U32, U16, U8, M, Md, serial);
    blk.forwardInto(xb, xq, U32, U16, U8, M, Md, parallel,
                    &runner);
    pool.shutdown();
    EXPECT_TRUE(parallel == serial)
        << "sharded blocked int8 pipeline differs from serial";
}

INSTANTIATE_TEST_SUITE_P(
    Cases, BlockedIntWino,
    ::testing::Values(
        // The paper's headline configuration: F4 tap-wise, 8-bit.
        Case{WinoVariant::F4, 8, QuantGranularity::TapWise, true,
             {2, 3, 8, 8}, 5},
        // 10-bit Winograd domain (the accuracy-recovery setting),
        // C % 8 != 0 on both sides, odd H/W.
        Case{WinoVariant::F4, 10, QuantGranularity::TapWise, true,
             {1, 12, 9, 7}, 9},
        // Layer-wise granularity (the "traditional" baseline).
        Case{WinoVariant::F4, 8, QuantGranularity::LayerWise, true,
             {1, 2, 6, 6}, 4},
        Case{WinoVariant::F2, 8, QuantGranularity::LayerWise, true,
             {2, 2, 5, 9}, 3},
        // F2 tap-wise and channel granularities; full blocks too.
        Case{WinoVariant::F2, 8, QuantGranularity::TapWise, true,
             {1, 16, 8, 8}, 8},
        Case{WinoVariant::F2, 10, QuantGranularity::ChannelWise, true,
             {1, 3, 7, 7}, 4},
        Case{WinoVariant::F4, 8, QuantGranularity::ChannelTapWise,
             true, {1, 2, 10, 6}, 4},
        // Non-power-of-two scales exercise the round(x/s) rescale.
        Case{WinoVariant::F4, 8, QuantGranularity::TapWise, false,
             {1, 3, 8, 8}, 5},
        Case{WinoVariant::F2, 10, QuantGranularity::TapWise, false,
             {2, 2, 7, 5}, 3},
        // Layers spanning several chunks, with chunk edges inside
        // images (layout/wino_blocked.hh tileChunks).
        Case{WinoVariant::F4, 8, QuantGranularity::TapWise, true,
             {2, 17, 44, 60}, 19},
        Case{WinoVariant::F2, 8, QuantGranularity::TapWise, false,
             {2, 17, 30, 44}, 19}),
    [](const ::testing::TestParamInfo<Case> &info) {
        const Case &c = info.param;
        std::string name = winoName(c.variant);
        name += "_";
        name += granularityName(c.granularity);
        name += "_";
        name += std::to_string(c.winogradBits) + "b";
        name += c.pow2 ? "_pow2" : "_free";
        name += "_c" + std::to_string(c.input[1]);
        for (char &ch : name)
            if (!std::isalnum(static_cast<unsigned char>(ch)))
                ch = '_';
        return name;
    });

// ------------------------------------------- layout kernel oracles

TEST(BlockedIntKernels, TapGemmI16MatchesScalarReference)
{
    Rng rng(71);
    const std::size_t coutb = 3, cinb = 2, P = 37;
    const std::size_t cinp = cinb * kLayoutBlock;
    std::vector<std::int16_t> w(coutb * cinp * kLayoutBlock);
    std::vector<std::int16_t> u(cinb * P * kLayoutBlock);
    for (auto &v : w)
        v = static_cast<std::int16_t>(rng.uniformInt(-512, 511));
    for (auto &v : u)
        v = static_cast<std::int16_t>(rng.uniformInt(-512, 511));
    std::vector<std::int32_t> ref(coutb * P * kLayoutBlock, -1);
    std::vector<std::int32_t> got(coutb * P * kLayoutBlock, -2);
    layout::scalarTapGemmI16(w.data(), u.data(), ref.data(), coutb,
                             cinb, P, 0, P);
    // Whole width through the dispatched kernel...
    layout::kernels().tapGemmI16(w.data(), u.data(), got.data(),
                                 coutb, cinb, P, 0, P);
    EXPECT_EQ(got, ref);
    // ...and as uneven column blocks (the P-shard seam).
    std::fill(got.begin(), got.end(), -3);
    layout::kernels().tapGemmI16(w.data(), u.data(), got.data(),
                                 coutb, cinb, P, 0, 5);
    layout::kernels().tapGemmI16(w.data(), u.data(), got.data(),
                                 coutb, cinb, P, 5, 24);
    layout::kernels().tapGemmI16(w.data(), u.data(), got.data(),
                                 coutb, cinb, P, 29, P - 29);
    EXPECT_EQ(got, ref);
}

TEST(BlockedIntKernels, RescaleI16MatchesScalarReference)
{
    Rng rng(72);
    for (const int bits : {8, 10}) {
        for (const int shift : {0, 1, 3, 7}) {
            std::vector<std::int32_t> src(101);
            for (auto &v : src)
                v = static_cast<std::int32_t>(
                    rng.uniformInt(-60000, 60000));
            // Include exact halfway points and the rails.
            src[0] = 0;
            src[1] = (1 << shift) / 2;
            src[2] = -(1 << shift) / 2;
            src[3] = std::numeric_limits<std::int32_t>::max() / 2;
            src[4] = std::numeric_limits<std::int32_t>::min() / 2;
            std::vector<std::int16_t> ref(src.size());
            std::vector<std::int16_t> got(src.size());
            layout::scalarRescaleI16(src.data(), ref.data(),
                                     src.size(), shift, bits);
            layout::kernels().rescaleI16(src.data(), got.data(),
                                         src.size(), shift, bits);
            EXPECT_EQ(got, ref)
                << "shift=" << shift << " bits=" << bits;
        }
    }
}

TEST(BlockedIntKernels, TapGemmU8MatchesScalarReference)
{
    const layout::TapGemmU8Fn gemm = layout::kernels().tapGemmU8;
    if (!gemm)
        GTEST_SKIP() << "no u8 tap kernel on this host (needs VNNI)";
    // No sum reaches INT32_MIN (|sum| < 72 * 255 * 128 + 1e5), so a
    // sentinel left in place shows an untouched column.
    const std::int32_t sentinel = std::numeric_limits<std::int32_t>::min();
    constexpr std::size_t p0 = 3;
    Rng rng(74);
    // Odd coutb runs the lone last block, pn % 8 the narrower tiles.
    for (const std::size_t coutb : {1, 2, 3, 8}) {
        for (const std::size_t cinb : {1, 2, 9}) {
            for (const std::size_t pn : {1, 7, 8, 9, 17}) {
                const std::size_t P = p0 + pn + 5;
                std::vector<std::int8_t> w(coutb * cinb * kLayoutBlock *
                                           kLayoutBlock);
                std::vector<std::uint8_t> u(cinb * P * kLayoutBlock);
                std::vector<std::int32_t> comp(coutb * kLayoutBlock);
                for (auto &v : w)
                    v = static_cast<std::int8_t>(
                        rng.uniformInt(-128, 127));
                for (auto &v : u)
                    v = static_cast<std::uint8_t>(rng.uniformInt(0, 255));
                for (auto &v : comp)
                    v = static_cast<std::int32_t>(
                        rng.uniformInt(-100000, 100000));
                std::vector<std::int32_t> got(coutb * P * kLayoutBlock,
                                              sentinel);
                std::vector<std::int32_t> want = got;
                gemm(w.data(), u.data(), comp.data(), got.data(), coutb,
                     cinb, P, p0, pn);
                layout::scalarTapGemmU8(w.data(), u.data(), comp.data(),
                                        want.data(), coutb, cinb, P, p0,
                                        pn);
                const std::string what = "coutb " +
                                         std::to_string(coutb) +
                                         " cinb " + std::to_string(cinb) +
                                         " pn " + std::to_string(pn);
                EXPECT_EQ(got, want) << what;
                for (std::size_t co = 0; co < coutb; ++co)
                    for (std::size_t p = 0; p < P; ++p) {
                        const bool inside = p >= p0 && p < p0 + pn;
                        const std::int32_t *col =
                            got.data() + (co * P + p) * kLayoutBlock;
                        for (std::size_t l = 0; l < kLayoutBlock; ++l)
                            ASSERT_EQ(col[l] == sentinel, !inside)
                                << what << ", column " << p;
                    }
            }
        }
    }
}

TEST(BlockedIntKernels, RescaleU8MatchesScalarReference)
{
    Rng rng(75);
    for (const int shift : {0, 2, 6}) {
        std::vector<std::int32_t> src(77);
        for (auto &v : src)
            v = static_cast<std::int32_t>(
                rng.uniformInt(-60000, 60000));
        src[0] = 0;
        src[1] = (1 << shift) / 2;
        src[2] = -(1 << shift) / 2;
        std::vector<std::uint8_t> ref(src.size());
        std::vector<std::uint8_t> got(src.size());
        layout::scalarRescaleU8(src.data(), ref.data(), src.size(),
                                shift, 8);
        layout::kernels().rescaleU8(src.data(), got.data(),
                                    src.size(), shift, 8);
        EXPECT_EQ(got, ref) << "shift=" << shift;
    }
}

TEST(BlockedIntKernels, ScaleI32F64MatchesScalarReference)
{
    Rng rng(76);
    const std::size_t tiles = 23;
    std::vector<std::int32_t> src(tiles * kLayoutBlock);
    double scale8[kLayoutBlock];
    for (auto &v : src)
        v = static_cast<std::int32_t>(rng.uniformInt(-100000, 100000));
    for (double &s : scale8)
        s = rng.normal();
    std::vector<double> ref(src.size()), got(src.size());
    layout::scalarScaleI32F64(src.data(), scale8, ref.data(), tiles);
    layout::kernels().scaleI32F64(src.data(), scale8, got.data(),
                                  tiles);
    EXPECT_EQ(got, ref);
}

TEST(BlockedIntKernels, QuantizeI32MatchesScalarQuantize)
{
    Rng rng(77);
    const double scale = 0.03125; // power of two: the kernel's domain
    std::vector<double> src(301);
    for (auto &v : src)
        v = rng.normal(0.0, 2.0);
    src[0] = 0.0;
    src[1] = 1e9;   // clamps high
    src[2] = -1e9;  // clamps low
    src[3] = 0.5 * scale;
    src[4] = -0.5 * scale;
    for (const int bits : {8, 10}) {
        std::vector<std::int32_t> got(src.size());
        layout::kernels().quantizeI32(
            src.data(), 1.0 / scale,
            static_cast<double>(quantMin(bits)),
            static_cast<double>(quantMax(bits)), got.data(),
            src.size());
        for (std::size_t i = 0; i < src.size(); ++i)
            ASSERT_EQ(got[i], static_cast<std::int32_t>(quantize(
                                  src[i], scale, bits)))
                << "element " << i << " bits=" << bits;
    }
}

TEST(BlockedIntKernels, KronI32MatchesScalarReference)
{
    Rng rng(73);
    for (const WinoVariant v : {WinoVariant::F2, WinoVariant::F4}) {
        const WinoKronPlan<std::int32_t> &plan =
            winoInputKron<std::int32_t>(v);
        const std::size_t len = 61; // odd: exercises the vector tail
        std::vector<std::int32_t> x(plan.rowsIn * len);
        for (auto &val : x)
            val = static_cast<std::int32_t>(
                rng.uniformInt(-1000, 1000));
        std::vector<std::int32_t> ref(plan.rowsOut * len, -1);
        std::vector<std::int32_t> got(plan.rowsOut * len, -2);
        applyKron(plan, x.data(), len, ref.data());
        layout::kernels().kronI32(plan, x.data(), len, got.data());
        EXPECT_EQ(got, ref) << winoName(v);
    }
}

} // namespace
} // namespace twq
