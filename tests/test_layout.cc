/**
 * @file
 * Tests for the NCHWc8 blocked activation-layout subsystem
 * (src/layout/): layout round-trips, the blocked tile gather against
 * its NCHW counterpart, the c-blocked per-tap GEMM, the full blocked
 * Winograd pipeline against the NCHW tiled path, and the blocked-input
 * im2col entry point.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hh"
#include "layout/kernels.hh"
#include "layout/layout.hh"
#include "layout/wino_blocked.hh"
#include "quant/quantizer.hh"
#include "tensor/im2col.hh"
#include "winograd/tiled.hh"

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

/** Re-block a [tt, C, P] tile buffer to [tt, Cb, P, 8] (tail zero). */
TensorD
blockTiles(const TensorD &v)
{
    const std::size_t tt = v.dim(0);
    const std::size_t c = v.dim(1);
    const std::size_t p = v.dim(2);
    const std::size_t cb = layoutBlocks(c);
    TensorD out({tt, cb, p, kLayoutBlock});
    for (std::size_t k = 0; k < tt; ++k)
        for (std::size_t ic = 0; ic < c; ++ic)
            for (std::size_t i = 0; i < p; ++i)
                out.at(k, ic / kLayoutBlock, i, ic % kLayoutBlock) =
                    v.at(k, ic, i);
    return out;
}

TEST(Layout, VocabularyAndShapes)
{
    EXPECT_STREQ(actLayoutName(ActLayout::NCHW), "nchw");
    EXPECT_STREQ(actLayoutName(ActLayout::NCHWc8), "nchwc8");
    EXPECT_EQ(layoutBlocks(1), 1u);
    EXPECT_EQ(layoutBlocks(8), 1u);
    EXPECT_EQ(layoutBlocks(9), 2u);
    const Shape nchw{2, 13, 5, 7};
    EXPECT_EQ(blockedShape(nchw), (Shape{2, 2, 5, 7, 8}));
    const LayoutDesc blocked = LayoutDesc::blocked(nchw);
    EXPECT_EQ(blocked.physical(), blockedShape(nchw));
    EXPECT_EQ(LayoutDesc::nchw(nchw).physical(), nchw);
}

TEST(Layout, RoundTripIsBitExact)
{
    // Odd H/W, C % 8 != 0, C < 8, C multiple of 8, batch > 1.
    const Shape shapes[] = {{1, 3, 4, 4},
                            {2, 13, 9, 7},
                            {3, 8, 5, 5},
                            {1, 16, 1, 1},
                            {2, 1, 3, 2}};
    std::uint64_t seed = 10;
    for (const Shape &shape : shapes) {
        const TensorD x = randomTensor(shape, seed++);
        TensorD xb(blockedShape(shape));
        nchwToBlocked(x, xb);
        TensorD back(shape);
        blockedToNchw(xb, back);
        EXPECT_TRUE(back == x) << "round trip differs";
    }
}

TEST(Layout, TailLanesAreZeroFilled)
{
    const TensorD x = randomTensor({2, 11, 3, 5}, 99);
    TensorD xb(blockedShape(x.shape()));
    // Poison the destination: conversion must overwrite every lane.
    xb.fill(123.0);
    nchwToBlocked(x, xb);
    const std::size_t cb = xb.dim(1);
    for (std::size_t n = 0; n < xb.dim(0); ++n)
        for (std::size_t y = 0; y < xb.dim(2); ++y)
            for (std::size_t z = 0; z < xb.dim(3); ++z)
                for (std::size_t l = 3; l < kLayoutBlock; ++l)
                    EXPECT_EQ(xb.at(n, cb - 1, y, z, l), 0.0)
                        << "tail lane " << l << " not zeroed";
}

class BlockedWinograd : public ::testing::TestWithParam<WinoVariant>
{};

TEST_P(BlockedWinograd, GatherMatchesNchwGatherLanewise)
{
    const WinoVariant v = GetParam();
    const Shape shapes[] = {{2, 11, 9, 7}, {1, 8, 4, 4}, {3, 4, 5, 6}};
    std::uint64_t seed = 200;
    for (const Shape &shape : shapes) {
        const TensorD x = randomTensor(shape, seed++);
        TensorD vRef;
        winogradGatherTiles(x, v, 1, vRef);

        TensorD xb(blockedShape(shape));
        nchwToBlocked(x, xb);
        TensorD vBlk;
        winogradGatherTilesBlocked(xb, v, 1, vBlk);

        ASSERT_EQ(vBlk.shape(),
                  (Shape{vRef.dim(0), layoutBlocks(shape[1]),
                         vRef.dim(2), kLayoutBlock}));
        for (std::size_t k = 0; k < vRef.dim(0); ++k)
            for (std::size_t ic = 0; ic < shape[1]; ++ic)
                for (std::size_t p = 0; p < vRef.dim(2); ++p)
                    ASSERT_EQ(vBlk.at(k, ic / kLayoutBlock, p,
                                      ic % kLayoutBlock),
                              vRef.at(k, ic, p))
                        << "tap " << k << " channel " << ic << " tile "
                        << p;
        // Tail lanes gathered from the zero-padded activation stay 0.
        const std::size_t cb = layoutBlocks(shape[1]);
        for (std::size_t k = 0; k < vBlk.dim(0); ++k)
            for (std::size_t p = 0; p < vBlk.dim(2); ++p)
                for (std::size_t l = shape[1] % kLayoutBlock;
                     l != 0 && l < kLayoutBlock; ++l)
                    ASSERT_EQ(vBlk.at(k, cb - 1, p, l), 0.0);
    }
}

TEST_P(BlockedWinograd, TapGemmMatchesNchwTapGemm)
{
    const WinoVariant v = GetParam();
    const WinoSpec spec = winoSpec(v);
    const std::size_t tt = spec.t * spec.t;
    const std::size_t cin = 11, cout = 13, p = 21;

    WinogradTapWeights<double> w;
    w.variant = v;
    w.cout = cout;
    w.cin = cin;
    w.taps = randomTensor({tt * cout * cin}, 400).storage();
    const TensorD u = randomTensor({tt, cin, p}, 401);

    TensorD mRef;
    winogradTapGemm(w, u, mRef);

    TensorD mBlk;
    winogradTapGemmBlocked(blockedTapWeights(w), blockTiles(u), mBlk);

    ASSERT_EQ(mBlk.shape(), (Shape{tt, layoutBlocks(cout), p,
                                   kLayoutBlock}));
    for (std::size_t k = 0; k < tt; ++k)
        for (std::size_t oc = 0; oc < cout; ++oc)
            for (std::size_t i = 0; i < p; ++i)
                ASSERT_NEAR(mBlk.at(k, oc / kLayoutBlock, i,
                                    oc % kLayoutBlock),
                            mRef.at(k, oc, i), 1e-9)
                    << "tap " << k << " oc " << oc << " tile " << i;
    // Padded output lanes come from zero weight rows.
    for (std::size_t k = 0; k < tt; ++k)
        for (std::size_t i = 0; i < p; ++i)
            for (std::size_t l = cout % kLayoutBlock;
                 l != 0 && l < kLayoutBlock; ++l)
                ASSERT_EQ(mBlk.at(k, layoutBlocks(cout) - 1, i, l),
                          0.0);
}

TEST_P(BlockedWinograd, ConvolutionMatchesNchwTiledPath)
{
    const WinoVariant v = GetParam();
    // C % 8 != 0, odd spatial, batch > 1, and an exact-block case.
    const Shape shapes[] = {
        {1, 3, 8, 8}, {2, 11, 5, 7}, {3, 8, 9, 6}, {1, 16, 6, 6}};
    std::uint64_t seed = 500;
    for (const Shape &shape : shapes) {
        const TensorD x = randomTensor(shape, seed++);
        const TensorD w = randomTensor({10, shape[1], 3, 3}, seed++);
        const WinogradTapWeights<double> taps =
            winogradPrepareTapWeights(w, v);
        const TensorD ref = conv2dWinogradTiled(x, taps, 1);

        TensorD xb(blockedShape(shape));
        nchwToBlocked(x, xb);
        const TensorD yb =
            conv2dWinogradBlocked(xb, blockedTapWeights(taps), 1);
        TensorD y(ref.shape());
        blockedToNchw(yb, y);

        // Bit-identical where both paths contract identically (FMA
        // hardware); tolerance-equal where the NCHW transforms were
        // compiled without contraction.
        for (std::size_t i = 0; i < y.numel(); ++i)
            ASSERT_NEAR(y[i], ref[i], 1e-9)
                << winoName(v) << " element " << i;
    }
}

TEST_P(BlockedWinograd, BatchedIsBitIdenticalToSequential)
{
    const WinoVariant v = GetParam();
    const Shape single{1, 11, 9, 7};
    const TensorD w = randomTensor({9, single[1], 3, 3}, 600);
    const BlockedTapWeights bw =
        blockedTapWeights(winogradPrepareTapWeights(w, v));

    constexpr std::size_t kBatch = 3;
    TensorD batch({kBatch, single[1], single[2], single[3]});
    std::vector<TensorD> singles;
    for (std::size_t b = 0; b < kBatch; ++b) {
        singles.push_back(randomTensor(single, 610 + b));
        std::copy(singles[b].data(),
                  singles[b].data() + singles[b].numel(),
                  batch.data() + b * singles[b].numel());
    }

    TensorD batchB(blockedShape(batch.shape()));
    nchwToBlocked(batch, batchB);
    const TensorD yBatch = conv2dWinogradBlocked(batchB, bw, 1);

    const std::size_t perImage = yBatch.numel() / kBatch;
    for (std::size_t b = 0; b < kBatch; ++b) {
        TensorD xb(blockedShape(single));
        nchwToBlocked(singles[b], xb);
        const TensorD yOne = conv2dWinogradBlocked(xb, bw, 1);
        ASSERT_EQ(yOne.numel(), perImage);
        for (std::size_t i = 0; i < perImage; ++i)
            ASSERT_EQ(yOne[i], yBatch[b * perImage + i])
                << "batched != sequential at image " << b
                << " element " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(Variants, BlockedWinograd,
                         ::testing::Values(WinoVariant::F2,
                                           WinoVariant::F4,
                                           WinoVariant::F6),
                         [](const auto &info) {
                             return std::string(winoName(info.param));
                         });

TEST(LayoutKernelsTest, QuantizeI8MatchesScalarQuantizer)
{
    // The vectorized activation-quantize of the int8 im2col engine:
    // for a power-of-two scale (exact reciprocal) the kernel must be
    // bit-identical to quantize() from quant/quantizer.hh, including
    // ties (nearbyint, round-half-even) and the clamp edges.
    const double scale = 0.25;
    const double inv = 1.0 / scale;
    constexpr std::size_t kN = 1037; // odd: exercises vector tails
    std::vector<double> src(kN);
    Rng rng(808);
    rng.fillNormal(src, 0.0, 40.0); // many values past the clamp
    // Exact ties and edges.
    src[0] = 0.125;   // 0.5 after *inv: ties to even 0
    src[1] = 0.375;   // 1.5 after *inv: ties to even 2
    src[2] = -0.125;  // -0.5: ties to 0
    src[3] = 1000.0;  // clamps to quantMax
    src[4] = -1000.0; // clamps to quantMin
    src[5] = -0.0;
    std::vector<std::int8_t> fast(kN), ref(kN);
    layout::kernels().quantizeI8(
        src.data(), inv, static_cast<double>(quantMin(8)),
        static_cast<double>(quantMax(8)), fast.data(), kN);
    for (std::size_t i = 0; i < kN; ++i)
        ref[i] = static_cast<std::int8_t>(quantize(src[i], scale, 8));
    EXPECT_EQ(fast, ref) << "quantizeI8 (" << layout::kernels().name
                         << ") diverges from the scalar quantizer";
}

TEST(Im2colBlocked, MatchesNchwIm2colBitExact)
{
    const Shape shape{2, 13, 6, 5};
    const TensorD x = randomTensor(shape, 700);
    TensorD xb(blockedShape(shape));
    nchwToBlocked(x, xb);

    for (const ConvParams p :
         {ConvParams{3, 1, 1}, ConvParams{3, 2, 1}, ConvParams{1, 1, 0},
          ConvParams{5, 1, 2}}) {
        for (std::size_t n = 0; n < shape[0]; ++n) {
            TensorD colsRef, colsBlk;
            im2colInto(x, n, p, colsRef);
            im2colBlockedInto(xb, shape[1], n, p, colsBlk);
            ASSERT_EQ(colsBlk.shape(), colsRef.shape());
            EXPECT_TRUE(colsBlk == colsRef)
                << "k=" << p.kernel << " s=" << p.stride << " n=" << n;
        }
    }
}

} // namespace
} // namespace twq
