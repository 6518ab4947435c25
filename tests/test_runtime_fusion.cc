/**
 * @file
 * Epilogue-fusion tests: the dataflow planner, session-level fused
 * execution against the unfused separate-pass baseline (bit-identical
 * on every engine and layout), and the satellite GEMM/quantize fast
 * paths the fused engines ride on.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "models/zoo.hh"
#include "obs/metrics.hh"
#include "runtime/session.hh"
#include "tensor/batch.hh"
#include "xform/fuse.hh"

namespace twq
{
namespace
{

TensorD
randomInput(const Shape &shape, std::uint64_t seed)
{
    TensorD t(shape);
    Rng rng(seed);
    rng.fillNormal(t.storage(), 0.0, 1.0);
    return t;
}

TEST(FusionPlan, CollapsesConvBiasReluRuns)
{
    const NetworkDesc net = microServeNetFused(16, 8);
    const std::vector<ConvLayerDesc> descs = net.expandedLayers();
    const std::vector<FusedLayer> plan = planEpilogueFusion(descs);
    // 5 convs, each trailed by bias+relu: 15 nodes -> 5 fused groups.
    ASSERT_EQ(descs.size(), 15u);
    ASSERT_EQ(plan.size(), 5u);
    for (const FusedLayer &f : plan) {
        EXPECT_EQ(descs[f.conv].op, LayerOp::Conv);
        EXPECT_TRUE(f.bias);
        EXPECT_TRUE(f.relu);
    }
}

TEST(FusionPlan, PlainConvChainIsUntouched)
{
    const NetworkDesc net = microServeNet(16, 8);
    const std::vector<ConvLayerDesc> descs = net.expandedLayers();
    const std::vector<FusedLayer> plan = planEpilogueFusion(descs);
    ASSERT_EQ(plan.size(), descs.size());
    for (std::size_t i = 0; i < plan.size(); ++i) {
        EXPECT_EQ(plan[i].conv, i);
        EXPECT_FALSE(plan[i].bias);
        EXPECT_FALSE(plan[i].relu);
    }
}

TEST(FusionSession, PostOpNodesNeverBecomeLayers)
{
    const NetworkDesc net = microServeNetFused(16, 8);
    SessionConfig cfg;
    const Session fused(net, cfg);
    cfg.fuseEpilogues = false;
    const Session unfused(net, cfg);
    // Both sessions execute 5 conv layers; the post-op nodes live in
    // the epilogue either way.
    EXPECT_EQ(fused.layerCount(), 5u);
    EXPECT_EQ(unfused.layerCount(), 5u);
    for (std::size_t i = 0; i < fused.layerCount(); ++i) {
        EXPECT_TRUE(fused.layerEpilogue(i).active());
        // The drawn bias is seeded by chain position, so both modes
        // see the same values (the bit-identity precondition).
        EXPECT_EQ(fused.layerEpilogue(i).bias,
                  unfused.layerEpilogue(i).bias);
        EXPECT_TRUE(fused.layerEpilogue(i).relu);
    }
}

/**
 * The tentpole contract: folding the epilogue into each engine's
 * output write is bit-identical to running the conv and then separate
 * bias/relu passes — per engine, on even and odd resolutions and on
 * C % 8 != 0 widths (blocked tail lanes).
 */
class FusedVsUnfused
    : public ::testing::TestWithParam<std::tuple<ConvEngine, int, int>>
{};

TEST_P(FusedVsUnfused, BitIdenticalAcrossEnginesAndShapes)
{
    const auto [engine, res, width] = GetParam();
    const NetworkDesc net = microServeNetFused(
        static_cast<std::size_t>(res), static_cast<std::size_t>(width));
    SessionConfig cfg;
    cfg.defaultEngine = engine;
    cfg.fuseEpilogues = true;
    const Session fused(net, cfg);
    cfg.fuseEpilogues = false;
    const Session unfused(net, cfg);

    const TensorD input = randomInput(fused.inputShape(), 7);
    const TensorD a = fused.run(input);
    const TensorD b = unfused.run(input);
    ASSERT_EQ(a.shape(), b.shape());
    EXPECT_TRUE(a == b)
        << "fused epilogue is not bit-identical to the separate-pass "
           "baseline for engine "
        << convEngineName(engine) << " at res " << res << " width "
        << width;
}

INSTANTIATE_TEST_SUITE_P(
    EnginesAndShapes, FusedVsUnfused,
    ::testing::Combine(
        ::testing::Values(ConvEngine::Im2col, ConvEngine::WinogradFp32,
                          ConvEngine::WinogradBlocked,
                          ConvEngine::WinogradBlockedInt8,
                          ConvEngine::Im2colInt8),
        ::testing::Values(16, 9), // even and odd H/W
        ::testing::Values(8, 4)   // full and partial channel blocks
        ));

TEST(FusionSession, BatchedIsBitIdenticalToSequential)
{
    SessionConfig cfg;
    cfg.defaultEngine = ConvEngine::WinogradBlocked;
    const Session session(microServeNetFused(16, 4), cfg);

    constexpr std::size_t kBatch = 3;
    std::vector<TensorD> inputs;
    std::vector<const TensorD *> items;
    for (std::size_t i = 0; i < kBatch; ++i)
        inputs.push_back(randomInput(session.inputShape(), 600 + i));
    for (const TensorD &t : inputs)
        items.push_back(&t);

    const TensorD batched = session.run(stackBatch(items));
    for (std::size_t i = 0; i < kBatch; ++i) {
        const TensorD alone = session.run(inputs[i]);
        EXPECT_TRUE(sliceBatch(batched, i) == alone)
            << "fused batched element " << i
            << " differs from sequential execution";
    }
}

TEST(FusionSession, FusedLayerCounterIncrements)
{
    if (!obs::kEnabled)
        GTEST_SKIP() << "metrics disabled in this build";
    obs::Counter &fusedLayers =
        obs::Registry::global().counter("session.fused_epilogues");
    const std::uint64_t before = fusedLayers.value();
    SessionConfig cfg;
    const Session session(microServeNetFused(16, 8), cfg);
    EXPECT_EQ(fusedLayers.value(), before + session.layerCount());
}

TEST(FusionSession, AutoSelectRespectsFusedEpilogues)
{
    const NetworkDesc net = microServeNetFused(16, 4);
    SessionConfig cfg;
    cfg.autoSelect = true;
    cfg.autoSelectBatch = 2;
    cfg.fuseEpilogues = true;
    const Session fused(net, cfg);
    cfg.autoSelect = false;
    cfg.fuseEpilogues = false;
    cfg.defaultEngine = ConvEngine::Im2col;
    const Session reference(net, cfg);

    const TensorD input = randomInput(fused.inputShape(), 11);
    const TensorD y = fused.run(input);
    const TensorD ref = reference.run(input);
    ASSERT_EQ(y.shape(), ref.shape());
    for (std::size_t i = 0; i < y.numel(); ++i)
        EXPECT_NEAR(y[i], ref[i], 1e-6);
}

TEST(FusionSession, Int8CalibrationSeesPostOps)
{
    // The int8 head layers calibrate on activations that already went
    // through bias+ReLU; fused and unfused sessions must therefore
    // produce identical quantization scales and identical outputs.
    // (Covered bit-exactly by FusedVsUnfused; this adds the
    // cross-check that the quantized chain stays close to the FP
    // reference, i.e. the scales are sane, not just consistent.)
    const NetworkDesc net = microServeNetFused(16, 8);
    SessionConfig cfg;
    cfg.defaultEngine = ConvEngine::WinogradBlockedInt8;
    const Session quant(net, cfg);
    cfg.defaultEngine = ConvEngine::Im2col;
    const Session ref(net, cfg);

    const TensorD input = randomInput(quant.inputShape(), 31);
    const TensorD yq = quant.run(input);
    const TensorD yr = ref.run(input);
    double maxAbs = 0.0, maxErr = 0.0;
    for (std::size_t i = 0; i < yr.numel(); ++i) {
        maxAbs = std::max(maxAbs, std::abs(yr[i]));
        maxErr = std::max(maxErr, std::abs(yq[i] - yr[i]));
    }
    EXPECT_LE(maxErr, 0.15 * maxAbs)
        << "quantized fused chain drifted from the FP reference";
}

} // namespace
} // namespace twq
