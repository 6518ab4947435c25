/**
 * @file
 * Batcher policy tests plus the runtime's core correctness claim:
 * executing coalesced batches is bit-identical to executing each
 * request alone, for every conv engine (im2col, FP32 Winograd, int8
 * tap-wise Winograd). Every kernel in the library iterates batch
 * elements independently, so no tolerance is needed — outputs must
 * match exactly.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <future>
#include <thread>
#include <vector>

#include "common/rng.hh"
#include "models/zoo.hh"
#include "runtime/server.hh"
#include "tensor/batch.hh"

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

InferRequest
makeRequest(std::uint64_t id)
{
    InferRequest req;
    req.id = id;
    return req;
}

TEST(Batcher, CutsFullBatchImmediately)
{
    Batcher batcher({/*maxBatch=*/3,
                     /*maxWait=*/std::chrono::microseconds(1000000)});
    for (std::uint64_t i = 0; i < 3; ++i)
        batcher.add(makeRequest(i));
    // A full batch must be cut without waiting out the deadline.
    const auto batch = batcher.next();
    ASSERT_TRUE(batch.has_value());
    EXPECT_EQ(batch->size(), 3u);
    EXPECT_EQ(batch->requests[0].id, 0u);
    EXPECT_EQ(batch->requests[2].id, 2u);
}

TEST(Batcher, FlushesPartialBatchAfterMaxWait)
{
    Batcher batcher({/*maxBatch=*/8,
                     /*maxWait=*/std::chrono::microseconds(2000)});
    batcher.add(makeRequest(42));
    const auto batch = batcher.next(); // must not hang forever
    ASSERT_TRUE(batch.has_value());
    EXPECT_EQ(batch->size(), 1u);
    EXPECT_EQ(batch->requests[0].id, 42u);
}

TEST(Batcher, CloseDrainsPendingThenSignalsEnd)
{
    Batcher batcher({/*maxBatch=*/2,
                     /*maxWait=*/std::chrono::microseconds(1000000)});
    for (std::uint64_t i = 0; i < 5; ++i)
        batcher.add(makeRequest(i));
    batcher.close();
    std::size_t total = 0;
    std::size_t batches = 0;
    while (auto batch = batcher.next()) {
        EXPECT_LE(batch->size(), 2u);
        total += batch->size();
        ++batches;
    }
    EXPECT_EQ(total, 5u);
    EXPECT_EQ(batches, 3u); // 2 + 2 + 1
    EXPECT_FALSE(batcher.next().has_value());
}

TEST(Batcher, WakesWhenBatchFillsDuringWait)
{
    Batcher batcher({/*maxBatch=*/2,
                     /*maxWait=*/std::chrono::microseconds(500000)});
    batcher.add(makeRequest(0));
    std::thread late([&batcher] {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        batcher.add(makeRequest(1));
    });
    const auto start = std::chrono::steady_clock::now();
    const auto batch = batcher.next();
    const auto elapsed = std::chrono::steady_clock::now() - start;
    late.join();
    ASSERT_TRUE(batch.has_value());
    EXPECT_EQ(batch->size(), 2u);
    // Must have woken on the fill, far before the 500 ms deadline.
    EXPECT_LT(elapsed, std::chrono::milliseconds(400));
}

class BatchedVsSequential : public ::testing::TestWithParam<ConvEngine>
{};

/**
 * The acceptance claim: stacking requests along the batch dimension
 * and running them as one forward pass yields bit-identical tensors
 * to running every request alone, for each engine kind.
 */
TEST_P(BatchedVsSequential, SessionRunIsBitIdentical)
{
    SessionConfig cfg;
    cfg.defaultEngine = GetParam();
    const Session session(microServeNet(8, 4), cfg);

    constexpr std::size_t kBatch = 4;
    std::vector<TensorD> inputs;
    std::vector<const TensorD *> items;
    for (std::size_t i = 0; i < kBatch; ++i)
        inputs.push_back(randomInput(session.inputShape(), 100 + i));
    for (const TensorD &t : inputs)
        items.push_back(&t);

    const TensorD batched = session.run(stackBatch(items));
    ASSERT_EQ(batched.dim(0), kBatch);
    for (std::size_t i = 0; i < kBatch; ++i) {
        const TensorD alone = session.run(inputs[i]);
        const TensorD slice = sliceBatch(batched, i);
        ASSERT_EQ(slice.shape(), alone.shape());
        // Bitwise equality — no EXPECT_NEAR tolerance.
        EXPECT_TRUE(slice == alone)
            << "engine " << convEngineName(GetParam())
            << ": batched element " << i
            << " differs from sequential execution";
    }
}

/** Same claim end-to-end through the batching server. */
TEST_P(BatchedVsSequential, ServerResponsesAreBitIdentical)
{
    SessionConfig scfg;
    scfg.defaultEngine = GetParam();
    auto session =
        std::make_shared<Session>(microServeNet(8, 4), scfg);

    constexpr std::size_t kRequests = 12;
    std::vector<TensorD> inputs;
    std::vector<TensorD> refs;
    for (std::size_t i = 0; i < kRequests; ++i) {
        inputs.push_back(randomInput(session->inputShape(), 200 + i));
        refs.push_back(session->run(inputs[i]));
    }

    RuntimeConfig rcfg;
    rcfg.threads = 2;
    rcfg.batch.maxBatch = 4;
    rcfg.batch.maxWait = std::chrono::microseconds(500);
    InferenceServer server(session, rcfg);

    std::vector<std::future<TensorD>> futures;
    for (std::size_t i = 0; i < kRequests; ++i)
        futures.push_back(server.submit(inputs[i]));
    for (std::size_t i = 0; i < kRequests; ++i) {
        const TensorD out = futures[i].get();
        EXPECT_TRUE(out == refs[i])
            << "engine " << convEngineName(GetParam()) << ": response "
            << i << " differs from sequential execution";
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, BatchedVsSequential,
    ::testing::Values(ConvEngine::Im2col, ConvEngine::WinogradFp32,
                      ConvEngine::WinogradBlockedInt8),
    [](const ::testing::TestParamInfo<ConvEngine> &info) {
        switch (info.param) {
          case ConvEngine::Im2col:
            return "Im2col";
          case ConvEngine::WinogradFp32:
            return "WinogradFp32";
          case ConvEngine::WinogradBlockedInt8:
            return "WinogradBlockedInt8";
        }
        return "Unknown";
    });

TEST(Session, IneligibleLayersFallBackToIm2col)
{
    SessionConfig cfg;
    cfg.defaultEngine = ConvEngine::WinogradFp32;
    const Session session(microServeNet(8, 4), cfg);
    // stem, body.0, body.1 are 3x3 stride-1; down is strided, head is
    // pointwise — both must run im2col regardless of the default.
    ASSERT_EQ(session.layerCount(), 5u);
    EXPECT_EQ(session.layerEngine(0), ConvEngine::WinogradFp32);
    EXPECT_EQ(session.layerEngine(1), ConvEngine::WinogradFp32);
    EXPECT_EQ(session.layerEngine(2), ConvEngine::WinogradFp32);
    EXPECT_EQ(session.layerEngine(3), ConvEngine::Im2col);
    EXPECT_EQ(session.layerEngine(4), ConvEngine::Im2col);
}

TEST(Session, PerLayerEngineOverride)
{
    SessionConfig cfg;
    cfg.defaultEngine = ConvEngine::WinogradFp32;
    cfg.layerEngines["body.0"] = ConvEngine::WinogradBlockedInt8;
    cfg.layerEngines["body.1"] = ConvEngine::Im2col;
    const Session session(microServeNet(8, 4), cfg);
    EXPECT_EQ(session.layerEngine(0), ConvEngine::WinogradFp32);
    EXPECT_EQ(session.layerEngine(1), ConvEngine::WinogradBlockedInt8);
    EXPECT_EQ(session.layerEngine(2), ConvEngine::Im2col);
}

TEST(Session, AutoSelectKeepsIneligibleLayersOnIm2col)
{
    SessionConfig cfg;
    cfg.defaultEngine = ConvEngine::WinogradFp32;
    cfg.autoSelect = true;
    cfg.autoSelectBatch = 2;
    const Session session(microServeNet(8, 4), cfg);
    ASSERT_EQ(session.layerCount(), 5u);
    // Strided and pointwise layers are never measured — they are
    // ineligible and must land on im2col regardless of the policy.
    EXPECT_EQ(session.layerEngine(3), ConvEngine::Im2col);
    EXPECT_EQ(session.layerEngine(4), ConvEngine::Im2col);
    // Eligible layers end up on whichever engine measured faster —
    // one of the raced FP candidates, never anything else (in
    // particular never a quantized engine).
    for (std::size_t i = 0; i < 3; ++i) {
        const ConvEngine e = session.layerEngine(i);
        EXPECT_TRUE(e == ConvEngine::WinogradFp32 ||
                    e == ConvEngine::Im2col ||
                    e == ConvEngine::WinogradBlocked)
            << "layer " << i << " landed on " << convEngineName(e);
    }
}

TEST(Session, AutoSelectHonorsExplicitOverrides)
{
    SessionConfig cfg;
    cfg.defaultEngine = ConvEngine::Im2col;
    cfg.autoSelect = true;
    cfg.layerEngines["body.0"] = ConvEngine::WinogradFp32;
    const Session session(microServeNet(8, 4), cfg);
    // Pinned layers are taken as-is, not benchmarked away.
    EXPECT_EQ(session.layerEngine(1), ConvEngine::WinogradFp32);
}

TEST(Session, AutoSelectOutputMatchesReference)
{
    const NetworkDesc net = microServeNet(8, 4);
    SessionConfig cfg;
    cfg.defaultEngine = ConvEngine::WinogradFp32;
    cfg.autoSelect = true;
    cfg.autoSelectBatch = 2;
    const Session session(net, cfg);
    SessionConfig refCfg;
    refCfg.defaultEngine = ConvEngine::Im2col;
    const Session reference(net, refCfg);
    const TensorD input = randomInput(session.inputShape(), 900);
    const TensorD y = session.run(input);
    const TensorD ref = reference.run(input);
    ASSERT_EQ(y.shape(), ref.shape());
    // Whatever per-layer mix the measurement picked, the numerics
    // must agree with the im2col reference to FP accuracy.
    for (std::size_t i = 0; i < y.numel(); ++i)
        EXPECT_NEAR(y[i], ref[i], 1e-6);
}

TEST(Session, LayerVariantReflectsConfiguredVariant)
{
    // Plumbing: without autoSelect, every layer reports the session's
    // configured variant — for both variants.
    for (WinoVariant v : {WinoVariant::F2, WinoVariant::F4}) {
        SessionConfig cfg;
        cfg.variant = v;
        cfg.defaultEngine = ConvEngine::WinogradFp32;
        const Session session(microServeNet(8, 4), cfg);
        for (std::size_t i = 0; i < session.layerCount(); ++i)
            EXPECT_EQ(session.layerVariant(i), v) << "layer " << i;
    }
}

TEST(Session, AutoSelectVariantOutputMatchesReference)
{
    // autoSelect races F2 and F4 per layer; whatever mix the probe
    // picked, the session must still agree with the im2col reference
    // — a wrong variant recorded against the prepared weights (or a
    // mismatched candidate swap) breaks the numerics, not just the
    // label. Start from an F4 default so the F2 candidate path is the
    // cross-variant one.
    const NetworkDesc net = microServeNet(8, 4);
    SessionConfig cfg;
    cfg.variant = WinoVariant::F4;
    cfg.defaultEngine = ConvEngine::WinogradFp32;
    cfg.autoSelect = true;
    cfg.autoSelectBatch = 2;
    const Session session(net, cfg);
    SessionConfig refCfg;
    refCfg.defaultEngine = ConvEngine::Im2col;
    const Session reference(net, refCfg);
    const TensorD input = randomInput(session.inputShape(), 902);
    const TensorD y = session.run(input);
    const TensorD ref = reference.run(input);
    ASSERT_EQ(y.shape(), ref.shape());
    for (std::size_t i = 0; i < y.numel(); ++i)
        EXPECT_NEAR(y[i], ref[i], 1e-6);
    for (std::size_t i = 0; i < session.layerCount(); ++i) {
        if (session.layerEngine(i) != ConvEngine::WinogradFp32)
            continue;
        const WinoVariant v = session.layerVariant(i);
        EXPECT_TRUE(v == WinoVariant::F2 || v == WinoVariant::F4 ||
                    v == WinoVariant::F6);
    }
}

TEST(Session, Int8FallbackRoutesIneligibleLayers)
{
    // Under a quantized default, strided/pointwise layers land on the
    // int8 im2col baseline so the session stays quantized end to end.
    SessionConfig cfg;
    cfg.defaultEngine = ConvEngine::WinogradBlockedInt8;
    const Session session(microServeNet(8, 4), cfg);
    EXPECT_EQ(session.layerEngine(0), ConvEngine::WinogradBlockedInt8);
    EXPECT_EQ(session.layerEngine(3), ConvEngine::Im2colInt8);
    EXPECT_EQ(session.layerEngine(4), ConvEngine::Im2colInt8);

    cfg.int8Fallback = false; // opting out restores the FP fallback
    const Session fp(microServeNet(8, 4), cfg);
    EXPECT_EQ(fp.layerEngine(3), ConvEngine::Im2col);
    EXPECT_EQ(fp.layerEngine(4), ConvEngine::Im2col);
}

TEST(Session, Im2colInt8TracksFpWithinQuantizationError)
{
    const NetworkDesc net = microServeNet(8, 4);
    SessionConfig qcfg;
    qcfg.defaultEngine = ConvEngine::Im2colInt8;
    const Session quantized(net, qcfg);
    SessionConfig fcfg;
    fcfg.defaultEngine = ConvEngine::Im2col;
    const Session fp(net, fcfg);

    const TensorD input = randomInput(quantized.inputShape(), 901);
    const TensorD yq = quantized.run(input);
    const TensorD yf = fp.run(input);
    ASSERT_EQ(yq.shape(), yf.shape());
    double num = 0.0, den = 0.0;
    for (std::size_t i = 0; i < yq.numel(); ++i) {
        const double d = yq[i] - yf[i];
        num += d * d;
        den += yf[i] * yf[i];
    }
    // 8-bit per-channel weights + layer-wise activations through a
    // 5-layer net: the quantized output must track FP closely, not
    // bit-exactly.
    EXPECT_LT(std::sqrt(num / den), 0.2);
}

TEST(ConvEngineNames, RoundTrip)
{
    for (ConvEngine e : kAllConvEngines) {
        ConvEngine parsed;
        ASSERT_TRUE(convEngineFromName(convEngineName(e), &parsed));
        EXPECT_EQ(parsed, e);
    }
    ConvEngine parsed;
    EXPECT_FALSE(convEngineFromName("warp-drive", &parsed));
}

} // namespace
} // namespace twq
