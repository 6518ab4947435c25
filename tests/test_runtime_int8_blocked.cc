/**
 * @file
 * Runtime-level tests for the NCHWc8 blocked int8 Winograd engine:
 * layout planning, batched == sequential and parallel == serial
 * bit-identity, the
 * quantized autoSelect race, the int8 widening GEMM dispatch, and
 * plan-cache signature versioning + auto-persistence.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <future>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "gemm/gemm.hh"
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

TEST(BlockedInt8Session, PlansBlockedChainWithInt8Fallbacks)
{
    SessionConfig cfg;
    cfg.defaultEngine = ConvEngine::WinogradBlockedInt8;
    const Session session(microServeNet(8, 4), cfg);
    ASSERT_EQ(session.layerCount(), 5u);
    // stem + body stay blocked int8; the activations between them
    // never leave the NCHWc8 layout.
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(session.layerEngine(i),
                  ConvEngine::WinogradBlockedInt8);
        EXPECT_EQ(session.layerLayout(i).in, ActLayout::NCHWc8);
        EXPECT_EQ(session.layerLayout(i).out, ActLayout::NCHWc8);
    }
    // down (strided) and head (1x1) fall back to int8 im2col, so the
    // quantized session stays quantized end to end.
    for (std::size_t i = 3; i < 5; ++i) {
        EXPECT_EQ(session.layerEngine(i), ConvEngine::Im2colInt8);
        EXPECT_EQ(session.layerLayout(i).in, ActLayout::NCHW);
    }
}

TEST(BlockedInt8Session, BatchedIsBitIdenticalToSequential)
{
    SessionConfig cfg;
    cfg.defaultEngine = ConvEngine::WinogradBlockedInt8;
    const Session session(microServeNet(8, 4), cfg);

    constexpr std::size_t kBatch = 4;
    std::vector<TensorD> inputs;
    std::vector<const TensorD *> items;
    for (std::size_t i = 0; i < kBatch; ++i)
        inputs.push_back(randomInput(session.inputShape(), 810 + i));
    for (const TensorD &t : inputs)
        items.push_back(&t);

    const TensorD batched = session.run(stackBatch(items));
    for (std::size_t i = 0; i < kBatch; ++i) {
        const TensorD alone = session.run(inputs[i]);
        const TensorD slice = sliceBatch(batched, i);
        EXPECT_TRUE(slice == alone)
            << "blocked int8 batched element " << i
            << " differs from sequential execution";
    }
}

TEST(BlockedInt8Session, ParallelIsBitIdenticalToSerial)
{
    SessionConfig cfg;
    cfg.defaultEngine = ConvEngine::WinogradBlockedInt8;
    const Session session(microServeNet(8, 8), cfg);
    const TensorD input = randomInput(
        {4, session.inputShape()[1], session.inputShape()[2],
         session.inputShape()[3]},
        77);

    ScratchArena serialArena;
    const TensorD serial = session.run(input, serialArena);

    ThreadPool pool(4);
    PoolRunner runner(pool, pool.size());
    std::vector<ScratchArena> arenas(runner.lanes());
    ArenaPackPool packs(arenas);
    RunContext ctx;
    ctx.runner = &runner;
    ctx.packs = &packs;
    ctx.minParallelMacs = 0; // force sharding even on tiny layers
    const TensorD parallel = session.run(input, arenas[0], ctx);
    pool.shutdown();
    EXPECT_TRUE(parallel == serial)
        << "sharded blocked int8 session differs from serial";
}

TEST(BlockedInt8Session, ServerResponsesAreBitIdentical)
{
    SessionConfig cfg;
    cfg.defaultEngine = ConvEngine::WinogradBlockedInt8;
    auto session =
        std::make_shared<Session>(microServeNet(8, 4), cfg);

    constexpr std::size_t kRequests = 10;
    std::vector<TensorD> inputs;
    std::vector<TensorD> refs;
    for (std::size_t i = 0; i < kRequests; ++i) {
        inputs.push_back(randomInput(session->inputShape(), 910 + i));
        refs.push_back(session->run(inputs[i]));
    }

    RuntimeConfig rcfg;
    rcfg.threads = 2;
    rcfg.batch.maxBatch = 4;
    rcfg.batch.maxWait = std::chrono::microseconds(500);
    InferenceServer server(session, rcfg);
    std::vector<std::future<TensorD>> futures;
    for (const TensorD &in : inputs)
        futures.push_back(server.submit(in));
    for (std::size_t i = 0; i < kRequests; ++i) {
        const TensorD out = futures[i].get();
        EXPECT_TRUE(out == refs[i])
            << "blocked int8 response " << i
            << " differs from sequential execution";
    }
    server.shutdown();
}

TEST(BlockedInt8Session, QuantizedAutoSelectStaysQuantized)
{
    const NetworkDesc net = microServeNet(8, 4);
    SessionConfig cfg;
    cfg.defaultEngine = ConvEngine::WinogradBlockedInt8;
    cfg.autoSelect = true;
    cfg.autoSelectBatch = 2;
    const Session session(net, cfg);
    // Whatever won each race, every eligible layer landed on a
    // QUANTIZED engine — autoSelect must never demote a quantized
    // layer to an FP engine.
    for (std::size_t i = 0; i < 3; ++i) {
        const ConvEngine e = session.layerEngine(i);
        EXPECT_TRUE(e == ConvEngine::WinogradBlockedInt8 ||
                    e == ConvEngine::Im2colInt8)
            << "layer " << i << " left the quantized path";
    }
    EXPECT_EQ(session.layerEngine(3), ConvEngine::Im2colInt8);
    EXPECT_EQ(session.layerEngine(4), ConvEngine::Im2colInt8);

    // Whatever mix the race picked, the quantized output must still
    // approximate the FP reference within quantization error (the
    // bound the other int8 session tests use).
    SessionConfig refCfg;
    refCfg.defaultEngine = ConvEngine::Im2col;
    const Session reference(net, refCfg);
    const TensorD input = randomInput(session.inputShape(), 53);
    const TensorD y = session.run(input);
    const TensorD ref = reference.run(input);
    EXPECT_LT(relativeL2Error(y, ref), 0.5);
}

// ------------------------------------------------ int8 GEMM dispatch

TEST(WideningGemm, DispatchedKernelMatchesGenericExactly)
{
    Rng rng(91);
    const struct
    {
        std::size_t m, k, n;
    } shapes[] = {{1, 1, 1},   {4, 64, 16},  {5, 3, 17},
                  {64, 576, 100}, {7, 513, 33}, {3, 1024, 50}};
    for (const auto &s : shapes) {
        std::vector<std::int8_t> a(s.m * s.k), b(s.k * s.n);
        for (auto &v : a)
            v = static_cast<std::int8_t>(rng.uniformInt(-128, 127));
        for (auto &v : b)
            v = static_cast<std::int8_t>(rng.uniformInt(-128, 127));
        std::vector<std::int32_t> ref(s.m * s.n, -1);
        std::vector<std::int32_t> got(s.m * s.n, -2);
        gemm::gemmS8S32Generic(a.data(), b.data(), ref.data(), s.m,
                               s.k, s.n, s.n, s.n);
        gemm::gemmS8S32(a.data(), b.data(), got.data(), s.m, s.k,
                        s.n);
        EXPECT_EQ(got, ref)
            << s.m << "x" << s.k << "x" << s.n << " kernel="
            << gemm::int8KernelName();
    }
}

TEST(WideningGemm, RailValuesDoNotSaturate)
{
    // All operands at the int8 rails: the configuration where the
    // classic vpmaddubsw idiom would saturate its int16 pair sums.
    // The dispatched kernel must stay exact.
    const std::size_t m = 4, k = 512, n = 16;
    for (const int av : {-128, 127}) {
        for (const int bv : {-128, 127}) {
            std::vector<std::int8_t> a(m * k,
                                       static_cast<std::int8_t>(av));
            std::vector<std::int8_t> b(k * n,
                                       static_cast<std::int8_t>(bv));
            std::vector<std::int32_t> c(m * n);
            gemm::gemmS8S32(a.data(), b.data(), c.data(), m, k, n);
            const std::int32_t expect =
                static_cast<std::int32_t>(k) * av * bv;
            for (const std::int32_t v : c)
                ASSERT_EQ(v, expect)
                    << "a=" << av << " b=" << bv
                    << " kernel=" << gemm::int8KernelName();
        }
    }
}

TEST(WideningGemm, ColumnBlocksAreIdenticalToWholeGemm)
{
    Rng rng(92);
    const std::size_t m = 9, k = 70, n = 301;
    std::vector<std::int8_t> a(m * k), b(k * n);
    for (auto &v : a)
        v = static_cast<std::int8_t>(rng.uniformInt(-128, 127));
    for (auto &v : b)
        v = static_cast<std::int8_t>(rng.uniformInt(-128, 127));
    std::vector<std::int32_t> whole(m * n);
    gemm::gemmS8S32(a.data(), b.data(), whole.data(), m, k, n);
    std::vector<std::int32_t> split(m * n);
    // Uneven thirds, including a non-multiple-of-16 boundary.
    const std::size_t cuts[] = {0, 100, 171, n};
    for (std::size_t s = 0; s + 1 < 4; ++s) {
        const std::size_t j0 = cuts[s];
        gemm::gemmS8S32Cols(a.data(), b.data() + j0,
                            split.data() + j0, m, k,
                            cuts[s + 1] - j0, n, n);
    }
    EXPECT_EQ(split, whole);
}

// --------------------------------------- plan-cache v2 + persistence

TEST(PlanCacheVersioning, SignatureMismatchIsRejectedWithoutDamage)
{
    PlanCache cache;
    cache.store("c64o64k3s1h16w16b8",
                {ConvEngine::WinogradBlockedInt8, WinoVariant::F4});
    const std::string text = cache.serialize();
    // Round trip under the live signature.
    PlanCache same;
    ASSERT_TRUE(same.deserialize(text));
    EXPECT_EQ(same.size(), 1u);
    PlanCache::Decision dec;
    ASSERT_TRUE(same.lookup("c64o64k3s1h16w16b8", &dec));
    EXPECT_EQ(dec.engine, ConvEngine::WinogradBlockedInt8);

    // Input measured under a different kernel table must be rejected
    // — and rejection must not disturb valid in-memory plans a
    // shared cache already holds.
    std::string foreign = text;
    const std::string sig = PlanCache::signature();
    foreign.replace(foreign.find(sig), sig.size(),
                    "sig=other/other/other");
    PlanCache stale;
    stale.store("keepme", {ConvEngine::Im2col, WinoVariant::F2});
    EXPECT_FALSE(stale.deserialize(foreign));
    EXPECT_EQ(stale.size(), 1u);
    ASSERT_TRUE(stale.lookup("keepme", &dec));
    EXPECT_EQ(dec.engine, ConvEngine::Im2col);

    // Old v1 headers are rejected the same way, and a valid load
    // MERGES: existing entries for other keys survive.
    EXPECT_FALSE(stale.deserialize(
        "twq-plan-cache v1\nc4o4k3s1h8w8b2 im2col F2\n"));
    EXPECT_EQ(stale.size(), 1u);
    ASSERT_TRUE(stale.deserialize(text));
    EXPECT_EQ(stale.size(), 2u);
    EXPECT_TRUE(stale.lookup("keepme", &dec));
}

TEST(PlanCacheVersioning, ProvenanceRoundTripsAndStaleV2Rejected)
{
    // v3 lines carry the winning probe's measurement provenance; it
    // must survive a serialize/deserialize round trip untouched.
    PlanCache::Decision d;
    d.engine = ConvEngine::WinogradBlocked;
    d.variant = WinoVariant::F4;
    d.probeNs = 182340;
    d.cycles = 812345;
    d.instructions = 1623490;
    d.cacheRefs = 40210;
    d.cacheMisses = 1204;
    PlanCache cache;
    cache.store("c64o64k3s1h16w16b8", d);
    PlanCache loaded;
    ASSERT_TRUE(loaded.deserialize(cache.serialize()));
    PlanCache::Decision got;
    ASSERT_TRUE(loaded.lookup("c64o64k3s1h16w16b8", &got));
    EXPECT_EQ(got.probeNs, 182340u);
    EXPECT_EQ(got.cycles, 812345u);
    EXPECT_EQ(got.instructions, 1623490u);
    EXPECT_EQ(got.cacheRefs, 40210u);
    EXPECT_EQ(got.cacheMisses, 1204u);
    // Equality is the PLAN: identical (engine, variant) compares
    // equal even with different provenance.
    PlanCache::Decision samePlan;
    samePlan.engine = d.engine;
    samePlan.variant = d.variant;
    EXPECT_TRUE(got == samePlan);

    // A v2 file (pre-provenance format) is stale, whole-file: the
    // header version check rejects it before any line parses.
    const std::string v2 = "twq-plan-cache v2 " +
                           PlanCache::signature() +
                           "\nc64o64k3s1h16w16b8 winograd-blocked F4\n";
    EXPECT_FALSE(loaded.deserialize(v2));
    // So is a v3 line missing provenance fields (truncated write).
    const std::string shortLine =
        "twq-plan-cache v3 " + PlanCache::signature() +
        "\nc64o64k3s1h16w16b8 winograd-blocked F4 100 2\n";
    EXPECT_FALSE(loaded.deserialize(shortLine));
    EXPECT_EQ(loaded.size(), 1u); // rejected input changed nothing
}

TEST(PlanCacheVersioning, QuantizedAndFpKeysDoNotCollide)
{
    ConvLayerDesc d;
    d.cin = 64;
    d.cout = 64;
    d.kernel = 3;
    d.stride = 1;
    d.height = 16;
    d.width = 16;
    const std::string fp = PlanCache::layerKey(d, 8);
    const std::string q8 = PlanCache::layerKey(d, 8, true);
    EXPECT_NE(fp, q8);
    // Same-shaped FP and quantized layers store independently; the
    // two candidate families never clobber each other's decisions.
    PlanCache cache;
    cache.store(fp, {ConvEngine::WinogradBlocked, WinoVariant::F4});
    cache.store(q8,
                {ConvEngine::WinogradBlockedInt8, WinoVariant::F4});
    PlanCache::Decision dec;
    ASSERT_TRUE(cache.lookup(fp, &dec));
    EXPECT_EQ(dec.engine, ConvEngine::WinogradBlocked);
    ASSERT_TRUE(cache.lookup(q8, &dec));
    EXPECT_EQ(dec.engine, ConvEngine::WinogradBlockedInt8);
}

TEST(PlanCacheVersioning, StoreBumpsRevision)
{
    PlanCache cache;
    const std::uint64_t r0 = cache.revision();
    cache.store("a", {ConvEngine::Im2col, WinoVariant::F2});
    EXPECT_GT(cache.revision(), r0);
}

TEST(PlanCachePersistence, SessionLoadsAndSavesConfiguredPath)
{
    const std::string path =
        ::testing::TempDir() + "/twq_auto_plan_cache.txt";
    std::remove(path.c_str());

    const NetworkDesc net = microServeNet(8, 4);
    SessionConfig cfg;
    cfg.autoSelect = true;
    cfg.autoSelectBatch = 2;
    cfg.planCachePath = path;

    // First build: probes, records, saves.
    const Session first(net, cfg);
    PlanCache onDisk;
    ASSERT_TRUE(onDisk.loadFile(path))
        << "session did not persist its plan cache";
    EXPECT_GE(onDisk.size(), 2u);

    // Second build: loads the same file and lands on the identical
    // plan without re-measuring (the decisions come from the file).
    const Session second(net, cfg);
    for (std::size_t i = 0; i < first.layerCount(); ++i) {
        EXPECT_EQ(second.layerEngine(i), first.layerEngine(i));
        EXPECT_EQ(second.layerVariant(i), first.layerVariant(i));
    }

    // A stale-signature file on the configured path is discarded and
    // re-probed, then overwritten with a fresh valid cache.
    std::string text = onDisk.serialize();
    const std::string sig = PlanCache::signature();
    text.replace(text.find(sig), sig.size(), "sig=stale/stale/stale");
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
    const Session third(net, cfg);
    PlanCache refreshed;
    ASSERT_TRUE(refreshed.loadFile(path))
        << "stale cache was not replaced by a fresh one";
    EXPECT_GE(refreshed.size(), 2u);
    std::remove(path.c_str());
}

} // namespace
} // namespace twq
