/**
 * @file
 * Runtime-level tests for session layout propagation (the NCHWc8
 * blocked winograd engine end to end), the autoSelect layout race,
 * the serializable plan cache, and the P-sharded per-tap GEMMs.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <future>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "gemm/gemm.hh"
#include "layout/wino_blocked.hh"
#include "models/zoo.hh"
#include "runtime/server.hh"
#include "tensor/batch.hh"
#include "winograd/tiled.hh"

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

TEST(LayoutPropagation, BlockedSessionMatchesIm2colReference)
{
    // width 4 exercises tail blocks (C % 8 != 0) on every layer.
    const NetworkDesc net = microServeNet(8, 4);
    SessionConfig blockedCfg;
    blockedCfg.defaultEngine = ConvEngine::WinogradBlocked;
    SessionConfig refCfg;
    refCfg.defaultEngine = ConvEngine::Im2col;
    const Session session(net, blockedCfg);
    const Session reference(net, refCfg);

    const TensorD input = randomInput(session.inputShape(), 42);
    const TensorD y = session.run(input);
    const TensorD ref = reference.run(input);
    ASSERT_EQ(y.shape(), ref.shape());
    for (std::size_t i = 0; i < y.numel(); ++i)
        EXPECT_NEAR(y[i], ref[i], 1e-6);
}

TEST(LayoutPropagation, F6SessionsMatchIm2colEndToEnd)
{
    // F(6,3) end to end through the session, in both NCHW and
    // blocked layouts. Width 4 gives 4x4 outputs — NOT a multiple of
    // the 6-wide output tile — so every layer runs masked partial
    // tiles, the regime where a wrong fractional B^T/A^T or a bad
    // tail path would surface.
    const NetworkDesc net = microServeNet(8, 4);
    SessionConfig refCfg;
    refCfg.defaultEngine = ConvEngine::Im2col;
    const Session reference(net, refCfg);
    const TensorD input = randomInput(reference.inputShape(), 99);
    const TensorD ref = reference.run(input);

    for (const ConvEngine engine :
         {ConvEngine::WinogradFp32, ConvEngine::WinogradBlocked}) {
        SessionConfig cfg;
        cfg.defaultEngine = engine;
        cfg.variant = WinoVariant::F6;
        const Session session(net, cfg);
        const TensorD y = session.run(input);
        ASSERT_EQ(y.shape(), ref.shape());
        for (std::size_t i = 0; i < y.numel(); ++i)
            ASSERT_NEAR(y[i], ref[i], 1e-6)
                << "engine " << static_cast<int>(engine)
                << " diverges at " << i;
    }
}

TEST(LayoutPropagation, PlansBlockedChainWithNchwFallbacks)
{
    SessionConfig cfg;
    cfg.defaultEngine = ConvEngine::WinogradBlocked;
    const Session session(microServeNet(8, 4), cfg);
    ASSERT_EQ(session.layerCount(), 5u);
    // stem + the two body layers are eligible: blocked in and out, so
    // the three-layer chain keeps its activations blocked.
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(session.layerEngine(i), ConvEngine::WinogradBlocked);
        EXPECT_EQ(session.layerLayout(i).in, ActLayout::NCHWc8);
        EXPECT_EQ(session.layerLayout(i).out, ActLayout::NCHWc8);
    }
    // down (strided) and head (1x1) fall back to NCHW im2col.
    for (std::size_t i = 3; i < 5; ++i) {
        EXPECT_EQ(session.layerEngine(i), ConvEngine::Im2col);
        EXPECT_EQ(session.layerLayout(i).in, ActLayout::NCHW);
        EXPECT_EQ(session.layerLayout(i).out, ActLayout::NCHW);
    }
}

TEST(LayoutPropagation, BatchedIsBitIdenticalToSequential)
{
    SessionConfig cfg;
    cfg.defaultEngine = ConvEngine::WinogradBlocked;
    const Session session(microServeNet(8, 4), cfg);

    constexpr std::size_t kBatch = 4;
    std::vector<TensorD> inputs;
    std::vector<const TensorD *> items;
    for (std::size_t i = 0; i < kBatch; ++i)
        inputs.push_back(randomInput(session.inputShape(), 800 + i));
    for (const TensorD &t : inputs)
        items.push_back(&t);

    const TensorD batched = session.run(stackBatch(items));
    for (std::size_t i = 0; i < kBatch; ++i) {
        const TensorD alone = session.run(inputs[i]);
        const TensorD slice = sliceBatch(batched, i);
        EXPECT_TRUE(slice == alone)
            << "blocked batched element " << i
            << " differs from sequential execution";
    }
}

TEST(LayoutPropagation, ServerResponsesAreBitIdentical)
{
    SessionConfig cfg;
    cfg.defaultEngine = ConvEngine::WinogradBlocked;
    auto session =
        std::make_shared<Session>(microServeNet(8, 4), cfg);

    constexpr std::size_t kRequests = 10;
    std::vector<TensorD> inputs;
    std::vector<TensorD> refs;
    for (std::size_t i = 0; i < kRequests; ++i) {
        inputs.push_back(randomInput(session->inputShape(), 900 + i));
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
            << "blocked response " << i
            << " differs from sequential execution";
    }
    server.shutdown();
}

TEST(LayoutPropagation, AutoSelectOutputStaysCorrect)
{
    const NetworkDesc net = microServeNet(8, 4);
    SessionConfig cfg;
    cfg.autoSelect = true;
    cfg.autoSelectBatch = 2;
    const Session session(net, cfg);
    SessionConfig refCfg;
    refCfg.defaultEngine = ConvEngine::Im2col;
    const Session reference(net, refCfg);

    const TensorD input = randomInput(session.inputShape(), 43);
    const TensorD y = session.run(input);
    const TensorD ref = reference.run(input);
    for (std::size_t i = 0; i < y.numel(); ++i)
        EXPECT_NEAR(y[i], ref[i], 1e-6);
    // Whatever won the race, every eligible layer landed on an FP
    // engine and the ineligible tail stayed on im2col.
    for (std::size_t i = 0; i < 3; ++i) {
        const ConvEngine e = session.layerEngine(i);
        EXPECT_TRUE(e == ConvEngine::Im2col ||
                    e == ConvEngine::WinogradFp32 ||
                    e == ConvEngine::WinogradBlocked);
    }
    EXPECT_EQ(session.layerEngine(3), ConvEngine::Im2col);
    EXPECT_EQ(session.layerEngine(4), ConvEngine::Im2col);
}

TEST(PlanCacheTest, AutoSelectPopulatesTheCache)
{
    PlanCache cache;
    SessionConfig cfg;
    cfg.autoSelect = true;
    cfg.autoSelectBatch = 2;
    cfg.planCache = &cache;
    const NetworkDesc net = microServeNet(8, 4);
    const Session session(net, cfg);

    // stem and body share the cache across identical shapes; at least
    // the two distinct eligible shapes must be recorded.
    EXPECT_GE(cache.size(), 2u);
    for (const ConvLayerDesc &d : net.expandedLayers()) {
        if (!d.winogradEligible())
            continue;
        PlanCache::Decision dec;
        EXPECT_TRUE(cache.lookup(
            PlanCache::layerKey(d, cfg.autoSelectBatch), &dec))
            << "no cached plan for " << d.name;
    }
}

TEST(PlanCacheTest, CachedDecisionsAreHonoredWithoutMeasuring)
{
    const NetworkDesc net = microServeNet(8, 4);
    // Seed every eligible layer with a decision the measured race
    // would be very unlikely to produce uniformly (plain im2col under
    // F4): the session must adopt it verbatim, proving the lookup
    // short-circuits the probe.
    PlanCache cache;
    SessionConfig cfg;
    cfg.autoSelect = true;
    cfg.autoSelectBatch = 2;
    cfg.planCache = &cache;
    for (const ConvLayerDesc &d : net.expandedLayers())
        if (d.winogradEligible())
            cache.store(PlanCache::layerKey(d, cfg.autoSelectBatch),
                        {ConvEngine::Im2col, WinoVariant::F4});

    const Session session(net, cfg);
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(session.layerEngine(i), ConvEngine::Im2col);
        EXPECT_EQ(session.layerVariant(i), WinoVariant::F4);
    }

    // A cached blocked decision carries the layout plan with it.
    PlanCache cache2;
    for (const ConvLayerDesc &d : net.expandedLayers())
        if (d.winogradEligible())
            cache2.store(
                PlanCache::layerKey(d, cfg.autoSelectBatch),
                {ConvEngine::WinogradBlocked, WinoVariant::F2});
    cfg.planCache = &cache2;
    const Session blocked(net, cfg);
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(blocked.layerEngine(i),
                  ConvEngine::WinogradBlocked);
        EXPECT_EQ(blocked.layerLayout(i).in, ActLayout::NCHWc8);
    }
}

TEST(PlanCacheTest, ForeignEngineEntriesAreIgnoredAndReprobed)
{
    // A corrupted / cross-version cache may name an engine the FP
    // race never produces (here: the quantized winograd engine, whose
    // prepare() needs calibration the FP path never built). The
    // session must ignore the entry and fall back to measuring
    // instead of dying in prepare().
    const NetworkDesc net = microServeNet(8, 4);
    PlanCache cache;
    SessionConfig cfg;
    cfg.autoSelect = true;
    cfg.autoSelectBatch = 2;
    cfg.planCache = &cache;
    for (const ConvLayerDesc &d : net.expandedLayers())
        if (d.winogradEligible())
            cache.store(PlanCache::layerKey(d, cfg.autoSelectBatch),
                        {ConvEngine::WinogradBlockedInt8,
                         WinoVariant::F2});

    const Session session(net, cfg);
    for (std::size_t i = 0; i < 3; ++i) {
        const ConvEngine e = session.layerEngine(i);
        EXPECT_TRUE(e == ConvEngine::Im2col ||
                    e == ConvEngine::WinogradFp32 ||
                    e == ConvEngine::WinogradBlocked)
            << "foreign cache entry leaked into layer " << i;
    }
    // The re-probe overwrote the foreign entries with real decisions.
    PlanCache::Decision dec;
    ASSERT_TRUE(cache.lookup(
        PlanCache::layerKey(net.expandedLayers()[0],
                            cfg.autoSelectBatch),
        &dec));
    EXPECT_NE(dec.engine, ConvEngine::WinogradBlockedInt8);
}

TEST(PlanCacheTest, SerializeRoundTripsAndPersistsToDisk)
{
    PlanCache cache;
    cache.store("c64o64k3s1h16w16b8",
                {ConvEngine::WinogradBlocked, WinoVariant::F4});
    cache.store("c4o4k3s1h8w8b2",
                {ConvEngine::WinogradFp32, WinoVariant::F2});
    cache.store("c3o4k3s1h8w8b2", {ConvEngine::Im2col, WinoVariant::F2});

    const std::string text = cache.serialize();
    PlanCache parsed;
    ASSERT_TRUE(parsed.deserialize(text));
    EXPECT_EQ(parsed.size(), 3u);
    EXPECT_EQ(parsed.serialize(), text);
    PlanCache::Decision dec;
    ASSERT_TRUE(parsed.lookup("c64o64k3s1h16w16b8", &dec));
    EXPECT_EQ(dec.engine, ConvEngine::WinogradBlocked);
    EXPECT_EQ(dec.variant, WinoVariant::F4);

    EXPECT_FALSE(parsed.deserialize("not a plan cache"));

    const std::string path =
        ::testing::TempDir() + "/twq_plan_cache_test.txt";
    ASSERT_TRUE(cache.saveFile(path));
    PlanCache loaded;
    ASSERT_TRUE(loaded.loadFile(path));
    EXPECT_EQ(loaded.serialize(), text);
    std::remove(path.c_str());
    EXPECT_FALSE(loaded.loadFile(path + ".missing"));
}

TEST(PlanCacheTest, V4RoundTripsCandidateTableAndConversionCosts)
{
    // The v4 entry carries everything the chain DP consumes: the
    // full candidate table (F6 included) and the four NCHW↔NCHWc8
    // conversion costs. All of it must survive serialize/deserialize
    // byte for byte.
    PlanCache cache;
    PlanCache::Decision d;
    d.engine = ConvEngine::WinogradBlocked;
    d.variant = WinoVariant::F6;
    d.probeNs = 182340;
    d.inToBlockedNs = 9120;
    d.inToNchwNs = 8770;
    d.outToBlockedNs = 9050;
    d.outToNchwNs = 8990;
    d.table = {{ConvEngine::Im2col, WinoVariant::F2, 401200},
               {ConvEngine::WinogradFp32, WinoVariant::F4, 240100},
               {ConvEngine::WinogradBlocked, WinoVariant::F6, 182340}};
    cache.store("c64o64k3s1h16w16b8", d);

    const std::string text = cache.serialize();
    PlanCache parsed;
    ASSERT_TRUE(parsed.deserialize(text));
    EXPECT_EQ(parsed.serialize(), text);
    PlanCache::Decision back;
    ASSERT_TRUE(parsed.lookup("c64o64k3s1h16w16b8", &back));
    EXPECT_EQ(back.variant, WinoVariant::F6);
    EXPECT_EQ(back.inToBlockedNs, 9120u);
    EXPECT_EQ(back.inToNchwNs, 8770u);
    EXPECT_EQ(back.outToBlockedNs, 9050u);
    EXPECT_EQ(back.outToNchwNs, 8990u);
    ASSERT_EQ(back.table.size(), 3u);
    EXPECT_EQ(back.table[1].engine, ConvEngine::WinogradFp32);
    EXPECT_EQ(back.table[1].variant, WinoVariant::F4);
    EXPECT_EQ(back.table[1].ns, 240100u);
}

TEST(PlanCacheTest, StaleV3FilesAreRejectedWithoutDamage)
{
    // A v3 file predates both the F6 candidate and the conversion
    // costs — its rankings are incomplete for this candidate space,
    // so the header check must refuse it outright and leave existing
    // in-memory plans untouched (the affected layers re-probe).
    PlanCache cache;
    cache.store("keep", {ConvEngine::WinogradFp32, WinoVariant::F2});
    const std::string v3 =
        "twq-plan-cache v3 " + PlanCache::signature() +
        "\nc64o64k3s1h16w16b8 winograd-blocked F4 182340 0 0 0 0\n";
    EXPECT_FALSE(cache.deserialize(v3));
    EXPECT_EQ(cache.size(), 1u);
    PlanCache::Decision d;
    EXPECT_FALSE(cache.lookup("c64o64k3s1h16w16b8", &d));
    EXPECT_TRUE(cache.lookup("keep", &d));

    // A truncated v4 line (table promises more candidates than it
    // carries) is malformed, not merged.
    const std::string truncated =
        "twq-plan-cache v4 " + PlanCache::signature() +
        "\nc64o64k3s1h16w16b8 winograd-blocked F4 1 0 0 0 0 9 8 9 8 "
        "2 im2col F2 5\n";
    EXPECT_FALSE(cache.deserialize(truncated));
    EXPECT_EQ(cache.size(), 1u);

    // A v4 file written before the NCHW int8 engine was removed names
    // `winograd-int8` in a race table: the whole file is rejected,
    // including its well-formed lines, and nothing is merged.
    const std::string retired =
        "twq-plan-cache v4 " + PlanCache::signature() +
        "\nc64o64k3s1h16w16b8 winograd-blocked F4 1 0 0 0 0 9 8 9 8 "
        "1 winograd-blocked F4 1"
        "\nc3o4k3s1h8w8b8q8 im2col-int8 F2 19585 0 0 0 0 1948 707 "
        "2023 956 3 winograd-int8 F2 109505 winograd-blocked-int8 F2 "
        "40091 im2col-int8 F2 19585\n";
    EXPECT_FALSE(cache.deserialize(retired));
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_FALSE(cache.lookup("c64o64k3s1h16w16b8", &d));
    EXPECT_FALSE(cache.lookup("c3o4k3s1h8w8b8q8", &d));
    EXPECT_TRUE(cache.lookup("keep", &d));
}

TEST(PlanCacheTest, TunedCacheBuildsWithZeroProbes)
{
    // The offline-tuning contract (tools/tune --verify asserts the
    // same thing from the CLI): a session built cold against a fully
    // populated cache runs ZERO live candidate races — the
    // plan.probes counter does not move and every raced layer
    // reports plan source "cache".
    const NetworkDesc net = microServeNet(8, 4);
    SessionConfig cfg;
    cfg.autoSelect = true;
    cfg.autoSelectBatch = 2;
    PlanCache cache;
    cfg.planCache = &cache;
    { const Session tuning(net, cfg); } // populates the cache
    ASSERT_GT(cache.size(), 0u);

    auto &probes = obs::Registry::global().counter("plan.probes");
    const std::uint64_t before = probes.value();
    const Session cold(net, cfg);
    if constexpr (obs::kEnabled)
        EXPECT_EQ(probes.value(), before)
            << "tuned build ran a live probe";
    for (std::size_t i = 0; i < cold.layerCount(); ++i)
        EXPECT_STRNE(cold.layerPlan(i).source, "probed")
            << "layer " << i << " was probed despite a tuned cache";
    // The cache engaged (this net has raced layers).
    bool anyCached = false;
    for (std::size_t i = 0; i < cold.layerCount(); ++i)
        anyCached |=
            std::string(cold.layerPlan(i).source) == "cache";
    EXPECT_TRUE(anyCached);
}

TEST(ChainDp, JointPlanMatchesReferenceAndBeatsNoPlan)
{
    // The chain DP re-decides raced layers jointly; whatever mix it
    // lands on, the numerics must still match the im2col reference —
    // a re-prepared override with a mismatched variant would break
    // the output, not just the label.
    const NetworkDesc net = microServeNet(8, 4);
    SessionConfig cfg;
    cfg.autoSelect = true;
    cfg.autoSelectBatch = 2;
    cfg.chainDp = true;
    const Session dp(net, cfg);
    cfg.chainDp = false;
    const Session argmin(net, cfg);
    SessionConfig refCfg;
    refCfg.defaultEngine = ConvEngine::Im2col;
    const Session reference(net, refCfg);

    const TensorD input = randomInput(dp.inputShape(), 1234);
    const TensorD ref = reference.run(input);
    for (const Session *s : {&dp, &argmin}) {
        const TensorD y = s->run(input);
        ASSERT_EQ(y.shape(), ref.shape());
        for (std::size_t i = 0; i < y.numel(); ++i)
            EXPECT_NEAR(y[i], ref[i], 1e-6);
        // Both policies pick from the same candidate family.
        for (std::size_t i = 0; i < s->layerCount(); ++i) {
            const ConvEngine e = s->layerEngine(i);
            EXPECT_TRUE(e == ConvEngine::Im2col ||
                        e == ConvEngine::WinogradFp32 ||
                        e == ConvEngine::WinogradBlocked);
        }
    }
}

TEST(ChainDp, SeamCostsSteerAwayFromIsolatedBlockedLayers)
{
    // Synthetic decision problem, no timing: layer candidates and
    // conversion costs are injected through a v4 cache. The middle
    // layer's blocked candidate wins its local race by less than the
    // two seams it would force between its NCHW neighbors, so the
    // per-layer argmin picks it and the chain DP must not.
    NetworkDesc net;
    net.name = "SeamNet";
    net.inputRes = 8;
    for (int i = 0; i < 3; ++i) {
        ConvLayerDesc d;
        d.name = "seam." + std::to_string(i);
        d.cin = 8;
        d.cout = 8;
        d.kernel = 3;
        d.stride = 1;
        d.height = 8;
        d.width = 8;
        net.layers.push_back(d);
    }
    // Distinct keys per layer are impossible here (identical
    // shapes), so all three layers share one cached entry: NCHW
    // winograd at 100us, blocked at 90us, seams at 30us each. Any
    // single blocked layer inside an NCHW chain costs two seams
    // (+60us) for a 10us node win; an all-blocked chain would pay
    // ingress+egress (+60us) against a 30us total node win. The DP
    // must therefore keep the whole chain NCHW, while the per-layer
    // argmin greedily goes blocked.
    PlanCache cache;
    PlanCache::Decision d;
    d.engine = ConvEngine::WinogradBlocked;
    d.variant = WinoVariant::F2;
    d.probeNs = 90000;
    d.inToBlockedNs = 30000;
    d.inToNchwNs = 30000;
    d.outToBlockedNs = 30000;
    d.outToNchwNs = 30000;
    d.table = {{ConvEngine::WinogradFp32, WinoVariant::F2, 100000},
               {ConvEngine::WinogradBlocked, WinoVariant::F2, 90000}};
    SessionConfig cfg;
    cfg.autoSelect = true;
    cfg.autoSelectBatch = 2;
    cfg.planCache = &cache;
    cache.store(PlanCache::layerKey(net.expandedLayers()[0],
                                    cfg.autoSelectBatch),
                d);

    cfg.chainDp = false;
    const Session greedy(net, cfg);
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_EQ(greedy.layerEngine(i), ConvEngine::WinogradBlocked)
            << "argmin should take the local blocked win";

    cfg.chainDp = true;
    const Session planned(net, cfg);
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(planned.layerEngine(i), ConvEngine::WinogradFp32)
            << "DP left an uncharged seam at layer " << i;
        EXPECT_STREQ(planned.layerPlan(i).source, "cache")
            << "DP re-decision must not re-measure";
    }
}

// planChain() unit tests: synthetic candidate tables and seam costs,
// no timing and no registry.

PlanRow
nchwRow(std::uint64_t ns)
{
    return {ConvEngine::WinogradFp32, WinoVariant::F2, ns,
            {ActLayout::NCHW, ActLayout::NCHW}, {}};
}

PlanRow
blockedRow(std::uint64_t ns)
{
    return {ConvEngine::WinogradBlocked, WinoVariant::F2, ns,
            {ActLayout::NCHWc8, ActLayout::NCHWc8}, {}};
}

SeamCosts
uniformSeams(std::uint64_t ns)
{
    return {ns, ns, ns, ns};
}

TEST(ChainPlanner, ZeroSeamsGivePerLayerArgminWithFirstRowTies)
{
    const std::vector<std::vector<PlanRow>> rows = {
        {nchwRow(100), blockedRow(90)},
        {blockedRow(50), nchwRow(50)}, // exact tie: row 0 wins
        {nchwRow(70)},
        {nchwRow(20), blockedRow(30), nchwRow(10)},
    };
    const std::vector<std::size_t> picks =
        planChain(rows, std::vector<SeamCosts>(rows.size()));
    EXPECT_EQ(picks, (std::vector<std::size_t>{1, 0, 0, 2}));
}

TEST(ChainPlanner, SeamNetStaysNchw)
{
    // The decision problem of ChainDp.SeamCostsSteerAwayFrom-
    // IsolatedBlockedLayers without a session: 100us NCHW vs 90us
    // blocked nodes and 30us seams. Any blocked run pays two seams
    // (+60us) for at most a 30us node win.
    const std::vector<std::vector<PlanRow>> rows(
        3, {nchwRow(100000), blockedRow(90000)});
    EXPECT_EQ(planChain(rows, std::vector<SeamCosts>(
                                  3, uniformSeams(30000))),
              (std::vector<std::size_t>{0, 0, 0}));
    // Without seams the per-layer argmin goes blocked everywhere.
    EXPECT_EQ(planChain(rows, std::vector<SeamCosts>(3)),
              (std::vector<std::size_t>{1, 1, 1}));
}

TEST(ChainPlanner, FixedRowsShapeTheSeamsAroundThem)
{
    // The middle layer's NCHW candidate is 10us faster, but between
    // two fixed blocked layers it would cost two 30us seams. Fixed
    // layers measured no seams (as in a session), so the boundary
    // costs come from the raced layer: borrowed input-side upstream,
    // its own output side downstream.
    const SeamCosts middle = uniformSeams(30);
    std::vector<std::vector<PlanRow>> rows = {
        {blockedRow(0)}, {nchwRow(100), blockedRow(110)}, {blockedRow(0)}};
    std::vector<SeamCosts> seams = {SeamCosts{}, middle, SeamCosts{}};
    EXPECT_EQ(planChain(rows, seams),
              (std::vector<std::size_t>{0, 1, 0}));

    // Between fixed NCHW layers the same table keeps its NCHW win.
    rows.front() = {nchwRow(0)};
    rows.back() = {nchwRow(0)};
    EXPECT_EQ(planChain(rows, seams),
              (std::vector<std::size_t>{0, 0, 0}));
}

TEST(ChainPlanner, LargeNodeWinsGiveAnAllBlockedChain)
{
    // Each blocked node saves 50us; ingress + egress cost 60us in
    // total, far below the 150us the whole chain saves. No mixed
    // plan may win either: every interior seam would only add cost.
    const std::vector<std::vector<PlanRow>> rows(
        3, {nchwRow(100), blockedRow(50)});
    EXPECT_EQ(planChain(rows, std::vector<SeamCosts>(
                                  3, uniformSeams(30))),
              (std::vector<std::size_t>{1, 1, 1}));
}

/// Forwards everything to a registered backend and counts prepare
/// calls.
class CountingBackend : public ConvBackend
{
  public:
    CountingBackend(std::shared_ptr<const ConvBackend> inner,
                    std::atomic<int> *prepares)
        : inner_(std::move(inner)), prepares_(prepares)
    {}

    using ConvBackend::run;

    ConvEngine kind() const override { return inner_->kind(); }

    bool
    supports(const ConvLayerDesc &desc) const override
    {
        return inner_->supports(desc);
    }

    ActLayout
    inputLayout() const override
    {
        return inner_->inputLayout();
    }

    ActLayout
    outputLayout() const override
    {
        return inner_->outputLayout();
    }

    std::shared_ptr<const PreparedLayer>
    prepare(const ConvLayerDesc &desc, const TensorD &weights,
            const LayerBuild &build) const override
    {
        ++*prepares_;
        return inner_->prepare(desc, weights, build);
    }

    Shape
    outputShape(const PreparedLayer &prep,
                const Shape &input) const override
    {
        return inner_->outputShape(prep, input);
    }

    void
    run(const PreparedLayer &prep, const TensorD &input,
        ScratchArena &scratch, TensorD &out,
        const RunContext &ctx) const override
    {
        inner_->run(prep, input, scratch, out, ctx);
    }

    bool f16Storage() const override { return inner_->f16Storage(); }

    void
    runF16(const PreparedLayer &prep, const TensorF16 &input,
           ScratchArena &scratch, TensorF16 &out,
           const RunContext &ctx) const override
    {
        inner_->runF16(prep, input, scratch, out, ctx);
    }

  private:
    std::shared_ptr<const ConvBackend> inner_;
    std::atomic<int> *prepares_;
};

/// Wraps every registered backend in a CountingBackend for its
/// lifetime and restores the originals afterwards.
class PrepareCounter
{
  public:
    PrepareCounter()
    {
        EngineRegistry &registry = EngineRegistry::instance();
        for (ConvEngine e : kAllConvEngines) {
            originals_.push_back(registry.get(e));
            registry.registerBackend(std::make_shared<CountingBackend>(
                originals_.back(), &count_));
        }
    }

    PrepareCounter(const PrepareCounter &) = delete;
    PrepareCounter &operator=(const PrepareCounter &) = delete;

    ~PrepareCounter()
    {
        for (const std::shared_ptr<const ConvBackend> &b : originals_)
            EngineRegistry::instance().registerBackend(
                std::const_pointer_cast<ConvBackend>(b));
    }

    int count() const { return count_.load(); }

  private:
    std::vector<std::shared_ptr<const ConvBackend>> originals_;
    std::atomic<int> count_{0};
};

TEST(SessionBuild, PreparesEachLayerExactlyOnce)
{
    const NetworkDesc net = microServeNet(8, 4);
    const ConvBackend *im2col =
        EngineRegistry::instance().get(ConvEngine::Im2col).get();
    {
        PrepareCounter counter;
        SessionConfig cfg;
        cfg.defaultEngine = ConvEngine::WinogradBlocked;
        const Session session(net, cfg);
        EXPECT_EQ(counter.count(),
                  static_cast<int>(session.layerCount()))
            << "non-autoSelect build";
    }
    {
        // A fully cached autoSelect build whose cached winner differs
        // from the configured engine: the pick is prepared directly,
        // not after a throwaway prepare of the configured engine.
        SessionConfig cfg;
        cfg.autoSelect = true;
        cfg.autoSelectBatch = 2;
        PlanCache cache;
        cfg.planCache = &cache;
        for (const ConvLayerDesc &d : net.expandedLayers())
            if (d.winogradEligible())
                cache.store(PlanCache::layerKey(d, cfg.autoSelectBatch),
                            {ConvEngine::Im2col, WinoVariant::F4});
        PrepareCounter counter;
        const Session session(net, cfg);
        for (std::size_t i = 0; i < 3; ++i) {
            EXPECT_EQ(session.layerEngine(i), ConvEngine::Im2col);
            EXPECT_STREQ(session.layerPlan(i).source, "cache");
        }
        EXPECT_EQ(counter.count(),
                  static_cast<int>(session.layerCount()))
            << "fully cached autoSelect build";
    }
    // The original backends are registered again.
    EXPECT_EQ(EngineRegistry::instance().get(ConvEngine::Im2col).get(),
              im2col);
}

TEST(PShardedTapGemm, GemmColsIsBitIdenticalToWholeGemm)
{
    const std::size_t m = 13, k = 37, n = 300;
    const TensorD a = randomInput({m, k}, 1000);
    const TensorD b = randomInput({k, n}, 1001);
    TensorD whole({m, n});
    gemm::gemm(a.data(), b.data(), whole.data(), m, k, n);

    TensorD split({m, n});
    // Uneven thirds, including a non-multiple-of-kNr boundary.
    const std::size_t cuts[] = {0, 100, 171, n};
    for (std::size_t s = 0; s + 1 < 4; ++s) {
        const std::size_t j0 = cuts[s];
        gemm::gemmCols(a.data(), b.data() + j0, split.data() + j0, m,
                       k, cuts[s + 1] - j0, n, n);
    }
    EXPECT_TRUE(split == whole);
}

TEST(PShardedTapGemm, ParallelMatchesSerialBitExact)
{
    // 16 taps against 17 lanes: colShards > 1, so this exercises the
    // tap x P-block grid, not just tap sharding.
    ThreadPool pool(16);
    PoolRunner runner(pool, pool.size());

    const std::size_t cin = 24, cout = 24;
    const TensorD x = randomInput({4, cin, 16, 16}, 1100);
    const TensorD w = randomInput({cout, cin, 3, 3}, 1101);
    const WinogradTapWeights<double> taps =
        winogradPrepareTapWeights(w, WinoVariant::F2);

    TensorD V, U;
    winogradScatter(x, WinoVariant::F2, 1, V, U);

    TensorD mSerial, mParallel;
    winogradTapGemm(taps, U, mSerial);
    winogradTapGemm(taps, U, mParallel, &runner);
    EXPECT_TRUE(mParallel == mSerial)
        << "P-sharded NCHW tap GEMM differs from serial";

    // Same claim for the blocked-layout tap GEMM.
    const BlockedTapWeights bw = blockedTapWeights(taps);
    TensorD xb(blockedShape(x.shape()));
    nchwToBlocked(x, xb);
    TensorD Vb;
    winogradGatherTilesBlocked(xb, WinoVariant::F2, 1, Vb);
    TensorD mbSerial, mbParallel;
    winogradTapGemmBlocked(bw, Vb, mbSerial);
    winogradTapGemmBlocked(bw, Vb, mbParallel, &runner);
    EXPECT_TRUE(mbParallel == mbSerial)
        << "P-sharded blocked tap GEMM differs from serial";

    pool.shutdown();
}

TEST(BlockedChunkScratch, DoesNotGrowWithBatchSize)
{
    // One image of this layer already fills several chunks, so the
    // chunk buffers reach their full size at N = 1; at N = 8 only the
    // int8 engine's whole-input quantized copy (xq) may grow.
    ConvLayerDesc desc;
    desc.name = "wide";
    desc.cin = 16;
    desc.cout = 16;
    desc.kernel = 3;
    desc.stride = 1;
    desc.height = 64;
    desc.width = 64;
    const TensorD weights = randomInput({16, 16, 3, 3}, 1200);
    std::vector<TensorD> calibration{randomInput({1, 16, 64, 64}, 1201)};
    LayerBuild build;
    build.params = ConvParams{3, 1, 1};
    build.variant = WinoVariant::F4;
    build.quant.variant = WinoVariant::F4;
    build.quant.pow2Scales = true;
    build.calibration = &calibration;

    for (const ConvEngine engine :
         {ConvEngine::WinogradBlocked, ConvEngine::WinogradBlockedInt8}) {
        const std::shared_ptr<const ConvBackend> backend =
            EngineRegistry::instance().get(engine);
        const auto prep = backend->prepare(desc, weights, build);
        ScratchArena scratch;
        std::size_t bytes[2] = {};
        std::size_t inputElems[2] = {};
        for (const std::size_t n : {std::size_t{1}, std::size_t{8}}) {
            const TensorD x = randomInput({n, 16, 64, 64}, 1202 + n);
            TensorD xb(blockedShape(x.shape()));
            nchwToBlocked(x, xb);
            TensorD out(backend->outputShape(*prep, xb.shape()));
            backend->run(*prep, xb, scratch, out, RunContext{});
            bytes[n > 1] = scratch.bytes();
            inputElems[n > 1] = xb.numel();
        }
        const std::size_t xqGrowth =
            engine == ConvEngine::WinogradBlockedInt8
                ? (inputElems[1] - inputElems[0]) * sizeof(std::int32_t)
                : 0;
        EXPECT_GT(bytes[0], 0u) << convEngineName(engine);
        EXPECT_EQ(bytes[1], bytes[0] + xqGrowth) << convEngineName(engine);
    }
}

} // namespace
} // namespace twq
