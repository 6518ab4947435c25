#include "runtime/session.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "common/logging.hh"
#include "common/rng.hh"
#include "layout/kernels_f16.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "winograd/bitwidth.hh"
#include "xform/fuse.hh"

namespace twq
{

namespace
{

/** "Same"-style padding for the zoo's odd kernel sizes (1/3/7). */
ConvParams
paramsFor(const ConvLayerDesc &desc)
{
    return ConvParams{desc.kernel, desc.stride, (desc.kernel - 1) / 2};
}

TensorD
heInitWeights(const ConvLayerDesc &desc, std::uint64_t seed)
{
    TensorD w({desc.cout, desc.cin, desc.kernel, desc.kernel});
    const double stddev = std::sqrt(
        2.0 / static_cast<double>(desc.cin * desc.kernel * desc.kernel));
    Rng rng(seed);
    rng.fillNormal(w.storage(), 0.0, stddev);
    return w;
}

/**
 * Deterministic per-channel bias for an absorbed Bias node, seeded by
 * the node's position in the source chain so fused and unfused
 * sessions draw identical values.
 */
std::vector<double>
biasInit(std::size_t cout, std::uint64_t seed)
{
    std::vector<double> b(cout);
    Rng rng(seed);
    rng.fillNormal(b, 0.0, 0.1);
    return b;
}

/**
 * Separate-pass epilogue over an NCHW activation — the unfused
 * baseline. Bias is added only when present (adding a literal 0.0
 * would flip -0.0 outputs to +0.0 and break bit-identity with the
 * fused path).
 */
void
applyEpilogueNchw(TensorD &t, const Epilogue &e)
{
    if (e.bias.empty() && !e.relu)
        return;
    const std::size_t n = t.dim(0);
    const std::size_t c = t.dim(1);
    const std::size_t hw = t.dim(2) * t.dim(3);
    const bool hasBias = !e.bias.empty();
    double *p = t.data();
    for (std::size_t in = 0; in < n; ++in)
        for (std::size_t ch = 0; ch < c; ++ch) {
            double *row = p + (in * c + ch) * hw;
            const double bc = hasBias ? e.bias[ch] : 0.0;
            for (std::size_t i = 0; i < hw; ++i) {
                double v = row[i];
                if (hasBias)
                    v += bc;
                if (e.relu && v < 0.0)
                    v = 0.0;
                row[i] = v;
            }
        }
}

/**
 * Separate-pass epilogue over an NCHWc8 activation. Tail lanes of a
 * partial channel block stay zero — biasing them would pollute the
 * layout invariant every blocked consumer relies on.
 */
void
applyEpilogueBlocked(TensorD &t, std::size_t cout, const Epilogue &e)
{
    if (e.bias.empty() && !e.relu)
        return;
    const std::size_t n = t.dim(0);
    const std::size_t cb = t.dim(1);
    const std::size_t hw = t.dim(2) * t.dim(3);
    const bool hasBias = !e.bias.empty();
    double *p = t.data();
    for (std::size_t in = 0; in < n; ++in)
        for (std::size_t b = 0; b < cb; ++b) {
            double *plane = p + (in * cb + b) * hw * kLayoutBlock;
            const std::size_t lanes =
                std::min(kLayoutBlock, cout - b * kLayoutBlock);
            for (std::size_t i = 0; i < hw; ++i)
                for (std::size_t l = 0; l < lanes; ++l) {
                    double v = plane[i * kLayoutBlock + l];
                    if (hasBias)
                        v += e.bias[b * kLayoutBlock + l];
                    if (e.relu && v < 0.0)
                        v = 0.0;
                    plane[i * kLayoutBlock + l] = v;
                }
        }
}

} // namespace

Session::Session(const NetworkDesc &net, const SessionConfig &cfg)
    : net_(net), cfg_(cfg)
{
    const std::vector<ConvLayerDesc> descs = net.expandedLayers();
    twq_assert(!descs.empty(), "session on an empty network");
    // Dataflow pass: collapse conv→bias[→relu] runs of the chain into
    // fused groups. The plan is computed unconditionally (it also
    // validates post-op geometry); fuseEpilogues only decides whether
    // the epilogue executes inside the conv engine's output write or
    // as separate session-level passes.
    const std::vector<FusedLayer> fusedPlan = planEpilogueFusion(descs);

    // Arm the tracer before the build so autoSelect probe spans land
    // in the trace; the destructor flushes to cfg_.tracePath.
    if (!cfg_.tracePath.empty()) {
        obs::TraceCollector::global().enable(cfg_.traceRingSlots);
        traceArmed_ = true;
    }

    inputShape_ = {1, descs[0].cin, descs[0].height, descs[0].width};

    // Pass 1: validate the chain, draw weights, resolve engines.
    const EngineRegistry &registry = EngineRegistry::instance();
    std::size_t c = descs[0].cin;
    std::size_t h = descs[0].height;
    std::size_t w = descs[0].width;
    std::vector<TensorD> weights;
    std::vector<bool> pinned(fusedPlan.size(), false); ///< explicit override
    weights.reserve(fusedPlan.size());
    layers_.reserve(fusedPlan.size());
    for (std::size_t i = 0; i < fusedPlan.size(); ++i) {
        const FusedLayer &fuse = fusedPlan[i];
        const ConvLayerDesc &d = descs[fuse.conv];
        if (d.cin != c || d.height != h || d.width != w)
            twq_fatal("network '", net.name, "' does not chain at layer ",
                      d.name, ": expects [", d.cin, ", ", d.height, ", ",
                      d.width, "], previous layer produces [", c, ", ", h,
                      ", ", w, "]");

        Layer layer;
        layer.desc = d;
        layer.params = paramsFor(d);

        // Ineligible layers fall back to im2col — the int8 flavor
        // when the session's default path is quantized, so quantized
        // sessions stay quantized end to end.
        const bool quantizedDefault =
            cfg.defaultEngine == ConvEngine::WinogradBlockedInt8 ||
            cfg.defaultEngine == ConvEngine::Im2colInt8;
        const ConvEngine fallback =
            quantizedDefault && cfg.int8Fallback
                ? ConvEngine::Im2colInt8
                : ConvEngine::Im2col;
        ConvEngine engine =
            d.winogradEligible() ? cfg.defaultEngine : fallback;
        if (auto it = cfg.layerEngines.find(d.name);
            it != cfg.layerEngines.end()) {
            engine = it->second;
            pinned[i] = true;
            layer.planSource = "configured";
        }
        std::shared_ptr<const ConvBackend> backend = registry.get(engine);
        if (!backend->supports(d)) {
            twq_warn("engine ", convEngineName(engine),
                     " does not support layer ", d.name,
                     "; falling back to im2col");
            engine = ConvEngine::Im2col;
            backend = registry.get(engine);
        }
        layer.engine = engine;
        layer.variant = cfg.variant;
        layer.backend = std::move(backend);
        // The epilogue's bias is seeded by the Bias node's position in
        // the SOURCE chain (like conv weights by theirs), so it is
        // identical however the plan groups the nodes.
        if (fuse.bias)
            layer.epilogue.bias = biasInit(
                d.cout, cfg.weightSeed ^ (0xb1a5ull << 32) ^
                            static_cast<std::uint64_t>(fuse.conv + 1));
        layer.epilogue.relu = fuse.relu;
        layer.activation = ScratchArena::resolve(
            "session.act:" + net.name + ":" + d.name);
        layer.convert = ScratchArena::resolve(
            "session.cvt:" + net.name + ":" + d.name);
        layer.activationH = ScratchArena::resolve(
            "session.acth:" + net.name + ":" + d.name);
        layer.convertH = ScratchArena::resolve(
            "session.cvth:" + net.name + ":" + d.name);
        layer.widen = ScratchArena::resolve(
            "session.wid:" + net.name + ":" + d.name);
        layer.spanName = "layer:" + d.name;
        layer.latency = &obs::Registry::global().histogram(
            "layer." + net.name + "." + d.name + ".latency_ns");
        layers_.push_back(std::move(layer));

        weights.push_back(heInitWeights(d, cfg.weightSeed + fuse.conv));

        c = d.cout;
        h = d.outHeight();
        w = d.outWidth();
    }
    outputShape_ = {1, c, h, w};

    // Pass 2: propagate calibration activations layer by layer (the
    // int8 engine calibrates its scales on the activations this layer
    // actually sees) and run each backend's one-time prepare(). The
    // calibration forward pass is only paid up to the last int8
    // layer; a session with none skips it entirely.
    std::size_t calEnd = 0;
    for (std::size_t i = 0; i < layers_.size(); ++i)
        if (layers_[i].engine == ConvEngine::WinogradBlockedInt8 ||
            layers_[i].engine == ConvEngine::Im2colInt8)
            calEnd = i + 1;
    TensorD cal;
    if (calEnd > 0) {
        Rng calRng(cfg.calibrationSeed);
        cal = TensorD({std::max<std::size_t>(cfg.calibrationSamples, 1),
                       inputShape_[1], inputShape_[2], inputShape_[3]});
        calRng.fillNormal(cal.storage(), 0.0, 1.0);
    }

    // Plan cache resolution: a configured path loads before the build
    // (a missing, malformed, or stale-signature file simply re-probes)
    // and saves after it whenever the build added or refreshed plans.
    PlanCache *cache = cfg.planCache;
    if (!cfg_.planCachePath.empty()) {
        if (!cache) {
            ownedCache_ = std::make_unique<PlanCache>();
            cache = ownedCache_.get();
        }
        cache->loadFile(cfg_.planCachePath);
    }
    const std::uint64_t cacheRev0 = cache ? cache->revision() : 0;

    // Selection state retained across the layer loop for the
    // chain-aware layout DP: each raced layer's measured candidate
    // table, the NCHW↔NCHWc8 conversion costs at its boundary
    // shapes, and the calibration set needed to re-prepare a layer
    // when the joint plan overrides its per-layer argmin.
    struct PlanState
    {
        bool raced = false;
        std::vector<PlanCache::Cand> cands;
        std::uint64_t inToBlockedNs = 0;
        std::uint64_t inToNchwNs = 0;
        std::uint64_t outToBlockedNs = 0;
        std::uint64_t outToNchwNs = 0;
        std::vector<TensorD> calSet;
        /// The race's shared calibration statistics, kept alive so a
        /// DP re-prepare hits the same cached passes instead of
        /// recomputing them (points into calSet above — stable, the
        /// plans vector is never resized).
        std::unique_ptr<CalibrationCache> calCache;
    };
    std::vector<PlanState> plans(layers_.size());

    for (std::size_t i = 0; i < layers_.size(); ++i) {
        Layer &layer = layers_[i];

        // ConvEngine-auto policy membership: raced layers start on
        // the configured engine and variant, which is prepared first
        // and wins exact ties; the race measures the full set.
        const bool fpRace =
            layer.engine == ConvEngine::WinogradFp32 ||
            layer.engine == ConvEngine::WinogradBlocked;
        const bool quantRace =
            layer.engine == ConvEngine::WinogradBlockedInt8;
        const bool raced =
            cfg.autoSelect && !pinned[i] && (fpRace || quantRace);

        LayerBuild build;
        build.params = layer.params;
        build.variant = layer.variant;
        build.quant = cfg.quant;
        // Fused sessions fold the planned epilogue into the engine's
        // output write; unfused ones keep prepare() epilogue-free and
        // pay the separate passes in runInto.
        if (cfg.fuseEpilogues)
            build.epilogue = layer.epilogue;
        if (cfg.fuseEpilogues && layer.epilogue.active())
            obs::Registry::global()
                .counter("session.fused_epilogues")
                .inc();
        // The calibration set lives in the plan state (not a loop
        // local) so the chain DP can re-prepare a quantized layer
        // after the loop has propagated `cal` past it.
        std::vector<TensorD> &calSet = plans[i].calSet;
        // Shared calibration statistics for every prepare() of this
        // layer: autoSelect races up to three quantized candidates,
        // and without the cache each one would redo the abs-max,
        // fake-quantization, and tap-maxima passes over the same
        // calibration set (~7 passes per layer instead of 4).
        // Results are bit-identical with or without it.
        plans[i].calCache = std::make_unique<CalibrationCache>(&calSet);
        CalibrationCache &layerCal = *plans[i].calCache;
        if (i < calEnd) {
            calSet.push_back(cal);
            build.calibration = &calSet;
            build.calCache = &layerCal;
        }
        layer.prepared =
            layer.backend->prepare(layer.desc, weights[i], build);
        twq_assert(layer.prepared, "backend returned no prepared state");

        // ConvEngine-auto policy: race this layer's assigned engine
        // against the rest of its candidate set, keeping the fastest
        // measured candidate — the policy picks engine, Winograd
        // variant and activation layout together. FP Winograd layers
        // race im2col and every Winograd variant (F2/F4/F6) of the
        // NCHW and NCHWc8-blocked FP backends; quantized Winograd
        // layers race the quantized counterparts (blocked
        // int-winograd — variants clamped by the bitwidth model's
        // int8 eligibility gate, which excludes F6 — and
        // im2col-int8), never an FP engine, which would silently
        // drop the quantization the config asked for. Blocked
        // candidates are timed on a blocked probe — the steady-state
        // input layout propagation hands them inside a blocked
        // chain. Boundary conversions are not charged to the layer
        // here; the probe also measures the NCHW↔NCHWc8 conversion
        // costs at the layer's boundary shapes so the chain DP below
        // can charge them on the seams where they actually occur.
        // Ineligible layers never reach here with a raceable engine,
        // so they always stay on their fallback. A plan-cache hit
        // applies a previously measured decision (winner, candidate
        // table, and conversion costs) without re-running the probe.
        if (raced) {
            // The candidate set this race draws from — and the only
            // cached decisions it will apply: a foreign or corrupted
            // cache entry (e.g. a quantized engine for an FP layer,
            // whose prepare() needs calibration the FP path never
            // built) is ignored and the layer re-probed.
            const auto raceable = [&](ConvEngine e) {
                if (fpRace)
                    return e == ConvEngine::Im2col ||
                           e == ConvEngine::WinogradFp32 ||
                           e == ConvEngine::WinogradBlocked ||
                           (cfg.raceF16 &&
                            e == ConvEngine::WinogradBlockedF16);
                return e == ConvEngine::Im2colInt8 ||
                       e == ConvEngine::WinogradBlockedInt8;
            };
            bool applied = false;
            std::string planKey;
            if (cache) {
                planKey = PlanCache::layerKey(
                    layer.desc, cfg.autoSelectBatch, quantRace);
                // Keyed apart from plain races: a fused epilogue adds
                // work to the timed output write, and the f16 race has
                // a wider candidate set — reusing one key across these
                // policies would thrash the cache entry on every
                // alternating build.
                if (cfg.fuseEpilogues && layer.epilogue.active())
                    planKey += ":fe";
                if (fpRace && cfg.raceF16)
                    planKey += ":h";
                PlanCache::Decision hit;
                if (cache->lookup(planKey, &hit) &&
                    raceable(hit.engine)) {
                    std::shared_ptr<const ConvBackend> b =
                        registry.get(hit.engine);
                    if (b->supports(layer.desc)) {
                        if (hit.engine != layer.engine ||
                            hit.variant != layer.variant) {
                            LayerBuild cbuild = build;
                            cbuild.variant = hit.variant;
                            layer.prepared = b->prepare(
                                layer.desc, weights[i], cbuild);
                        }
                        layer.engine = hit.engine;
                        layer.variant = hit.variant;
                        layer.backend = std::move(b);
                        // Provenance travels with the cached plan so
                        // /statusz can show why it won even though
                        // this process never probed.
                        layer.planSource = "cache";
                        layer.planProbeNs = hit.probeNs;
                        layer.planCounters.cycles = hit.cycles;
                        layer.planCounters.instructions =
                            hit.instructions;
                        layer.planCounters.cacheRefs = hit.cacheRefs;
                        layer.planCounters.cacheMisses =
                            hit.cacheMisses;
                        layer.planCounters.valid =
                            hit.cycles != 0 || hit.instructions != 0;
                        applied = true;
                        obs::Registry::global()
                            .counter("autoselect.cache_hit")
                            .inc();
                        // A cached candidate table (and conversion
                        // costs) re-enters the chain DP with zero
                        // re-measurement; a winner-only entry (empty
                        // or fully filtered table) is adopted
                        // verbatim and stays fixed in the DP.
                        plans[i].inToBlockedNs = hit.inToBlockedNs;
                        plans[i].inToNchwNs = hit.inToNchwNs;
                        plans[i].outToBlockedNs = hit.outToBlockedNs;
                        plans[i].outToNchwNs = hit.outToNchwNs;
                        for (const PlanCache::Cand &cc : hit.table)
                            if (raceable(cc.engine) &&
                                registry.get(cc.engine)
                                    ->supports(layer.desc))
                                plans[i].cands.push_back(cc);
                        plans[i].raced = plans[i].cands.size() > 1;
                    }
                }
            }
            if (!applied) {
                // Counts probed layers (cache misses, stale entries
                // the raceable() guard rejected, and cacheless
                // builds alike).
                obs::Registry::global()
                    .counter("autoselect.cache_miss")
                    .inc();
                // The contract a tuned plan cache is judged by: one
                // tick per layer whose candidate race actually ran
                // in this process. A cold build against a fully
                // tuned cache reads zero here.
                obs::Registry::global().counter("plan.probes").inc();
                TensorD probe(
                    {std::max<std::size_t>(cfg.autoSelectBatch, 1),
                     layer.desc.cin, layer.desc.height,
                     layer.desc.width});
                Rng probeRng(cfg.calibrationSeed ^ (0x9e3779b9ull + i));
                probeRng.fillNormal(probe.storage(), 0.0, 1.0);
                TensorD probeBlocked;
                ScratchArena probeArena;

                struct Candidate
                {
                    ConvEngine engine;
                    WinoVariant variant;
                    std::shared_ptr<const ConvBackend> backend;
                    std::shared_ptr<const PreparedLayer> prepared;
                };
                std::vector<Candidate> cands;
                cands.push_back({layer.engine, layer.variant,
                                 layer.backend, layer.prepared});
                const auto addCandidate = [&](ConvEngine e,
                                              WinoVariant v) {
                    if (e == cands[0].engine && v == cands[0].variant)
                        return; // already racing as the incumbent
                    Candidate c;
                    c.engine = e;
                    c.variant = v;
                    c.backend = registry.get(e);
                    LayerBuild vbuild = build;
                    vbuild.variant = v;
                    c.prepared = c.backend->prepare(layer.desc,
                                                    weights[i], vbuild);
                    cands.push_back(std::move(c));
                };
                if (fpRace) {
                    for (WinoVariant v : kAllWinoVariants) {
                        addCandidate(ConvEngine::WinogradFp32, v);
                        addCandidate(ConvEngine::WinogradBlocked, v);
                        if (cfg.raceF16)
                            addCandidate(
                                ConvEngine::WinogradBlockedF16, v);
                    }
                    addCandidate(ConvEngine::Im2col, cfg.variant);
                } else {
                    // Variants outside the bitwidth model's int8
                    // envelope (F6 always — its transforms are not
                    // integer) never enter the quantized race.
                    for (WinoVariant v : kAllWinoVariants) {
                        if (!winoInt8Eligible(v,
                                              cfg.quant.winogradBits,
                                              layer.desc.cin))
                            continue;
                        addCandidate(ConvEngine::WinogradBlockedInt8,
                                     v);
                    }
                    addCandidate(ConvEngine::Im2colInt8,
                                 cfg.variant);
                }

                const auto probeFor =
                    [&](const Candidate &c) -> const TensorD * {
                    if (c.backend->inputLayout() != ActLayout::NCHWc8)
                        return &probe;
                    if (probeBlocked.numel() == 0) {
                        probeBlocked =
                            TensorD(blockedShape(probe.shape()));
                        nchwToBlocked(probe, probeBlocked);
                    }
                    return &probeBlocked;
                };
                // f16 candidates are timed on their native binary16
                // hot path with a pre-narrowed probe — symmetric with
                // blocked candidates getting a blocked probe: steady-
                // state layout/storage propagation hands them halves
                // inside an f16 chain, and boundary conversions are
                // a seam cost not charged to the layer.
                TensorF16 probeHalf;
                const auto timeCand = [&](const Candidate &c,
                                          ScratchArena &arena) {
                    if (!c.backend->f16Storage())
                        return timeBackendRun(*c.backend, *c.prepared,
                                              *probeFor(c), arena, 1);
                    if (probeHalf.numel() == 0) {
                        const TensorD *pb = probeFor(c);
                        probeHalf = TensorF16(pb->shape());
                        tensorDToF16(*pb, probeHalf);
                    }
                    return timeBackendRunF16(*c.backend, *c.prepared,
                                             probeHalf, arena, 1);
                };
                // Interleaved best-of rounds: timing the candidates
                // back-to-back would hand the last one warmed caches
                // and a ramped-up clock; round-robin rounds spread
                // those drifts symmetrically, and each candidate
                // keeps its best round (timeBackendRun additionally
                // precedes every timed run with an untimed warmup).
                std::vector<double> bestT(
                    cands.size(),
                    std::numeric_limits<double>::infinity());
                // Hardware counters ride each probe run (a cheap
                // reset/enable ioctl pair when available, a no-op
                // otherwise); each candidate keeps the counters of
                // its best-time round, so the persisted provenance
                // describes the run that actually won.
                std::vector<obs::PerfCounters> bestC(cands.size());
                for (int round = 0; round < 3; ++round)
                    for (std::size_t ci = 0; ci < cands.size();
                         ++ci) {
                        TWQ_SPAN_ARG(
                            "autoselect.probe",
                            static_cast<std::int64_t>(ci));
                        obs::PerfScope perf;
                        const double t =
                            timeCand(cands[ci], probeArena);
                        const obs::PerfCounters pc = perf.stop();
                        if (t < bestT[ci]) {
                            bestT[ci] = t;
                            bestC[ci] = pc;
                        }
                    }
                std::size_t best = 0;
                for (std::size_t ci = 1; ci < cands.size(); ++ci)
                    if (bestT[ci] < bestT[best])
                        best = ci;
                obs::traceInstant("autoselect.pick",
                                  static_cast<std::int64_t>(best));
                layer.engine = cands[best].engine;
                layer.variant = cands[best].variant;
                layer.backend = std::move(cands[best].backend);
                layer.prepared = std::move(cands[best].prepared);
                layer.planSource = "probed";
                layer.planProbeNs =
                    bestT[best] <
                            std::numeric_limits<double>::infinity()
                        ? static_cast<std::uint64_t>(bestT[best] *
                                                     1e9)
                        : 0;
                layer.planCounters = bestC[best];

                // Record the full table for the chain DP (and the
                // cache): every candidate with its best round, in
                // race order.
                plans[i].raced = cands.size() > 1;
                for (std::size_t ci = 0; ci < cands.size(); ++ci)
                    plans[i].cands.push_back(
                        {cands[ci].engine, cands[ci].variant,
                         bestT[ci] <
                                 std::numeric_limits<
                                     double>::infinity()
                             ? static_cast<std::uint64_t>(
                                   bestT[ci] * 1e9)
                             : 0});

                // Seam conversion costs on the same probe data
                // (best of 3): NCHW↔NCHWc8 at the input shape and at
                // the output shape. The chain DP charges these
                // wherever adjacent picks disagree on layout; the
                // boundary between two layers is one shape, so a
                // neighbor missing its own measurement borrows this
                // one.
                const auto timeConvNs = [](auto &&fn) {
                    using clock = std::chrono::steady_clock;
                    std::uint64_t best = ~std::uint64_t{0};
                    for (int r = 0; r < 3; ++r) {
                        const auto t0 = clock::now();
                        fn();
                        const auto t1 = clock::now();
                        best = std::min(
                            best,
                            static_cast<std::uint64_t>(
                                std::chrono::duration_cast<
                                    std::chrono::nanoseconds>(t1 - t0)
                                    .count()));
                    }
                    return best;
                };
                TensorD cvtBlocked(blockedShape(probe.shape()));
                TensorD cvtNchw(probe.shape());
                plans[i].inToBlockedNs = timeConvNs(
                    [&] { nchwToBlocked(probe, cvtBlocked); });
                plans[i].inToNchwNs = timeConvNs(
                    [&] { blockedToNchw(cvtBlocked, cvtNchw); });
                TensorD outNchw(
                    {std::max<std::size_t>(cfg.autoSelectBatch, 1),
                     layer.desc.cout, layer.desc.outHeight(),
                     layer.desc.outWidth()});
                probeRng.fillNormal(outNchw.storage(), 0.0, 1.0);
                TensorD outBlocked(blockedShape(outNchw.shape()));
                plans[i].outToBlockedNs = timeConvNs(
                    [&] { nchwToBlocked(outNchw, outBlocked); });
                plans[i].outToNchwNs = timeConvNs(
                    [&] { blockedToNchw(outBlocked, outNchw); });

                if (cache) {
                    PlanCache::Decision d;
                    d.engine = layer.engine;
                    d.variant = layer.variant;
                    d.probeNs = layer.planProbeNs;
                    if (layer.planCounters.valid) {
                        d.cycles = layer.planCounters.cycles;
                        d.instructions =
                            layer.planCounters.instructions;
                        d.cacheRefs = layer.planCounters.cacheRefs;
                        d.cacheMisses =
                            layer.planCounters.cacheMisses;
                    }
                    d.inToBlockedNs = plans[i].inToBlockedNs;
                    d.inToNchwNs = plans[i].inToNchwNs;
                    d.outToBlockedNs = plans[i].outToBlockedNs;
                    d.outToNchwNs = plans[i].outToNchwNs;
                    d.table = plans[i].cands;
                    cache->store(planKey, d);
                }
            }
        }

        // Layout plan: read the final backend's contract once; the
        // serving loop converts only where consecutive layers
        // disagree.
        layer.layout = {layer.backend->inputLayout(),
                        layer.backend->outputLayout()};

        if (i + 1 < calEnd) {
            cal = conv2dIm2col(cal, weights[i], layer.params);
            // Downstream int8 layers must calibrate on the
            // activations they actually receive — bias and ReLU
            // included, whether fused or separate at run time.
            applyEpilogueNchw(cal, layer.epilogue);
        }
    }

    // Chain-aware layout planning: the per-layer argmin applied above
    // is blind to seams — a blocked candidate that wins its layer by
    // less than the NCHW↔NCHWc8 conversions it forces on its
    // neighbors loses net. Re-decide the raced layers jointly with a
    // Viterbi pass over the measured candidate tables: node cost is
    // the candidate's probe time, edge cost the measured conversion
    // at the boundary shape wherever consecutive picks disagree on
    // layout, plus chain ingress/egress (the session's outer contract
    // is NCHW on both ends). Fixed layers (pinned, non-raced,
    // winner-only cache entries) participate as single-candidate
    // nodes so their layout still shapes the seams around them.
    // Everything here is arithmetic over numbers already measured —
    // a fully cached build decides the whole chain without a single
    // timed run. (The f16 engine's widen/narrow storage seam is not
    // modeled; it rides the blocked layout.)
    if (cfg.autoSelect && cfg.chainDp && !layers_.empty()) {
        struct Node
        {
            ConvEngine engine;
            WinoVariant variant;
            double ns;
            ActLayout in;
            ActLayout out;
        };
        const std::size_t L = layers_.size();
        std::vector<std::vector<Node>> nodes(L);
        for (std::size_t i = 0; i < L; ++i) {
            if (plans[i].raced) {
                for (const PlanCache::Cand &c : plans[i].cands) {
                    const ConvBackend &b = *registry.get(c.engine);
                    nodes[i].push_back(
                        {c.engine, c.variant,
                         static_cast<double>(c.ns), b.inputLayout(),
                         b.outputLayout()});
                }
            } else {
                nodes[i].push_back({layers_[i].engine,
                                    layers_[i].variant, 0.0,
                                    layers_[i].backend->inputLayout(),
                                    layers_[i].backend->outputLayout()});
            }
        }
        // The boundary between layers i-1 and i is one shape (i-1's
        // output is i's input), so prefer the upstream layer's
        // output-shape measurement and borrow the downstream layer's
        // input-shape one when the upstream never measured.
        const auto seam = [&](std::size_t i, ActLayout prod,
                              ActLayout cons) -> double {
            if (prod == cons)
                return 0.0;
            const PlanState &up = plans[i - 1];
            const PlanState &dn = plans[i];
            const bool useUp =
                up.outToBlockedNs != 0 || up.outToNchwNs != 0;
            const std::uint64_t c =
                cons == ActLayout::NCHWc8
                    ? (useUp ? up.outToBlockedNs : dn.inToBlockedNs)
                    : (useUp ? up.outToNchwNs : dn.inToNchwNs);
            return static_cast<double>(c);
        };
        std::vector<std::vector<double>> cost(L);
        std::vector<std::vector<std::size_t>> from(L);
        for (std::size_t b = 0; b < nodes[0].size(); ++b) {
            const Node &n = nodes[0][b];
            cost[0].push_back(
                n.ns + (n.in == ActLayout::NCHWc8
                            ? static_cast<double>(
                                  plans[0].inToBlockedNs)
                            : 0.0));
            from[0].push_back(0);
        }
        for (std::size_t i = 1; i < L; ++i) {
            for (std::size_t b = 0; b < nodes[i].size(); ++b) {
                const Node &n = nodes[i][b];
                double bestCost =
                    std::numeric_limits<double>::infinity();
                std::size_t bestFrom = 0;
                for (std::size_t a = 0; a < nodes[i - 1].size();
                     ++a) {
                    const double t = cost[i - 1][a] +
                                     seam(i, nodes[i - 1][a].out,
                                          n.in);
                    if (t < bestCost) {
                        bestCost = t;
                        bestFrom = a;
                    }
                }
                cost[i].push_back(bestCost + n.ns);
                from[i].push_back(bestFrom);
            }
        }
        std::size_t pickLast = 0;
        double bestTotal = std::numeric_limits<double>::infinity();
        for (std::size_t b = 0; b < nodes[L - 1].size(); ++b) {
            const double t =
                cost[L - 1][b] +
                (nodes[L - 1][b].out == ActLayout::NCHWc8
                     ? static_cast<double>(plans[L - 1].outToNchwNs)
                     : 0.0);
            if (t < bestTotal) {
                bestTotal = t;
                pickLast = b;
            }
        }
        std::vector<std::size_t> pick(L, 0);
        pick[L - 1] = pickLast;
        for (std::size_t i = L - 1; i > 0; --i)
            pick[i - 1] = from[i][pick[i]];
        for (std::size_t i = 0; i < L; ++i) {
            if (!plans[i].raced)
                continue;
            const Node &n = nodes[i][pick[i]];
            Layer &layer = layers_[i];
            if (n.engine == layer.engine &&
                n.variant == layer.variant)
                continue;
            // The joint plan overrode this layer's local argmin:
            // re-prepare the chosen candidate from the retained
            // build materials. planSource stays what decided the
            // table ("probed"/"cache") — no new measurement ran.
            obs::Registry::global()
                .counter("autoselect.chain_dp_override")
                .inc();
            std::shared_ptr<const ConvBackend> b =
                registry.get(n.engine);
            LayerBuild rb;
            rb.params = layer.params;
            rb.variant = n.variant;
            rb.quant = cfg.quant;
            if (cfg.fuseEpilogues)
                rb.epilogue = layer.epilogue;
            if (!plans[i].calSet.empty()) {
                rb.calibration = &plans[i].calSet;
                rb.calCache = plans[i].calCache.get();
            }
            layer.prepared =
                b->prepare(layer.desc, weights[i], rb);
            twq_assert(layer.prepared,
                       "backend returned no prepared state");
            layer.engine = n.engine;
            layer.variant = n.variant;
            layer.backend = std::move(b);
            layer.layout = {layer.backend->inputLayout(),
                            layer.backend->outputLayout()};
            layer.planProbeNs = plans[i].cands[pick[i]].ns;
            // The provenance counters described the local winner's
            // probe, not this pick's; drop rather than misattribute.
            layer.planCounters = obs::PerfCounters{};
        }
    }

    // Persist newly measured plans so the next build (a restarted
    // server, an identical replica) skips the probes entirely.
    if (cache && !cfg_.planCachePath.empty() &&
        cache->revision() != cacheRev0)
        cache->saveFile(cfg_.planCachePath);
}

Session::~Session()
{
    // writeJson disables tracing before draining the rings, so spans
    // racing the flush from still-live workers are simply cut off.
    if (traceArmed_)
        obs::TraceCollector::global().writeJson(cfg_.tracePath);
}

const ConvLayerDesc &
Session::layerDesc(std::size_t i) const
{
    twq_assert(i < layers_.size(), "layer index out of range");
    return layers_[i].desc;
}

ConvEngine
Session::layerEngine(std::size_t i) const
{
    twq_assert(i < layers_.size(), "layer index out of range");
    return layers_[i].engine;
}

WinoVariant
Session::layerVariant(std::size_t i) const
{
    twq_assert(i < layers_.size(), "layer index out of range");
    return layers_[i].variant;
}

const LayoutPlan &
Session::layerLayout(std::size_t i) const
{
    twq_assert(i < layers_.size(), "layer index out of range");
    return layers_[i].layout;
}

LayerPlanInfo
Session::layerPlan(std::size_t i) const
{
    twq_assert(i < layers_.size(), "layer index out of range");
    const Layer &layer = layers_[i];
    LayerPlanInfo info;
    info.name = layer.desc.name;
    info.engine = layer.engine;
    info.variant = layer.variant;
    info.source = layer.planSource;
    info.probeNs = layer.planProbeNs;
    info.counters = layer.planCounters;
    return info;
}

const Epilogue &
Session::layerEpilogue(std::size_t i) const
{
    twq_assert(i < layers_.size(), "layer index out of range");
    return layers_[i].epilogue;
}

void
Session::runInto(const TensorD &batch, ScratchArena &scratch,
                 const RunContext &ctx, TensorD &out) const
{
    twq_assert(batch.rank() == 4, "session input must be NCHW");
    twq_assert(batch.dim(1) == inputShape_[1] &&
                   batch.dim(2) == inputShape_[2] &&
                   batch.dim(3) == inputShape_[3],
               "request shape does not match the session's network");
    // Intermediate activations live in per-layer arena slots (written
    // by one layer, read by the next); the final layer writes into
    // the caller's buffer, so a steady stream of batches through
    // runInto reallocates nothing at all. Activations travel in each
    // backend's native layout: a conversion happens only where a
    // layer's input layout disagrees with its producer (the network's
    // NCHW ingress/egress included), so a chain of blocked layers
    // stays blocked end to end.
    const TensorD *cur = &batch;
    // Inside an f16-storage chain the live activation is `curH`
    // (binary16, NCHWc8) and `cur` is stale; everywhere else curH is
    // null. Consecutive f16 layers hand halves straight through —
    // that is the halved inter-layer activation bandwidth — and
    // conversions happen only at storage seams.
    const TensorF16 *curH = nullptr;
    ActLayout curLayout = ActLayout::NCHW;
    const std::size_t last = layers_.size() - 1;
    for (std::size_t i = 0; i < layers_.size(); ++i) {
        const Layer &layer = layers_[i];
        TWQ_SPAN(layer.spanName.c_str());
        // Per-layer latency histogram; the clock reads vanish in
        // TWQ_NO_OBS builds along with the stubbed record().
        [[maybe_unused]] std::chrono::steady_clock::time_point lt0;
        if constexpr (obs::kEnabled)
            lt0 = std::chrono::steady_clock::now();
        struct LayerTimer
        {
            const Layer &layer;
            std::chrono::steady_clock::time_point t0;
            ~LayerTimer()
            {
                if constexpr (obs::kEnabled) {
                    const auto ns = std::chrono::duration_cast<
                                        std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now() -
                                        t0)
                                        .count();
                    layer.latency->record(
                        ns < 0 ? 0
                               : static_cast<std::uint64_t>(ns));
                }
            }
        } timer{layer, lt0};
        // A half activation feeding a non-f16 consumer widens back to
        // double first (the layout stays NCHWc8; any layout
        // conversion then proceeds as usual below).
        if (curH && !layer.backend->f16Storage()) {
            TWQ_SPAN("session.convert");
            TensorD &xw = scratch.tensor(layer.widen, curH->shape());
            tensorF16ToD(*curH, xw);
            cur = &xw;
            curH = nullptr;
        }
        if (!curH && layer.layout.in != curLayout) {
            TWQ_SPAN("session.convert");
            if (layer.layout.in == ActLayout::NCHWc8) {
                TensorD &xb = scratch.tensor(
                    layer.convert, blockedShape(cur->shape()));
                nchwToBlocked(*cur, xb);
                cur = &xb;
            } else {
                const Shape logical{cur->dim(0), layer.desc.cin,
                                    cur->dim(2), cur->dim(3)};
                TensorD &xn =
                    scratch.tensor(layer.convert, logical);
                blockedToNchw(*cur, xn);
                cur = &xn;
            }
            curLayout = layer.layout.in;
        }
        // Separate-pass epilogue (bias, then relu) when the session
        // was told not to fuse — the bit-identity baseline. The fused
        // path performs the same arithmetic inside the engine's
        // output write, saving these extra memory passes.
        const bool postPass =
            !cfg_.fuseEpilogues && layer.epilogue.active();
        if (layer.backend->f16Storage()) {
            const TensorF16 *inH = curH;
            if (!inH) {
                // Storage seam: narrow the (already blocked) double
                // activation to binary16 once at chain ingress.
                TWQ_SPAN("session.convert");
                TensorF16 &xh =
                    scratch.tensorF16(layer.convertH, cur->shape());
                tensorDToF16(*cur, xh);
                inH = &xh;
            }
            const Shape oshape = layer.backend->outputShape(
                *layer.prepared, inH->shape());
            TensorF16 &actH =
                scratch.tensorF16(layer.activationH, oshape);
            layer.backend->runF16(*layer.prepared, *inH, scratch, actH,
                                  ctx);
            if (postPass) {
                // Unfused baseline on a half activation: widen, apply
                // the element-wise passes in double, narrow back. The
                // extra round trip stays inside the engine's accuracy
                // gate (bit-identity is an FP32-engine contract; f16
                // is accuracy-gated).
                TWQ_SPAN("session.epilogue");
                TensorD &tmp = scratch.tensor(layer.widen, oshape);
                tensorF16ToD(actH, tmp);
                applyEpilogueBlocked(tmp, layer.desc.cout,
                                     layer.epilogue);
                tensorDToF16(tmp, actH);
            }
            if (i == last) {
                TWQ_SPAN("session.convert");
                TensorD &actD =
                    scratch.tensor(layer.activation, oshape);
                tensorF16ToD(actH, actD);
                twq_assert(out.rank() == 4 &&
                               blockedShape(out.shape()) == oshape,
                           "output tensor not pre-shaped for the batch");
                blockedToNchw(actD, out);
            } else {
                curH = &actH;
                curLayout = layer.layout.out;
            }
            continue;
        }
        const Shape oshape =
            layer.backend->outputShape(*layer.prepared, cur->shape());
        if (i == last) {
            if (layer.layout.out == ActLayout::NCHW) {
                twq_assert(out.shape() == oshape,
                           "output tensor not pre-shaped for the batch");
                layer.backend->run(*layer.prepared, *cur, scratch, out,
                                   ctx);
                if (postPass) {
                    TWQ_SPAN("session.epilogue");
                    applyEpilogueNchw(out, layer.epilogue);
                }
            } else {
                // Blocked final layer: produce into its arena slot,
                // then flatten once into the caller's NCHW buffer.
                TensorD &act = scratch.tensor(layer.activation, oshape);
                layer.backend->run(*layer.prepared, *cur, scratch, act,
                                   ctx);
                if (postPass) {
                    TWQ_SPAN("session.epilogue");
                    applyEpilogueBlocked(act, layer.desc.cout,
                                         layer.epilogue);
                }
                twq_assert(out.rank() == 4 &&
                               blockedShape(out.shape()) == oshape,
                           "output tensor not pre-shaped for the batch");
                TWQ_SPAN("session.convert");
                blockedToNchw(act, out);
            }
        } else {
            TensorD &act = scratch.tensor(layer.activation, oshape);
            layer.backend->run(*layer.prepared, *cur, scratch, act,
                               ctx);
            if (postPass) {
                TWQ_SPAN("session.epilogue");
                if (layer.layout.out == ActLayout::NCHW)
                    applyEpilogueNchw(act, layer.epilogue);
                else
                    applyEpilogueBlocked(act, layer.desc.cout,
                                         layer.epilogue);
            }
            cur = &act;
            curLayout = layer.layout.out;
        }
    }
}

TensorD
Session::run(const TensorD &batch, ScratchArena &scratch,
             const RunContext &ctx) const
{
    Shape oshape = outputShape_;
    oshape[0] = batch.dim(0);
    TensorD result(oshape);
    runInto(batch, scratch, ctx, result);
    return result;
}

TensorD
Session::run(const TensorD &batch, ScratchArena &scratch) const
{
    return run(batch, scratch, RunContext{});
}

TensorD
Session::run(const TensorD &batch) const
{
    ScratchArena arena;
    return run(batch, arena);
}

} // namespace twq
