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

/** The activation layouts an engine's backend consumes and produces. */
LayoutPlan
layoutOf(ConvEngine e)
{
    const std::shared_ptr<const ConvBackend> b =
        EngineRegistry::instance().get(e);
    return {b->inputLayout(), b->outputLayout()};
}

/**
 * Best-of-3 wall time of `fn`, in ns — the seam conversion probe.
 */
template <typename Fn>
std::uint64_t
timeConvNs(Fn &&fn)
{
    using clock = std::chrono::steady_clock;
    std::uint64_t best = ~std::uint64_t{0};
    for (int r = 0; r < 3; ++r) {
        const auto t0 = clock::now();
        fn();
        const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                            clock::now() - t0)
                            .count();
        best = std::min(best, static_cast<std::uint64_t>(ns));
    }
    return best;
}

/**
 * Race one layer's candidates on `probe` and return the measured
 * table in race order (row i is `cands[i]` with its best probe time
 * and the counters of that round). Every candidate is prepared here
 * and dropped once timed: the race measures, it does not decide.
 *
 * Blocked candidates are timed on a blocked probe — the steady-state
 * input layout propagation hands them inside a blocked chain — and
 * f16 candidates on their native binary16 hot path with a
 * pre-narrowed probe, symmetric with that: boundary conversions are
 * a seam cost the planner charges, not part of the layer.
 */
template <typename PrepareFn>
std::vector<PlanRow>
raceCandidates(const std::vector<PlanRow> &cands, const TensorD &probe,
               PrepareFn &&prepareFor)
{
    std::vector<std::shared_ptr<const ConvBackend>> backends;
    std::vector<std::shared_ptr<const PreparedLayer>> prepared;
    for (const PlanRow &c : cands) {
        backends.push_back(EngineRegistry::instance().get(c.engine));
        prepared.push_back(prepareFor(*backends.back(), c.variant));
        twq_assert(prepared.back(), "backend returned no prepared state");
    }

    TensorD probeBlocked;
    TensorF16 probeHalf;
    ScratchArena probeArena;
    const auto probeFor = [&](const ConvBackend &b) -> const TensorD & {
        if (b.inputLayout() != ActLayout::NCHWc8)
            return probe;
        if (probeBlocked.numel() == 0) {
            probeBlocked = TensorD(blockedShape(probe.shape()));
            nchwToBlocked(probe, probeBlocked);
        }
        return probeBlocked;
    };
    const auto timeCand = [&](std::size_t ci) {
        const ConvBackend &b = *backends[ci];
        if (!b.f16Storage())
            return timeBackendRun(b, *prepared[ci], probeFor(b),
                                  probeArena, 1);
        if (probeHalf.numel() == 0) {
            const TensorD &pb = probeFor(b);
            probeHalf = TensorF16(pb.shape());
            tensorDToF16(pb, probeHalf);
        }
        return timeBackendRunF16(b, *prepared[ci], probeHalf,
                                 probeArena, 1);
    };

    // Interleaved best-of rounds: timing the candidates back-to-back
    // would hand the last one warmed caches and a ramped-up clock;
    // round-robin rounds spread those drifts symmetrically, and each
    // candidate keeps its best round (timeBackendRun additionally
    // precedes every timed run with an untimed warmup). Hardware
    // counters ride each probe run (a cheap reset/enable ioctl pair
    // when available, a no-op otherwise); each candidate keeps the
    // counters of its best-time round, so the persisted provenance
    // describes the run that actually won.
    std::vector<double> bestT(cands.size(),
                              std::numeric_limits<double>::infinity());
    std::vector<PlanRow> rows = cands;
    for (int round = 0; round < 3; ++round)
        for (std::size_t ci = 0; ci < cands.size(); ++ci) {
            TWQ_SPAN_ARG("autoselect.probe",
                         static_cast<std::int64_t>(ci));
            obs::PerfScope perf;
            const double t = timeCand(ci);
            const obs::PerfCounters pc = perf.stop();
            if (t < bestT[ci]) {
                bestT[ci] = t;
                rows[ci].counters = pc;
            }
        }
    for (std::size_t ci = 0; ci < rows.size(); ++ci)
        rows[ci].ns =
            bestT[ci] < std::numeric_limits<double>::infinity()
                ? static_cast<std::uint64_t>(bestT[ci] * 1e9)
                : 0;
    return rows;
}

} // namespace

std::vector<std::size_t>
planChain(const std::vector<std::vector<PlanRow>> &rows,
          const std::vector<SeamCosts> &seams)
{
    const std::size_t L = rows.size();
    twq_assert(seams.size() == L, "planChain needs one seam record per "
                                  "layer");
    // Seam cost at boundary i (between layers i-1 and i; boundary 0
    // is the chain ingress, boundary L the egress). The boundary is
    // one shape, so prefer the upstream layer's output-shape
    // measurement and borrow the downstream layer's input-shape one
    // when the upstream never measured.
    const auto seam = [&](std::size_t i, ActLayout prod,
                          ActLayout cons) -> double {
        if (prod == cons)
            return 0.0;
        const SeamCosts *up = i > 0 ? &seams[i - 1] : nullptr;
        const SeamCosts *dn = i < L ? &seams[i] : nullptr;
        if (up && (up->outToBlockedNs != 0 || up->outToNchwNs != 0))
            return static_cast<double>(cons == ActLayout::NCHWc8
                                           ? up->outToBlockedNs
                                           : up->outToNchwNs);
        if (!dn)
            return 0.0;
        return static_cast<double>(cons == ActLayout::NCHWc8
                                       ? dn->inToBlockedNs
                                       : dn->inToNchwNs);
    };
    // Viterbi over the layers between a virtual NCHW ingress node and
    // a virtual NCHW egress node (step L). `cost[b]` is the cheapest
    // chain prefix ending in row b of the current step; strict `<`
    // keeps the first row on exact ties. Costs are integral ns, so
    // the sums are exact and zero seams reduce to per-layer argmin.
    std::vector<double> cost{0.0};
    std::vector<ActLayout> outs{ActLayout::NCHW};
    std::vector<std::vector<std::size_t>> from(L + 1);
    for (std::size_t i = 0; i <= L; ++i) {
        const std::size_t n = i < L ? rows[i].size() : 1;
        twq_assert(n > 0, "planChain: empty candidate table");
        std::vector<double> next(n);
        std::vector<ActLayout> nextOuts(n, ActLayout::NCHW);
        from[i].resize(n);
        for (std::size_t b = 0; b < n; ++b) {
            const ActLayout in =
                i < L ? rows[i][b].layout.in : ActLayout::NCHW;
            double best = std::numeric_limits<double>::infinity();
            for (std::size_t a = 0; a < cost.size(); ++a) {
                const double t = cost[a] + seam(i, outs[a], in);
                if (t < best) {
                    best = t;
                    from[i][b] = a;
                }
            }
            next[b] = best;
            if (i < L) {
                next[b] += static_cast<double>(rows[i][b].ns);
                nextOuts[b] = rows[i][b].layout.out;
            }
        }
        cost = std::move(next);
        outs = std::move(nextOuts);
    }
    std::vector<std::size_t> pick(L);
    std::size_t b = 0;
    for (std::size_t i = L; i > 0; --i)
        pick[i - 1] = b = from[i][b];
    return pick;
}

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

    // The build runs in three phases. Tables: validate the chain,
    // draw weights, resolve each layer's configured engine, propagate
    // calibration, and produce one candidate table per layer (a
    // single fixed row, cached rows, or a live race). Plan: one pure
    // planChain() over all tables. Prepare: each layer's pick, once.
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
        if (!registry.get(engine)->supports(d)) {
            twq_warn("engine ", convEngineName(engine),
                     " does not support layer ", d.name,
                     "; falling back to im2col");
            engine = ConvEngine::Im2col;
        }
        layer.engine = engine;
        layer.variant = cfg.variant;
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
    const std::size_t L = layers_.size();

    // Calibration activations propagate layer by layer (the int8
    // engines calibrate their scales on the activations the layer
    // actually sees). The forward pass is only paid up to the last
    // int8 layer; a session with none skips it entirely.
    std::size_t calEnd = 0;
    for (std::size_t i = 0; i < L; ++i)
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
    // Each layer's calibration set and shared calibration statistics
    // live for the whole build, so the race's candidates and the
    // final prepare hit the same cached passes: autoSelect races up
    // to three quantized candidates, and without the cache each one
    // would redo the abs-max, fake-quantization, and tap-maxima
    // passes over the same set. Results are bit-identical with or
    // without it.
    std::vector<std::vector<TensorD>> calSets(L);
    std::vector<std::unique_ptr<CalibrationCache>> calCaches(L);
    const auto buildFor = [&](std::size_t i, WinoVariant v) {
        LayerBuild build;
        build.params = layers_[i].params;
        build.variant = v;
        build.quant = cfg.quant;
        // Fused sessions fold the planned epilogue into the engine's
        // output write; unfused ones keep the prepared state
        // epilogue-free and pay the separate passes in runInto.
        if (cfg.fuseEpilogues)
            build.epilogue = layers_[i].epilogue;
        if (calCaches[i]) {
            build.calibration = &calSets[i];
            build.calCache = calCaches[i].get();
        }
        return build;
    };

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

    // Phase 1, tables. Row 0 is always the configured (engine,
    // variant), so it wins exact ties. ConvEngine-auto policy: a
    // raced layer's table holds every candidate of its family — FP
    // Winograd layers race im2col and every Winograd variant
    // (F2/F4/F6) of the NCHW and NCHWc8-blocked FP backends;
    // quantized Winograd layers race the quantized counterparts
    // (blocked int-winograd — variants clamped by the bitwidth
    // model's int8 eligibility gate, which excludes F6 — and
    // im2col-int8), never an FP engine, which would silently drop the
    // quantization the config asked for. Ineligible layers never
    // reach the race with a raceable engine, so they always stay on
    // their fallback. A plan-cache hit supplies a previously measured
    // table (and seam costs) without re-running the probe.
    std::vector<std::vector<PlanRow>> rows(L);
    std::vector<SeamCosts> seams(L);
    for (std::size_t i = 0; i < L; ++i) {
        Layer &layer = layers_[i];
        if (i < calEnd) {
            calSets[i].push_back(cal);
            calCaches[i] = std::make_unique<CalibrationCache>(&calSets[i]);
        }
        rows[i] = {{layer.engine, layer.variant, 0,
                    layoutOf(layer.engine), {}}};

        const bool fpRace =
            layer.engine == ConvEngine::WinogradFp32 ||
            layer.engine == ConvEngine::WinogradBlocked;
        const bool quantRace =
            layer.engine == ConvEngine::WinogradBlockedInt8;
        if (cfg.autoSelect && !pinned[i] && (fpRace || quantRace)) {
            // The candidate set this race draws from — and the only
            // cached rows it will accept: a foreign or corrupted
            // cache entry (e.g. a quantized engine for an FP layer,
            // whose prepare step needs calibration the FP path never
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
            const auto usable = [&](ConvEngine e) {
                return raceable(e) &&
                       registry.get(e)->supports(layer.desc);
            };
            std::string planKey;
            PlanCache::Decision hit;
            bool cached = false;
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
                cached = cache->lookup(planKey, &hit) &&
                         usable(hit.engine);
            }
            if (cached) {
                // The cached table re-enters the planner with zero
                // re-measurement; a winner-only entry (empty or
                // fully filtered table) is adopted verbatim as a
                // fixed row. Provenance travels with the cached
                // winner so /statusz can show why it won even though
                // this process never probed.
                obs::Registry::global().counter("autoselect.cache_hit").inc();
                layer.planSource = "cache";
                rows[i].clear();
                for (const PlanCache::Cand &cc : hit.table)
                    if (usable(cc.engine))
                        rows[i].push_back({cc.engine, cc.variant, cc.ns,
                                           layoutOf(cc.engine), {}});
                if (rows[i].size() <= 1)
                    rows[i] = {{hit.engine, hit.variant, hit.probeNs,
                                layoutOf(hit.engine), {}}};
                for (PlanRow &r : rows[i])
                    if (r.engine == hit.engine && r.variant == hit.variant) {
                        r.counters.cycles = hit.cycles;
                        r.counters.instructions = hit.instructions;
                        r.counters.cacheRefs = hit.cacheRefs;
                        r.counters.cacheMisses = hit.cacheMisses;
                        r.counters.valid =
                            hit.cycles != 0 || hit.instructions != 0;
                    }
                seams[i] = {hit.inToBlockedNs, hit.inToNchwNs,
                            hit.outToBlockedNs, hit.outToNchwNs};
            } else {
                // Counts probed layers (cache misses, stale entries
                // the usable() guard rejected, and cacheless builds
                // alike).
                obs::Registry::global().counter("autoselect.cache_miss").inc();
                // The contract a tuned plan cache is judged by: one
                // tick per layer whose candidate race actually ran
                // in this process. A cold build against a fully
                // tuned cache reads zero here.
                obs::Registry::global().counter("plan.probes").inc();
                layer.planSource = "probed";
                const auto addCandidate = [&](ConvEngine e, WinoVariant v) {
                    if (e == rows[i][0].engine && v == rows[i][0].variant)
                        return; // already racing as the configured row
                    rows[i].push_back({e, v, 0, layoutOf(e), {}});
                };
                if (fpRace) {
                    for (WinoVariant v : kAllWinoVariants) {
                        addCandidate(ConvEngine::WinogradFp32, v);
                        addCandidate(ConvEngine::WinogradBlocked, v);
                        if (cfg.raceF16)
                            addCandidate(ConvEngine::WinogradBlockedF16, v);
                    }
                    addCandidate(ConvEngine::Im2col, cfg.variant);
                } else {
                    // Variants outside the bitwidth model's int8
                    // envelope (F6 always — its transforms are not
                    // integer) never enter the quantized race.
                    for (WinoVariant v : kAllWinoVariants)
                        if (winoInt8Eligible(v, cfg.quant.winogradBits,
                                             layer.desc.cin))
                            addCandidate(ConvEngine::WinogradBlockedInt8, v);
                    addCandidate(ConvEngine::Im2colInt8, cfg.variant);
                }

                TensorD probe({std::max<std::size_t>(cfg.autoSelectBatch, 1),
                               layer.desc.cin, layer.desc.height,
                               layer.desc.width});
                Rng probeRng(cfg.calibrationSeed ^ (0x9e3779b9ull + i));
                probeRng.fillNormal(probe.storage(), 0.0, 1.0);
                rows[i] = raceCandidates(
                    rows[i], probe,
                    [&](const ConvBackend &b, WinoVariant v) {
                        return b.prepare(layer.desc, weights[i],
                                         buildFor(i, v));
                    });

                // Seam conversion costs on the same probe data:
                // NCHW↔NCHWc8 at the input shape and at the output
                // shape, charged by the planner wherever adjacent
                // picks disagree on layout.
                TensorD cvtBlocked(blockedShape(probe.shape()));
                TensorD cvtNchw(probe.shape());
                seams[i].inToBlockedNs = timeConvNs(
                    [&] { nchwToBlocked(probe, cvtBlocked); });
                seams[i].inToNchwNs = timeConvNs(
                    [&] { blockedToNchw(cvtBlocked, cvtNchw); });
                TensorD outNchw(
                    {probe.dim(0), layer.desc.cout, layer.desc.outHeight(),
                     layer.desc.outWidth()});
                probeRng.fillNormal(outNchw.storage(), 0.0, 1.0);
                TensorD outBlocked(blockedShape(outNchw.shape()));
                seams[i].outToBlockedNs = timeConvNs(
                    [&] { nchwToBlocked(outNchw, outBlocked); });
                seams[i].outToNchwNs = timeConvNs(
                    [&] { blockedToNchw(outBlocked, outNchw); });

                // The stored winner is this table's argmin — exactly
                // the row a zero-seam plan picks for the layer.
                const std::size_t best =
                    planChain({rows[i]}, {SeamCosts{}})[0];
                obs::traceInstant("autoselect.pick",
                                  static_cast<std::int64_t>(best));
                const PlanRow &win = rows[i][best];
                if (cache) {
                    PlanCache::Decision d;
                    d.engine = win.engine;
                    d.variant = win.variant;
                    d.probeNs = win.ns;
                    if (win.counters.valid) {
                        d.cycles = win.counters.cycles;
                        d.instructions = win.counters.instructions;
                        d.cacheRefs = win.counters.cacheRefs;
                        d.cacheMisses = win.counters.cacheMisses;
                    }
                    d.inToBlockedNs = seams[i].inToBlockedNs;
                    d.inToNchwNs = seams[i].inToNchwNs;
                    d.outToBlockedNs = seams[i].outToBlockedNs;
                    d.outToNchwNs = seams[i].outToNchwNs;
                    for (const PlanRow &r : rows[i])
                        d.table.push_back({r.engine, r.variant, r.ns});
                    cache->store(planKey, d);
                }
            }
        }

        if (i + 1 < calEnd) {
            cal = conv2dIm2col(cal, weights[i], layer.params);
            // Downstream int8 layers must calibrate on the
            // activations they actually receive — bias and ReLU
            // included, whether fused or separate at run time.
            applyEpilogueNchw(cal, layer.epilogue);
        }
    }

    // Phase 2, plan: one Viterbi pass over every table. Fixed layers
    // (pinned, non-raced, winner-only cache entries) are single-row
    // tables, so their layout still shapes the seams around them. It
    // is arithmetic over numbers already measured — a fully cached
    // build decides the whole chain without a single timed run. (The
    // f16 engine's widen/narrow storage seam is not modeled; it rides
    // the blocked layout.)
    const std::vector<std::size_t> picks =
        planChain(rows, cfg.chainDp ? seams : std::vector<SeamCosts>(L));

    // Phase 3, prepare: each layer's pick exactly once, from the
    // retained build materials, with its layout contract and
    // provenance. planSource stays what supplied the table.
    for (std::size_t i = 0; i < L; ++i) {
        Layer &layer = layers_[i];
        const PlanRow &row = rows[i][picks[i]];
        layer.engine = row.engine;
        layer.variant = row.variant;
        layer.backend = registry.get(row.engine);
        layer.prepared = layer.backend->prepare(layer.desc, weights[i],
                                                buildFor(i, row.variant));
        twq_assert(layer.prepared, "backend returned no prepared state");
        // The serving loop converts only where consecutive layers'
        // layouts disagree.
        layer.layout = row.layout;
        layer.planProbeNs = row.ns;
        layer.planCounters = row.counters;
        if (cfg.fuseEpilogues && layer.epilogue.active())
            obs::Registry::global()
                .counter("session.fused_epilogues")
                .inc();
    }

    // Persist newly measured plans so the next build (a restarted
    // server, an identical replica) skips the probes entirely.
    if (cache && !cfg_.planCachePath.empty() &&
        cache->revision() != cacheRev0)
        cache->saveFile(cfg_.planCachePath);
}

bool
samePlan(const Session &a, const Session &b)
{
    if (a.layerCount() != b.layerCount())
        return false;
    for (std::size_t i = 0; i < a.layerCount(); ++i)
        if (a.layerEngine(i) != b.layerEngine(i) ||
            a.layerVariant(i) != b.layerVariant(i) ||
            a.layerLayout(i).in != b.layerLayout(i).in ||
            a.layerLayout(i).out != b.layerLayout(i).out)
            return false;
    return true;
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
