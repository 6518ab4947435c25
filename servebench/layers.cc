/**
 * @file
 * The traced run's per-layer measurements. Every number here comes
 * from timing a call into one layer's public functions from this file
 * — spans inside the library are not used:
 *
 *   net      encodeInfer / encodeResponse / FrameDecoder per frame
 *   session  Session::runInto per batch; nchwToBlocked/blockedToNchw
 *            at every seam of the session's layout plan
 *   engine   ConvBackend::run on layers prepared standalone with the
 *            session's engine, variant and epilogue, summed per group
 *            (stem; s1..s3 = stride-1 layers at each resolution;
 *            down = strided layers)
 *   stage    the blocked fp pipeline's gather / B-kron / tap GEMM /
 *            A-kron / untile, and the int8 pipeline's quantize / kron
 *            / rescale / tap GEMM kernels from layout::kernels(), at
 *            the shapes of every Winograd-eligible layer
 *
 * FLOP and byte counts are computed from shapes, not measured.
 */

#include <algorithm>
#include <cmath>

#include "bench.hh"
#include "common/rng.hh"
#include "layout/kernels.hh"
#include "layout/wino_blocked.hh"
#include "net/protocol.hh"
#include "runtime/engine.hh"
#include "tensor/batch.hh"

namespace sb
{

using namespace twq;

namespace
{

constexpr std::size_t kB = kLayoutBlock;

/** Group names, indexed by groupOf(). */
const char *const kGroups[] = {"engine.stem", "engine.s1", "engine.s2",
                               "engine.s3", "engine.down"};
constexpr std::size_t kGroupCount = 5;

/** Engine group of each session layer. */
std::vector<std::size_t>
groupsOf(const Session &s)
{
    std::vector<std::size_t> g(s.layerCount());
    std::size_t level = 1;
    for (std::size_t i = 0; i < s.layerCount(); ++i) {
        const ConvLayerDesc &d = s.layerDesc(i);
        if (i == 0)
            g[i] = 0;
        else if (d.stride > 1)
            g[i] = 4;
        else
            g[i] = std::min<std::size_t>(level, 3);
        if (d.stride > 1)
            ++level;
    }
    return g;
}

TensorD
randomWeights(const ConvLayerDesc &d, Rng &rng)
{
    TensorD w({d.cout, d.cin, d.kernel, d.kernel});
    rng.fillNormal(w.storage(), 0.0,
                   std::sqrt(2.0 / static_cast<double>(
                                       d.cin * d.kernel * d.kernel)));
    return w;
}

Shape
withBatch(Shape s, std::size_t n)
{
    s[0] = n;
    return s;
}

/** Give `t` shape `s`, allocating only when the shape changes. */
void
reshape(TensorD &t, const Shape &s)
{
    if (t.shape() != s)
        t = TensorD(s);
}

/** Logical NCHW input shape of layer `d` at batch `n`. */
Shape
inputShapeOf(const ConvLayerDesc &d, std::size_t n)
{
    return {n, d.cin, d.height, d.width};
}

/**
 * Per-request totals by span name: for each name, the median over
 * requests of that request's summed span time (ns).
 */
std::map<std::string, double>
perRequestMedians(const Tracer &t)
{
    std::map<std::string, std::map<std::uint64_t, double>> acc;
    for (const Span &s : t.spans())
        acc[s.name][s.request] += static_cast<double>(s.t1 - s.t0);
    std::map<std::string, double> out;
    for (const auto &[name, byReq] : acc) {
        std::vector<double> v;
        for (const auto &kv : byReq)
            v.push_back(kv.second);
        out[name] = median(v);
    }
    return out;
}

/** Standalone-prepared copy of one session layer. */
struct Prepared
{
    ConvLayerDesc desc;
    std::shared_ptr<const ConvBackend> backend;
    std::shared_ptr<const PreparedLayer> prep;
    std::size_t group = 0;
};

/** Computed work of one stage, summed over layers. */
struct Work
{
    double flops = 0;
    double bytes = 0;
};

} // namespace

LayerReport
measureLayers(const Workload &w, const Session &s, const Ceilings &c,
              std::uint64_t seed, Tracer &tracer)
{
    LayerReport rep;
    Metrics &m = rep.metrics;
    const std::size_t batch = w.runtime.batch.maxBatch;
    const int reps = 15;
    Rng rng(seed ^ 0x1a7e55);
    const std::vector<TensorD> singles =
        makeInputs(s.inputShape(), batch, seed + 1);
    std::vector<const TensorD *> ptrs;
    for (const TensorD &t : singles)
        ptrs.push_back(&t);
    const TensorD input = stackBatch(ptrs);

    // net: the two frames of one round trip at this model's shapes.
    {
        const TensorD &req = singles[0];
        const TensorD resp = s.run(req);
        std::vector<std::uint8_t> inferBuf, respBuf;
        const double encNs = medianNs(200, [&] {
            inferBuf.clear();
            respBuf.clear();
            net::encodeInfer(1, req, inferBuf);
            net::encodeResponse(1, net::Status::Ok, &resp, respBuf);
        });
        net::Frame f;
        const double decNs = medianNs(200, [&] {
            net::FrameDecoder dec;
            dec.feed(inferBuf.data(), inferBuf.size());
            dec.feed(respBuf.data(), respBuf.size());
            dec.next(&f);
            dec.next(&f);
        });
        m.add("net.encode_us", encNs * 1e-3, "us");
        m.add("net.decode_us", decNs * 1e-3, "us");
        m.add("net.frame_bytes",
              static_cast<double>(inferBuf.size() + respBuf.size()),
              "bytes");
    }

    // session: the executor on one batch, and its layout seams.
    {
        ScratchArena scratch;
        TensorD out(withBatch(s.outputShape(), batch));
        const double runNs = medianNs(reps, [&] {
            s.runInto(input, scratch, RunContext{}, out);
        });
        m.add("session.run_ms", runNs * 1e-6, "ms");

        std::size_t seams = 0;
        double convertNs = 0;
        ActLayout cur = ActLayout::NCHW;
        for (std::size_t i = 0; i <= s.layerCount(); ++i) {
            const bool egress = i == s.layerCount();
            const ActLayout want =
                egress ? ActLayout::NCHW : s.layerLayout(i).in;
            if (want != cur) {
                ++seams;
                const ConvLayerDesc &d = s.layerDesc(egress ? i - 1 : i);
                const Shape logical =
                    egress ? Shape{batch, d.cout, d.outHeight(),
                                   d.outWidth()}
                           : inputShapeOf(d, batch);
                TensorD nchw(logical), blocked(blockedShape(logical));
                rng.fillNormal(nchw.storage(), 0.0, 1.0);
                convertNs += want == ActLayout::NCHWc8
                                 ? medianNs(reps, [&] {
                                       nchwToBlocked(nchw, blocked);
                                   })
                                 : medianNs(reps, [&] {
                                       blockedToNchw(blocked, nchw);
                                   });
            }
            if (!egress)
                cur = s.layerLayout(i).out;
        }
        m.add("session.seams", static_cast<double>(seams), "count");
        m.add("session.convert_ms", convertNs * 1e-6, "ms");
    }

    // engine: standalone-prepared layers of the session's plan.
    const std::vector<std::size_t> groups = groupsOf(s);
    std::vector<Prepared> layers;
    double prepareNs = 0;
    for (std::size_t i = 0; i < s.layerCount(); ++i) {
        Prepared p;
        p.desc = s.layerDesc(i);
        p.group = groups[i];
        p.backend = EngineRegistry::instance().get(s.layerEngine(i));
        const TensorD weights = randomWeights(p.desc, rng);
        const std::vector<TensorD> calib = makeInputs(
            inputShapeOf(p.desc, 1), s.config().calibrationSamples,
            seed + 2 + i);
        LayerBuild b;
        b.params = ConvParams{p.desc.kernel, p.desc.stride,
                              (p.desc.kernel - 1) / 2};
        b.variant = s.layerVariant(i);
        b.quant = s.config().quant;
        b.quant.variant = b.variant;
        b.calibration = &calib;
        b.epilogue = s.layerEpilogue(i);
        const std::int64_t t0 = nowNs();
        p.prep = p.backend->prepare(p.desc, weights, b);
        prepareNs += static_cast<double>(nowNs() - t0);
        layers.push_back(std::move(p));
    }
    m.add("setup.prepare_s", prepareNs * 1e-9, "s");

    // One pass of the chain through the standalone layers, converting
    // layout wherever consecutive backends disagree.
    ScratchArena scratch;
    std::vector<TensorD> acts(layers.size() + 1);
    std::vector<TensorD> conv(layers.size() + 1);
    auto chainPass = [&](std::uint64_t request) {
        Scope root(tracer, "chain", request);
        const TensorD *x = &input;
        ActLayout cur = ActLayout::NCHW;
        for (std::size_t i = 0; i < layers.size(); ++i) {
            const Prepared &p = layers[i];
            const ActLayout want = p.backend->inputLayout();
            if (want != cur) {
                Scope sc(tracer, "session.convert", request);
                const Shape logical = inputShapeOf(p.desc, batch);
                const bool toBlocked = want == ActLayout::NCHWc8;
                reshape(conv[i], toBlocked ? blockedShape(logical) : logical);
                if (toBlocked)
                    nchwToBlocked(*x, conv[i]);
                else
                    blockedToNchw(*x, conv[i]);
                x = &conv[i];
            }
            reshape(acts[i], p.backend->outputShape(*p.prep, x->shape()));
            {
                Scope sc(tracer, kGroups[p.group], request);
                p.backend->run(*p.prep, *x, scratch, acts[i]);
            }
            x = &acts[i];
            cur = p.backend->outputLayout();
        }
        if (cur != ActLayout::NCHW) {
            Scope sc(tracer, "session.convert", request);
            const ConvLayerDesc &d = layers.back().desc;
            reshape(conv.back(),
                    {batch, d.cout, d.outHeight(), d.outWidth()});
            blockedToNchw(*x, conv.back());
        }
    };
    chainPass(0); // warmup: first-touch of every buffer
    tracer.clear();

    // Tracing overhead: the same passes with the recorder off and on,
    // alternating so drift hits both sides alike.
    std::vector<double> offNs, onNs;
    for (int r = 0; r < 2 * reps; ++r) {
        tracer.enabled = r % 2 == 1;
        const std::int64_t t0 = nowNs();
        chainPass(static_cast<std::uint64_t>(r));
        (tracer.enabled ? onNs : offNs)
            .push_back(static_cast<double>(nowNs() - t0));
    }
    tracer.enabled = true;
    rep.traceFault = tracer.validate();
    const std::map<std::string, double> chainMed =
        perRequestMedians(tracer);
    for (std::size_t g = 0; g < kGroupCount; ++g) {
        double macs = 0;
        for (const Prepared &p : layers)
            if (p.group == g)
                macs += p.desc.macs() * static_cast<double>(batch);
        const auto it = chainMed.find(kGroups[g]);
        const double ns = it == chainMed.end() ? 0.0 : it->second;
        const std::string name = kGroups[g];
        m.add(name + "_ms", ns * 1e-6, "ms");
        m.add(name + ".gmacs", ns > 0 ? macs / ns : 0.0, "GMAC/s");
    }
    m.add("trace.overhead_frac", median(onNs) / median(offNs) - 1.0,
          "frac");

    // stage: blocked fp and int8 pipelines at every eligible shape.
    struct Shapes
    {
        ConvLayerDesc desc;
        WinoVariant variant;
        TensorD x;          // blocked input
        BlockedTapWeights wt;
        std::vector<double> bias8;
        bool relu = false;
        TensorD V, U, M, Y, out;
    };
    std::vector<Shapes> eligible;
    for (std::size_t i = 0; i < s.layerCount(); ++i) {
        if (!s.layerDesc(i).winogradEligible())
            continue;
        Shapes sh;
        sh.desc = s.layerDesc(i);
        sh.variant = s.layerVariant(i);
        const Shape logical = inputShapeOf(sh.desc, batch);
        sh.x = TensorD(blockedShape(logical));
        TensorD nchw(logical);
        rng.fillNormal(nchw.storage(), 0.0, 1.0);
        nchwToBlocked(nchw, sh.x);
        sh.wt = blockedTapWeights(winogradPrepareTapWeights(
            randomWeights(sh.desc, rng), sh.variant));
        const Epilogue &e = s.layerEpilogue(i);
        if (!e.bias.empty()) {
            sh.bias8.assign(sh.wt.coutb * kB, 0.0);
            std::copy(e.bias.begin(), e.bias.end(), sh.bias8.begin());
        }
        sh.relu = e.relu;
        const WinoDims d = winoDimsBlocked(sh.x.shape(), sh.variant, 1);
        sh.out = TensorD({batch, sh.wt.coutb, d.ho, d.wo, kB});
        eligible.push_back(std::move(sh));
    }

    const char *const kFpStages[] = {"stage.gather", "stage.bkron",
                                     "stage.tapgemm", "stage.akron",
                                     "stage.untile"};
    Work fpWork[5];
    for (const Shapes &sh : eligible) {
        const WinoDims d = winoDimsBlocked(sh.x.shape(), sh.variant, 1);
        const double tt = double(d.t * d.t), mm = double(d.m * d.m);
        const double P = double(d.tiles);
        const double cinp = double(sh.wt.cinb * kB);
        const double coutp = double(sh.wt.coutb * kB);
        const double inKron = double(winoInputKron<double>(sh.variant).terms.size());
        const double outKron = double(winoOutputKron<double>(sh.variant).terms.size());
        const double outElems = double(sh.out.numel());
        fpWork[0].bytes += 8 * (double(sh.x.numel()) + tt * cinp * P);
        fpWork[1].flops += 2 * inKron * cinp * P;
        fpWork[1].bytes += 8 * 2 * tt * cinp * P;
        fpWork[2].flops += 2 * tt * coutp * cinp * P;
        fpWork[2].bytes += 8 * tt * (cinp * P + coutp * cinp + coutp * P);
        fpWork[3].flops += 2 * outKron * coutp * P;
        fpWork[3].bytes += 8 * (tt + mm) * coutp * P;
        fpWork[4].flops += (sh.bias8.empty() ? 0 : outElems) +
                           (sh.relu ? outElems : 0);
        fpWork[4].bytes += 8 * (mm * coutp * P + outElems);
    }
    tracer.clear();
    for (int r = -1; r < reps; ++r) {
        // The first pass (r = -1) only warms the buffers.
        const std::uint64_t id = static_cast<std::uint64_t>(r + 1);
        if (r == 0)
            tracer.clear();
        Scope root(tracer, "stages.fp", id);
        for (Shapes &sh : eligible) {
            Scope layer(tracer, "stages.layer", id);
            const WinoDims d =
                winoDimsBlocked(sh.x.shape(), sh.variant, 1);
            const std::size_t tt = d.t * d.t, mm = d.m * d.m;
            {
                Scope sc(tracer, kFpStages[0], id);
                winogradGatherTilesBlocked(sh.x, sh.variant, 1, sh.V);
            }
            {
                Scope sc(tracer, kFpStages[1], id);
                reshape(sh.U, {tt, sh.wt.cinb, d.tiles, kB});
                layout::kernels().kron(winoInputKron<double>(sh.variant),
                                       sh.V.data(),
                                       sh.wt.cinb * d.tiles * kB,
                                       sh.U.data());
            }
            {
                Scope sc(tracer, kFpStages[2], id);
                winogradTapGemmBlocked(sh.wt, sh.U, sh.M);
            }
            {
                Scope sc(tracer, kFpStages[3], id);
                reshape(sh.Y, {mm, sh.wt.coutb, d.tiles, kB});
                layout::kernels().kron(winoOutputKron<double>(sh.variant),
                                       sh.M.data(),
                                       sh.wt.coutb * d.tiles * kB,
                                       sh.Y.data());
            }
            {
                Scope sc(tracer, kFpStages[4], id);
                winogradUntileBlocked(sh.Y, sh.variant, sh.out,
                                      sh.bias8.empty() ? nullptr
                                                       : sh.bias8.data(),
                                      sh.relu);
            }
        }
    }
    if (rep.traceFault.empty())
        rep.traceFault = tracer.validate();
    const std::map<std::string, double> fpMed = perRequestMedians(tracer);
    for (int k = 0; k < 5; ++k) {
        const auto it = fpMed.find(kFpStages[k]);
        const double ns = it == fpMed.end() ? 0.0 : it->second;
        const std::string name = kFpStages[k];
        const double bound = std::max(fpWork[k].flops / c.fmaGflops,
                                      fpWork[k].bytes / c.copyGbs);
        m.add(name + "_ms", ns * 1e-6, "ms");
        m.add(name + ".gflops", ns > 0 ? fpWork[k].flops / ns : 0.0,
              "GFLOP/s");
        m.add(name + ".gbs", ns > 0 ? fpWork[k].bytes / ns : 0.0, "GB/s");
        m.add(name + ".ceil_frac", ns > 0 ? bound / ns : 0.0, "frac");
    }

    // int8 stages through the kernels the blocked int8 pipeline calls
    // (quant/int_wino_blocked.cc), on synthetic operands of the same
    // shapes: 8-bit F4 (F6 is not int8-eligible), pow2 scales.
    const layout::LayoutKernels &K = layout::kernels();
    const IntWinogradConfig &qc = s.config().quant;
    const bool use8 = qc.winogradBits <= 8 && K.tapGemmU8 != nullptr;
    struct IntShapes
    {
        WinoVariant variant;
        std::size_t cinb, coutb, tiles;
        TensorD x;
        TensorI32 xq, V, U32, M;
        TensorI16 U16, w16;
        TensorI8 U8, w8;
        std::vector<std::int32_t> comp;
        TensorD Md;
        std::vector<double> scale8;
    };
    std::vector<IntShapes> ints;
    for (const Shapes &sh : eligible) {
        IntShapes is;
        is.variant = sh.variant == WinoVariant::F6 ? WinoVariant::F4
                                                   : sh.variant;
        is.cinb = sh.wt.cinb;
        is.coutb = sh.wt.coutb;
        is.x = sh.x;
        const WinoDims d = winoDimsBlocked(is.x.shape(), is.variant, 1);
        is.tiles = d.tiles;
        const std::size_t tt = d.t * d.t, cinp = is.cinb * kB;
        is.xq = TensorI32(is.x.shape());
        K.quantizeI32(is.x.data(), 32.0, -128, 127, is.xq.data(),
                      is.x.numel());
        winogradGatherTilesBlocked(is.xq, is.variant, 1, is.V);
        is.U32 = TensorI32({tt, is.cinb, d.tiles, kB});
        is.M = TensorI32({tt, is.coutb, d.tiles, kB});
        is.Md = TensorD({tt, is.coutb, d.tiles, kB});
        is.U16 = TensorI16({tt, is.cinb, d.tiles, kB});
        is.U8 = TensorI8({tt, is.cinb, d.tiles, kB});
        is.w16 = TensorI16({tt * is.coutb * cinp * kB});
        is.w8 = TensorI8({tt * is.coutb * cinp * kB});
        for (std::size_t j = 0; j < is.w8.numel(); ++j) {
            is.w8[j] = static_cast<std::int8_t>(rng.uniformInt(-127, 127));
            is.w16[j] = is.w8[j];
        }
        is.comp.assign(tt * is.coutb * kB, 0);
        is.scale8.assign(kB, 1.0 / 64);
        ints.push_back(std::move(is));
    }
    const char *const kIntStages[] = {"stage.i8.quantize", "stage.i8.kron",
                                      "stage.i8.rescale",
                                      "stage.i8.tapgemm"};
    tracer.clear();
    for (int r = -1; r < reps; ++r) {
        const std::uint64_t id = static_cast<std::uint64_t>(r + 1);
        if (r == 0)
            tracer.clear();
        Scope root(tracer, "stages.i8", id);
        for (IntShapes &is : ints) {
            Scope layer(tracer, "stages.layer", id);
            const std::size_t t = winoSpec(is.variant).t, tt = t * t;
            const std::size_t rowLen = is.cinb * is.tiles * kB;
            const std::size_t cinp = is.cinb * kB;
            {
                Scope sc(tracer, kIntStages[0], id);
                K.quantizeI32(is.x.data(), 32.0, -128, 127,
                              is.xq.data(), is.x.numel());
            }
            {
                Scope sc(tracer, kIntStages[1], id);
                K.kronI32(winoInputKron<std::int32_t>(is.variant),
                          is.V.data(), rowLen, is.U32.data());
            }
            {
                Scope sc(tracer, kIntStages[2], id);
                for (std::size_t k = 0; k < tt; ++k) {
                    const std::int32_t *src = is.U32.data() + k * rowLen;
                    if (use8)
                        K.rescaleU8(src,
                                    reinterpret_cast<std::uint8_t *>(
                                        is.U8.data()) + k * rowLen,
                                    rowLen, 2, qc.winogradBits);
                    else
                        K.rescaleI16(src, is.U16.data() + k * rowLen,
                                     rowLen, 2, qc.winogradBits);
                }
                for (std::size_t k = 0; k < tt * is.coutb; ++k)
                    K.scaleI32F64(is.M.data() + k * is.tiles * kB,
                                  is.scale8.data(),
                                  is.Md.data() + k * is.tiles * kB,
                                  is.tiles);
            }
            {
                Scope sc(tracer, kIntStages[3], id);
                for (std::size_t k = 0; k < tt; ++k) {
                    std::int32_t *mk =
                        is.M.data() + k * is.coutb * is.tiles * kB;
                    if (use8)
                        K.tapGemmU8(
                            is.w8.data() + k * is.coutb * cinp * kB,
                            reinterpret_cast<const std::uint8_t *>(
                                is.U8.data()) + k * rowLen,
                            is.comp.data() + k * is.coutb * kB, mk,
                            is.coutb, is.cinb, is.tiles, 0, is.tiles);
                    else
                        K.tapGemmI16(
                            is.w16.data() + k * is.coutb * cinp * kB,
                            is.U16.data() + k * rowLen, mk, is.coutb,
                            is.cinb, is.tiles, 0, is.tiles);
                }
            }
        }
    }
    if (rep.traceFault.empty())
        rep.traceFault = tracer.validate();
    const std::map<std::string, double> intMed = perRequestMedians(tracer);
    for (const char *st : kIntStages) {
        const auto it = intMed.find(st);
        m.add(std::string(st) + "_ms",
              it == intMed.end() ? 0.0 : it->second * 1e-6, "ms");
    }
    return rep;
}

} // namespace sb
