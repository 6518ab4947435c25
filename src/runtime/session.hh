/**
 * @file
 * A loaded, immutable model instance shared by all workers.
 *
 * A Session takes a chainable NetworkDesc from models/zoo, draws
 * deterministic weights, resolves the per-layer engine policy against
 * the EngineRegistry, and runs every backend's prepare() step once
 * (Winograd weight transforms, int8 quantization with activation
 * calibration). After construction the session is strictly read-only:
 * run() may be called concurrently from any number of workers, each
 * passing its own scratch arena.
 */

#ifndef TWQ_RUNTIME_SESSION_HH
#define TWQ_RUNTIME_SESSION_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/perf.hh"
#include "runtime/engine.hh"
#include "runtime/plan_cache.hh"

namespace twq::obs
{
class Histogram;
}

namespace twq
{

/** How a Session materializes and executes a network. */
struct SessionConfig
{
    /** Winograd variant for both FP32 and int8 Winograd layers. */
    WinoVariant variant = WinoVariant::F2;

    /**
     * Engine for winograd-eligible layers; ineligible layers (strided
     * or non-3x3) always run im2col, mirroring the paper's
     * accelerator.
     */
    ConvEngine defaultEngine = ConvEngine::WinogradFp32;

    /** Per-layer overrides by layer name (after repeat expansion). */
    std::map<std::string, ConvEngine> layerEngines;

    /**
     * Collapse conv→bias[→ReLU] runs of the network's layer chain
     * (xform/fuse.hh) into each conv engine's final output write, so
     * post-op activations are touched exactly once. Off, the post-ops
     * run as separate full passes over the activation after the conv
     * — the baseline the fused path must match bit for bit on every
     * FP engine (the epilogue arithmetic is identical element-wise,
     * only the number of memory passes differs).
     */
    bool fuseEpilogues = true;

    /**
     * Let autoSelect additionally race the binary16-storage blocked
     * engine (WinogradBlockedF16) for FP Winograd layers. Opt-in
     * because fp16 storage rounds activations and weights to half
     * precision — accuracy-gated rather than bit-identical — so the
     * policy must not silently trade accuracy for speed. The f16
     * candidate is timed on its native half-precision hot path
     * (runF16 on a pre-narrowed blocked probe), symmetric with
     * blocked candidates timed on a blocked probe.
     */
    bool raceF16 = false;

    /**
     * Pick the execution plan per layer from a measured
     * microbenchmark instead of trusting defaultEngine blindly: at
     * session build each eligible FP layer is prepared for im2col,
     * for winograd-fp32 under every transform variant (F2/F4/F6),
     * and for the NCHWc8 blocked-layout winograd under every
     * variant, timed on a sample batch (blocked candidates on a
     * blocked probe), and the fastest candidate wins — the policy
     * picks the engine, the Winograd variant and the activation
     * layout together. Quantized Winograd layers (defaultEngine
     * winograd-blocked-int8) race their own quantized candidate set
     * the same way (blocked int-winograd under F2 and F4, and
     * im2col-int8 — variants clamped by the bitwidth model's int8
     * eligibility gate, which excludes F6) — never an FP engine,
     * which would silently drop the configured quantization.
     * Ineligible layers still always land on their im2col fallback,
     * and explicit layerEngines overrides are honored unmeasured.
     */
    bool autoSelect = false;

    /** Batch size of the autoSelect timing probe. */
    std::size_t autoSelectBatch = 8;

    /**
     * The seam-cost switch of the chain planner (planChain). Every
     * build plans all layers with one dynamic program over their
     * candidate tables; on, its edges charge the measured NCHW↔NCHWc8
     * conversion cost wherever consecutive picks disagree on layout
     * (plus chain ingress and egress, which are NCHW on both ends),
     * so a blocked candidate that wins its layer by less than the
     * seams it would create loses the chain. Off, the seam costs are
     * zero and every layer gets its own table's argmin — the A/B
     * baseline the bench matrix reports next to the joint plan.
     */
    bool chainDp = true;

    /**
     * Optional cache of measured autoSelect plans, shared across
     * sessions and serializable (runtime/plan_cache.hh). A hit keyed
     * by the layer's shape (and probe batch) applies the cached
     * engine/variant/layout without re-running the probe; a miss
     * measures as usual and records the winner.
     */
    PlanCache *planCache = nullptr;

    /**
     * Auto-persisted plan cache: when non-empty, the session loads
     * this file into its plan cache before the build (ignoring a
     * missing, malformed, or stale-signature file — those re-probe)
     * and saves it back after the build if any plan was added or
     * refreshed. With a null `planCache` the session owns a private
     * cache behind the path; with both set, the shared cache is
     * loaded from and saved to the path. The file format is versioned
     * against the kernel-table/CPU signature (PlanCache::signature),
     * so a cache written by a different machine or build re-probes
     * instead of misfiring.
     */
    std::string planCachePath;

    /**
     * Route winograd-ineligible layers to the int8 im2col baseline
     * engine (instead of FP im2col) when defaultEngine is quantized
     * (winograd-blocked-int8 or im2col-int8), so a quantized session
     * is quantized end to end — the paper's apples-to-apples
     * fallback.
     */
    bool int8Fallback = true;

    /** Quantization settings for int8 layers. */
    IntWinogradConfig quant;

    /**
     * When non-empty, arm the runtime tracer (obs/trace.hh) for the
     * life of this session and write a Chrome trace-event JSON —
     * loadable in chrome://tracing or Perfetto — to this path when
     * the session is destroyed. The trace carries one lane per
     * worker/dispatcher thread with per-layer stage spans (the
     * blocked engines' chunk walk — one span per layer, not per
     * chunk — and the int8 engine's quantize; the NCHW Winograd
     * engine's gather/B-kron/per-tap GEMM/untile), batching waits,
     * pool shards, and autoSelect probe spans from the build.
     * Tracing is process-global; one traced session at a time. Empty
     * (the default) leaves tracing off, which costs one predicted
     * branch per span site.
     */
    std::string tracePath;

    /**
     * Per-thread trace ring capacity (events) handed to
     * TraceCollector::enable when tracePath arms tracing. When the
     * `trace.dropped_events` gauge grows, raise this (each event is a
     * few dozen bytes; the default holds ~32k spans per thread).
     */
    std::size_t traceRingSlots = std::size_t{1} << 15;

    /** Deterministic weight initialization. */
    std::uint64_t weightSeed = 0x5eed;

    /** Inputs drawn to calibrate int8 activation scales. */
    std::size_t calibrationSamples = 2;
    std::uint64_t calibrationSeed = 77;
};

/**
 * How one layer's (engine, variant) plan was decided, for the
 * /statusz introspection endpoint and operators auditing autoSelect.
 * `probeNs` is the winning candidate's best probe run (0 when the
 * plan was not probed in this process); `counters` carries the
 * hardware counters sampled over that probe when perf_event_open was
 * available (counters.valid false otherwise).
 */
struct LayerPlanInfo
{
    std::string name;
    ConvEngine engine = ConvEngine::Im2col;
    WinoVariant variant = WinoVariant::F2;
    /** "default" | "configured" | "cache" | "probed". */
    const char *source = "default";
    std::uint64_t probeNs = 0;
    obs::PerfCounters counters;
};

/**
 * One candidate plan of a layer as planChain() sees it: a row of the
 * layer's candidate table. `ns` is the node cost (the candidate's
 * best probe run, measured live or read from the plan cache; 0 on a
 * fixed single-row layer, where it cannot matter). `counters` is
 * provenance for LayerPlanInfo only; the planner never reads it.
 */
struct PlanRow
{
    ConvEngine engine = ConvEngine::Im2col;
    WinoVariant variant = WinoVariant::F2;
    std::uint64_t ns = 0;
    LayoutPlan layout;
    obs::PerfCounters counters;
};

/**
 * Measured NCHW↔NCHWc8 conversion costs at a layer's input and
 * output shapes, in ns (0 = unmeasured). The boundary between layers
 * i-1 and i is one shape, so planChain() prefers layer i-1's output
 * measurement and borrows layer i's input one when the upstream
 * layer measured nothing.
 */
struct SeamCosts
{
    std::uint64_t inToBlockedNs = 0;
    std::uint64_t inToNchwNs = 0;
    std::uint64_t outToBlockedNs = 0;
    std::uint64_t outToNchwNs = 0;
};

/**
 * The chain planner: a Viterbi pass over every layer's candidate
 * table (`rows[i]`, non-empty) that picks one row per layer,
 * minimizing the sum of node costs plus the seam cost wherever
 * consecutive picks disagree on layout, including chain ingress and
 * egress (the chain is NCHW on both ends). Pure arithmetic: no
 * timing, no registry. With all-zero `seams` every layer gets its
 * table's argmin, the first row winning exact ties. Returns one row
 * index per layer.
 */
std::vector<std::size_t>
planChain(const std::vector<std::vector<PlanRow>> &rows,
          const std::vector<SeamCosts> &seams);

/** An immutable, concurrently-executable model instance. */
class Session
{
  public:
    Session(const NetworkDesc &net, const SessionConfig &cfg);

    /**
     * Flushes the trace to SessionConfig::tracePath when that was
     * set (and a no-op otherwise).
     */
    ~Session();

    const NetworkDesc &network() const { return net_; }
    const SessionConfig &config() const { return cfg_; }

    /** Expected request shape, [1, C, H, W]. */
    const Shape &inputShape() const { return inputShape_; }

    /** Response shape for a single request, [1, C, H, W]. */
    const Shape &outputShape() const { return outputShape_; }

    /**
     * Executed layer count — conv layers after epilogue-fusion
     * planning; bias/ReLU post-op nodes of the network never count,
     * whether folded into their conv (fuseEpilogues) or applied as
     * separate session-level passes.
     */
    std::size_t layerCount() const { return layers_.size(); }
    const ConvLayerDesc &layerDesc(std::size_t i) const;
    ConvEngine layerEngine(std::size_t i) const;

    /**
     * The post-conv epilogue planned for a layer (bias drawn
     * deterministically from weightSeed for an absorbed Bias node,
     * relu from an absorbed Relu node; inactive for a bare conv).
     * Applied fused or as separate passes per
     * SessionConfig::fuseEpilogues — same values either way.
     */
    const Epilogue &layerEpilogue(std::size_t i) const;

    /**
     * Winograd variant a layer executes with (meaningful for the
     * Winograd engines; autoSelect may pick it per layer).
     */
    WinoVariant layerVariant(std::size_t i) const;

    /**
     * The activation layouts a layer's backend consumes and produces
     * — the session-level layout plan. run()/runInto() convert
     * between consecutive layers only where these disagree, so a
     * chain of NCHWc8 layers keeps its activations blocked in arena
     * slots and converts exactly once at ingress and once at egress.
     */
    const LayoutPlan &layerLayout(std::size_t i) const;

    /** Plan provenance of layer i (see LayerPlanInfo). */
    LayerPlanInfo layerPlan(std::size_t i) const;

    /**
     * Forward a (possibly batched) NCHW tensor through every layer.
     * Thread-safe: only reads shared prepared state; per-call scratch
     * lives in `scratch`. `ctx` optionally shards each large layer's
     * independent GEMMs across a worker pool (intra-batch
     * parallelism); outputs are bit-identical either way.
     */
    TensorD run(const TensorD &batch, ScratchArena &scratch,
                const RunContext &ctx) const;

    /** Serial overload. */
    TensorD run(const TensorD &batch, ScratchArena &scratch) const;

    /** Convenience overload with a throwaway arena. */
    TensorD run(const TensorD &batch) const;

    /**
     * Like run(), but the final layer writes into the caller-provided
     * `out` (pre-shaped [N, Cout, Ho, Wo] — e.g. an arena slot), so a
     * steady serving loop allocates nothing for the batch result.
     */
    void runInto(const TensorD &batch, ScratchArena &scratch,
                 const RunContext &ctx, TensorD &out) const;

  private:
    struct Layer
    {
        ConvLayerDesc desc;
        ConvParams params;
        ConvEngine engine = ConvEngine::Im2col;
        WinoVariant variant = WinoVariant::F2;
        /// Layout contract of this layer's backend (planned once at
        /// session build from the backend's declared layouts).
        LayoutPlan layout;
        std::shared_ptr<const ConvBackend> backend;
        std::shared_ptr<const PreparedLayer> prepared;
        /// Arena slot of this layer's output activation; intermediate
        /// activations live in the worker's arena so the serving loop
        /// performs no steady-state allocations.
        ScratchArena::Slot activation = 0;
        /// Arena slot holding this layer's input re-laid into the
        /// backend's layout, used only when the producing layer's
        /// output layout disagrees.
        ScratchArena::Slot convert = 0;
        /// Post-conv epilogue planned for this layer. Fused sessions
        /// hand it to the backend (LayerBuild::epilogue); unfused
        /// sessions apply it as separate passes after run().
        Epilogue epilogue;
        /// binary16 twins of activation/convert, used only when the
        /// backend stores activations as half (f16Storage()).
        ScratchArena::Slot activationH = 0;
        ScratchArena::Slot convertH = 0;
        /// Arena slot for widening a half activation back to double
        /// when the consumer is not an f16 backend (or at egress).
        ScratchArena::Slot widen = 0;
        /// Interned trace-span name ("layer:<name>"); spans store the
        /// pointer, so the string must outlive the trace flush — it
        /// lives as long as the session, whose destructor flushes.
        std::string spanName;
        /// Per-layer wall-time distribution in the global registry
        /// ("layer.<net>.<name>.latency_ns"), resolved once at build.
        obs::Histogram *latency = nullptr;
        /// Plan provenance, surfaced through layerPlan().
        const char *planSource = "default";
        std::uint64_t planProbeNs = 0;
        obs::PerfCounters planCounters;
    };

    NetworkDesc net_;
    SessionConfig cfg_;
    Shape inputShape_;
    Shape outputShape_;
    std::vector<Layer> layers_;
    /// Private plan cache backing SessionConfig::planCachePath when
    /// the config supplies a path but no shared cache instance.
    std::unique_ptr<PlanCache> ownedCache_;
    /// Whether this session enabled tracing (cfg_.tracePath set) and
    /// owes a flush at destruction.
    bool traceArmed_ = false;
};

/**
 * Whether two sessions run the same plan: the same layer count and,
 * layer by layer, the same (engine, variant, layout).
 */
bool samePlan(const Session &a, const Session &b);

} // namespace twq

#endif // TWQ_RUNTIME_SESSION_HH
