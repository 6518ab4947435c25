/**
 * @file
 * Pluggable conv-engine dispatch for the serving runtime.
 *
 * A ConvBackend wraps one of the library's convolution
 * implementations behind a prepare/run split: prepare() does all
 * weight-side work (Winograd weight transform, int8 quantization and
 * calibration) once at session load; run() is the hot path and only
 * touches immutable prepared state plus the caller's scratch arena.
 * The EngineRegistry maps each ConvEngine (xform/engines.hh) to its
 * backend and is open for registration of new engines.
 */

#ifndef TWQ_RUNTIME_ENGINE_HH
#define TWQ_RUNTIME_ENGINE_HH

#include <memory>
#include <mutex>
#include <vector>

#include "gemm/parallel.hh"
#include "layout/layout.hh"
#include "models/zoo.hh"
#include "quant/calibration.hh"
#include "quant/int_winograd.hh"
#include "runtime/arena.hh"
#include "tensor/im2col.hh"
#include "xform/engines.hh"
#include "xform/fuse.hh"

namespace twq
{

/** Opaque per-layer state produced by ConvBackend::prepare(). */
struct PreparedLayer
{
    virtual ~PreparedLayer() = default;
};

/**
 * gemm::PackPool over per-lane ScratchArenas: each lane's pack buffer
 * is a reserved slot in that lane's arena, so sharded GEMMs stay
 * allocation-free once every lane has touched its slot.
 */
class ArenaPackPool : public gemm::PackPool
{
  public:
    explicit ArenaPackPool(std::vector<ScratchArena> &arenas)
        : arenas_(&arenas)
    {}

    double *packD(std::size_t lane) override;
    std::int8_t *packI8(std::size_t lane) override;

  private:
    std::vector<ScratchArena> *arenas_;
};

/**
 * Intra-batch execution context handed down to ConvBackend::run.
 *
 * With a null runner (the default) the layer executes serially on the
 * calling thread. With a runner, a backend shards its independent
 * GEMM work — the t*t per-tap products, im2col's output-channel
 * blocks — across the runner's lanes, but only when the layer's GEMM
 * stage is at least `minParallelMacs` multiply-accumulates; below
 * that, sharding overhead outweighs the win. Sharded execution is
 * bit-identical to serial for every backend (each shard is the same
 * computation it would be serially).
 */
struct RunContext
{
    gemm::ParallelRunner *runner = nullptr;
    gemm::PackPool *packs = nullptr;
    double minParallelMacs = 1 << 18;

    /** The runner, or null when the layer is too small to shard. */
    gemm::ParallelRunner *
    runnerFor(double gemmMacs) const
    {
        return gemmMacs >= minParallelMacs ? runner : nullptr;
    }
};

/** Everything a backend may need to prepare one layer. */
struct LayerBuild
{
    ConvParams params;
    WinoVariant variant = WinoVariant::F2;
    /// Quantization settings for the int8 engine; variant and pad are
    /// synchronized with the fields above by the session.
    IntWinogradConfig quant;
    /// Sample inputs of this layer (NCHW) for scale calibration; may
    /// be null for backends that do not calibrate.
    const std::vector<TensorD> *calibration = nullptr;
    /// Shared calibration statistics over `calibration`
    /// (quant/calibration.hh). The session hands every candidate of
    /// one layer the same cache so autoSelect's quantized race pays
    /// each calibration pass once instead of per candidate; null
    /// falls back to per-backend recalibration (identical results).
    CalibrationCache *calCache = nullptr;
    /// Fused post-conv epilogue (xform/fuse.hh). Backends fold an
    /// active epilogue into their final output write; an inactive one
    /// is free. Captured into the prepared state so the hot path pays
    /// no per-run descriptor handling.
    Epilogue epilogue;
};

/** One convolution implementation usable by the runtime. */
class ConvBackend
{
  public:
    virtual ~ConvBackend() = default;

    virtual ConvEngine kind() const = 0;

    /** Can this backend execute the layer at all? */
    virtual bool supports(const ConvLayerDesc &desc) const = 0;

    /**
     * Activation layout run() consumes / produces. The session's
     * layout planner reads these at prepare time, inserts a
     * conversion only where consecutive layers disagree, and keeps
     * matching inter-layer activations in their native layout — a
     * chain of NCHWc8 layers converts once at ingress and once at
     * egress. For NCHWc8 the tensors handed to run() carry the
     * physical [N, C/8, H, W, 8] shape.
     */
    virtual ActLayout
    inputLayout() const
    {
        return ActLayout::NCHW;
    }

    virtual ActLayout
    outputLayout() const
    {
        return ActLayout::NCHW;
    }

    /** One-time weight-side preparation; called off the hot path. */
    virtual std::shared_ptr<const PreparedLayer>
    prepare(const ConvLayerDesc &desc, const TensorD &weights,
            const LayerBuild &build) const = 0;

    /** Output shape for a given (batched) input shape. */
    virtual Shape outputShape(const PreparedLayer &prep,
                              const Shape &input) const = 0;

    /**
     * Execute the layer on a (possibly batched) NCHW input, writing
     * into `out` (pre-shaped to outputShape() by the caller — the
     * session hands out reusable arena activations so the serving
     * loop allocates nothing). Must be thread-safe with respect to
     * `prep`, which is shared between workers; per-call mutable state
     * lives in `scratch`. `ctx` optionally enables intra-batch
     * parallelism (see RunContext); results are identical either way.
     */
    virtual void run(const PreparedLayer &prep, const TensorD &input,
                     ScratchArena &scratch, TensorD &out,
                     const RunContext &ctx) const = 0;

    /** Serial convenience overload. */
    void
    run(const PreparedLayer &prep, const TensorD &input,
        ScratchArena &scratch, TensorD &out) const
    {
        run(prep, input, scratch, out, RunContext{});
    }

    /**
     * True when this backend's native activation storage is binary16:
     * the session then moves this layer's inter-layer activations as
     * TensorF16 through runF16() instead of TensorD through run(),
     * halving activation bandwidth. run() must still work (the
     * session's probe and conversion seams use it), at the cost of
     * double<->half conversion inside the backend.
     */
    virtual bool
    f16Storage() const
    {
        return false;
    }

    /**
     * Half-storage hot path, only meaningful when f16Storage() is
     * true. Same contract as run() with binary16 activations (layout
     * per inputLayout()/outputLayout()). The default panics so
     * non-f16 backends cannot be driven here by mistake.
     */
    virtual void runF16(const PreparedLayer &prep,
                        const TensorF16 &input, ScratchArena &scratch,
                        TensorF16 &out, const RunContext &ctx) const;
};

/**
 * Wall-clock seconds of the fastest of `iters` runs of a prepared
 * layer (after one untimed warmup). Used by SessionConfig::autoSelect
 * and the bench smoke check to compare engines per layer.
 */
double timeBackendRun(const ConvBackend &backend,
                      const PreparedLayer &prep, const TensorD &input,
                      ScratchArena &scratch, int iters = 3);

/** timeBackendRun for the binary16 hot path (f16Storage backends). */
double timeBackendRunF16(const ConvBackend &backend,
                         const PreparedLayer &prep,
                         const TensorF16 &input, ScratchArena &scratch,
                         int iters = 3);

/**
 * Process-wide table of conv backends, keyed by ConvEngine.
 *
 * Lookups hand out shared ownership: a Session built against a
 * backend keeps it alive even if the registry entry is later
 * replaced, and registration is safe against concurrent lookups.
 */
class EngineRegistry
{
  public:
    /** The registry, with the built-in backends registered. */
    static EngineRegistry &instance();

    /** Register (or replace) the backend for its engine kind. */
    void registerBackend(std::shared_ptr<ConvBackend> backend);

    /** Look up a backend; panics if none is registered. */
    std::shared_ptr<const ConvBackend> get(ConvEngine e) const;

  private:
    EngineRegistry();

    mutable std::mutex mu_;
    std::vector<std::shared_ptr<ConvBackend>> backends_;
};

} // namespace twq

#endif // TWQ_RUNTIME_ENGINE_HH
