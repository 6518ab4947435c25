/**
 * @file
 * Winograd transformation engine models (Table I of the paper).
 *
 * Two implementation styles are explored:
 *  - row-by-row: a spatial PE consumes one row of the tile per cycle
 *    and hardcodes the vector-matrix product with T; the second pass
 *    either reuses the same resources ("slow", hT + wT cycles per
 *    transform) or adds wT x wT output-stationary lanes ("fast",
 *    hT cycles).
 *  - tap-by-tap: a minimal PE (configurable shifter + adder +
 *    accumulator) fully unrolled in time; cycles depend on the
 *    sparsity and CSE structure of T (derived from the DFG).
 *
 * Parallelization factors: Pc (channels), Ps (spatial), and for the
 * tap-by-tap engine Pt (taps within one PE).
 */

#ifndef TWQ_XFORM_ENGINES_HH
#define TWQ_XFORM_ENGINES_HH

#include <string>

#include "xform/dfg.hh"

namespace twq
{

/** Engine implementation style. */
enum class EngineKind
{
    RowByRowSlow,
    RowByRowFast,
    TapByTap,
};

const char *engineKindName(EngineKind k);

/**
 * Which convolution implementation executes a layer at serving time.
 *
 * This is the software-side counterpart of EngineKind: the inference
 * runtime (src/runtime/) assigns one ConvEngine per layer and
 * dispatches through the EngineRegistry. Strided and non-3x3 layers
 * always fall back to Im2col, mirroring the paper's accelerator.
 */
enum class ConvEngine
{
    Im2col,       ///< im2col + matmul baseline (any kernel/stride)
    WinogradFp32, ///< FP32 Winograd, 3x3 stride-1 only
    Im2colInt8,   ///< int8 im2col on the widening GEMM micro-kernel;
                  ///< the quantized path's fallback for layers the
                  ///< Winograd engines cannot execute
    WinogradBlocked, ///< FP32 Winograd on the NCHWc8 blocked
                     ///< activation layout (src/layout/): unit-stride
                     ///< tile gathers and c-block SIMD lanes; the
                     ///< session keeps its activations blocked
    WinogradBlockedInt8, ///< int8 tap-wise quantized Winograd on the
                         ///< NCHWc8 layout: blocked tiles quantize in
                         ///< place and the per-tap widening GEMM runs
                         ///< the int16 c-block kernel
                         ///< (quant/int_wino_blocked.hh)
    WinogradBlockedF16, ///< FP Winograd on the NCHWc8 layout with
                        ///< binary16 storage for weights and
                        ///< inter-layer activations, fp32 compute
                        ///< (layout/kernels_f16.hh): halves the
                        ///< bandwidth of the bandwidth-bound
                        ///< gather/untile stages
};

/**
 * Name ("im2col" / "winograd-fp32" / "im2col-int8" /
 * "winograd-blocked" / "winograd-blocked-int8" /
 * "winograd-blocked-f16").
 */
const char *convEngineName(ConvEngine e);

/** Parse a ConvEngine from its convEngineName; false if unknown. */
bool convEngineFromName(const std::string &name, ConvEngine *out);

/** All serving engines, in declaration order. */
inline constexpr ConvEngine kAllConvEngines[] = {
    ConvEngine::Im2col,
    ConvEngine::WinogradFp32,
    ConvEngine::Im2colInt8,
    ConvEngine::WinogradBlocked,
    ConvEngine::WinogradBlockedInt8,
    ConvEngine::WinogradBlockedF16,
};

/** Static engine configuration. */
struct EngineConfig
{
    EngineKind kind = EngineKind::RowByRowFast;
    std::size_t pc = 1; ///< parallel transforms along channels
    std::size_t ps = 1; ///< parallel transforms along space
    std::size_t pt = 1; ///< parallel taps per PE (tap-by-tap only)
    std::size_t inBytes = 1;  ///< element size read (int8 = 1)
    std::size_t outBytes = 1; ///< element size written
};

/** Performance/cost report for one engine instance (Table I row). */
struct EnginePerf
{
    double cyclesPerXform = 0.0;   ///< per transform, one PE group
    std::size_t parallelXforms = 1;
    double rdBytesPerCycle = 0.0;
    double wrBytesPerCycle = 0.0;
    /// Area proxies from the shift-add DFG.
    std::size_t addersPerPe = 0;
    std::size_t shiftersPerPe = 0;
    std::size_t dfgDepth = 0;
    /// Transform throughput in transforms per cycle (all PEs).
    double
    xformsPerCycle() const
    {
        return static_cast<double>(parallelXforms) / cyclesPerXform;
    }
};

/**
 * Evaluate an engine configuration for the transform T^T s T.
 *
 * @param t   transformation matrix T (shape [hT, wT]); pass
 *            winoBT(v).transposed() for the input transform,
 *            winoG(v).transposed() for the weight transform, and
 *            winoAT(v).transposed() for the output transform.
 * @param cfg engine configuration.
 */
EnginePerf evaluateEngine(const Matrix<Rational> &t,
                          const EngineConfig &cfg);

/**
 * Number of sequential shift/add operations of a tap-by-tap schedule
 * after CSE (unique adder-ops in the DFG).
 */
std::size_t tapByTapOps(const Matrix<Rational> &t);

/**
 * Adders of the row-by-row vector PE (one row times T as a
 * shift-add network, after CSE).
 */
std::size_t rowPeAdders(const Matrix<Rational> &t);

} // namespace twq

#endif // TWQ_XFORM_ENGINES_HH
