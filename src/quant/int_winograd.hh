/**
 * @file
 * Integer-only tap-wise quantized Winograd convolution (Section III).
 *
 * Implements the paper's quantization scheme
 *
 *   y = A^T [ S_BG ⊙ Σ_Cin round(B^T x̂ B ⊘ S_B) ⊙ round(G f̂ G^T ⊘ S_G) ] A
 *
 * with per-tap scaling matrices S_B, S_G and S_BG = S_B ⊙ S_G. All
 * multiplications and the channel reduction run in the integer
 * domain; rescaling happens once, before the back-transformation.
 * Layer-wise (single-scalar) granularity reproduces the "traditional"
 * quantization that breaks F4 accuracy; tap-wise granularity is the
 * paper's contribution.
 *
 * Execution uses the flat tap-major scatter–GEMM–gather layout
 * (winograd/tiled.hh): quantized input tiles are scattered into one
 * [t*t, Cin, P] int64 buffer, the channel reduction runs as t*t
 * independent [Cout, Cin] x [Cin, P] integer GEMMs, and the tap-wise
 * S_BG rescale is applied per GEMM slice in the gather. Integer
 * summation is order-independent, so the tiled path is bit-identical
 * to the tile-at-a-time reference (forwardReference /
 * forwardInt8Reference), which is kept as the oracle.
 */

#ifndef TWQ_QUANT_INT_WINOGRAD_HH
#define TWQ_QUANT_INT_WINOGRAD_HH

#include <vector>

#include "quant/scales.hh"
#include "tensor/tensor.hh"
#include "winograd/matrices.hh"

namespace twq
{

class CalibrationCache;

/** Configuration of the integer Winograd pipeline. */
struct IntWinogradConfig
{
    WinoVariant variant = WinoVariant::F4;
    int spatialBits = 8;   ///< activation/weight bits in spatial domain
    int winogradBits = 8;  ///< bits in the Winograd domain (8 or 10)
    QuantGranularity granularity = QuantGranularity::TapWise;
    bool pow2Scales = true; ///< restrict scales to powers of two
    std::size_t pad = 1;
};

/**
 * A quantized 3x3 convolution layer executing the integer Winograd
 * pipeline. Weights are transformed and quantized at construction
 * (the accelerator does this on the fly in MTE1); inputs are
 * quantized per call.
 */
class IntWinogradConv
{
  public:
    /**
     * @param weights     FP weights [Cout, Cin, 3, 3].
     * @param calibration sample input tensors (NCHW) used to
     *                    calibrate the activation and tap scales.
     * @param cfg         pipeline configuration.
     * @param calCache    optional shared calibration statistics
     *                    (quant/calibration.hh): candidates racing
     *                    the same layer reuse the abs-max,
     *                    fake-quantization, and tap-maxima passes
     *                    instead of recomputing them; results are
     *                    bit-identical with or without the cache.
     */
    IntWinogradConv(const TensorD &weights,
                    const std::vector<TensorD> &calibration,
                    const IntWinogradConfig &cfg,
                    CalibrationCache *calCache = nullptr);

    /**
     * Run quantized inference through the tiled scatter–GEMM–gather
     * pipeline; returns the dequantized FP output. Bit-identical to
     * forwardReference().
     */
    TensorD forward(const TensorD &input) const;

    /**
     * Tiled forward writing into caller-provided buffers: `xq` holds
     * the quantized input, `V` the raw tiles, `U`/`M` the
     * scatter/GEMM planes, `Md`/`Y` the FP dequant and back-transform
     * planes (reshaped as needed), `out` the pre-shaped
     * [N, Cout, Ho, Wo] result. With reused buffers the repeated
     * calls perform no allocations. Bit-identical to
     * forwardReference().
     */
    void forwardInto(const TensorD &input, TensorI64 &xq, TensorI64 &V,
                     TensorI64 &U, TensorI64 &M, TensorD &Md,
                     TensorD &Y, TensorD &out) const;

    /**
     * Tile-at-a-time reference implementation (the original
     * formulation, one [t, t] Matrix per step). Kept as the oracle
     * the tiled path is verified against.
     */
    TensorD forwardReference(const TensorD &input) const;

    /**
     * Fully integer inference path (requires pow2Scales): the S_BG
     * rescale, the output transform, and the final requantization to
     * int8 are carried out with integer adds and shifts only, the
     * way the FixPipe/Vector Unit does it on the accelerator. Runs
     * tiled; bit-identical to forwardInt8Reference().
     *
     * @param input     FP input (quantized internally with s_x).
     * @param out_scale output: the power-of-two scale of the
     *                  returned int8 tensor.
     * @param fuse_relu apply ReLU before requantization (the fused
     *                  activation of the FixPipe).
     */
    TensorI8 forwardInt8(const TensorD &input, double *out_scale,
                         bool fuse_relu = false) const;

    /** Tile-at-a-time reference of forwardInt8 (the oracle). */
    TensorI8 forwardInt8Reference(const TensorD &input,
                                  double *out_scale,
                                  bool fuse_relu = false) const;

    std::size_t cout() const { return cout_; }
    std::size_t cin() const { return cin_; }

    /** Input activation scale s_x (spatial domain). */
    double inputScale() const { return sx_; }

    /**
     * Per-tap input rescale factors S_B in the integer domain, i.e.
     * the divisor applied to B^T x̂ B before clamping to
     * `winogradBits`. Powers of two when pow2Scales is set.
     */
    const MatrixD &inputTapScale() const { return sb_; }

    /** Per-tap/channel weight scales S_G (Winograd domain). */
    const ScaleSet &weightScales() const { return wscales_; }

    /** Right-shift amounts log2(S_B) when scales are powers of two. */
    std::vector<int> inputShifts() const;

    /** Quantized weights, flat tap-major [t*t][Cout][Cin]. */
    const std::vector<std::int64_t> &tapWeights() const
    {
        return wqTaps_;
    }

    const IntWinogradConfig &config() const { return cfg_; }

  private:
    /// Tiled integer pipeline shared by forward and forwardInt8:
    /// quantize + scatter (spatial->Winograd with the S_B rescale) and
    /// the per-tap GEMM. `useShifts` selects the shift-based rescale
    /// (forwardInt8) over round(x/s) (forward); both are identical
    /// for power-of-two scales.
    void scatterGemm(const TensorD &input, bool useShifts,
                     TensorI64 &xq, TensorI64 &V, TensorI64 &U,
                     TensorI64 &M) const;

    IntWinogradConfig cfg_;
    std::size_t cout_;
    std::size_t cin_;
    double sx_ = 1.0;          ///< spatial activation scale
    MatrixD sb_;               ///< [t,t] integer-domain input divisors
    ScaleSet wscales_;         ///< Winograd-domain weight scales
    /// Quantized Winograd-domain weights, one [t,t] tile per
    /// (oc, ic), values in `winogradBits` range (reference layout).
    std::vector<MatrixI64> wq_;
    /// The same weights re-laid tap-major [t*t][cout][cin] for the
    /// per-tap GEMM.
    std::vector<std::int64_t> wqTaps_;
    /// Fused FP dequant scales S_B ⊙ S_G ⊙ s_x per (tap, oc),
    /// [t*t * cout], computed in the same association order as the
    /// blocked engine's sbgSx_ table. The gather is specified in
    /// row-pass (Kronecker) order over this fused scale; the blocked
    /// engine follows the same specification and is tested against
    /// forward() within a relative 1e-9.
    std::vector<double> dqScale_;
};

/** Relative L2 error ||a - b|| / ||b||; b is the reference. */
double relativeL2Error(const TensorD &a, const TensorD &b);

} // namespace twq

#endif // TWQ_QUANT_INT_WINOGRAD_HH
