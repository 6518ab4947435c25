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
 * This class is the prepare step and the oracle of that pipeline: it
 * calibrates the scales and quantizes the weights once, and its
 * forward paths run the paper's formulation one [t, t] tile at a time
 * on NCHW tensors. The served form is the NCHWc8 blocked engine
 * (quant/int_wino_blocked.hh), which copies what it needs from a
 * prepared IntWinogradConv and is tested against these forward paths.
 */

#ifndef TWQ_QUANT_INT_WINOGRAD_HH
#define TWQ_QUANT_INT_WINOGRAD_HH

#include <cstdint>
#include <functional>
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
     * Run quantized inference tile at a time; returns the
     * dequantized FP output [N, Cout, Ho, Wo].
     */
    TensorD forward(const TensorD &input) const;

    /**
     * Fully integer inference path (requires pow2Scales): the S_BG
     * rescale, the output transform, and the final requantization to
     * int8 are carried out with integer adds and shifts only, the
     * way the FixPipe/Vector Unit does it on the accelerator.
     *
     * @param input     FP input (quantized internally with s_x).
     * @param out_scale output: the power-of-two scale of the
     *                  returned int8 tensor.
     * @param fuse_relu apply ReLU before requantization (the fused
     *                  activation of the FixPipe).
     */
    TensorI8 forwardInt8(const TensorD &input, double *out_scale,
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
    /// Receives one output tile's integer accumulator: (n, tile row,
    /// tile column, oc, the [t*t] channel sums in tap order).
    using TileFn =
        std::function<void(std::size_t, std::size_t, std::size_t,
                           std::size_t, const std::int64_t *)>;

    /// The integer stages shared by forward and forwardInt8, one tile
    /// at a time: quantize, B^T x̂ B, the S_B rescale (by shifts, or
    /// by round(x/s) — identical for power-of-two scales) and the
    /// channel reduction, handing each (tile, oc) sum to `emit`.
    void forEachTile(const TensorD &input, bool useShifts,
                     const TileFn &emit) const;

    IntWinogradConfig cfg_;
    std::size_t cout_;
    std::size_t cin_;
    double sx_ = 1.0;          ///< spatial activation scale
    MatrixD sb_;               ///< [t,t] integer-domain input divisors
    ScaleSet wscales_;         ///< Winograd-domain weight scales
    /// Quantized Winograd-domain weights, values in `winogradBits`
    /// range, tap-major [t*t][cout][cin].
    std::vector<std::int64_t> wqTaps_;
    /// Fused FP dequant scales S_B ⊙ S_G ⊙ s_x per (tap, oc),
    /// [t*t * cout], computed in the same association order as the
    /// blocked engine's sbgSx_ table. The dequant is specified in
    /// row-pass (Kronecker) order over this fused scale; the blocked
    /// engine follows the same specification and is tested against
    /// forward() within a relative 1e-9.
    std::vector<double> dqScale_;
};

/** Relative L2 error ||a - b|| / ||b||; b is the reference. */
double relativeL2Error(const TensorD &a, const TensorD &b);

} // namespace twq

#endif // TWQ_QUANT_INT_WINOGRAD_HH
