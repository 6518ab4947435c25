/**
 * @file
 * Shared calibration statistics for one layer's quantized candidates.
 *
 * autoSelect races up to three quantized candidates per layer
 * (blocked int-winograd F2/F4, im2col-int8), and each one used to
 * recalibrate from scratch on the same calibration set: an abs-max
 * pass, a fake-quantization pass, and a Winograd-tap maxima pass per
 * IntWinogradConv build — ~7 passes per layer where 4 suffice. A CalibrationCache memoizes each statistic the first
 * time any candidate asks for it; every later candidate reuses the
 * exact same result, so cached and uncached builds are bit-identical.
 *
 * Every *computed* pass increments the process-wide
 * `quant.calibration_passes` counter (obs::Registry::global()), which
 * is how tests prove the sharing: a quantized autoSelect build with
 * the cache performs 4 passes per layer instead of 7.
 *
 * Not thread-safe: a cache belongs to one session build's layer loop,
 * which prepares candidates sequentially.
 */

#ifndef TWQ_QUANT_CALIBRATION_HH
#define TWQ_QUANT_CALIBRATION_HH

#include <map>
#include <tuple>
#include <vector>

#include "quant/quantizer.hh"
#include "quant/scales.hh"
#include "tensor/tensor.hh"
#include "winograd/matrices.hh"

namespace twq
{

class CalibrationCache
{
  public:
    /** `calibration` must outlive the cache (the session's calSet). */
    explicit CalibrationCache(const std::vector<TensorD> *calibration)
        : calibration_(calibration)
    {}

    CalibrationCache(const CalibrationCache &) = delete;
    CalibrationCache &operator=(const CalibrationCache &) = delete;

    const std::vector<TensorD> &set() const { return *calibration_; }

    /**
     * The spatial-domain abs-max calibrator (MaxCalibrator EMA over
     * the set, exactly as the uncached engines run it). One data
     * pass, memoized.
     */
    const MaxCalibrator &spatial();

    /**
     * The calibration set fake-quantized at (scale, bits) — each
     * value replaced by the double it quantizes to. Memoized per key;
     * all of a layer's candidates share one (scale, bits), so in
     * practice this is a single pass.
     */
    const std::vector<TensorD> &fakeQuantized(double scale, int bits);

    /**
     * inputTapMaxima (|B^T x̂ B| maxima per tap) over
     * fakeQuantized(scale, bits). Memoized per (variant, pad, scale,
     * bits): F2 and F4 candidates each compute theirs once.
     */
    const MatrixD &tapMaxima(WinoVariant variant, std::size_t pad,
                             double scale, int bits);

  private:
    const std::vector<TensorD> *calibration_;
    MaxCalibrator spatialCal_;
    bool spatialDone_ = false;
    std::map<std::pair<double, int>, std::vector<TensorD>> fakeQ_;
    std::map<std::tuple<int, std::size_t, double, int>, MatrixD>
        tapMax_;
};

/**
 * Bump the process-wide `quant.calibration_passes` counter — called
 * by the cache and by the engines' uncached fallback paths, so the
 * counter reflects real data passes either way.
 */
void countCalibrationPass();

} // namespace twq

#endif // TWQ_QUANT_CALIBRATION_HH
