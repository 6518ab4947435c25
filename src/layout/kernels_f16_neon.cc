/**
 * @file
 * NEON fp16 conversion kernels for the half-precision blocked engine.
 * aarch64 carries the IEEE half <-> single conversion instructions in
 * the base ISA (`fcvtl` / `fcvtn` round-to-nearest-even under the
 * default FPCR), so only the bulk conversion pair is provided here;
 * the float tap-GEMM and fused transforms keep the portable soft kernels
 * (kernels_f16.cc merges per-field).
 */

#include "layout/kernels_f16.hh"

#if defined(__ARM_NEON) && defined(__aarch64__)

#include <arm_neon.h>

namespace twq
{
namespace layout
{

namespace
{

void
neonWiden(const std::uint16_t *src, float *dst, std::size_t len)
{
    std::size_t i = 0;
    for (; i + 4 <= len; i += 4) {
        const float16x4_t h = vreinterpret_f16_u16(vld1_u16(src + i));
        vst1q_f32(dst + i, vcvt_f32_f16(h));
    }
    for (; i < len; ++i)
        dst[i] = softHalfToFloat(src[i]);
}

void
neonNarrow(const float *src, std::uint16_t *dst, std::size_t len)
{
    std::size_t i = 0;
    for (; i + 4 <= len; i += 4) {
        const float16x4_t h = vcvt_f16_f32(vld1q_f32(src + i));
        vst1_u16(dst + i, vreinterpret_u16_f16(h));
    }
    for (; i < len; ++i)
        dst[i] = softFloatToHalf(src[i]);
}

} // namespace

F16Kernels
neonF16Kernels()
{
    F16Kernels k;
    k.widen = &neonWiden;
    k.narrow = &neonNarrow;
    k.name = "neon-fp16";
    return k;
}

} // namespace layout
} // namespace twq

#else // !(__ARM_NEON && __aarch64__)

namespace twq
{
namespace layout
{

F16Kernels
neonF16Kernels()
{
    return {};
}

} // namespace layout
} // namespace twq

#endif
