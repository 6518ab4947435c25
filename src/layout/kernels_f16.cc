#include "layout/kernels_f16.hh"

#include <algorithm>

namespace twq
{
namespace layout
{

namespace
{

F16Kernels
softF16Kernels()
{
    F16Kernels k;
    k.widen = &softWiden<>;
    k.narrow = &softNarrow<>;
    k.tapGemm = &softTapGemmF16<>;
    k.winoInput = &softWinoInputF16<>;
    k.winoOutput = &softWinoOutputF16<>;
    k.name = "soft";
    return k;
}

/**
 * Resolution: F16C hardware first, then NEON fp16, then the software
 * half. A partially-populated ISA table (e.g. NEON provides only the
 * conversion pair) keeps the soft fallback for its missing entries,
 * so every field is callable after resolution.
 */
F16Kernels
resolve()
{
    F16Kernels k = softF16Kernels();
    for (const F16Kernels &isa :
         {avx2F16Kernels(), neonF16Kernels()}) {
        if (!isa.widen && !isa.narrow && !isa.tapGemm)
            continue;
        if (isa.widen)
            k.widen = isa.widen;
        if (isa.narrow)
            k.narrow = isa.narrow;
        if (isa.tapGemm)
            k.tapGemm = isa.tapGemm;
        if (isa.winoInput)
            k.winoInput = isa.winoInput;
        if (isa.winoOutput)
            k.winoOutput = isa.winoOutput;
        k.name = isa.name;
        break;
    }
    return k;
}

} // namespace

const F16Kernels &
f16Kernels()
{
    static const F16Kernels k = resolve();
    return k;
}

const char *
f16KernelName()
{
    return f16Kernels().name;
}

} // namespace layout

void
tensorDToF16(const TensorD &in, TensorF16 &out)
{
    if (out.shape() != in.shape())
        out = TensorF16(in.shape());
    // Convert through a small float staging block so the vectorized
    // narrow kernel does the rounding work.
    constexpr std::size_t kChunk = 4096;
    float buf[kChunk];
    const std::size_t n = in.numel();
    for (std::size_t i0 = 0; i0 < n; i0 += kChunk) {
        const std::size_t c = std::min(kChunk, n - i0);
        for (std::size_t i = 0; i < c; ++i)
            buf[i] = static_cast<float>(in[i0 + i]);
        layout::f16Kernels().narrow(buf, out.data() + i0, c);
    }
}

void
tensorF16ToD(const TensorF16 &in, TensorD &out)
{
    if (out.shape() != in.shape())
        out = TensorD(in.shape());
    constexpr std::size_t kChunk = 4096;
    float buf[kChunk];
    const std::size_t n = in.numel();
    for (std::size_t i0 = 0; i0 < n; i0 += kChunk) {
        const std::size_t c = std::min(kChunk, n - i0);
        layout::f16Kernels().widen(in.data() + i0, buf, c);
        for (std::size_t i = 0; i < c; ++i)
            out[i0 + i] = static_cast<double>(buf[i]);
    }
}

} // namespace twq
