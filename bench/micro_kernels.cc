/**
 * @file
 * Google-benchmark microbenchmarks of the library's hot kernels:
 * Winograd transforms, reference convolutions, the served blocked
 * integer tap-wise Winograd layer, the DFG engine emulation, and the
 * performance model itself.
 */

#include <benchmark/benchmark.h>

#include "common/rng.hh"
#include "quant/int_wino_blocked.hh"
#include "sim/operators.hh"
#include "tensor/im2col.hh"
#include "winograd/conv.hh"
#include "winograd/transforms.hh"
#include "xform/dfg.hh"

namespace twq
{
namespace
{

TensorD
randomTensor(const Shape &shape, std::uint64_t seed)
{
    Rng rng(seed);
    TensorD t(shape);
    for (std::size_t i = 0; i < t.numel(); ++i)
        t[i] = rng.normal();
    return t;
}

void
BM_InputTransformF4(benchmark::State &state)
{
    Rng rng(1);
    MatrixD tile(6, 6);
    for (std::size_t i = 0; i < 6; ++i)
        for (std::size_t j = 0; j < 6; ++j)
            tile(i, j) = rng.normal();
    for (auto _ : state)
        benchmark::DoNotOptimize(
            inputTransform(tile, WinoVariant::F4));
}
BENCHMARK(BM_InputTransformF4);

void
BM_WeightTransformF4(benchmark::State &state)
{
    Rng rng(2);
    MatrixD f(3, 3);
    for (std::size_t i = 0; i < 3; ++i)
        for (std::size_t j = 0; j < 3; ++j)
            f(i, j) = rng.normal();
    for (auto _ : state)
        benchmark::DoNotOptimize(
            weightTransform(f, WinoVariant::F4));
}
BENCHMARK(BM_WeightTransformF4);

void
BM_DfgEvaluationF4Input(benchmark::State &state)
{
    const TransformDfg dfg =
        buildTransformDfg(winoBT(WinoVariant::F4).transposed());
    Rng rng(3);
    MatrixI64 tile(6, 6);
    for (std::size_t i = 0; i < 6; ++i)
        for (std::size_t j = 0; j < 6; ++j)
            tile(i, j) = rng.uniformInt(-128, 127);
    for (auto _ : state)
        benchmark::DoNotOptimize(evaluateTransformDfg(dfg, tile));
}
BENCHMARK(BM_DfgEvaluationF4Input);

void
BM_ConvDirect(benchmark::State &state)
{
    const auto c = static_cast<std::size_t>(state.range(0));
    const TensorD x = randomTensor({1, c, 16, 16}, 4);
    const TensorD w = randomTensor({c, c, 3, 3}, 5);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            conv2dDirect(x, w, ConvParams{3, 1, 1}));
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(c * c * 9 * 256));
}
BENCHMARK(BM_ConvDirect)->Arg(4)->Arg(8);

void
BM_ConvWinogradF4(benchmark::State &state)
{
    const auto c = static_cast<std::size_t>(state.range(0));
    const TensorD x = randomTensor({1, c, 16, 16}, 6);
    const TensorD w = randomTensor({c, c, 3, 3}, 7);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            conv2dWinograd(x, w, WinoVariant::F4));
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(c * c * 9 * 256));
}
BENCHMARK(BM_ConvWinogradF4)->Arg(4)->Arg(8);

/// The served int8 Winograd layer: the blocked engine on an NCHWc8
/// input, steady state (reused buffers, no allocations).
void
BM_IntWinogradForward(benchmark::State &state)
{
    const TensorD x = randomTensor({1, 8, 16, 16}, 8);
    const TensorD w = randomTensor({8, 8, 3, 3}, 9);
    IntWinogradConfig cfg;
    const BlockedIntWinograd blk(IntWinogradConv(w, {x}, cfg));
    TensorD xb(blockedShape(x.shape()));
    nchwToBlocked(x, xb);
    TensorI32 xq, U32, M;
    TensorI16 U16;
    TensorI8 U8;
    TensorD Md;
    TensorD out({1, blk.coutb(), 16, 16, kLayoutBlock});
    for (auto _ : state) {
        blk.forwardInto(xb, xq, U32, U16, U8, M, Md, out);
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * 8 * 8 * 9 * 256);
}
BENCHMARK(BM_IntWinogradForward);

void
BM_SimulateConv(benchmark::State &state)
{
    AcceleratorConfig cfg;
    ConvWorkload w;
    w.batch = 8;
    w.hOut = w.wOut = 64;
    w.cin = w.cout = 256;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            simulateConv(w, OpKind::WinogradF4, cfg));
    }
}
BENCHMARK(BM_SimulateConv);

} // namespace
} // namespace twq

BENCHMARK_MAIN();
