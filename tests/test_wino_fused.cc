/**
 * @file
 * The fused, tile-local Winograd transforms of the NCHWc8 engines
 * (layout/wino_blocked.hh, layout/kernels.hh): the fp64 and f16 input
 * and output kernels against the staged reference (tile gather +
 * Kronecker row pass, Kronecker row pass + untile), the integer input
 * kernel bit for bit against gather + kronI32, every available SIMD
 * table's (AVX2, AVX-512, NEON) tap GEMM and fused kernels bit for bit
 * against their scalar references, the kernel dispatch, the chunk
 * geometry's invariants, the chunked fp64 and f16 convolutions bit for bit
 * against the whole-layer composition, and batched/sharded runs
 * against sequential/serial ones for the fp64, f16 and int8 engines.
 *
 * Error bound: the fused fp transforms reassociate the kron's sums (a
 * row pass then a column pass), so they agree with the staged form to
 * rounding. Every compared transform element must lie within kUlps
 * (16) epsilons of the compute type times the output RANGE (the
 * largest magnitude of the staged result over the whole tensor) — an
 * absolute bound, since a single element may cancel to near zero in
 * one order and not the other; the largest seen is under 4. A whole
 * convolution gets 4 * kUlps * cinp of them, since the tap GEMM sums
 * cinp products of reassociated inputs; the largest seen is under
 * 10 * cinp. Half-storage outputs are
 * additionally allowed one binary16 ulp of the range, for a narrowing
 * that a last-bit fp32 difference tips the other way.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <tuple>

#include "common/rng.hh"
#include "gemm/gemm.hh"
#include "layout/kernels.hh"
#include "layout/kernels_f16.hh"
#include "layout/wino_blocked.hh"
#include "quant/int_wino_blocked.hh"
#include "runtime/thread_pool.hh"

namespace twq
{
namespace
{

constexpr std::size_t kB = kLayoutBlock;

/// Allowed distance from the staged result, in epsilons of the range.
constexpr double kUlps = 16.0;

TensorD
randomTensor(const Shape &shape, std::uint64_t seed)
{
    TensorD t(shape);
    Rng rng(seed);
    rng.fillNormal(t.storage(), 0.0, 1.0);
    return t;
}

/// A random NCHWc8 activation with zero tail lanes, like a real one.
TensorD
randomBlocked(const Shape &nchw, std::uint64_t seed)
{
    TensorD xb(blockedShape(nchw));
    nchwToBlocked(randomTensor(nchw, seed), xb);
    return xb;
}

/// Elementwise conversion (exact when widening).
template <typename To, typename From>
Tensor<To>
convertTo(const Tensor<From> &x)
{
    Tensor<To> y(x.shape());
    for (std::size_t i = 0; i < x.numel(); ++i)
        y[i] = static_cast<To>(x[i]);
    return y;
}

template <typename T>
double
rangeOf(const Tensor<T> &x)
{
    double r = 0.0;
    for (std::size_t i = 0; i < x.numel(); ++i)
        r = std::max(r, std::abs(static_cast<double>(x[i])));
    return r;
}

/// Every element within `bound` of the reference.
template <typename T>
void
expectNear(const Tensor<T> &got, const Tensor<T> &ref, double bound,
           const std::string &what)
{
    ASSERT_EQ(got.shape(), ref.shape()) << what;
    for (std::size_t i = 0; i < ref.numel(); ++i)
        ASSERT_LE(std::abs(static_cast<double>(got[i]) -
                           static_cast<double>(ref[i])),
                  bound)
            << what << " element " << i << ": " << got[i] << " vs "
            << ref[i];
}

TensorD
widenHalves(const TensorF16 &h)
{
    TensorD d;
    tensorF16ToD(h, d);
    return d;
}

/// Per-lane bias over `coutb` blocks, tail lanes zero.
template <typename T>
std::vector<T>
randomBias(std::size_t cout, std::size_t coutb, std::uint64_t seed)
{
    const TensorD b = randomTensor({cout}, seed);
    std::vector<T> out(coutb * kB, T{});
    for (std::size_t i = 0; i < cout; ++i)
        out[i] = static_cast<T>(b[i]);
    return out;
}

/// The shape grid: C in {3, 8, 17}, odd H x W, batch 1 / 3.
const Shape kShapes[] = {{1, 3, 7, 9}, {3, 8, 13, 13}, {1, 17, 13, 13},
                         {3, 17, 7, 9}};

class FusedTransforms : public ::testing::TestWithParam<WinoVariant>
{};

TEST_P(FusedTransforms, Fp64InputMatchesGatherPlusKron)
{
    const WinoVariant v = GetParam();
    std::uint64_t seed = 100;
    for (const std::size_t pad : {0, 1}) {
        for (const Shape &shape : kShapes) {
            const TensorD xb = randomBlocked(shape, seed++);
            TensorD V, ref, U;
            winogradGatherTilesBlocked(xb, v, pad, V);
            ref = TensorD(V.shape());
            layout::kernels().kron(winoInputKron<double>(v), V.data(),
                                   V.numel() / V.dim(0), ref.data());
            winogradInputTransformBlocked(xb, v, pad, U);
            expectNear(U, ref,
                       kUlps * std::numeric_limits<double>::epsilon() *
                           rangeOf(ref),
                       std::string(winoName(v)) + " pad " +
                           std::to_string(pad));
        }
    }
}

TEST_P(FusedTransforms, Fp64OutputMatchesKronPlusUntile)
{
    const WinoVariant v = GetParam();
    const WinoSpec spec = winoSpec(v);
    std::uint64_t seed = 200;
    for (const Shape &shape : kShapes) {
        const std::size_t coutb = layoutBlocks(shape[1]);
        const WinoDims d = winoDims(shape, v, 1);
        const TensorD M = randomTensor(
            {spec.t * spec.t, coutb, d.tiles, kB}, seed++);
        const std::vector<double> bias =
            randomBias<double>(shape[1], coutb, seed++);
        TensorD Y({spec.m * spec.m, coutb, d.tiles, kB});
        layout::kernels().kron(winoOutputKron<double>(v), M.data(),
                               M.numel() / M.dim(0), Y.data());
        for (const bool withBias : {false, true}) {
            for (const bool relu : {false, true}) {
                const double *b8 = withBias ? bias.data() : nullptr;
                TensorD ref({d.n, coutb, d.ho, d.wo, kB});
                TensorD out(ref.shape());
                winogradUntileBlocked(Y, v, ref, b8, relu);
                winogradOutputTransformBlocked(M, v, out, b8, relu);
                expectNear(out, ref,
                           kUlps *
                               std::numeric_limits<double>::epsilon() *
                               rangeOf(ref),
                           std::string(winoName(v)) + " bias " +
                               std::to_string(withBias) + " relu " +
                               std::to_string(relu));
            }
        }
    }
}

TEST_P(FusedTransforms, Fp64ConvMatchesStagedPipeline)
{
    const WinoVariant v = GetParam();
    std::uint64_t seed = 300;
    for (const std::size_t pad : {0, 1}) {
        for (const Shape &shape : kShapes) {
            const std::size_t cout = shape[1] + 2;
            const BlockedTapWeights w =
                blockedTapWeights(winogradPrepareTapWeights(
                    randomTensor({cout, shape[1], 3, 3}, seed++), v));
            const std::vector<double> bias =
                randomBias<double>(cout, w.coutb, seed++);
            const TensorD xb = randomBlocked(shape, seed++);
            const WinoDims d = winoDimsBlocked(xb.shape(), v, pad);

            // Staged: gather, B-kron, tap GEMM, A-kron, untile.
            TensorD V, U, M;
            winogradGatherTilesBlocked(xb, v, pad, V);
            U = TensorD(V.shape());
            layout::kernels().kron(winoInputKron<double>(v), V.data(),
                                   V.numel() / V.dim(0), U.data());
            winogradTapGemmBlocked(w, U, M);
            TensorD Y({d.m * d.m, w.coutb, d.tiles, kB});
            layout::kernels().kron(winoOutputKron<double>(v), M.data(),
                                   M.numel() / M.dim(0), Y.data());
            TensorD ref({d.n, w.coutb, d.ho, d.wo, kB});
            winogradUntileBlocked(Y, v, ref, bias.data(), true);

            TensorD out(ref.shape());
            TensorD Uf, Mf;
            conv2dWinogradBlockedInto(xb, w, pad, Uf, Mf, out, nullptr,
                                      bias.data(), true);
            // The tap GEMM sums cinp products of reassociated U
            // values, so the bound scales with the channel count.
            expectNear(out, ref,
                       4 * kUlps *
                           std::numeric_limits<double>::epsilon() *
                           rangeOf(ref) * double(w.cinb * kB),
                       std::string(winoName(v)) + " conv");
        }
    }
}

TEST_P(FusedTransforms, F16InputMatchesGatherPlusKron)
{
    const WinoVariant v = GetParam();
    std::uint64_t seed = 400;
    for (const std::size_t pad : {0, 1}) {
        for (const Shape &shape : kShapes) {
            // Staged in fp32 on the exactly widened halves.
            TensorF16 xh;
            tensorDToF16(randomBlocked(shape, seed++), xh);
            TensorD xd, Vd;
            tensorF16ToD(xh, xd);
            winogradGatherTilesBlocked(xd, v, pad, Vd);
            const TensorF V = convertTo<float>(Vd);
            TensorF ref(V.shape()), U;
            applyKron(winoInputKron<float>(v), V.data(),
                      V.numel() / V.dim(0), ref.data());
            winogradInputTransformBlocked(xh, v, pad, U);
            expectNear(U, ref,
                       kUlps * std::numeric_limits<float>::epsilon() *
                           rangeOf(ref),
                       std::string(winoName(v)) + " f16 pad " +
                           std::to_string(pad));
        }
    }
}

TEST_P(FusedTransforms, F16OutputMatchesKronUntileNarrow)
{
    const WinoVariant v = GetParam();
    const WinoSpec spec = winoSpec(v);
    std::uint64_t seed = 500;
    for (const Shape &shape : kShapes) {
        const std::size_t coutb = layoutBlocks(shape[1]);
        const WinoDims d = winoDims(shape, v, 1);
        const TensorF M = convertTo<float>(randomTensor(
            {spec.t * spec.t, coutb, d.tiles, kB}, seed++));
        const std::vector<float> bias =
            randomBias<float>(shape[1], coutb, seed++);
        // Staged: the A-kron in fp32, then the untile and epilogue on
        // the exactly widened values (a sum of two floats is exact in
        // double, so it rounds to the fp32 epilogue's result), then
        // one narrowing to half.
        TensorF Y({spec.m * spec.m, coutb, d.tiles, kB});
        applyKron(winoOutputKron<float>(v), M.data(),
                  M.numel() / M.dim(0), Y.data());
        const TensorD Yd = convertTo<double>(Y);
        const std::vector<double> biasD(bias.begin(), bias.end());
        for (const bool withBias : {false, true}) {
            for (const bool relu : {false, true}) {
                TensorD outD({d.n, coutb, d.ho, d.wo, kB});
                winogradUntileBlocked(Yd, v, outD,
                                      withBias ? biasD.data() : nullptr,
                                      relu);
                const TensorF outF = convertTo<float>(outD);
                TensorF16 ref(outF.shape()), out(outF.shape());
                layout::f16Kernels().narrow(outF.data(), ref.data(),
                                            outF.numel());
                winogradOutputTransformBlocked(
                    M, v, out, withBias ? bias.data() : nullptr, relu);
                const double range = rangeOf(outF);
                expectNear(widenHalves(out), widenHalves(ref),
                           kUlps *
                                   std::numeric_limits<float>::epsilon() *
                                   range +
                               std::ldexp(range, -10),
                           std::string(winoName(v)) + " f16 bias " +
                               std::to_string(withBias) + " relu " +
                               std::to_string(relu));
            }
        }
    }
}

/// NCHWc8 input dims giving `tilesX` x `tilesY` tiles per image, the
/// last tile in each direction partial.
Shape
shapeForTiles(std::size_t n, std::size_t c, std::size_t tilesY,
              std::size_t tilesX, WinoVariant v, std::size_t pad)
{
    const std::size_t m = winoSpec(v).m;
    return {n, c, tilesY * m + 1 - 2 * pad, tilesX * m + 1 - 2 * pad};
}

TEST_P(FusedTransforms, ChunkedConvsMatchWholeLayerComposition)
{
    const WinoVariant v = GetParam();
    const std::size_t tt = winoSpec(v).t * winoSpec(v).t;
    ThreadPool pool(2);
    PoolRunner runner(pool, pool.size()); // 3 lanes
    std::uint64_t seed = 1000;
    std::size_t midImageEdges = 0;
    for (const std::size_t pad : {0, 1}) {
        for (const std::size_t c : {3, 17}) {
            for (const std::size_t tilesX : {1, 3, 5, 17}) {
                const Shape shape = shapeForTiles(2, c, 7, tilesX, v, pad);
                const std::size_t cout = c + 2;
                const WinogradTapWeights<double> taps =
                    winogradPrepareTapWeights(
                        randomTensor({cout, c, 3, 3}, seed++), v);
                const BlockedTapWeights w = blockedTapWeights(taps);
                const BlockedTapWeightsF16 wh = blockedTapWeightsF16(taps);
                const std::vector<double> bias =
                    randomBias<double>(cout, w.coutb, seed++);
                const std::vector<float> biasF(bias.begin(), bias.end());
                const TensorD xb = randomBlocked(shape, seed++);
                TensorF16 xh;
                tensorDToF16(xb, xh);
                const WinoDims d = winoDimsBlocked(xb.shape(), v, pad);
                const Shape oshape{d.n, w.coutb, d.ho, d.wo, kB};
                const std::string what = std::string(winoName(v)) +
                                         " pad " + std::to_string(pad) +
                                         " C " + std::to_string(c) +
                                         " tilesX " +
                                         std::to_string(tilesX);

                // Whole layer: input transform, tap GEMM, output
                // transform over all P tiles at once.
                TensorD U, M, ref(oshape);
                winogradInputTransformBlocked(xb, v, pad, U);
                winogradTapGemmBlocked(w, U, M);
                winogradOutputTransformBlocked(M, v, ref, bias.data(),
                                               true);
                TensorF Uh, Mh({tt, wh.coutb, d.tiles, kB});
                TensorF16 refH(oshape);
                winogradInputTransformBlocked(xh, v, pad, Uh);
                for (std::size_t k = 0; k < tt; ++k)
                    layout::f16Kernels().tapGemm(
                        wh.tap(k), Uh.data() + k * wh.cinb * d.tiles * kB,
                        Mh.data() + k * wh.coutb * d.tiles * kB,
                        wh.coutb, wh.cinb, d.tiles, 0, d.tiles);
                winogradOutputTransformBlocked(Mh, v, refH, biasF.data(),
                                               true);

                for (gemm::ParallelRunner *r :
                     {static_cast<gemm::ParallelRunner *>(nullptr),
                      static_cast<gemm::ParallelRunner *>(&runner)}) {
                    const TileChunks ch = tileChunks(
                        d, w.cinb, w.coutb, sizeof(double),
                        r ? r->lanes() : 1);
                    for (std::size_t i = 1; i < ch.chunks; ++i)
                        midImageEdges += ch.firstRow(i) % d.tilesY != 0;
                    TensorD Uc, Mc, out(oshape);
                    conv2dWinogradBlockedInto(xb, w, pad, Uc, Mc, out, r,
                                              bias.data(), true);
                    EXPECT_TRUE(out == ref)
                        << what << (r ? " sharded" : " serial");
                    TensorF Uch, Mch;
                    TensorF16 outH(oshape);
                    conv2dWinogradBlockedF16Into(xh, wh, pad, Uch, Mch,
                                                 outH, r, biasF.data(),
                                                 true);
                    EXPECT_TRUE(outH == refH)
                        << what << " f16" << (r ? " sharded" : " serial");
                }
            }
        }
    }
    pool.shutdown();
    // The grid must put chunk edges inside images, not only between.
    EXPECT_GT(midImageEdges, 0u);
}

TEST(TileChunks, GeometryInvariants)
{
    for (const WinoVariant v :
         {WinoVariant::F2, WinoVariant::F4, WinoVariant::F6}) {
        const std::size_t tt = winoSpec(v).t * winoSpec(v).t;
        for (const std::size_t cb : {1, 2, 3, 4, 8}) {
            for (const std::size_t n : {1, 3, 8}) {
                for (const std::size_t hw : {8, 16, 32, 57}) {
                    for (const std::size_t elemBytes : {4, 8}) {
                        for (const std::size_t lanes : {1, 3, 5}) {
                            const WinoDims d =
                                winoDims({n, cb * kB, hw, hw}, v, 1);
                            const std::size_t cinb = cb, coutb = 2 * cb;
                            const TileChunks c = tileChunks(
                                d, cinb, coutb, elemBytes, lanes);
                            const std::string what =
                                std::string(winoName(v)) + " Cb " +
                                std::to_string(cb) + " N " +
                                std::to_string(n) + " hw " +
                                std::to_string(hw) + " e " +
                                std::to_string(elemBytes) + " lanes " +
                                std::to_string(lanes);
                            ASSERT_EQ(c.rows, d.n * d.tilesY) << what;
                            ASSERT_GE(c.chunks, 1u) << what;
                            // Whole rows, each row exactly once, every
                            // chunk at least one row and within the
                            // buffer.
                            std::size_t covered = 0;
                            for (std::size_t i = 0; i < c.chunks; ++i) {
                                ASSERT_EQ(c.firstRow(i), covered) << what;
                                const std::size_t rows =
                                    c.firstRow(i + 1) - c.firstRow(i);
                                ASSERT_GE(rows, 1u) << what;
                                ASSERT_LE(rows, c.rowsPerChunk) << what;
                                ASSERT_LE(rows * d.tilesX,
                                          c.tapStrideTiles)
                                    << what;
                                covered += rows;
                            }
                            ASSERT_EQ(covered, c.rows) << what;
                            // U + M within the budget, unless the
                            // chunk buffer holds a single row.
                            const std::size_t bytes =
                                (c.laneElems(tt, cinb) +
                                 c.laneElems(tt, coutb)) *
                                elemBytes;
                            if (c.tapStrideTiles > d.tilesX + 1)
                                EXPECT_LE(bytes, kChunkBudgetBytes)
                                    << what;
                            // No tap stride aliases at 4 KiB.
                            for (const std::size_t b : {cinb, coutb})
                                EXPECT_NE(b * c.tapStrideTiles * kB *
                                              elemBytes %
                                              kAliasStrideBytes,
                                          0u)
                                    << what;
                            // Every lane gets work when the rows allow
                            // kChunkMinTiles per lane.
                            const std::size_t minRows =
                                (kChunkMinTiles + d.tilesX - 1) /
                                d.tilesX;
                            if (c.rows >= lanes * minRows)
                                EXPECT_GE(c.chunks, lanes) << what;
                        }
                    }
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Variants, FusedTransforms,
                         ::testing::Values(WinoVariant::F2,
                                           WinoVariant::F4,
                                           WinoVariant::F6),
                         [](const auto &info) {
                             return std::string(winoName(info.param));
                         });

TEST(FusedIntTransform, InputBitExactAgainstGatherPlusKronI32)
{
    std::uint64_t seed = 600;
    for (const WinoVariant v : {WinoVariant::F2, WinoVariant::F4}) {
        for (const std::size_t pad : {0, 1}) {
            for (const Shape &shape : kShapes) {
                // Spatial operands at the int8 engine's widest
                // supported range (16 bits).
                TensorI32 xq(blockedShape(shape));
                Rng rng(seed++);
                for (std::size_t i = 0; i < xq.numel(); ++i)
                    xq[i] = static_cast<std::int32_t>(
                        rng.uniformInt(-32768, 32767));
                TensorI32 V, U;
                winogradGatherTilesBlocked(xq, v, pad, V);
                TensorI32 ref(V.shape());
                layout::kernels().kronI32(winoInputKron<std::int32_t>(v),
                                          V.data(), V.numel() / V.dim(0),
                                          ref.data());
                winogradInputTransformBlocked(xq, v, pad, U);
                ASSERT_TRUE(U == ref)
                    << winoName(v) << " pad " << pad << " C "
                    << shape[1];
            }
        }
    }
}

// ------------------------------- SIMD kernel tables vs scalar references

/// The ISA tables checked against the scalar references. A table the
/// compiler or CPU lacks resolves to all-null entries, and every test
/// on it skips.
enum class Isa
{
    Avx2,
    Avx512,
    Neon
};

const char *
isaName(Isa isa)
{
    switch (isa) {
      case Isa::Avx2:
        return "Avx2";
      case Isa::Avx512:
        return "Avx512";
      case Isa::Neon:
        return "Neon";
    }
    return "?";
}

void
PrintTo(Isa isa, std::ostream *os)
{
    *os << isaName(isa);
}

layout::LayoutKernels
tableOf(Isa isa)
{
    switch (isa) {
      case Isa::Avx2:
        return layout::avx2LayoutKernels();
      case Isa::Avx512:
        return layout::avx512LayoutKernels();
      case Isa::Neon:
        return layout::neonLayoutKernels();
    }
    return {};
}

class TapGemmKernels : public ::testing::TestWithParam<Isa>
{};

TEST_P(TapGemmKernels, MatchScalarBitForBitWithinTheirColumns)
{
    const Isa isa = GetParam();
    const layout::TapGemmDFn gemm = tableOf(isa).tapGemm;
    if (!gemm)
        GTEST_SKIP() << isaName(isa) << ": no fp64 tap GEMM on this host";
    // No product is NaN, so a NaN left in place shows an untouched
    // column.
    const double sentinel = std::numeric_limits<double>::quiet_NaN();
    constexpr std::size_t p0 = 3;
    std::uint64_t seed = 900;
    for (const std::size_t coutb : {1, 2, 3, 8}) {
        for (const std::size_t cinb : {1, 2, 9}) {
            for (const std::size_t pn : {1, 7, 8, 9, 17}) {
                const std::size_t P = p0 + pn + 5;
                const TensorD w =
                    randomTensor({coutb, cinb * kB, kB}, seed++);
                const TensorD u = randomTensor({cinb, P, kB}, seed++);
                TensorD got({coutb, P, kB});
                std::fill(got.storage().begin(), got.storage().end(),
                          sentinel);
                TensorD want = got;
                gemm(w.data(), u.data(), got.data(), coutb, cinb, P, p0,
                     pn);
                layout::scalarTapGemmD<>(w.data(), u.data(),
                                         want.data(), coutb, cinb, P,
                                         p0, pn);
                const std::string what =
                    std::string(isaName(isa)) + " coutb " +
                    std::to_string(coutb) + " cinb " +
                    std::to_string(cinb) + " pn " + std::to_string(pn);
                EXPECT_EQ(std::memcmp(got.data(), want.data(),
                                      got.numel() * sizeof(double)),
                          0)
                    << what;
                for (std::size_t co = 0; co < coutb; ++co)
                    for (std::size_t p = 0; p < P; ++p) {
                        const bool inside = p >= p0 && p < p0 + pn;
                        const double *col =
                            got.data() + (co * P + p) * kB;
                        for (std::size_t l = 0; l < kB; ++l)
                            ASSERT_EQ(std::isnan(col[l]), !inside)
                                << what << ", column " << p;
                    }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Tables, TapGemmKernels,
                         ::testing::Values(Isa::Avx2, Isa::Avx512,
                                           Isa::Neon),
                         [](const auto &info) {
                             return std::string(isaName(info.param));
                         });

TEST(LayoutKernelDispatch, OverlaysAvx512Fp64KernelsWhereAvailable)
{
    // Which kernels ran goes into the test report and the log: the
    // SIMD tests skip on hosts without a table, and a skip reads like
    // a pass.
    RecordProperty("layout_kernels", layoutKernelName());
    RecordProperty("gemm_kernels", gemm::kernelName());
    std::printf("layout kernels: %s, gemm kernels: %s\n",
                layoutKernelName(), gemm::kernelName());
    const std::string name = layoutKernelName();
    const layout::LayoutKernels &k = layout::kernels();
    const layout::LayoutKernels avx2 = layout::avx2LayoutKernels();
    if (avx2.tapGemm) {
        // Entries the AVX-512F table lacks stay on the AVX2 layer.
        EXPECT_EQ(k.kron, avx2.kron);
        EXPECT_EQ(k.winoInputI32, avx2.winoInputI32);
        EXPECT_EQ(name.rfind("avx2", 0), 0u) << name;
    }
    const layout::LayoutKernels z = layout::avx512LayoutKernels();
    if (!z.tapGemm) {
        EXPECT_EQ(name.find("avx512"), std::string::npos) << name;
        GTEST_SKIP() << "no AVX-512F table on this host (layout kernels "
                     << name << ")";
    }
    EXPECT_EQ(k.tapGemm, z.tapGemm);
    EXPECT_EQ(k.winoInputD, z.winoInputD);
    EXPECT_EQ(k.winoOutputD, z.winoOutputD);
    EXPECT_NE(name.find("avx512"), std::string::npos) << name;
}

/// Run `fn(row)` for every tile row of an input transform, building
/// the TileRow the way winogradInputTransformBlocked does.
template <typename Fn>
void
forInputRows(const Shape &blocked, WinoVariant v, std::size_t pad,
             Fn fn)
{
    const WinoDims d = winoDimsBlocked(blocked, v, pad);
    const std::size_t cb = blocked[1], h = blocked[2], w = blocked[3];
    for (std::size_t n = 0; n < d.n; ++n)
        for (std::size_t b = 0; b < cb; ++b)
            for (std::size_t ty = 0; ty < d.tilesY; ++ty) {
                const auto p = static_cast<std::ptrdiff_t>(pad);
                const layout::TileRow r{
                    h, w, static_cast<std::ptrdiff_t>(ty * d.m) - p, -p,
                    d.m, d.tilesX, cb * d.tiles * kB};
                fn(r, (n * cb + b) * h * w * kB,
                   (b * d.tiles + (n * d.tilesY + ty) * d.tilesX) * kB);
            }
}

/// Output-transform counterpart of forInputRows over an NCHWc8 output.
template <typename Fn>
void
forOutputRows(const Shape &out, WinoVariant v, Fn fn)
{
    const std::size_t m = winoSpec(v).m;
    const std::size_t n = out[0], cb = out[1], ho = out[2], wo = out[3];
    const std::size_t tilesY = (ho + m - 1) / m;
    const std::size_t tilesX = (wo + m - 1) / m;
    const std::size_t tiles = n * tilesY * tilesX;
    for (std::size_t in = 0; in < n; ++in)
        for (std::size_t b = 0; b < cb; ++b)
            for (std::size_t ty = 0; ty < tilesY; ++ty) {
                const layout::TileRow r{
                    ho, wo, static_cast<std::ptrdiff_t>(ty * m), 0, m,
                    tilesX, cb * tiles * kB};
                fn(r, (b * tiles + (in * tilesY + ty) * tilesX) * kB,
                   (in * cb + b) * ho * wo * kB, b * kB);
            }
}

/// (table, variant): the fused fp64 kernels of the x86 tables, plus
/// the f16 and int32 companions where the table has them (AVX2 only).
class FusedKernelsSimd
    : public ::testing::TestWithParam<std::tuple<Isa, WinoVariant>>
{};

TEST_P(FusedKernelsSimd, InputKernelsMatchScalarBitForBit)
{
    const auto [isa, v] = GetParam();
    const layout::LayoutKernels avx = tableOf(isa);
    if (!avx.winoInputD)
        GTEST_SKIP() << isaName(isa)
                     << ": no fused fp64 input kernel on this host";
    const layout::F16Kernels avxH = isa == Isa::Avx2
                                        ? layout::avx2F16Kernels()
                                        : layout::F16Kernels{};
    const WinoSpec spec = winoSpec(v);
    std::uint64_t seed = 700;
    for (const std::size_t pad : {0, 1}) {
        for (const Shape &shape : kShapes) {
            const TensorD xb = randomBlocked(shape, seed++);
            const WinoDims d = winoDimsBlocked(xb.shape(), v, pad);
            const Shape ushape{spec.t * spec.t, xb.dim(1), d.tiles, kB};

            TensorD got(ushape), want(ushape);
            TensorF gotF(ushape), wantF(ushape);
            TensorF16 xh;
            tensorDToF16(xb, xh);
            forInputRows(xb.shape(), v, pad,
                         [&](const layout::TileRow &r, std::size_t src,
                             std::size_t dst) {
                             avx.winoInputD(winoInputSep<double>(v), r,
                                            xb.data() + src,
                                            got.data() + dst);
                             layout::scalarWinoInputD<>(
                                 winoInputSep<double>(v), r,
                                 xb.data() + src, want.data() + dst);
                             if (!avxH.winoInput)
                                 return;
                             avxH.winoInput(winoInputSep<float>(v), r,
                                            xh.data() + src,
                                            gotF.data() + dst);
                             layout::softWinoInputF16<>(
                                 winoInputSep<float>(v), r,
                                 xh.data() + src, wantF.data() + dst);
                         });
            EXPECT_EQ(std::memcmp(got.data(), want.data(),
                                  got.numel() * sizeof(double)),
                      0)
                << winoName(v) << " fp64 input, pad " << pad;
            EXPECT_EQ(std::memcmp(gotF.data(), wantF.data(),
                                  gotF.numel() * sizeof(float)),
                      0)
                << winoName(v) << " f16 input, pad " << pad;

            // Integer plans exist for F2/F4 only.
            if (v == WinoVariant::F6 || !avx.winoInputI32)
                continue;
            TensorI32 xq(xb.shape()), gotI(ushape), wantI(ushape);
            Rng rng(seed++);
            for (std::size_t i = 0; i < xq.numel(); ++i)
                xq[i] = static_cast<std::int32_t>(
                    rng.uniformInt(-32768, 32767));
            forInputRows(xb.shape(), v, pad,
                         [&](const layout::TileRow &r, std::size_t src,
                             std::size_t dst) {
                             avx.winoInputI32(
                                 winoInputSep<std::int32_t>(v), r,
                                 xq.data() + src, gotI.data() + dst);
                             layout::scalarWinoInputI32<>(
                                 winoInputSep<std::int32_t>(v), r,
                                 xq.data() + src, wantI.data() + dst);
                         });
            EXPECT_TRUE(gotI == wantI)
                << winoName(v) << " int32 input, pad " << pad;
        }
    }
}

TEST_P(FusedKernelsSimd, OutputKernelsMatchScalarBitForBit)
{
    const auto [isa, v] = GetParam();
    const layout::LayoutKernels avx = tableOf(isa);
    if (!avx.winoOutputD)
        GTEST_SKIP() << isaName(isa)
                     << ": no fused fp64 output kernel on this host";
    const layout::F16Kernels avxH = isa == Isa::Avx2
                                        ? layout::avx2F16Kernels()
                                        : layout::F16Kernels{};
    const WinoSpec spec = winoSpec(v);
    std::uint64_t seed = 800;
    for (const Shape &shape : kShapes) {
        const std::size_t coutb = layoutBlocks(shape[1]);
        const WinoDims d = winoDims(shape, v, 1);
        const TensorD M = randomTensor(
            {spec.t * spec.t, coutb, d.tiles, kB}, seed++);
        const TensorF MF = convertTo<float>(M);
        const std::vector<double> bias =
            randomBias<double>(shape[1], coutb, seed++);
        const std::vector<float> biasF(bias.begin(), bias.end());
        const Shape oshape{d.n, coutb, d.ho, d.wo, kB};
        for (const bool withBias : {false, true}) {
            for (const bool relu : {false, true}) {
                TensorD got(oshape), want(oshape);
                TensorF16 gotH(oshape), wantH(oshape);
                forOutputRows(
                    oshape, v,
                    [&](const layout::TileRow &r, std::size_t src,
                        std::size_t dst, std::size_t b) {
                        const double *b8 =
                            withBias ? bias.data() + b : nullptr;
                        const float *b8F =
                            withBias ? biasF.data() + b : nullptr;
                        avx.winoOutputD(winoOutputSep<double>(v), r,
                                        M.data() + src,
                                        got.data() + dst, b8, relu);
                        layout::scalarWinoOutputD<>(
                            winoOutputSep<double>(v), r,
                            M.data() + src, want.data() + dst, b8,
                            relu);
                        if (!avxH.winoOutput)
                            return;
                        avxH.winoOutput(winoOutputSep<float>(v), r,
                                        MF.data() + src,
                                        gotH.data() + dst, b8F, relu);
                        layout::softWinoOutputF16<>(
                            winoOutputSep<float>(v), r,
                            MF.data() + src, wantH.data() + dst, b8F,
                            relu);
                    });
                EXPECT_EQ(std::memcmp(got.data(), want.data(),
                                      got.numel() * sizeof(double)),
                          0)
                    << winoName(v) << " fp64 output, bias " << withBias
                    << " relu " << relu;
                EXPECT_TRUE(gotH == wantH)
                    << winoName(v) << " f16 output, bias " << withBias
                    << " relu " << relu;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    TablesAndVariants, FusedKernelsSimd,
    ::testing::Combine(::testing::Values(Isa::Avx2, Isa::Avx512),
                       ::testing::Values(WinoVariant::F2, WinoVariant::F4,
                                         WinoVariant::F6)),
    [](const auto &info) {
        return std::string(isaName(std::get<0>(info.param))) + "_" +
               winoName(std::get<1>(info.param));
    });

// ------------------------------------ batched == sequential, all three

constexpr std::size_t kBatch = 3;
const Shape kSingle{1, 17, 13, 13};

/// Image `b` of a blocked batch as its own batch-1 tensor.
template <typename T>
Tensor<T>
imageOf(const Tensor<T> &batch, std::size_t b)
{
    Shape s = batch.shape();
    s[0] = 1;
    Tensor<T> one(s);
    std::copy(batch.data() + b * one.numel(),
              batch.data() + (b + 1) * one.numel(), one.data());
    return one;
}

/// Every image of `batched` bit-identical to `single(image)`.
template <typename T, typename Run>
void
expectBatchedEqualsSequential(const Tensor<T> &input,
                              const Tensor<T> &batched, Run single)
{
    const std::size_t per = batched.numel() / kBatch;
    for (std::size_t b = 0; b < kBatch; ++b) {
        const Tensor<T> one = single(imageOf(input, b));
        ASSERT_EQ(one.numel(), per);
        ASSERT_EQ(std::memcmp(one.data(), batched.data() + b * per,
                              per * sizeof(T)),
                  0)
            << "batched != sequential at image " << b;
    }
}

TEST(FusedBatching, Fp64BatchedIsBitIdenticalToSequential)
{
    for (const WinoVariant v :
         {WinoVariant::F2, WinoVariant::F4, WinoVariant::F6}) {
        const BlockedTapWeights w =
            blockedTapWeights(winogradPrepareTapWeights(
                randomTensor({10, kSingle[1], 3, 3}, 900), v));
        Shape shape = kSingle;
        shape[0] = kBatch;
        const TensorD xb = randomBlocked(shape, 901);
        expectBatchedEqualsSequential(
            xb, conv2dWinogradBlocked(xb, w, 1),
            [&](const TensorD &x) {
                return conv2dWinogradBlocked(x, w, 1);
            });
    }
}

TEST(FusedBatching, F16BatchedIsBitIdenticalToSequential)
{
    for (const WinoVariant v :
         {WinoVariant::F2, WinoVariant::F4, WinoVariant::F6}) {
        const BlockedTapWeightsF16 w =
            blockedTapWeightsF16(winogradPrepareTapWeights(
                randomTensor({10, kSingle[1], 3, 3}, 910), v));
        const std::vector<float> bias = randomBias<float>(10, 2, 911);
        Shape shape = kSingle;
        shape[0] = kBatch;
        TensorF16 xh;
        tensorDToF16(randomBlocked(shape, 912), xh);
        expectBatchedEqualsSequential(
            xh, conv2dWinogradBlockedF16(xh, w, 1, bias.data(), true),
            [&](const TensorF16 &x) {
                return conv2dWinogradBlockedF16(x, w, 1, bias.data(),
                                                true);
            });
    }
}

TEST(FusedBatching, Int8BatchedIsBitIdenticalToSequential)
{
    for (const WinoVariant v : {WinoVariant::F2, WinoVariant::F4}) {
        IntWinogradConfig cfg;
        cfg.variant = v;
        cfg.pow2Scales = true;
        const std::vector<TensorD> cal{randomTensor(kSingle, 920)};
        const IntWinogradConv conv(
            randomTensor({10, kSingle[1], 3, 3}, 921), cal, cfg);
        const BlockedIntWinograd blk(conv);
        Shape shape = kSingle;
        shape[0] = kBatch;
        const TensorD xb = randomBlocked(shape, 922);
        expectBatchedEqualsSequential(
            xb, blk.forward(xb),
            [&](const TensorD &x) { return blk.forward(x); });
    }
}

TEST(FusedBatching, ShardedTransformsAreBitIdenticalToSerial)
{
    // All three engines on a 3-lane runner against their serial runs.
    const WinogradTapWeights<double> taps = winogradPrepareTapWeights(
        randomTensor({10, kSingle[1], 3, 3}, 930), WinoVariant::F4);
    const BlockedTapWeights w = blockedTapWeights(taps);
    const BlockedTapWeightsF16 wh = blockedTapWeightsF16(taps);
    IntWinogradConfig cfg;
    cfg.variant = WinoVariant::F4;
    cfg.pow2Scales = true;
    const std::vector<TensorD> cal{randomTensor(kSingle, 932)};
    const IntWinogradConv conv(randomTensor({10, kSingle[1], 3, 3}, 933),
                               cal, cfg);
    const BlockedIntWinograd blk(conv);
    Shape shape = kSingle;
    shape[0] = kBatch;
    const TensorD xb = randomBlocked(shape, 931);
    TensorF16 xh;
    tensorDToF16(xb, xh);
    const TensorD serial = conv2dWinogradBlocked(xb, w, 1);
    const TensorF16 serialH = conv2dWinogradBlockedF16(xh, wh, 1);
    const TensorD serialI = blk.forward(xb);

    ThreadPool pool(2);
    PoolRunner runner(pool, pool.size());
    TensorD U, M, parallel(serial.shape());
    conv2dWinogradBlockedInto(xb, w, 1, U, M, parallel, &runner);
    TensorF Uh, Mh;
    TensorF16 parallelH(serialH.shape());
    conv2dWinogradBlockedF16Into(xh, wh, 1, Uh, Mh, parallelH, &runner);
    TensorI32 xq, U32, Mi;
    TensorI16 U16;
    TensorI8 U8;
    TensorD Md, parallelI(serialI.shape());
    blk.forwardInto(xb, xq, U32, U16, U8, Mi, Md, parallelI, &runner);
    pool.shutdown();
    EXPECT_TRUE(parallel == serial) << "fp64";
    EXPECT_TRUE(parallelH == serialH) << "f16";
    EXPECT_TRUE(parallelI == serialI) << "int8";
}

} // namespace
} // namespace twq
