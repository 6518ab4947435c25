/**
 * @file
 * Host fingerprint and measured ceilings, so a later run can tell a
 * foreign host from a regression: CPU model, ISA flags, core count,
 * the resolved kernel tables, compiler and build type, plus the peak
 * f64 FMA rate and the streaming copy bandwidth of one core measured
 * in the same process.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <sstream>
#include <thread>

#include "bench.hh"
#include "gemm/gemm.hh"
#include "layout/kernels_f16.hh"
#include "layout/wino_blocked.hh"

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

#ifndef SERVEBENCH_BUILD_TYPE
#define SERVEBENCH_BUILD_TYPE "unknown"
#endif

namespace sb
{

namespace
{

constexpr int kAcc = 12; // independent FMA chains: hides FMA latency

#if defined(__x86_64__)
__attribute__((target("avx512f"))) double
fmaRate512(long iters)
{
    __m512d acc[kAcc];
    for (int i = 0; i < kAcc; ++i)
        acc[i] = _mm512_set1_pd(1.0 + i * 1e-3);
    const __m512d x = _mm512_set1_pd(0.999999);
    const __m512d y = _mm512_set1_pd(1e-7);
    const std::int64_t t0 = nowNs();
    for (long it = 0; it < iters; ++it)
        for (int i = 0; i < kAcc; ++i)
            acc[i] = _mm512_fmadd_pd(acc[i], x, y);
    const double ns = static_cast<double>(nowNs() - t0);
    alignas(64) double lanes[8];
    volatile double sink = 0;
    for (int i = 0; i < kAcc; ++i) {
        _mm512_store_pd(lanes, acc[i]);
        sink = sink + lanes[0] + lanes[7];
    }
    return 2.0 * 8 * kAcc * static_cast<double>(iters) / ns;
}

__attribute__((target("avx2,fma"))) double
fmaRate256(long iters)
{
    __m256d acc[kAcc];
    for (int i = 0; i < kAcc; ++i)
        acc[i] = _mm256_set1_pd(1.0 + i * 1e-3);
    const __m256d x = _mm256_set1_pd(0.999999);
    const __m256d y = _mm256_set1_pd(1e-7);
    const std::int64_t t0 = nowNs();
    for (long it = 0; it < iters; ++it)
        for (int i = 0; i < kAcc; ++i)
            acc[i] = _mm256_fmadd_pd(acc[i], x, y);
    const double ns = static_cast<double>(nowNs() - t0);
    alignas(32) double lanes[4];
    volatile double sink = 0;
    for (int i = 0; i < kAcc; ++i) {
        _mm256_store_pd(lanes, acc[i]);
        sink = sink + lanes[0] + lanes[3];
    }
    return 2.0 * 4 * kAcc * static_cast<double>(iters) / ns;
}
#endif

double
fmaRateScalar(long iters)
{
    double acc[kAcc];
    for (int i = 0; i < kAcc; ++i)
        acc[i] = 1.0 + i * 1e-3;
    const std::int64_t t0 = nowNs();
    for (long it = 0; it < iters; ++it)
        for (int i = 0; i < kAcc; ++i)
            acc[i] = std::fma(acc[i], 0.999999, 1e-7);
    const double ns = static_cast<double>(nowNs() - t0);
    volatile double sink = 0;
    for (int i = 0; i < kAcc; ++i)
        sink = sink + acc[i];
    return 2.0 * kAcc * static_cast<double>(iters) / ns;
}

/** GFLOP/s of the widest FMA this CPU runs; best of five trials. */
double
measureFma()
{
    double (*fn)(long) = fmaRateScalar;
#if defined(__x86_64__)
    if (__builtin_cpu_supports("avx512f"))
        fn = fmaRate512;
    else if (__builtin_cpu_supports("avx2") &&
             __builtin_cpu_supports("fma"))
        fn = fmaRate256;
#endif
    double best = 0;
    for (int t = 0; t < 5; ++t)
        best = std::max(best, fn(2'000'000));
    return best;
}

/** Last-level cache bytes, or 32 MiB when the C library cannot say. */
std::size_t
l3Bytes()
{
    const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
    return l3 > 0 ? static_cast<std::size_t>(l3) : std::size_t{32} << 20;
}

/**
 * Copy GB/s (bytes read + written) between two arrays of 2x the L3
 * each, so the working set is 4x the L3; best of three copies.
 */
double
measureCopy()
{
    const std::size_t n = 2 * l3Bytes() / sizeof(double);
    std::vector<double> a(n, 1.0), b(n, 0.0);
    double best = 0;
    for (int t = 0; t < 3; ++t) {
        const std::int64_t t0 = nowNs();
        std::memcpy(b.data(), a.data(), n * sizeof(double));
        const double ns = static_cast<double>(nowNs() - t0);
        best = std::max(best, 2.0 * n * sizeof(double) / ns);
        a[t] = b[n - 1 - t]; // keep the copies observable
    }
    return best;
}

std::string
cpuModel()
{
#if defined(__x86_64__)
    unsigned regs[12];
    if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
        for (unsigned i = 0; i < 3; ++i)
            __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        char brand[49];
        std::memcpy(brand, regs, 48);
        brand[48] = '\0';
        std::string s(brand);
        s.erase(0, s.find_first_not_of(' '));
        return s;
    }
#endif
    return "unknown";
}

std::string
isaFlags()
{
    std::string out;
#if defined(__x86_64__)
    __builtin_cpu_init();
    const std::pair<const char *, int> flags[] = {
        {"sse4.2", __builtin_cpu_supports("sse4.2")},
        {"avx", __builtin_cpu_supports("avx")},
        {"avx2", __builtin_cpu_supports("avx2")},
        {"fma", __builtin_cpu_supports("fma")},
        {"avx512f", __builtin_cpu_supports("avx512f")},
        {"avx512bw", __builtin_cpu_supports("avx512bw")},
        {"avx512vl", __builtin_cpu_supports("avx512vl")},
        {"avx512vnni", __builtin_cpu_supports("avx512vnni")},
    };
    for (const auto &[name, on] : flags)
        if (on)
            out += std::string(out.empty() ? "" : " ") + name;
#elif defined(__aarch64__)
    out = "aarch64";
#endif
    return out;
}

std::string
jsonString(const std::string &s)
{
    std::string o = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            o += '\\';
        o += c;
    }
    return o + "\"";
}

} // namespace

Ceilings
measureCeilings()
{
    Ceilings c;
    c.fmaGflops = measureFma();
    c.copyGbs = measureCopy();
    return c;
}

std::string
hostFingerprint(const Ceilings *c)
{
    std::ostringstream os;
    os.precision(17);
    os << "{\"cpu\": " << jsonString(cpuModel())
       << ", \"isa\": " << jsonString(isaFlags())
       << ", \"nproc\": " << std::thread::hardware_concurrency()
       << ", \"l3_mib\": " << l3Bytes() / double(1 << 20)
       << ", \"gemm_kernel\": " << jsonString(twq::gemm::kernelName())
       << ", \"int8_kernel\": "
       << jsonString(twq::gemm::int8KernelName())
       << ", \"layout_kernel\": " << jsonString(twq::layoutKernelName())
       << ", \"f16_kernel\": "
       << jsonString(twq::layout::f16KernelName())
       << ", \"compiler\": " << jsonString(__VERSION__)
       << ", \"build_type\": " << jsonString(SERVEBENCH_BUILD_TYPE);
    if (c)
        os << ", \"f64_fma_gflops\": " << c->fmaGflops
           << ", \"copy_gbs\": " << c->copyGbs;
    os << "}";
    return os.str();
}

double
peakRssMib()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

} // namespace sb
