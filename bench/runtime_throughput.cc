/**
 * @file
 * Serving-runtime throughput benchmark.
 *
 * Two regimes are measured per conv engine and workload:
 *
 *   bulk-*  open-loop: all requests submitted up front, batches fill
 *           to maxBatch, dispatch overhead amortizes — the offline /
 *           high-offered-load regime. bulk-base (1 worker, batch 1)
 *           is the single-thread batch-1 baseline the batched
 *           configurations are compared against.
 *   loop-*  closed-loop clients (submit, block on the future,
 *           repeat) — the interactive regime; p50/p99 here are
 *           end-to-end request latency.
 *
 * A third section drives the same server through the epoll network
 * front door over loopback TCP (net-loop-* / net-bulk-* rows across
 * worker counts, plus an unloaded/overload pair showing admission
 * control bounding the admitted tail).
 *
 * Reports requests/sec and p50/p99/p99.9 latency per configuration,
 * and writes the machine-readable BENCH_runtime.json so future PRs
 * can track the perf trajectory.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hh"
#include "common/stats.hh"
#include "gemm/gemm.hh"
#include "layout/kernels_f16.hh"
#include "layout/wino_blocked.hh"
#include "models/zoo.hh"
#include "net/client.hh"
#include "net/server.hh"
#include "obs/metrics.hh"
#include "obs/perf.hh"
#include "obs/trace.hh"
#include "runtime/server.hh"
#include "winograd/tiled.hh"

namespace twq
{
namespace
{

using Clock = std::chrono::steady_clock;

struct Result
{
    const char *engine;
    std::string label; ///< owned: some labels are built at runtime
    std::size_t threads;
    std::size_t maxBatch;
    std::size_t clients;
    std::size_t requests;
    double wallSec;
    double reqPerSec;
    double p50Ms;
    double p99Ms;
    double p999Ms = -1.0;
    double avgBatch;
    /// Requests rejected by admission control (network rows under
    /// offered overload); latency percentiles above cover ADMITTED
    /// requests only — the bounded-latency claim of load shedding.
    std::uint64_t shed = 0;
    /// Server-side request-latency quantiles from the obs histogram
    /// (enqueue to fulfillment); -1 when the row has no server (layer
    /// microbenchmarks) or obs is compiled out. Tracked against the
    /// client-observed p50/p99 above: the two must agree to within
    /// one log2 bucket.
    double histP50Ms = -1.0;
    double histP99Ms = -1.0;
    /// Hardware-counter profile of the measured region (summed over
    /// the instrumented backend stages, all worker threads): retired
    /// instructions per cycle and cache misses per reference. -1 when
    /// perf_event_open is unavailable (container policy, TWQ_NO_PERF)
    /// or obs is compiled out — absence is explicit, not zero.
    double ipc = -1.0;
    double missRate = -1.0;
};

/** Arm the per-stage hardware-counter rollup for one measured row. */
void
beginRowPerf()
{
    obs::PerfStageCollector::global().reset();
    obs::PerfStageCollector::global().enable();
}

/**
 * Stop the rollup and fold its counters into the row: one sample
 * summed across stages and worker threads. Leaves r.ipc/r.missRate
 * at -1 when nothing valid was measured.
 */
void
endRowPerf(Result &r)
{
    auto &coll = obs::PerfStageCollector::global();
    coll.disable();
    obs::PerfCounters sum;
    for (const auto &[name, t] : coll.totals())
        sum += t.counters;
    coll.reset();
    if (sum.valid && sum.cycles > 0) {
        r.ipc = sum.ipc();
        r.missRate = sum.missRate();
    }
}

/**
 * Start a server and run warmup requests through it (arenas, lazy
 * allocations, scheduler); returns the post-warmup stats snapshot so
 * measured batch sizes exclude the warmup.
 */
std::unique_ptr<InferenceServer>
makeWarmServer(const std::shared_ptr<const Session> &session,
               std::size_t threads, std::size_t maxBatch,
               ServerStats *statsBefore)
{
    RuntimeConfig rcfg;
    rcfg.threads = threads;
    rcfg.batch.maxBatch = maxBatch;
    rcfg.batch.maxWait = std::chrono::microseconds(200);
    auto server = std::make_unique<InferenceServer>(session, rcfg);
    std::vector<std::future<TensorD>> warm;
    for (std::size_t i = 0; i < 8; ++i)
        warm.push_back(
            server->submit(TensorD(session->inputShape(), 0.5)));
    for (auto &f : warm)
        f.get();
    server->drain();
    *statsBefore = server->stats();
    return server;
}

Result
runConfig(const std::shared_ptr<const Session> &session,
          ConvEngine engine, const char *label, std::size_t threads,
          std::size_t maxBatch, std::size_t clients,
          std::size_t requests)
{
    ServerStats statsBefore;
    auto serverPtr =
        makeWarmServer(session, threads, maxBatch, &statsBefore);
    InferenceServer &server = *serverPtr;
    // Drop the warmup requests from the server-side histograms so the
    // snapshot below covers exactly the measured requests.
    server.metrics().reset();
    beginRowPerf();

    // One distinct input per client, generated up front.
    std::vector<TensorD> inputs;
    for (std::size_t c = 0; c < clients; ++c) {
        TensorD in(session->inputShape());
        Rng rng(1000 + c);
        rng.fillNormal(in.storage(), 0.0, 1.0);
        inputs.push_back(std::move(in));
    }

    std::vector<std::vector<double>> perClient(clients);
    const std::size_t perClientReqs = requests / clients;
    const auto wallStart = Clock::now();
    std::vector<std::thread> clientThreads;
    for (std::size_t c = 0; c < clients; ++c) {
        clientThreads.emplace_back([&, c] {
            perClient[c].reserve(perClientReqs);
            for (std::size_t i = 0; i < perClientReqs; ++i) {
                const auto t0 = Clock::now();
                server.submit(inputs[c]).get();
                const auto t1 = Clock::now();
                perClient[c].push_back(
                    std::chrono::duration<double, std::milli>(t1 - t0)
                        .count());
            }
        });
    }
    for (auto &t : clientThreads)
        t.join();
    const double wallSec =
        std::chrono::duration<double>(Clock::now() - wallStart).count();
    server.drain();
    const ServerStats stats = server.stats();
    const obs::MetricsSnapshot snap = server.metricsSnapshot();
    server.shutdown();
    const double avgBatch =
        static_cast<double>(stats.completed - statsBefore.completed) /
        static_cast<double>(stats.batches - statsBefore.batches);

    std::vector<double> latencies;
    for (const auto &v : perClient)
        latencies.insert(latencies.end(), v.begin(), v.end());

    Result r;
    r.engine = convEngineName(engine);
    r.label = label;
    r.threads = threads;
    r.maxBatch = maxBatch;
    r.clients = clients;
    r.requests = latencies.size();
    r.wallSec = wallSec;
    r.reqPerSec = static_cast<double>(latencies.size()) / wallSec;
    r.p50Ms = percentile(latencies, 0.50);
    r.p99Ms = percentile(latencies, 0.99);
    r.p999Ms = percentile(latencies, 0.999);
    r.avgBatch = avgBatch;
    if (const auto it =
            snap.histograms.find("server.request_latency_ns");
        it != snap.histograms.end() && it->second.count > 0) {
        r.histP50Ms = it->second.p50Ms();
        r.histP99Ms = it->second.p99Ms();
    }
    endRowPerf(r);
    return r;
}

/**
 * Open-loop (bulk) throughput: all requests are submitted up front,
 * so the queue stays deep, batches fill to maxBatch, and the
 * per-request dispatch/wakeup chain amortizes across each batch —
 * the offline / high-offered-load serving regime. p50/p99 here are
 * time-in-system, dominated by queueing.
 */
Result
runOpenLoop(const std::shared_ptr<const Session> &session,
            ConvEngine engine, const char *label, std::size_t threads,
            std::size_t maxBatch, std::size_t requests)
{
    ServerStats statsBefore;
    auto serverPtr =
        makeWarmServer(session, threads, maxBatch, &statsBefore);
    InferenceServer &server = *serverPtr;
    server.metrics().reset();
    beginRowPerf();

    TensorD input(session->inputShape());
    Rng rng(7);
    rng.fillNormal(input.storage(), 0.0, 1.0);

    std::vector<std::future<TensorD>> futures;
    futures.reserve(requests);
    std::vector<Clock::time_point> submitted(requests);
    const auto wallStart = Clock::now();
    for (std::size_t i = 0; i < requests; ++i) {
        submitted[i] = Clock::now();
        futures.push_back(server.submit(input));
    }
    std::vector<double> latencies;
    latencies.reserve(requests);
    for (std::size_t i = 0; i < requests; ++i) {
        futures[i].get();
        latencies.push_back(std::chrono::duration<double, std::milli>(
                                Clock::now() - submitted[i])
                                .count());
    }
    const double wallSec =
        std::chrono::duration<double>(Clock::now() - wallStart).count();
    server.drain();
    const ServerStats stats = server.stats();
    const obs::MetricsSnapshot snap = server.metricsSnapshot();
    server.shutdown();

    Result r;
    r.engine = convEngineName(engine);
    r.label = label;
    r.threads = threads;
    r.maxBatch = maxBatch;
    r.clients = 1;
    r.requests = requests;
    r.wallSec = wallSec;
    r.reqPerSec = static_cast<double>(requests) / wallSec;
    r.p50Ms = percentile(latencies, 0.50);
    r.p99Ms = percentile(latencies, 0.99);
    r.p999Ms = percentile(latencies, 0.999);
    // Warmup requests are excluded from the mean batch size.
    r.avgBatch =
        static_cast<double>(stats.completed - statsBefore.completed) /
        static_cast<double>(stats.batches - statsBefore.batches);
    if (const auto it =
            snap.histograms.find("server.request_latency_ns");
        it != snap.histograms.end() && it->second.count > 0) {
        r.histP50Ms = it->second.p50Ms();
        r.histP99Ms = it->second.p99Ms();
    }
    endRowPerf(r);
    return r;
}

// ------------------------------------------------ network serving

/**
 * Closed-loop clients over the epoll front door on loopback: each
 * client connects a real TCP socket, then send -> recv -> repeat.
 * Latency is the full wire round trip (encode, socket, decode,
 * batch, inference, response). With `maxPending` nonzero the server
 * sheds overload; percentiles then cover ADMITTED (Ok) responses
 * only, which is exactly the bounded-latency claim of fast-fail
 * shedding — shed responses are counted, not timed.
 */
Result
runNetClosed(const std::shared_ptr<const Session> &session,
             ConvEngine engine, const std::string &label,
             std::size_t threads, std::size_t maxBatch,
             std::size_t clients, std::size_t requests,
             std::size_t maxPending)
{
    RuntimeConfig rcfg;
    rcfg.threads = threads;
    rcfg.batch.maxBatch = maxBatch;
    rcfg.batch.maxWait = std::chrono::microseconds(200);
    rcfg.pinWorkers = true; // the affinity knob, exercised end to end
    rcfg.maxPending = maxPending;
    InferenceServer server(session, rcfg);
    net::NetServer front(server, net::NetConfig{});
    const std::uint16_t port = front.start();

    // Warm arenas/plans through the wire path itself.
    {
        net::Client warm;
        warm.connect("127.0.0.1", port);
        TensorD in(session->inputShape(), 0.5);
        for (int i = 0; i < 8; ++i)
            warm.infer(in);
    }
    server.metrics().reset();
    beginRowPerf();

    const std::size_t perClient = requests / clients;
    std::vector<std::vector<double>> okLat(clients);
    std::vector<std::uint64_t> shedCount(clients, 0);
    const auto wallStart = Clock::now();
    std::vector<std::thread> threadsV;
    for (std::size_t c = 0; c < clients; ++c) {
        threadsV.emplace_back([&, c] {
            TensorD in(session->inputShape());
            Rng rng(3000 + c);
            rng.fillNormal(in.storage(), 0.0, 1.0);
            net::Client client;
            client.connect("127.0.0.1", port);
            okLat[c].reserve(perClient);
            for (std::size_t i = 0; i < perClient; ++i) {
                const auto t0 = Clock::now();
                const net::Frame f = client.infer(in);
                const double ms =
                    std::chrono::duration<double, std::milli>(
                        Clock::now() - t0)
                        .count();
                if (f.status == net::Status::Ok) {
                    okLat[c].push_back(ms);
                } else {
                    ++shedCount[c];
                    // Retry backoff: a shed answer returns in ~100us,
                    // so without it overloading clients degenerate
                    // into a hot spin that starves the very workers
                    // whose admitted latency the row measures.
                    std::this_thread::sleep_for(
                        std::chrono::microseconds(100));
                }
            }
        });
    }
    for (auto &t : threadsV)
        t.join();
    const double wallSec =
        std::chrono::duration<double>(Clock::now() - wallStart)
            .count();
    const obs::MetricsSnapshot snap = server.metricsSnapshot();
    front.shutdown();
    server.shutdown();

    std::vector<double> latencies;
    std::uint64_t shed = 0;
    for (std::size_t c = 0; c < clients; ++c) {
        latencies.insert(latencies.end(), okLat[c].begin(),
                         okLat[c].end());
        shed += shedCount[c];
    }

    Result r;
    r.engine = convEngineName(engine);
    r.label = label;
    r.threads = threads;
    r.maxBatch = maxBatch;
    r.clients = clients;
    r.requests = latencies.size();
    r.wallSec = wallSec;
    r.reqPerSec = static_cast<double>(latencies.size()) / wallSec;
    r.p50Ms = percentile(latencies, 0.50);
    r.p99Ms = percentile(latencies, 0.99);
    r.p999Ms = percentile(latencies, 0.999);
    r.avgBatch = -1.0;
    r.shed = shed;
    if (const auto it = snap.histograms.find("server.batch_size");
        it != snap.histograms.end() && it->second.count > 0)
        r.avgBatch = it->second.mean();
    if (const auto it =
            snap.histograms.find("server.request_latency_ns");
        it != snap.histograms.end() && it->second.count > 0) {
        r.histP50Ms = it->second.p50Ms();
        r.histP99Ms = it->second.p99Ms();
    }
    endRowPerf(r);
    return r;
}

/**
 * Open-loop over the wire: one connection, a sender thread pipelines
 * every request without waiting, the receiver times each response
 * against its send timestamp — time-in-system under a deep offered
 * queue, the network counterpart of the in-process bulk rows.
 */
Result
runNetOpen(const std::shared_ptr<const Session> &session,
           ConvEngine engine, const std::string &label,
           std::size_t threads, std::size_t requests)
{
    RuntimeConfig rcfg;
    rcfg.threads = threads;
    rcfg.batch.maxBatch = 8;
    rcfg.batch.maxWait = std::chrono::microseconds(200);
    rcfg.pinWorkers = true;
    InferenceServer server(session, rcfg);
    net::NetServer front(server, net::NetConfig{});
    const std::uint16_t port = front.start();

    net::Client client;
    client.connect("127.0.0.1", port);
    TensorD in(session->inputShape());
    Rng rng(17);
    rng.fillNormal(in.storage(), 0.0, 1.0);
    for (int i = 0; i < 8; ++i)
        client.infer(in); // warm the wire path
    server.metrics().reset();
    beginRowPerf();

    // Send timestamps cross the sender->receiver boundary through
    // relaxed atomics; the socket round trip itself orders the write
    // (send i happens before response i is produced).
    std::vector<std::atomic<std::int64_t>> sentNs(requests);
    const auto wallStart = Clock::now();
    std::thread sender([&] {
        for (std::size_t i = 0; i < requests; ++i) {
            sentNs[i].store(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now() - wallStart)
                    .count(),
                std::memory_order_relaxed);
            client.send(in);
        }
        client.shutdownWrite();
    });

    std::vector<double> latencies;
    latencies.reserve(requests);
    net::Frame f;
    std::size_t firstId = 0;
    while (client.recv(&f)) {
        if (firstId == 0)
            firstId = f.id; // ids are monotonic per client
        const std::size_t idx = f.id - firstId;
        const std::int64_t nowNs =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - wallStart)
                .count();
        latencies.push_back(
            static_cast<double>(
                nowNs - sentNs[idx].load(std::memory_order_relaxed)) *
            1e-6);
    }
    sender.join();
    const double wallSec =
        std::chrono::duration<double>(Clock::now() - wallStart)
            .count();
    const obs::MetricsSnapshot snap = server.metricsSnapshot();
    front.shutdown();
    server.shutdown();

    Result r;
    r.engine = convEngineName(engine);
    r.label = label;
    r.threads = threads;
    r.maxBatch = 8;
    r.clients = 1;
    r.requests = latencies.size();
    r.wallSec = wallSec;
    r.reqPerSec = static_cast<double>(latencies.size()) / wallSec;
    r.p50Ms = percentile(latencies, 0.50);
    r.p99Ms = percentile(latencies, 0.99);
    r.p999Ms = percentile(latencies, 0.999);
    r.avgBatch = -1.0;
    if (const auto it = snap.histograms.find("server.batch_size");
        it != snap.histograms.end() && it->second.count > 0)
        r.avgBatch = it->second.mean();
    if (const auto it =
            snap.histograms.find("server.request_latency_ns");
        it != snap.histograms.end() && it->second.count > 0) {
        r.histP50Ms = it->second.p50Ms();
        r.histP99Ms = it->second.p99Ms();
    }
    endRowPerf(r);
    return r;
}

/**
 * The scaling requirement for the net matrix's 8-thread row relative
 * to its 1-thread row, scaled to the machine the bench runs on: the
 * ISSUE's >= 4x target presumes >= 8 usable cores. With fewer cores
 * the requirement degrades to ~0.45x per available core (admitting
 * scheduler losses), and on a single core only "no collapse" (>=
 * 0.55x — extra worker threads must not halve throughput).
 */
double
requiredScaling(std::size_t hwCores)
{
    if (hwCores >= 8)
        return 4.0;
    if (hwCores >= 2)
        return 0.45 * static_cast<double>(hwCores);
    return 0.55;
}

/**
 * CI smoke check. Twelve structural gates (numbered 1-13; gate 7,
 * which timed a since-deleted NCHW int8 backend, is retired):
 *
 *  1. the blocked GEMM core must beat the naive i-k-j loop it
 *     replaced on a representative per-tap shape,
 *  2. winograd-fp32 must beat im2col on a wide (64-channel) eligible
 *     layer, where the Winograd arithmetic advantage materializes,
 *  3. the NCHWc8 tile gather must not lose to the NCHW gather it
 *     bypasses (the unit-stride claim of the layout subsystem),
 *  4. end-to-end blocked-layout winograd must not lose to NCHW
 *     winograd on the wide layer (steady-state, activations already
 *     blocked — the regime layout propagation creates),
 *  5. autoSelect must actually pick the blocked engine on that layer,
 *  6. the dispatched int8 -> int32 widening micro-kernel must not
 *     lose to the generic blocked widening kernel it replaced on a
 *     representative per-tap GEMM shape (equal on hosts where the
 *     dispatch resolves to the generic scalar kernel),
 *  8. autoSelect must pick the blocked int8 engine on the wide
 *     quantized layer (racing its F2/F4 variants and im2col-int8),
 *  9. open-loop throughput through the epoll front door must scale
 *     from 1 to 8 workers by at least requiredScaling(hw) — 4x on
 *     hosts with >= 8 cores, degrading with core count down to a
 *     no-collapse bound on a single core, and
 * 10. under offered overload (8 closed-loop clients, maxPending=2)
 *     admission control must keep the ADMITTED p99 within 5x of the
 *     unloaded p99 — shedding buys bounded latency, not silence,
 * 11. the fused bias+ReLU epilogue must not lose to the plain blocked
 *     conv followed by a separate bias/ReLU pass on the wide layer —
 *     the deleted memory pass must actually buy time, and
 * 12. the binary16-storage blocked engine must hold >= 0.9x the fp32
 *     blocked session's end-to-end throughput on a three-deep wide-64
 *     chain while its output stays within 40 half-ULPs of the fp32
 *     output range (on soft-half hosts the throughput requirement
 *     degrades to a no-collapse bound; the accuracy bound always
 *     holds), and
 * 13. chain-aware layout planning must not lose to the per-layer
 *     argmin on a three-deep wide-64 chain (two identical plans pass
 *     as `same plan` without timing).
 *
 * The timed gates carry a 10% slack so a scheduling blip on a shared
 * CI runner cannot flip a structural claim into a flake; an actual
 * regression (typically 2x+) still trips them by a wide margin.
 *
 * The per-layer table on the micro net is informational only: with
 * both engines on the blocked core, im2col now wins the very small
 * layers (its single GEMM amortizes better than scatter/gather at
 * tiny widths) — exactly the trade SessionConfig::autoSelect measures
 * per layer. Returns the number of failed gates.
 */
int
runSmoke()
{
    const NetworkDesc net = microServeNet(16, 8);
    const EngineRegistry &registry = EngineRegistry::instance();
    const auto im2col = registry.get(ConvEngine::Im2col);
    const auto wino = registry.get(ConvEngine::WinogradFp32);

    std::printf("=== Smoke: per-layer winograd-fp32 vs im2col "
                "(batch 8, best of 5; informational — autoSelect "
                "picks per layer) ===\n");
    std::printf("%-12s %12s %12s %8s\n", "layer", "im2col us",
                "winograd us", "speedup");
    int failures = 0;
    std::uint64_t seed = 0x5eed;
    for (const ConvLayerDesc &d : net.expandedLayers()) {
        if (!d.winogradEligible())
            continue;
        LayerBuild build;
        build.params = ConvParams{d.kernel, d.stride,
                                  (d.kernel - 1) / 2};
        build.variant = WinoVariant::F2;
        TensorD weights({d.cout, d.cin, d.kernel, d.kernel});
        Rng wrng(seed++);
        wrng.fillNormal(weights.storage(), 0.0, 0.1);
        const auto prepIm = im2col->prepare(d, weights, build);
        const auto prepWino = wino->prepare(d, weights, build);

        TensorD probe({8, d.cin, d.height, d.width});
        Rng prng(seed++);
        prng.fillNormal(probe.storage(), 0.0, 1.0);
        ScratchArena arena;
        const double tIm =
            timeBackendRun(*im2col, *prepIm, probe, arena, 7);
        const double tWino =
            timeBackendRun(*wino, *prepWino, probe, arena, 7);
        std::printf("%-12s %12.1f %12.1f %7.2fx\n", d.name.c_str(),
                    tIm * 1e6, tWino * 1e6, tIm / tWino);
    }

    // Gate 2: on a wide eligible layer the Winograd path must win.
    // Gates 3-5: on the same layer, the blocked layout must hold its
    // structural claims (gather, end-to-end, autoSelect pick).
    {
        ConvLayerDesc d;
        d.name = "wide-64";
        d.cin = 64;
        d.cout = 64;
        d.kernel = 3;
        d.stride = 1;
        d.height = 16;
        d.width = 16;
        LayerBuild build;
        build.params = ConvParams{3, 1, 1};
        build.variant = WinoVariant::F2;
        TensorD weights({d.cout, d.cin, 3, 3});
        Rng wrng(seed++);
        wrng.fillNormal(weights.storage(), 0.0, 0.1);
        const auto prepIm = im2col->prepare(d, weights, build);
        const auto prepWino = wino->prepare(d, weights, build);
        TensorD probe({8, d.cin, d.height, d.width});
        Rng prng(seed++);
        prng.fillNormal(probe.storage(), 0.0, 1.0);
        ScratchArena arena;
        const double tIm =
            timeBackendRun(*im2col, *prepIm, probe, arena, 7);
        const double tWino =
            timeBackendRun(*wino, *prepWino, probe, arena, 7);
        // 10% slack so a scheduling blip on a shared CI runner cannot
        // flip the structural claim into a flake.
        const bool ok = tWino < 1.10 * tIm;
        failures += !ok;
        std::printf("%-12s %12.1f %12.1f %7.2fx%s\n", d.name.c_str(),
                    tIm * 1e6, tWino * 1e6, tIm / tWino,
                    ok ? "" : "  << FAIL: winograd slower on wide");

        TensorD probeBlocked(blockedShape(probe.shape()));
        nchwToBlocked(probe, probeBlocked);

        // Gate 3: the NCHWc8 gather (8-wide unit-stride block moves)
        // against the strided NCHW gather it replaces.
        {
            const auto bestOf = [&](auto &&fn) {
                fn(); // warmup (shapes the tile buffer)
                double best = 1e30;
                for (int i = 0; i < 7; ++i) {
                    const auto t0 = Clock::now();
                    fn();
                    best = std::min(
                        best,
                        std::chrono::duration<double>(Clock::now() -
                                                      t0)
                            .count());
                }
                return best;
            };
            TensorD vNchw, vBlocked;
            const double tGather = bestOf([&] {
                winogradGatherTiles(probe, WinoVariant::F2, 1, vNchw);
            });
            const double tGatherB = bestOf([&] {
                winogradGatherTilesBlocked(probeBlocked,
                                           WinoVariant::F2, 1,
                                           vBlocked);
            });
            const bool gok = tGatherB < 1.10 * tGather;
            failures += !gok;
            std::printf("gather[wide-64] nchw %.1f us, nchwc8 %.1f "
                        "us, %.2fx%s\n",
                        tGather * 1e6, tGatherB * 1e6,
                        tGather / tGatherB,
                        gok ? ""
                            : "  << FAIL: blocked gather slower");
        }

        // Gate 4: end-to-end blocked winograd vs NCHW winograd, both
        // consuming their native steady-state input layout.
        const auto blocked =
            registry.get(ConvEngine::WinogradBlocked);
        const auto prepBlocked = blocked->prepare(d, weights, build);
        const double tBlocked = timeBackendRun(
            *blocked, *prepBlocked, probeBlocked, arena, 7);
        const bool bok = tBlocked < 1.10 * tWino;
        failures += !bok;
        std::printf("%-12s %12.1f %12.1f %7.2fx%s\n", "wide-64-c8",
                    tWino * 1e6, tBlocked * 1e6, tWino / tBlocked,
                    bok ? ""
                        : "  << FAIL: blocked wino slower than NCHW");

        // Gate 5: the measured policy must land on the blocked
        // engine for this layer.
        NetworkDesc wideNet;
        wideNet.name = "Wide64";
        wideNet.inputRes = d.height;
        wideNet.layers.push_back(d);
        SessionConfig scfg;
        scfg.autoSelect = true;
        // This gate asserts the LOCAL race winner; on an isolated
        // single-layer net the chain DP rightly charges the blocked
        // pick an ingress+egress seam, which is gate 13's subject.
        scfg.chainDp = false;
        const Session sel(wideNet, scfg);
        const bool sok =
            sel.layerEngine(0) == ConvEngine::WinogradBlocked;
        failures += !sok;
        std::printf("autoSelect[wide-64] -> %s (%s)%s\n",
                    convEngineName(sel.layerEngine(0)),
                    winoName(sel.layerVariant(0)),
                    sok ? "" : "  << FAIL: blocked path not selected");

        // Gate 8: the measured quantized policy must land on the
        // blocked int8 engine (the race includes its F2/F4 variants
        // and im2col-int8).
        {
            SessionConfig qcfg;
            qcfg.defaultEngine = ConvEngine::WinogradBlockedInt8;
            qcfg.autoSelect = true;
            qcfg.chainDp = false; // local winner, as in gate 5
            const Session qsel(wideNet, qcfg);
            const bool qsok = qsel.layerEngine(0) ==
                              ConvEngine::WinogradBlockedInt8;
            failures += !qsok;
            std::printf("autoSelect[wide-64-int8] -> %s (%s)%s\n",
                        convEngineName(qsel.layerEngine(0)),
                        winoName(qsel.layerVariant(0)),
                        qsok ? ""
                             : "  << FAIL: blocked int8 path not "
                               "selected");
        }

        // Gate 11: the fused epilogue must actually delete the
        // separate bias/ReLU memory pass — the blocked engine with
        // bias+ReLU folded into its untile write against the plain
        // blocked run followed by a second pass over the output
        // surface (what an unfused session executes).
        {
            LayerBuild fbuild = build;
            fbuild.epilogue.bias.assign(d.cout, 0.0);
            Rng brng(seed++);
            brng.fillNormal(fbuild.epilogue.bias, 0.0, 0.1);
            fbuild.epilogue.relu = true;
            const auto prepFused =
                blocked->prepare(d, weights, fbuild);
            const double tFused = timeBackendRun(
                *blocked, *prepFused, probeBlocked, arena, 7);
            TensorD outP(blocked->outputShape(*prepBlocked,
                                              probeBlocked.shape()));
            const auto bestOf = [&](auto &&fn) {
                fn(); // warmup
                double best = 1e30;
                for (int i = 0; i < 7; ++i) {
                    const auto t0 = Clock::now();
                    fn();
                    best = std::min(
                        best,
                        std::chrono::duration<double>(Clock::now() -
                                                      t0)
                            .count());
                }
                return best;
            };
            const std::vector<double> &bias = fbuild.epilogue.bias;
            const double tSep = bestOf([&] {
                blocked->run(*prepBlocked, probeBlocked, arena, outP);
                double *p = outP.data();
                const std::size_t hw =
                    outP.shape()[2] * outP.shape()[3];
                for (std::size_t n = 0; n < outP.shape()[0]; ++n)
                    for (std::size_t b = 0; b < outP.shape()[1]; ++b)
                        for (std::size_t i = 0; i < hw; ++i)
                            for (std::size_t l = 0; l < kLayoutBlock;
                                 ++l) {
                                const double v =
                                    *p + bias[b * kLayoutBlock + l];
                                *p++ = v < 0.0 ? 0.0 : v;
                            }
            });
            const bool fok = tFused < 1.10 * tSep;
            failures += !fok;
            std::printf("%-12s %12.1f %12.1f %7.2fx%s\n",
                        "wide-64-fuse", tSep * 1e6, tFused * 1e6,
                        tSep / tFused,
                        fok ? ""
                            : "  << FAIL: fused epilogue slower than "
                              "separate pass");
        }

        // Gate 12: binary16 activation/weight storage, end to end on
        // a three-deep wide-64 chain (interior layer handoffs stay
        // half — the inter-layer bandwidth regime the engine
        // targets). The fp16 session must hold >= 0.9x the fp32
        // blocked session's throughput AND land within 40 half-ULPs
        // (40 * 2^-11) of the fp32 output range. On hosts where the
        // conversion kernels fall back to soft-half the throughput
        // requirement degrades to a no-collapse bound — accuracy is
        // host-independent and never relaxes.
        {
            NetworkDesc deep;
            deep.name = "Wide64x3";
            deep.inputRes = d.height;
            for (int i = 0; i < 3; ++i) {
                ConvLayerDesc l = d;
                l.name = "wide." + std::to_string(i);
                deep.layers.push_back(l);
            }
            SessionConfig f32cfg;
            f32cfg.defaultEngine = ConvEngine::WinogradBlocked;
            const Session s32(deep, f32cfg);
            SessionConfig f16cfg;
            f16cfg.defaultEngine = ConvEngine::WinogradBlockedF16;
            const Session s16(deep, f16cfg);
            TensorD in({8, d.cin, d.height, d.width});
            Rng irng(seed++);
            irng.fillNormal(in.storage(), 0.0, 1.0);
            const TensorD y32 = s32.run(in);
            const TensorD y16 = s16.run(in);
            double maxAbs = 0.0, maxErr = 0.0;
            for (std::size_t i = 0; i < y32.numel(); ++i) {
                maxAbs = std::max(maxAbs, std::abs(y32[i]));
                maxErr = std::max(maxErr, std::abs(y16[i] - y32[i]));
            }
            const bool aok = maxErr <= 40.0 * 0x1p-11 * maxAbs;
            const auto bestOf = [&](const Session &s,
                                    ScratchArena &a) {
                s.run(in, a); // warmup
                double best = 1e30;
                for (int i = 0; i < 7; ++i) {
                    const auto t0 = Clock::now();
                    s.run(in, a);
                    best = std::min(
                        best,
                        std::chrono::duration<double>(Clock::now() -
                                                      t0)
                            .count());
                }
                return best;
            };
            ScratchArena a32, a16;
            const double t32 = bestOf(s32, a32);
            const double t16 = bestOf(s16, a16);
            const bool soft =
                std::strcmp(layout::f16KernelName(), "soft") == 0;
            const double need = soft ? 0.25 : 0.9;
            const double ratio = t32 / t16;
            const bool hok = aok && ratio >= need;
            failures += !hok;
            std::printf(
                "f16[wide-64x3] kernel=%s: fp32 %.1f us, fp16 %.1f "
                "us, %.2fx (need >= %.2fx), max err %.3g of range "
                "%.3g%s\n",
                layout::f16KernelName(), t32 * 1e6, t16 * 1e6, ratio,
                need, maxErr, maxAbs,
                hok ? ""
                    : (aok ? "  << FAIL: fp16 throughput below bound"
                           : "  << FAIL: fp16 accuracy gate"));
        }

        // Gate 13: chain-aware layout planning must never lose to
        // the per-layer argmin it replaces — on a three-deep wide-64
        // chain the DP sees the same measured candidate tables plus
        // the seam conversion costs, so its plan is the argmin plan
        // or a strictly cheaper one. Two identical plans pass as
        // `same plan` without timing (timing them would measure only
        // noise); differing plans are timed, with 10% slack for probe
        // noise (both builds race live and may measure different
        // rounds).
        {
            NetworkDesc deep;
            deep.name = "Wide64x3";
            deep.inputRes = d.height;
            for (int i = 0; i < 3; ++i) {
                ConvLayerDesc l = d;
                l.name = "wide." + std::to_string(i);
                deep.layers.push_back(l);
            }
            SessionConfig acfg;
            acfg.autoSelect = true;
            acfg.chainDp = false;
            const Session argmin(deep, acfg);
            SessionConfig dcfg;
            dcfg.autoSelect = true;
            dcfg.chainDp = true;
            const Session dp(deep, dcfg);
            const auto planOf = [](const Session &s) {
                std::string plan;
                for (std::size_t i = 0; i < s.layerCount(); ++i)
                    plan += std::string(i ? "," : "") +
                            convEngineName(s.layerEngine(i)) + "/" +
                            winoName(s.layerVariant(i));
                return plan;
            };
            if (samePlan(argmin, dp)) {
                std::printf("%-12s %12s %12s %8s  (%s, same plan)\n",
                            "wide-64-dp", "-", "-", "-",
                            planOf(dp).c_str());
            } else {
                TensorD in({8, d.cin, d.height, d.width});
                Rng irng(seed++);
                irng.fillNormal(in.storage(), 0.0, 1.0);
                const auto bestOf = [&](const Session &s,
                                        ScratchArena &a) {
                    s.run(in, a); // warmup
                    double best = 1e30;
                    for (int i = 0; i < 7; ++i) {
                        const auto t0 = Clock::now();
                        s.run(in, a);
                        best = std::min(
                            best,
                            std::chrono::duration<double>(Clock::now() -
                                                          t0)
                                .count());
                    }
                    return best;
                };
                ScratchArena aa, ad;
                const double tArgmin = bestOf(argmin, aa);
                const double tDp = bestOf(dp, ad);
                const bool cok = tDp < 1.10 * tArgmin;
                failures += !cok;
                std::printf("%-12s %12.1f %12.1f %7.2fx  (%s -> %s)%s\n",
                            "wide-64-dp", tArgmin * 1e6, tDp * 1e6,
                            tArgmin / tDp, planOf(argmin).c_str(),
                            planOf(dp).c_str(),
                            cok ? ""
                                : "  << FAIL: chain DP lost to per-layer "
                                  "argmin");
            }
        }
    }

    // Blocked-GEMM gate: on a representative [Cout, Cin] x [Cin, P]
    // per-tap shape, the blocked micro-kernel must beat the naive
    // i-k-j loop it replaced — the structural claim of the GEMM
    // subsystem.
    {
        const std::size_t M = 64, K = 64, P = 1024;
        Rng rng(123);
        std::vector<double> a(M * K), b(K * P), c(M * P);
        for (auto &v : a)
            v = rng.normal();
        for (auto &v : b)
            v = rng.normal();
        const auto bestOf = [&](auto &&fn) {
            using Clock = std::chrono::steady_clock;
            fn(); // warmup
            double best = 1e30;
            for (int i = 0; i < 7; ++i) {
                const auto t0 = Clock::now();
                fn();
                best = std::min(
                    best, std::chrono::duration<double>(Clock::now() -
                                                        t0)
                              .count());
            }
            return best;
        };
        const double tNaive = bestOf([&] {
            gemm::referenceGemm(a.data(), b.data(), c.data(), M, K, P);
        });
        const double tBlocked = bestOf([&] {
            gemm::gemm(a.data(), b.data(), c.data(), M, K, P);
        });
        const bool ok = tBlocked < 1.10 * tNaive;
        failures += !ok;
        std::printf("\ngemm[%zux%zux%zu] kernel=%s: naive %.1f us, "
                    "blocked %.1f us, %.2fx%s\n",
                    M, K, P, gemm::kernelName(), tNaive * 1e6,
                    tBlocked * 1e6, tNaive / tBlocked,
                    ok ? "" : "  << FAIL: blocked GEMM slower");

        // Gate 6: the dispatched int8 widening micro-kernel against
        // the generic blocked widening kernel on the same per-tap
        // shape. On hosts without a SIMD int8 kernel the dispatch IS
        // the generic kernel and the ratio sits at 1.0 — inside the
        // gate's slack by construction.
        std::vector<std::int8_t> a8(M * K), b8(K * P);
        for (auto &v : a8)
            v = static_cast<std::int8_t>(rng.uniformInt(-128, 127));
        for (auto &v : b8)
            v = static_cast<std::int8_t>(rng.uniformInt(-128, 127));
        std::vector<std::int32_t> c32(M * P);
        const double tGeneric = bestOf([&] {
            gemm::gemmS8S32Generic(a8.data(), b8.data(), c32.data(),
                                   M, K, P, P, P);
        });
        const double tWiden = bestOf([&] {
            gemm::gemmS8S32(a8.data(), b8.data(), c32.data(), M, K,
                            P);
        });
        const bool i8ok = tWiden < 1.10 * tGeneric;
        failures += !i8ok;
        std::printf("gemm-s8[%zux%zux%zu] kernel=%s: generic %.1f "
                    "us, widening %.1f us, %.2fx%s\n",
                    M, K, P, gemm::int8KernelName(), tGeneric * 1e6,
                    tWiden * 1e6, tGeneric / tWiden,
                    i8ok ? ""
                         : "  << FAIL: widening kernel slower than "
                           "generic");
    }

    // Gates 9-10: the network front door. Both run the micro net
    // through real loopback TCP sockets.
    {
        SessionConfig scfg;
        scfg.defaultEngine = ConvEngine::WinogradFp32;
        auto session = std::make_shared<const Session>(net, scfg);
        const std::size_t hw = std::max<std::size_t>(
            1, std::thread::hardware_concurrency());

        // Gate 9: worker scaling over the wire, open loop (one deep
        // pipelined connection keeps every worker fed). The required
        // ratio adapts to the host's core count — the 4x target
        // presumes 8 usable cores.
        const Result t1 = runNetOpen(
            session, ConvEngine::WinogradFp32, "smoke-net-t1", 1, 192);
        const Result t8 = runNetOpen(
            session, ConvEngine::WinogradFp32, "smoke-net-t8", 8, 192);
        const double need = requiredScaling(hw);
        const double ratio = t8.reqPerSec / t1.reqPerSec;
        const bool nok = ratio >= need;
        failures += !nok;
        std::printf("\nnet scaling: 1 worker %.1f req/s, 8 workers "
                    "%.1f req/s, %.2fx (need >= %.2fx on %zu "
                    "cores)%s\n",
                    t1.reqPerSec, t8.reqPerSec, ratio, need, hw,
                    nok ? "" : "  << FAIL: front door does not scale");

        // Gate 10: shedding bounds the admitted tail. The unloaded
        // row is the floor; the overload row offers 4 closed-loop
        // clients against maxPending=2, so an admitted request waits
        // behind at most one other yet the offered load stays well
        // above capacity. A heavier net than gate 9's keeps the
        // per-request service time well above scheduler jitter — with
        // a ~0.2 ms request, timeslice noise from the client threads
        // on a small host swamps the queueing term the gate is
        // actually about (the full 8-client row lives in the bench's
        // network matrix; the gate trades offered-load margin for
        // noise immunity).
        SessionConfig hcfg;
        hcfg.defaultEngine = ConvEngine::WinogradFp32;
        auto heavy = std::make_shared<const Session>(
            microServeNet(32, 16), hcfg);
        const Result unloaded =
            runNetClosed(heavy, ConvEngine::WinogradFp32,
                         "smoke-net-unloaded", hw, 1, 1, 64, 0);
        const Result overload =
            runNetClosed(heavy, ConvEngine::WinogradFp32,
                         "smoke-net-overload", hw, 1, 4, 384, 2);
        const bool pok = overload.requests >= 1 &&
                         overload.shed >= 1 &&
                         overload.p99Ms <= 5.0 * unloaded.p99Ms;
        failures += !pok;
        std::printf("net overload: unloaded p99 %.3f ms, admitted "
                    "p99 under overload %.3f ms (%.2fx, need <= "
                    "5.00x), %zu ok / %llu shed%s\n",
                    unloaded.p99Ms, overload.p99Ms,
                    overload.p99Ms / unloaded.p99Ms, overload.requests,
                    static_cast<unsigned long long>(overload.shed),
                    pok ? ""
                        : "  << FAIL: overload tail unbounded or "
                          "nothing shed");
    }

    // Whole-net bulk context (includes the im2col-only layers).
    for (ConvEngine engine :
         {ConvEngine::Im2col, ConvEngine::WinogradFp32}) {
        SessionConfig scfg;
        scfg.defaultEngine = engine;
        auto session =
            std::make_shared<const Session>(net, scfg);
        const Result r =
            runOpenLoop(session, engine, "bulk-b8-1w", 1, 8, 96);
        std::printf("whole-net %-14s bulk-b8-1w: %10.1f req/s\n",
                    convEngineName(engine), r.reqPerSec);
    }
    std::printf(failures == 0
                    ? "\nSMOKE PASS: blocked GEMM beats naive, "
                      "winograd-fp32 beats im2col on the wide layer, "
                      "the NCHWc8 layout holds its gather / "
                      "end-to-end / autoSelect claims, the int8 "
                      "path holds its widening-kernel / blocked "
                      "end-to-end / autoSelect claims, the fused "
                      "epilogue beats the separate pass, binary16 "
                      "storage holds throughput inside the accuracy "
                      "gate, and the net front door scales with "
                      "workers and bounds the admitted tail under "
                      "overload\n"
                    : "\nSMOKE FAIL: %d gate(s) failed\n",
                failures);
    return failures;
}

/**
 * Single-batch large-layer latency: one batched input through one
 * winograd-fp32 layer, p50 over repeated runs, in three modes —
 * the pre-GEMM-subsystem naive per-tap loop (the PR 2 baseline,
 * reconstructed from the stage API), the blocked kernel serial, and
 * the blocked kernel with the per-tap GEMMs sharded across a worker
 * pool. Measured on the widest (most MACs) eligible layer of the
 * micro-8 net and on a wide 64-channel layer representing the
 * ROADMAP's "wide layers" regime.
 */
void
runLayerLatency(const ConvLayerDesc &d, const char *tag,
                std::size_t batch, std::size_t hw,
                std::vector<Result> &results)
{
    TensorD weights({d.cout, d.cin, 3, 3});
    Rng wrng(0xabc);
    wrng.fillNormal(weights.storage(), 0.0, 0.1);
    const auto w = winogradPrepareTapWeights(weights, WinoVariant::F2);

    TensorD probe({batch, d.cin, d.height, d.width});
    Rng prng(0xdef);
    prng.fillNormal(probe.storage(), 0.0, 1.0);
    const WinoDims dims = winoDims(probe.shape(), WinoVariant::F2, 1);
    TensorD V, U, M, Y;
    TensorD out({batch, d.cout, dims.ho, dims.wo});

    ThreadPool pool(hw);
    PoolRunner runner(pool, pool.size());

    constexpr int kIters = 60;
    const auto measure = [&](const std::string &label, auto &&fn) {
        using Clock = std::chrono::steady_clock;
        fn(); // warmup (shapes buffers)
        std::vector<double> ms;
        ms.reserve(kIters);
        const auto wall0 = Clock::now();
        for (int i = 0; i < kIters; ++i) {
            const auto t0 = Clock::now();
            fn();
            ms.push_back(std::chrono::duration<double, std::milli>(
                             Clock::now() - t0)
                             .count());
        }
        Result r;
        r.engine = "winograd-fp32";
        r.label = label;
        r.threads = hw;
        r.maxBatch = batch;
        r.clients = 1;
        r.requests = kIters;
        r.wallSec =
            std::chrono::duration<double>(Clock::now() - wall0).count();
        r.reqPerSec = kIters / r.wallSec;
        r.p50Ms = percentile(ms, 0.50);
        r.p99Ms = percentile(ms, 0.99);
        r.p999Ms = percentile(ms, 0.999);
        r.avgBatch = static_cast<double>(batch);
        results.push_back(r);
        return r.p50Ms;
    };

    const std::string naiveL = std::string(tag) + "-naive";
    const std::string serialL = std::string(tag) + "-serial";
    const std::string parL = std::string(tag) + "-par";
    const std::string blkL = std::string(tag) + "-blocked";
    const std::string blkParL = std::string(tag) + "-blocked-par";

    const double pNaive = measure(naiveL, [&] {
        // The PR 2 execution: scatter, naive i-k-j per-tap products,
        // gather.
        winogradScatter(probe, WinoVariant::F2, 1, V, U);
        const std::size_t tt = dims.t * dims.t;
        const Shape want{tt, d.cout, dims.tiles};
        if (M.shape() != want)
            M = TensorD(want);
        for (std::size_t k = 0; k < tt; ++k)
            gemm::referenceGemm(w.tap(k),
                                U.data() + k * d.cin * dims.tiles,
                                M.data() + k * d.cout * dims.tiles,
                                d.cout, d.cin, dims.tiles);
        winogradGather(M, WinoVariant::F2, Y, out);
    });
    const double pSerial = measure(serialL, [&] {
        conv2dWinogradTiledInto(probe, w, 1, V, U, M, Y, out);
    });
    const double pPar = measure(parL, [&] {
        conv2dWinogradTiledInto(probe, w, 1, V, U, M, Y, out, &runner);
    });

    // The NCHWc8 blocked-layout pipeline on the same layer,
    // steady-state (input already blocked, as layout propagation
    // keeps it between blocked layers). Rows land in the JSON under
    // engine "winograd-blocked".
    const BlockedTapWeights bw = blockedTapWeights(w);
    TensorD probeBlocked(blockedShape(probe.shape()));
    nchwToBlocked(probe, probeBlocked);
    TensorD Ub, Mb;
    TensorD outb({batch, bw.coutb, dims.ho, dims.wo, kLayoutBlock});
    const char *engineSave = "winograd-blocked";
    const auto measureBlocked = [&](const std::string &label,
                                    auto &&fn) {
        const std::size_t at = results.size();
        const double p50 = measure(label, fn);
        results[at].engine = engineSave;
        return p50;
    };
    const double pBlk = measureBlocked(blkL, [&] {
        conv2dWinogradBlockedInto(probeBlocked, bw, 1, Ub, Mb, outb);
    });
    const double pBlkPar = measureBlocked(blkParL, [&] {
        conv2dWinogradBlockedInto(probeBlocked, bw, 1, Ub, Mb, outb,
                                  &runner);
    });
    pool.shutdown();
    std::printf("layer %-10s [%zux%zu @ %zux%zu, b%zu] p50: naive "
                "%.3f ms, blocked-gemm %.3f ms, +parallel %.3f ms "
                "(%.2fx vs naive); nchwc8 %.3f ms, +parallel %.3f ms "
                "(%.2fx vs nchw wino)\n",
                tag, d.cout, d.cin, d.height, d.width, batch, pNaive,
                pSerial, pPar, pNaive / std::min(pSerial, pPar), pBlk,
                pBlkPar, pSerial / std::min(pBlk, pBlkPar));
}

void
writeJson(const std::vector<Result> &results,
          const std::map<std::string, obs::StageTotal> &stages,
          const std::map<std::string, obs::PerfStageTotal> &stagePerf,
          const char *path)
{
    std::FILE *f = std::fopen(path, "w");
    if (!f) {
        std::perror("BENCH_runtime.json");
        return;
    }
    std::fprintf(f, "{\n  \"benchmark\": \"runtime_throughput\",\n");
    std::fprintf(f, "  \"results\": [\n");
    for (std::size_t i = 0; i < results.size(); ++i) {
        const Result &r = results[i];
        std::fprintf(
            f,
            "    {\"engine\": \"%s\", \"config\": \"%s\", "
            "\"threads\": %zu, \"max_batch\": %zu, \"clients\": %zu, "
            "\"requests\": %zu, \"wall_sec\": %.6f, "
            "\"req_per_sec\": %.2f, \"p50_ms\": %.4f, "
            "\"p99_ms\": %.4f, \"p999_ms\": %.4f, "
            "\"avg_batch\": %.2f, \"shed\": %llu, "
            "\"hist_p50_ms\": %.4f, \"hist_p99_ms\": %.4f, "
            "\"ipc\": %.3f, \"cache_miss_rate\": %.4f}%s\n",
            r.engine, r.label.c_str(), r.threads, r.maxBatch, r.clients,
            r.requests, r.wallSec, r.reqPerSec, r.p50Ms, r.p99Ms,
            r.p999Ms, r.avgBatch,
            static_cast<unsigned long long>(r.shed), r.histP50Ms,
            r.histP99Ms, r.ipc, r.missRate,
            i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    // Per-stage rollup of the traced wide-64 autoSelect run: where a
    // request's time actually goes (gather vs B-kron vs per-tap GEMM
    // vs untile...), from the same spans a tracePath trace shows —
    // with each stage's hardware-counter profile (IPC, cache miss
    // rate) when perf_event_open was available. Empty when built
    // with TWQ_NO_OBS.
    std::fprintf(f, "  \"stage_breakdown\": [\n");
    std::size_t emitted = 0;
    for (const auto &[name, t] : stages) {
        std::fprintf(f,
                     "    {\"stage\": \"%s\", \"count\": %llu, "
                     "\"total_ms\": %.4f",
                     name.c_str(),
                     static_cast<unsigned long long>(t.count),
                     static_cast<double>(t.totalNs) * 1e-6);
        if (const auto it = stagePerf.find(name);
            it != stagePerf.end() && it->second.counters.valid)
            std::fprintf(f, ", \"ipc\": %.3f, \"cache_miss_rate\": %.4f",
                         it->second.counters.ipc(),
                         it->second.counters.missRate());
        std::fprintf(f, "}%s\n",
                     ++emitted < stages.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("\nwrote %s\n", path);
}

/**
 * Observability overhead gate: p50 of the steady-state wide-64
 * blocked FP layer (serial, input already blocked — the hottest
 * instrumented path), printed as one machine-readable line. CI builds
 * this bench twice, default and -DTWQ_NO_OBS=ON, and asserts the
 * instrumented-but-disabled build stays within 5% of the stub build —
 * the budget for the one predicted branch each disabled span costs.
 */
int
runObsGate()
{
    ConvLayerDesc d;
    d.name = "wide-64";
    d.cin = 64;
    d.cout = 64;
    d.kernel = 3;
    d.stride = 1;
    d.height = 16;
    d.width = 16;
    const auto blocked =
        EngineRegistry::instance().get(ConvEngine::WinogradBlocked);
    LayerBuild build;
    build.params = ConvParams{3, 1, 1};
    build.variant = WinoVariant::F2;
    TensorD weights({d.cout, d.cin, 3, 3});
    Rng wrng(0x0b5);
    wrng.fillNormal(weights.storage(), 0.0, 0.1);
    const auto prep = blocked->prepare(d, weights, build);
    TensorD probe({8, d.cin, d.height, d.width});
    Rng prng(0x0b6);
    prng.fillNormal(probe.storage(), 0.0, 1.0);
    TensorD probeBlocked(blockedShape(probe.shape()));
    nchwToBlocked(probe, probeBlocked);
    ScratchArena arena;
    TensorD out(blocked->outputShape(*prep, probeBlocked.shape()));
    blocked->run(*prep, probeBlocked, arena, out); // warmup
    constexpr int kIters = 200;
    std::vector<double> ms;
    ms.reserve(kIters);
    for (int i = 0; i < kIters; ++i) {
        const auto t0 = Clock::now();
        blocked->run(*prep, probeBlocked, arena, out);
        ms.push_back(std::chrono::duration<double, std::milli>(
                         Clock::now() - t0)
                         .count());
    }
    std::printf("OBS_GATE_P50_MS %.5f\n", percentile(ms, 0.50));
    return 0;
}

} // namespace
} // namespace twq

int
main(int argc, char **argv)
{
    using namespace twq;

    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            return runSmoke() == 0 ? 0 : 1;
        if (std::strcmp(argv[i], "--obs-gate") == 0)
            return runObsGate();
        std::fprintf(stderr, "usage: %s [--smoke|--obs-gate]\n",
                     argv[0]);
        return 2;
    }

    const std::size_t hw = std::max<std::size_t>(
        2, std::min<std::size_t>(std::thread::hardware_concurrency(), 8));

    std::vector<Result> results;
    std::map<std::string, obs::StageTotal> stages;
    std::map<std::string, obs::PerfStageTotal> stagePerf;
    struct Workload
    {
        const char *name;
        std::size_t res;
        std::size_t width;
        std::size_t requests;
    };
    // micro-8 is the serving-overhead-bound regime; micro-16 is
    // compute-bound (16x the MACs per request). Cheap requests get a
    // larger sample to keep the measurement out of scheduler noise.
    const Workload workloads[] = {{"micro-8", 8, 4, 1024},
                                  {"micro-16", 16, 8, 192}};

    for (const Workload &wl : workloads) {
        const std::size_t kRequests = wl.requests;
        std::printf("=== Serving throughput: %s net, %zu "
                    "requests/config, %zu hw threads ===\n\n",
                    wl.name, kRequests, hw);
        std::printf("%-14s %-10s %8s %6s %8s %10s %9s %9s %6s\n",
                    "engine", "config", "threads", "batch", "clients",
                    "req/s", "p50 ms", "p99 ms", "avgB");

        for (ConvEngine engine : kAllConvEngines) {
            SessionConfig scfg;
            scfg.defaultEngine = engine;
            auto session = std::make_shared<const Session>(
                microServeNet(wl.res, wl.width), scfg);

            // Open-loop (bulk) regime: the acceptance comparison.
            const Result obase = runOpenLoop(
                session, engine, "bulk-base", 1, 1, kRequests);
            const Result obatch1 = runOpenLoop(
                session, engine, "bulk-b8-1w", 1, 8, kRequests);
            const Result obatch = runOpenLoop(
                session, engine, "bulk-b8", hw, 8, kRequests);

            // Closed-loop regime: interactive latency numbers.
            const Result cbase = runConfig(
                session, engine, "loop-base", 1, 1, 1, kRequests);
            const Result cthreads = runConfig(
                session, engine, "loop-thr", hw, 1, hw, kRequests);
            const Result cbatch = runConfig(
                session, engine, "loop-b8", hw, 8, 2 * hw, kRequests);

            const Result *best = &obatch1;
            if (obatch.reqPerSec > best->reqPerSec)
                best = &obatch;
            for (const Result &r : {obase, obatch1, obatch, cbase,
                                    cthreads, cbatch}) {
                std::printf("%-14s %-10s %8zu %6zu %8zu %10.1f %9.3f "
                            "%9.3f %6.2f\n",
                            r.engine, r.label.c_str(), r.threads,
                            r.maxBatch, r.clients, r.reqPerSec, r.p50Ms,
                            r.p99Ms, r.avgBatch);
                results.push_back(r);
            }
            std::printf("  -> %s/%s: batched runtime (%s) is %.2fx "
                        "the single-thread batch-1 baseline\n\n",
                        wl.name, convEngineName(engine),
                        best->label.c_str(),
                        best->reqPerSec / obase.reqPerSec);
        }
    }

    // Network serving matrix: the same requests through the epoll
    // front door over loopback TCP, so every row pays the full wire
    // cost (encode, socket, framing, decode) on top of inference.
    // Closed-loop rows run 2*t clients in lockstep; open-loop rows
    // pipeline one deep connection. Worker counts sweep past the
    // physical core count on purpose — the tail of the sweep shows
    // where affinity-pinned workers stop helping on this host.
    {
        const std::size_t kNetRequests = 192;
        SessionConfig scfg;
        scfg.defaultEngine = ConvEngine::WinogradFp32;
        auto session = std::make_shared<const Session>(
            microServeNet(16, 8), scfg);
        std::printf("=== Network serving (loopback TCP, epoll front "
                    "door, pinned workers, %zu requests/row) ===\n\n",
                    kNetRequests);
        std::printf("%-14s %-14s %8s %8s %10s %9s %9s %9s %6s\n",
                    "engine", "config", "threads", "clients", "req/s",
                    "p50 ms", "p99 ms", "p99.9 ms", "shed");
        const auto show = [&](const Result &r) {
            std::printf("%-14s %-14s %8zu %8zu %10.1f %9.3f %9.3f "
                        "%9.3f %6llu\n",
                        r.engine, r.label.c_str(), r.threads,
                        r.clients, r.reqPerSec, r.p50Ms, r.p99Ms,
                        r.p999Ms,
                        static_cast<unsigned long long>(r.shed));
            results.push_back(r);
        };
        for (const std::size_t t : {1u, 2u, 4u, 8u, 16u}) {
            show(runNetClosed(session, ConvEngine::WinogradFp32,
                              "net-loop-t" + std::to_string(t), t, 8,
                              2 * t, kNetRequests, 0));
            show(runNetOpen(session, ConvEngine::WinogradFp32,
                            "net-bulk-t" + std::to_string(t), t,
                            kNetRequests));
        }

        // Overload pair: the unloaded row is the latency floor (one
        // closed-loop client, batch 1); the overload row offers 8
        // closed-loop clients against maxPending=2 so admission
        // control sheds most of the load — its percentiles cover the
        // ADMITTED requests, the bounded-latency claim.
        const std::size_t hwNet = std::max<std::size_t>(
            1, std::thread::hardware_concurrency());
        show(runNetClosed(session, ConvEngine::WinogradFp32,
                          "net-unloaded", hwNet, 1, 1, 128, 0));
        show(runNetClosed(session, ConvEngine::WinogradFp32,
                          "net-overload", hwNet, 1, 8, 512, 2));
        std::printf("\n");
    }

    // Single-batch large-layer latency: the intra-batch parallelism /
    // blocked-GEMM acceptance metric.
    std::printf("=== Single-batch layer latency (blocked GEMM + "
                "intra-batch parallelism, kernel=%s) ===\n",
                gemm::kernelName());
    {
        const NetworkDesc net = microServeNet(8, 4);
        const ConvLayerDesc *widest = nullptr;
        for (const ConvLayerDesc &d : net.expandedLayers())
            if (d.winogradEligible() &&
                (!widest || d.macs() > widest->macs()))
                widest = &d;
        if (widest)
            runLayerLatency(*widest, "micro8", 8, hw, results);
        ConvLayerDesc wide;
        wide.name = "wide-64";
        wide.cin = 64;
        wide.cout = 64;
        wide.kernel = 3;
        wide.stride = 1;
        wide.height = 16;
        wide.width = 16;
        runLayerLatency(wide, "wide64", 8, hw, results);

        // Quantized wide-64 single-batch latency of the NCHWc8
        // blocked int8 engine on its native steady-state input
        // layout, tracked in the JSON as wide64-int8-blocked.
        {
            const EngineRegistry &registry = EngineRegistry::instance();
            LayerBuild build;
            build.params = ConvParams{3, 1, 1};
            build.variant = WinoVariant::F2;
            TensorD weights({wide.cout, wide.cin, 3, 3});
            Rng wrng(0x18b);
            wrng.fillNormal(weights.storage(), 0.0, 0.1);
            TensorD calT({2, wide.cin, wide.height, wide.width});
            Rng crng(0xca1);
            crng.fillNormal(calT.storage(), 0.0, 1.0);
            std::vector<TensorD> cal{calT};
            build.calibration = &cal;
            TensorD probe({8, wide.cin, wide.height, wide.width});
            Rng prng(0x1e8);
            prng.fillNormal(probe.storage(), 0.0, 1.0);
            TensorD probeBlocked(blockedShape(probe.shape()));
            nchwToBlocked(probe, probeBlocked);
            ScratchArena arena;

            const auto latencyRow = [&](ConvEngine engine,
                                        const char *label,
                                        const TensorD &in) {
                const auto backend = registry.get(engine);
                const auto prep =
                    backend->prepare(wide, weights, build);
                TensorD out(
                    backend->outputShape(*prep, in.shape()));
                backend->run(*prep, in, arena, out); // warmup
                std::vector<double> ms;
                constexpr int kIters = 60;
                ms.reserve(kIters);
                const auto wall0 = Clock::now();
                for (int i = 0; i < kIters; ++i) {
                    const auto t0 = Clock::now();
                    backend->run(*prep, in, arena, out);
                    ms.push_back(
                        std::chrono::duration<double, std::milli>(
                            Clock::now() - t0)
                            .count());
                }
                Result r;
                r.engine = convEngineName(engine);
                r.label = label;
                r.threads = 1;
                r.maxBatch = 8;
                r.clients = 1;
                r.requests = kIters;
                r.wallSec = std::chrono::duration<double>(
                                Clock::now() - wall0)
                                .count();
                r.reqPerSec = kIters / r.wallSec;
                r.p50Ms = percentile(ms, 0.50);
                r.p99Ms = percentile(ms, 0.99);
                r.p999Ms = percentile(ms, 0.999);
                r.avgBatch = 8.0;
                results.push_back(r);
                return r.p50Ms;
            };
            const double pIntB =
                latencyRow(ConvEngine::WinogradBlockedInt8,
                           "wide64-int8-blocked", probeBlocked);
            std::printf("layer wide-64 int8 p50: nchwc8 %.3f ms\n",
                        pIntB);
        }

        // Fused-epilogue and binary16-storage wide-64 rows: the fused
        // row folds bias+ReLU into the blocked untile write; the
        // unfused row runs the same conv then the separate bias/ReLU
        // pass the fusion deletes; the fp16 row is the steady-state
        // half-storage hot path (half activations in and out — the
        // inter-layer regime, conversion seams excluded just like the
        // blocked rows exclude layout conversion). Tracked in the
        // JSON as wide64-fused / wide64-unfused / wide64-fp16.
        {
            const EngineRegistry &registry = EngineRegistry::instance();
            LayerBuild build;
            build.params = ConvParams{3, 1, 1};
            build.variant = WinoVariant::F2;
            TensorD weights({wide.cout, wide.cin, 3, 3});
            Rng wrng(0xf16);
            wrng.fillNormal(weights.storage(), 0.0, 0.1);
            LayerBuild fbuild = build;
            fbuild.epilogue.bias.assign(wide.cout, 0.0);
            Rng brng(0xb1a);
            brng.fillNormal(fbuild.epilogue.bias, 0.0, 0.1);
            fbuild.epilogue.relu = true;

            TensorD probe({8, wide.cin, wide.height, wide.width});
            Rng prng(0xfe1);
            prng.fillNormal(probe.storage(), 0.0, 1.0);
            TensorD probeBlocked(blockedShape(probe.shape()));
            nchwToBlocked(probe, probeBlocked);
            TensorF16 probeHalf(probeBlocked.shape());
            tensorDToF16(probeBlocked, probeHalf);
            ScratchArena arena;

            const auto blocked =
                registry.get(ConvEngine::WinogradBlocked);
            const auto f16 =
                registry.get(ConvEngine::WinogradBlockedF16);
            const auto prepPlain =
                blocked->prepare(wide, weights, build);
            const auto prepFused =
                blocked->prepare(wide, weights, fbuild);
            const auto prepHalf = f16->prepare(wide, weights, build);

            const auto measureRow = [&](ConvEngine engine,
                                        const char *label,
                                        auto &&fn) {
                fn(); // warmup
                std::vector<double> ms;
                constexpr int kIters = 60;
                ms.reserve(kIters);
                const auto wall0 = Clock::now();
                for (int i = 0; i < kIters; ++i) {
                    const auto t0 = Clock::now();
                    fn();
                    ms.push_back(
                        std::chrono::duration<double, std::milli>(
                            Clock::now() - t0)
                            .count());
                }
                Result r;
                r.engine = convEngineName(engine);
                r.label = label;
                r.threads = 1;
                r.maxBatch = 8;
                r.clients = 1;
                r.requests = kIters;
                r.wallSec = std::chrono::duration<double>(
                                Clock::now() - wall0)
                                .count();
                r.reqPerSec = kIters / r.wallSec;
                r.p50Ms = percentile(ms, 0.50);
                r.p99Ms = percentile(ms, 0.99);
                r.p999Ms = percentile(ms, 0.999);
                r.avgBatch = 8.0;
                results.push_back(r);
                return r.p50Ms;
            };

            TensorD outF(blocked->outputShape(*prepFused,
                                              probeBlocked.shape()));
            const double pFused = measureRow(
                ConvEngine::WinogradBlocked, "wide64-fused", [&] {
                    blocked->run(*prepFused, probeBlocked, arena,
                                 outF);
                });
            TensorD outP(blocked->outputShape(*prepPlain,
                                              probeBlocked.shape()));
            const std::vector<double> &bias = fbuild.epilogue.bias;
            const double pSep = measureRow(
                ConvEngine::WinogradBlocked, "wide64-unfused", [&] {
                    blocked->run(*prepPlain, probeBlocked, arena,
                                 outP);
                    double *p = outP.data();
                    const std::size_t hw =
                        outP.shape()[2] * outP.shape()[3];
                    for (std::size_t n = 0; n < outP.shape()[0]; ++n)
                        for (std::size_t b = 0; b < outP.shape()[1];
                             ++b)
                            for (std::size_t i = 0; i < hw; ++i)
                                for (std::size_t l = 0;
                                     l < kLayoutBlock; ++l) {
                                    const double v =
                                        *p +
                                        bias[b * kLayoutBlock + l];
                                    *p++ = v < 0.0 ? 0.0 : v;
                                }
                });
            TensorF16 outH(
                f16->outputShape(*prepHalf, probeHalf.shape()));
            const double pHalf = measureRow(
                ConvEngine::WinogradBlockedF16, "wide64-fp16", [&] {
                    f16->runF16(*prepHalf, probeHalf, arena, outH,
                                RunContext{});
                });
            std::printf("layer wide-64 epilogue p50: fused %.3f ms, "
                        "unfused+pass %.3f ms (%.2fx); fp16 storage "
                        "%.3f ms (%.2fx vs fused fp32, kernel=%s)\n",
                        pFused, pSep, pSep / pFused, pHalf,
                        pFused / pHalf, layout::f16KernelName());
        }

        // What the measured per-layer policy picks for the wide layer
        // (engine + variant + layout race, SessionConfig::autoSelect)
        // — recorded in the JSON as the wide64-autosel row, whose
        // engine field IS the selection.
        NetworkDesc wideNet;
        wideNet.name = "Wide64";
        wideNet.inputRes = wide.height;
        wideNet.layers.push_back(wide);
        SessionConfig scfg;
        scfg.autoSelect = true;
        const auto session =
            std::make_shared<const Session>(wideNet, scfg);
        TensorD probe({8, wide.cin, wide.height, wide.width});
        Rng prng(0x64);
        prng.fillNormal(probe.storage(), 0.0, 1.0);
        ScratchArena arena;
        std::vector<double> ms;
        session->run(probe, arena); // warmup
        constexpr int kIters = 60;
        // Trace the measured iterations and roll the spans up into
        // the JSON's per-stage breakdown (aggregate() stops tracing).
        // The timing loop itself is traced, but a span costs tens of
        // nanoseconds against a multi-hundred-microsecond layer.
        obs::TraceCollector::global().enable();
        beginRowPerf();
        const auto wall0 = Clock::now();
        for (int i = 0; i < kIters; ++i) {
            const auto t0 = Clock::now();
            session->run(probe, arena);
            ms.push_back(std::chrono::duration<double, std::milli>(
                             Clock::now() - t0)
                             .count());
        }
        stages = obs::TraceCollector::global().aggregate();
        // Keep the per-stage counter rollup of this traced run for
        // the JSON's stage_breakdown before endRowPerf resets it.
        stagePerf = obs::PerfStageCollector::global().totals();
        Result r;
        r.engine = convEngineName(session->layerEngine(0));
        r.label = "wide64-autosel";
        r.threads = 1;
        r.maxBatch = 8;
        r.clients = 1;
        r.requests = kIters;
        r.wallSec =
            std::chrono::duration<double>(Clock::now() - wall0).count();
        r.reqPerSec = kIters / r.wallSec;
        r.p50Ms = percentile(ms, 0.50);
        r.p99Ms = percentile(ms, 0.99);
        r.p999Ms = percentile(ms, 0.999);
        r.avgBatch = 8.0;
        endRowPerf(r);
        results.push_back(r);
        std::printf("autoSelect[wide-64] -> %s (%s), p50 %.3f ms "
                    "(batch 8, includes ingress/egress conversion)\n",
                    r.engine, winoName(session->layerVariant(0)),
                    r.p50Ms);

        // Chain-aware layout planning vs the per-layer argmin on a
        // three-deep wide-64 chain: same candidate tables, but the
        // DP charges NCHW↔NCHWc8 seams (and ingress/egress) on the
        // edges, so its plan must serve at least as fast — the
        // wide64-chain-dp row is gated against wide64-argmin by the
        // CI bench-regression check.
        {
            NetworkDesc deep;
            deep.name = "Wide64x3";
            deep.inputRes = wide.height;
            for (int i = 0; i < 3; ++i) {
                ConvLayerDesc l = wide;
                l.name = "wide." + std::to_string(i);
                deep.layers.push_back(l);
            }
            const auto chainRow = [&](const char *label,
                                      bool chainDp) {
                SessionConfig ccfg;
                ccfg.autoSelect = true;
                ccfg.chainDp = chainDp;
                const Session chain(deep, ccfg);
                ScratchArena carena;
                chain.run(probe, carena); // warmup
                std::vector<double> cms;
                beginRowPerf();
                const auto w0 = Clock::now();
                constexpr int kChainIters = 40;
                for (int i = 0; i < kChainIters; ++i) {
                    const auto t0 = Clock::now();
                    chain.run(probe, carena);
                    cms.push_back(
                        std::chrono::duration<double, std::milli>(
                            Clock::now() - t0)
                            .count());
                }
                Result cr;
                cr.engine = convEngineName(chain.layerEngine(0));
                cr.label = label;
                cr.threads = 1;
                cr.maxBatch = 8;
                cr.clients = 1;
                cr.requests = kChainIters;
                cr.wallSec = std::chrono::duration<double>(
                                 Clock::now() - w0)
                                 .count();
                cr.reqPerSec = kChainIters / cr.wallSec;
                cr.p50Ms = percentile(cms, 0.50);
                cr.p99Ms = percentile(cms, 0.99);
                cr.p999Ms = percentile(cms, 0.999);
                cr.avgBatch = 8.0;
                endRowPerf(cr);
                results.push_back(cr);
                std::printf("%s[wide-64x3] -> %s (%s), p50 %.3f ms\n",
                            label, cr.engine,
                            winoName(chain.layerVariant(0)),
                            cr.p50Ms);
            };
            chainRow("wide64-argmin", false);
            chainRow("wide64-chain-dp", true);
        }
    }

    writeJson(results, stages, stagePerf, "BENCH_runtime.json");
    return 0;
}
