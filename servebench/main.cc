/**
 * @file
 * servebench: the repository's end-to-end serving benchmark.
 *
 *   servebench --workload NAME --seed N --seconds S --trace 0|1
 *   servebench --selftest
 *   servebench --list-metrics
 *
 * --trace 0 serves the workload closed-loop for S seconds with no
 * tracing, split over kRounds child processes, and prints the
 * end-to-end metrics; --trace 1 builds the same stack once and prints
 * the per-layer metrics from spans the benchmark records around each
 * layer's public calls. The inputs come from --seed only. The last
 * line of stdout is one JSON object {"correct", "attempted", "failed",
 * "metrics"}; the exit code is non-zero when any served output is
 * wrong. failed_frac (failed / attempted) is printed in the report
 * above it; the JSON carries the two counts instead of a metric that
 * is zero on every healthy run.
 *
 * Set-up is measured at least three times per run, and more while
 * builds are cheap, and reported as the median, since one build is too
 * noisy to gate on.
 */

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <set>
#include <sstream>
#include <thread>

#include "bench.hh"
#include "tensor/batch.hh"

namespace sb
{

using namespace twq;

/** Errors below this are fp64 reassociation noise (see runUntraced). */
constexpr double kErrFloor = 1e-12;
/** Served fp outputs must match the fp64 oracle this closely. */
constexpr double kFpTolerance = 1e-9;
/** Validation inputs per run; clients draw requests from them. */
constexpr std::size_t kInputs = 32;
/** Responses per p99 window: 10 beyond the p99. */
constexpr std::size_t kP99Window = 1000;
/** Child processes an untraced run is split across. */
constexpr int kRounds = 5;

const std::vector<MetricDef> kEndToEnd = {
    {"throughput_ips", "1/s"}, {"latency_p50_ms", "ms"},
    {"latency_p99_ms", "ms"},  {"setup_s", "s"},
    {"out_rel_err", "ratio"},  {"peak_rss_mb", "MiB"},
};

const std::vector<MetricDef> kPerLayer = {
    {"net.overhead_p50_us", "us"},
    {"net.encode_us", "us"},
    {"net.decode_us", "us"},
    {"net.frame_bytes", "bytes"},
    {"server.overhead_p50_us", "us"},
    {"server.batch_mean", "count"},
    {"session.run_ms", "ms"},
    {"session.seams", "count"},
    {"session.convert_ms", "ms"},
    {"engine.stem_ms", "ms"},
    {"engine.stem.gmacs", "GMAC/s"},
    {"engine.s1_ms", "ms"},
    {"engine.s1.gmacs", "GMAC/s"},
    {"engine.s2_ms", "ms"},
    {"engine.s2.gmacs", "GMAC/s"},
    {"engine.s3_ms", "ms"},
    {"engine.s3.gmacs", "GMAC/s"},
    {"engine.down_ms", "ms"},
    {"engine.down.gmacs", "GMAC/s"},
    {"stage.gather_ms", "ms"},
    {"stage.gather.gflops", "GFLOP/s"},
    {"stage.gather.gbs", "GB/s"},
    {"stage.gather.ceil_frac", "frac"},
    {"stage.bkron_ms", "ms"},
    {"stage.bkron.gflops", "GFLOP/s"},
    {"stage.bkron.gbs", "GB/s"},
    {"stage.bkron.ceil_frac", "frac"},
    {"stage.tapgemm_ms", "ms"},
    {"stage.tapgemm.gflops", "GFLOP/s"},
    {"stage.tapgemm.gbs", "GB/s"},
    {"stage.tapgemm.ceil_frac", "frac"},
    {"stage.akron_ms", "ms"},
    {"stage.akron.gflops", "GFLOP/s"},
    {"stage.akron.gbs", "GB/s"},
    {"stage.akron.ceil_frac", "frac"},
    {"stage.untile_ms", "ms"},
    {"stage.untile.gflops", "GFLOP/s"},
    {"stage.untile.gbs", "GB/s"},
    {"stage.untile.ceil_frac", "frac"},
    {"stage.i8.quantize_ms", "ms"},
    {"stage.i8.kron_ms", "ms"},
    {"stage.i8.rescale_ms", "ms"},
    {"stage.i8.tapgemm_ms", "ms"},
    {"plan.race_s", "s"},
    {"plan.probed_layers", "count"},
    {"plan.winograd_layers", "count"},
    {"plan.distinct", "count"},
    {"setup.prepare_s", "s"},
    {"host.f64_fma_gflops", "GFLOP/s"},
    {"host.copy_gbs", "GB/s"},
    {"trace.overhead_frac", "frac"},
};

namespace
{

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    int builds = 3;
};

struct Outcome
{
    Metrics metrics;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> faults; ///< why the run is not correct
};

double
ms(double ns)
{
    return ns * 1e-6;
}

bool
isWinograd(ConvEngine e)
{
    return e != ConvEngine::Im2col && e != ConvEngine::Im2colInt8;
}

/** What buildTimed returns: the last stack, every build's time. */
struct Built
{
    std::unique_ptr<Stack> stack;
    std::vector<double> setupS;
    std::set<std::string> plans;
};

/**
 * At least `builds` builds, and more while they have taken under
 * `budgetS` in total (up to 100), so a sub-millisecond set-up is a
 * median of many.
 */
Built
buildTimed(const Workload &w, const SessionConfig &scfg, int builds,
           double budgetS)
{
    Built b;
    double total = 0;
    for (int k = 0; k < builds || (total < budgetS && k < 100); ++k) {
        b.stack.reset(); // one live stack at a time keeps RSS honest
        const std::int64_t t0 = nowNs();
        b.stack = buildStack(w, scfg);
        b.setupS.push_back(static_cast<double>(nowNs() - t0) * 1e-9);
        total += b.setupS.back();
        b.plans.insert(planString(*b.stack->session));
    }
    return b;
}

void
countLoad(Outcome &o, const LoadResult &r)
{
    o.attempted += r.attempted;
    o.failed += r.failed();
    if (r.wrong)
        o.faults.push_back(std::to_string(r.wrong) +
                           " responses differed from the first response "
                           "to the same input");
    if (r.errors)
        o.faults.push_back(std::to_string(r.errors) + " error responses");
    if (r.idFaults)
        o.faults.push_back(std::to_string(r.idFaults) +
                           " request ids unanswered, unknown or repeated");
}

double
relL2(const TensorD &a, const TensorD &ref)
{
    double num = 0, den = 0;
    for (std::size_t i = 0; i < ref.numel(); ++i) {
        num += (a[i] - ref[i]) * (a[i] - ref[i]);
        den += ref[i] * ref[i];
    }
    return std::sqrt(num / den);
}

/** The Q validation inputs stacked along the batch. */
TensorD
stackInputs(const std::vector<TensorD> &inputs)
{
    std::vector<const TensorD *> p;
    for (const TensorD &t : inputs)
        p.push_back(&t);
    return stackBatch(p);
}

/**
 * Serve every validation input not yet answered on this stack and
 * return the served outputs stacked along the batch.
 */
TensorD
servedOutputs(Stack &st, const std::vector<TensorD> &inputs,
              ReferenceOutputs &ref, Outcome &o)
{
    for (std::size_t j : ref.missing()) {
        ++o.attempted;
        try {
            const TensorD out = st.server->submit(inputs[j]).get();
            ref.check(j, out.data(), out.numel());
        } catch (const std::exception &e) {
            ++o.failed;
            o.faults.push_back(std::string("validation request: ") +
                               e.what());
        }
    }
    TensorD served;
    if (!ref.stacked(st.session->outputShape(), &served))
        o.faults.push_back("some validation inputs were never served");
    return served;
}

/**
 * Compare served outputs with the fp64 im2col oracle (same
 * weightSeed); for quantized workloads also build the layer-wise twin
 * and require the tap-wise error to be lower. Returns the largest
 * relative L2 error over the served sets.
 */
double
checkOutputs(const Workload &w, const std::vector<TensorD> &inputs,
             const std::vector<TensorD> &served, Outcome &o)
{
    const TensorD batch = stackInputs(inputs);
    SessionConfig ocfg;
    ocfg.defaultEngine = ConvEngine::Im2col;
    ocfg.weightSeed = w.session.weightSeed;
    const TensorD oracle = Session(w.net, ocfg).run(batch);
    double err = 0;
    for (const TensorD &t : served)
        err = std::max(err, t.numel() == oracle.numel()
                                ? relL2(t, oracle)
                                : std::numeric_limits<double>::infinity());
    std::printf("# out_rel_err %.6g against the fp64 im2col oracle over "
                "%zu inputs\n",
                err, inputs.size());
    if (!std::isfinite(err))
        o.faults.push_back("non-finite output error");
    if (!w.quantized && !(err <= kFpTolerance))
        o.faults.push_back("fp output error above tolerance");
    if (w.quantized) {
        SessionConfig lcfg = w.session;
        lcfg.quant.granularity = QuantGranularity::LayerWise;
        const double lw =
            relL2(Session(w.net, lcfg).run(batch), oracle);
        std::printf("# layer-wise int8 error %.6g vs tap-wise %.6g\n", lw,
                    err);
        if (!(err < lw))
            o.faults.push_back(
                "tap-wise int8 error is not below layer-wise");
    }
    return err;
}

void
printThreads(const Workload &w)
{
    std::printf("# threads: workers=%zu io=%zu clients=%zu window=%zu "
                "nproc=%u (%s)\n",
                w.runtime.threads, w.wire ? w.ioThreads : 0, w.clients,
                w.window, std::thread::hardware_concurrency(),
                w.wire ? "wire, net::Client per client"
                       : "in process, submit().get()");
}

/**
 * p99 of each run of kP99Window consecutive responses (10 beyond each
 * p99), then the median over those windows: one scheduler stall on a
 * shared host moves a single window, not the reported figure. With
 * fewer samples than one window, the plain p99.
 */
double
windowedP99(const std::vector<double> &lat)
{
    const std::size_t windows = lat.size() / kP99Window;
    if (windows < 2)
        return quantile(lat, 0.99);
    std::vector<double> p99s;
    for (std::size_t k = 0; k < windows; ++k)
        p99s.push_back(quantile(
            std::vector<double>(lat.begin() + k * kP99Window,
                                lat.begin() + (k + 1) * kP99Window),
            0.99));
    return median(p99s);
}

/** Append-only binary record a round child hands its parent. */
class Record
{
  public:
    std::string bytes;

    void
    u64(std::uint64_t v)
    {
        bytes.append(reinterpret_cast<const char *>(&v), sizeof v);
    }
    void
    f64(double v)
    {
        bytes.append(reinterpret_cast<const char *>(&v), sizeof v);
    }
    void
    vec(const std::vector<double> &v)
    {
        u64(v.size());
        bytes.append(reinterpret_cast<const char *>(v.data()),
                     v.size() * sizeof(double));
    }
    void
    str(const std::string &v)
    {
        u64(v.size());
        bytes.append(v);
    }
};

/** Reads a Record back; ok() turns false on a short record. */
class RecordReader
{
  public:
    explicit RecordReader(const std::string &b) : b_(b) {}

    bool ok() const { return ok_; }

    std::uint64_t
    u64()
    {
        std::uint64_t v = 0;
        take(&v, sizeof v);
        return v;
    }
    double
    f64()
    {
        double v = 0;
        take(&v, sizeof v);
        return v;
    }
    std::vector<double>
    vec()
    {
        const std::uint64_t n = u64();
        if (!ok_ || n > (b_.size() - off_) / sizeof(double)) {
            ok_ = false;
            return {};
        }
        std::vector<double> v(n);
        take(v.data(), n * sizeof(double));
        return v;
    }
    std::string
    str()
    {
        const std::uint64_t n = u64();
        if (!ok_ || n > b_.size() - off_) {
            ok_ = false;
            return {};
        }
        std::string v = b_.substr(off_, n);
        off_ += n;
        return v;
    }

  private:
    void
    take(void *dst, std::size_t n)
    {
        if (!ok_ || n > b_.size() - off_) {
            ok_ = false;
            return;
        }
        std::memcpy(dst, b_.data() + off_, n);
        off_ += n;
    }

    const std::string &b_;
    std::size_t off_ = 0;
    bool ok_ = true;
};

/** What one round reports: its own process's figures. */
struct Round
{
    double ips = 0;
    double p50 = 0;
    double rssMib = 0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t shed = 0;
    std::vector<double> setupS;
    std::vector<double> latency;
    std::vector<double> perSecond;
    std::vector<double> served; ///< outputs for the validation inputs
    std::vector<std::string> plans;
    std::vector<std::string> faults;

    std::string
    encode() const
    {
        Record r;
        r.f64(ips);
        r.f64(p50);
        r.f64(rssMib);
        r.u64(attempted);
        r.u64(failed);
        r.u64(shed);
        r.vec(setupS);
        r.vec(latency);
        r.vec(perSecond);
        r.vec(served);
        r.u64(plans.size());
        for (const std::string &p : plans)
            r.str(p);
        r.u64(faults.size());
        for (const std::string &f : faults)
            r.str(f);
        return r.bytes;
    }

    bool
    decode(const std::string &bytes)
    {
        RecordReader r(bytes);
        ips = r.f64();
        p50 = r.f64();
        rssMib = r.f64();
        attempted = r.u64();
        failed = r.u64();
        shed = r.u64();
        setupS = r.vec();
        latency = r.vec();
        perSecond = r.vec();
        served = r.vec();
        for (std::uint64_t n = r.u64(); r.ok() && n > 0; --n)
            plans.push_back(r.str());
        for (std::uint64_t n = r.u64(); r.ok() && n > 0; --n)
            faults.push_back(r.str());
        return r.ok();
    }
};

/** One round: build, warm up, serve, keep the validation outputs. */
Round
runRound(const Workload &w, const Options &opt, int k,
         const std::vector<TensorD> &inputs)
{
    Round rd;
    Outcome o;
    const Transport tr = w.wire ? Transport::Wire : Transport::InProcess;
    Built b = buildTimed(w, w.session, 1, 1.0 / kRounds);
    rd.setupS = b.setupS;
    rd.plans.assign(b.plans.begin(), b.plans.end());
    ReferenceOutputs ref(inputs.size());
    const std::uint64_t seed = opt.seed * kRounds + k;
    countLoad(o, runLoad(*b.stack, tr, w.clients, w.window, inputs, ref,
                         std::min(0.25, 0.05 * opt.seconds), seed + 7));
    const LoadResult r = runLoad(*b.stack, tr, w.clients, w.window, inputs,
                                 ref, opt.seconds / kRounds, seed);
    countLoad(o, r);
    rd.ips = throughput(r);
    rd.p50 = quantile(r.latencyNs, 0.5);
    rd.rssMib = r.peakRssMib;
    rd.shed = r.shed;
    rd.latency = r.latencyNs;
    rd.perSecond = r.perSecond;
    rd.served = servedOutputs(*b.stack, inputs, ref, o).storage();
    rd.attempted = o.attempted;
    rd.failed = o.failed;
    rd.faults = o.faults;
    return rd;
}

/**
 * Run one round in a child process and collect its Round. The parent
 * stays single-threaded until every round is done, so fork() is safe.
 */
Round
roundInChild(const Workload &w, const Options &opt, int k,
             const std::vector<TensorD> &inputs)
{
    Round rd;
    int fds[2];
    std::fflush(stdout);
    if (pipe(fds) != 0) {
        rd.faults.push_back("pipe() failed");
        return rd;
    }
    const pid_t pid = fork();
    if (pid < 0) {
        close(fds[0]);
        close(fds[1]);
        rd.faults.push_back("fork() failed");
        return rd;
    }
    if (pid == 0) {
        close(fds[0]);
        const std::string bytes = runRound(w, opt, k, inputs).encode();
        std::size_t off = 0;
        while (off < bytes.size()) {
            const ssize_t n =
                write(fds[1], bytes.data() + off, bytes.size() - off);
            if (n <= 0)
                _exit(3);
            off += static_cast<std::size_t>(n);
        }
        close(fds[1]);
        _exit(0);
    }
    close(fds[1]);
    std::string bytes;
    char buf[1 << 16];
    for (ssize_t n; (n = read(fds[0], buf, sizeof buf)) != 0;) {
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0)
            break;
        bytes.append(buf, static_cast<std::size_t>(n));
    }
    close(fds[0]);
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
        !rd.decode(bytes)) {
        Round failed;
        failed.faults.push_back("round " + std::to_string(k) +
                                " process failed (status " +
                                std::to_string(status) + ")");
        return failed;
    }
    return rd;
}

/**
 * Untraced run: the end-to-end metrics. The run is split into
 * kRounds rounds, each a child process that builds its own stack: a
 * process's thread placement, heap and buffer layout stay fixed for
 * its life and shift its speed by ~10% on a shared host, so one
 * process per run would make that the run's noise, and each round's
 * VmHWM is that of a process that ran only this workload. Throughput,
 * p50 and peak RSS are medians over rounds; p99 pools every round's
 * samples.
 */
Outcome
runUntraced(const Workload &w, const Options &opt)
{
    Outcome o;
    const std::vector<TensorD> inputs =
        makeInputs({1, w.net.layers[0].cin, w.net.layers[0].height,
                    w.net.layers[0].width},
                   kInputs, opt.seed);
    std::vector<Round> rounds;
    for (int k = 0; k < kRounds; ++k)
        rounds.push_back(roundInChild(w, opt, k, inputs));

    std::vector<double> setupS, ips, p50s, rss, pooled, perSecond;
    std::vector<TensorD> served;
    std::set<std::string> plans;
    std::uint64_t shed = 0;
    for (const Round &rd : rounds) {
        setupS.insert(setupS.end(), rd.setupS.begin(), rd.setupS.end());
        plans.insert(rd.plans.begin(), rd.plans.end());
        ips.push_back(rd.ips);
        p50s.push_back(rd.p50);
        rss.push_back(rd.rssMib);
        pooled.insert(pooled.end(), rd.latency.begin(), rd.latency.end());
        perSecond.insert(perSecond.end(), rd.perSecond.begin(),
                         rd.perSecond.end());
        o.attempted += rd.attempted;
        o.failed += rd.failed;
        shed += rd.shed;
        o.faults.insert(o.faults.end(), rd.faults.begin(), rd.faults.end());
        TensorD t({rd.served.size()});
        t.storage() = rd.served;
        served.push_back(std::move(t));
    }
    const double err = checkOutputs(w, inputs, served, o);

    std::printf("# rounds %d: throughput", kRounds);
    for (double v : ips)
        std::printf(" %.6g", v);
    std::printf(" 1/s; p50");
    for (double v : p50s)
        std::printf(" %.4g", ms(v));
    std::printf(" ms; peak rss");
    for (double v : rss)
        std::printf(" %.5g", v);
    std::printf(" MiB\n");
    std::printf("# latency samples %zu; p99 is the median over %zu "
                "windows of %zu (all-sample p99 %.4g ms)%s\n",
                pooled.size(), pooled.size() / kP99Window, kP99Window,
                ms(quantile(pooled, 0.99)),
                pooled.size() < kP99Window ? " -- under 10 beyond p99" : "");
    std::printf("# per-second completions: p10 %.0f median %.0f p90 %.0f "
                "over %zu s\n",
                quantile(perSecond, 0.1), median(perSecond),
                quantile(perSecond, 0.9), perSecond.size());
    std::printf("# plans across %zu builds: %zu distinct\n", setupS.size(),
                plans.size());
    std::printf("# failed_frac %.6g (%llu shed of %llu attempted; the "
                "rest are errors, wrong outputs or id faults)\n",
                o.attempted ? double(o.failed) / double(o.attempted) : 0.0,
                (unsigned long long)shed, (unsigned long long)o.attempted);
    o.metrics.add("throughput_ips", median(ips), "1/s");
    o.metrics.add("latency_p50_ms", ms(median(p50s)), "ms");
    o.metrics.add("latency_p99_ms", ms(windowedP99(pooled)), "ms");
    o.metrics.add("setup_s", median(setupS), "s");
    // Errors under the floor are summation-order noise of fp64; report
    // the floor so a reordering of sums does not read as a regression.
    o.metrics.add("out_rel_err", std::max(err, kErrFloor), "ratio");
    o.metrics.add("peak_rss_mb", median(rss), "MiB");
    return o;
}

/** Traced run: the per-layer metrics. */
Outcome
runTraced(const Workload &w, const Options &opt)
{
    Outcome o;
    Metrics &m = o.metrics;
    const std::vector<TensorD> inputs =
        makeInputs({1, w.net.layers[0].cin, w.net.layers[0].height,
                    w.net.layers[0].width},
                   kInputs, opt.seed);
    Built b = buildTimed(w, w.session, opt.builds, 1.0);
    Stack &st = *b.stack;
    const Session &s = *st.session;

    // Planner: this workload's model and configuration with autoSelect
    // and the chain DP on, against the same builds with the plan pinned.
    // A raced workload is its own raced twin.
    SessionConfig raced = w.session, pinned = w.session;
    raced.autoSelect = true;
    raced.chainDp = true;
    pinned.autoSelect = false;
    Built other =
        buildTimed(w, w.session.autoSelect ? pinned : raced, 2, 1.0);
    const Built &racedB = w.session.autoSelect ? b : other;
    const Built &pinnedB = w.session.autoSelect ? other : b;
    const Session &rs = *racedB.stack->session;
    std::size_t probed = 0, wino = 0;
    for (std::size_t i = 0; i < rs.layerCount(); ++i) {
        probed += std::strcmp(rs.layerPlan(i).source, "probed") == 0;
        wino += isWinograd(rs.layerEngine(i));
    }
    m.add("plan.race_s", median(racedB.setupS) - median(pinnedB.setupS), "s");
    m.add("plan.probed_layers", double(probed), "count");
    m.add("plan.winograd_layers", double(wino), "count");
    m.add("plan.distinct", double(racedB.plans.size()), "count");
    other.stack.reset();

    // The workload's own load, for the batch size it produces.
    ReferenceOutputs ref(inputs.size());
    const Transport tr = w.wire ? Transport::Wire : Transport::InProcess;
    const double phase = std::clamp(0.1 * opt.seconds, 0.5, 2.0);
    ServerStats before = st.server->stats();
    countLoad(o, runLoad(st, tr, w.clients, w.window, inputs, ref, phase,
                         opt.seed));
    ServerStats after = st.server->stats();
    const double batchMean =
        after.batches > before.batches
            ? double(after.completed - before.completed) /
                  double(after.batches - before.batches)
            : 0.0;

    // Front-door and server overheads: alternating in-process (timed)
    // and wire phases with the same clients, so the p50s differ only
    // by the front door and drift hits both sides alike. Chain
    // requests take ~8 ms even alone, and a window of 8 adds tens of
    // ms of queueing whose jitter buries a sub-ms difference, so the
    // chains probe with one client and one request in flight.
    const std::size_t nc = w.wire ? w.clients : 1;
    const std::size_t nw = w.wire ? w.window : 1;
    st.startFront(w.ioThreads);
    std::vector<double> inprocNs, computeNs, wireNs;
    for (int k = 0; k < 4; ++k) {
        const LoadResult a = runLoad(st, Transport::InProcessTimed, nc, nw,
                                     inputs, ref, phase / 4,
                                     opt.seed + 1 + k);
        const LoadResult b = runLoad(st, Transport::Wire, nc, nw, inputs,
                                     ref, phase / 4, opt.seed + 11 + k);
        countLoad(o, a);
        countLoad(o, b);
        inprocNs.insert(inprocNs.end(), a.latencyNs.begin(),
                        a.latencyNs.end());
        computeNs.insert(computeNs.end(), a.computeNs.begin(),
                         a.computeNs.end());
        wireNs.insert(wireNs.end(), b.latencyNs.begin(), b.latencyNs.end());
    }
    checkOutputs(w, inputs, {servedOutputs(st, inputs, ref, o)}, o);

    const Ceilings c = measureCeilings();
    std::printf("# host %s\n", hostFingerprint(&c).c_str());
    Tracer tracer;
    LayerReport lr = measureLayers(w, s, c, opt.seed, tracer);
    if (!lr.traceFault.empty())
        o.faults.push_back("trace: " + lr.traceFault);

    m.add("net.overhead_p50_us", (median(wireNs) - median(inprocNs)) * 1e-3,
          "us");
    // submit().get() minus the server's Session::runInto time on the
    // very batch each request rode in.
    m.add("server.overhead_p50_us",
          (median(inprocNs) - median(computeNs)) * 1e-3, "us");
    m.add("server.batch_mean", batchMean, "count");
    m.add("host.f64_fma_gflops", c.fmaGflops, "GFLOP/s");
    m.add("host.copy_gbs", c.copyGbs, "GB/s");
    m.entries.insert(m.entries.end(), lr.metrics.entries.begin(),
                     lr.metrics.entries.end());
    return o;
}

/** Reorder `m` to `defs`; records a fault for a missing or stray key. */
Metrics
ordered(const Metrics &m, const std::vector<MetricDef> &defs,
        std::vector<std::string> &faults)
{
    Metrics out;
    for (const MetricDef &d : defs) {
        const auto it =
            std::find_if(m.entries.begin(), m.entries.end(),
                         [&](const Metrics::Entry &e) { return e.name == d.name; });
        if (it == m.entries.end() || it->unit != d.unit) {
            faults.push_back(std::string("metric ") + d.name +
                             " missing or with the wrong unit");
            continue;
        }
        out.entries.push_back(*it);
    }
    if (m.entries.size() != defs.size())
        faults.push_back("stray metrics beyond the declared table");
    return out;
}

std::string
resultJson(const Outcome &o, const Metrics &m)
{
    std::ostringstream os;
    os.precision(17);
    os << "{\"correct\": " << (o.faults.empty() ? "true" : "false")
       << ", \"attempted\": " << o.attempted << ", \"failed\": " << o.failed
       << ", \"metrics\": {";
    for (std::size_t i = 0; i < m.entries.size(); ++i) {
        const Metrics::Entry &e = m.entries[i];
        os << (i ? ", " : "") << "\"" << e.name << "\": {\"value\": "
           << e.value << ", \"unit\": \"" << e.unit << "\"}";
    }
    os << "}}";
    return os.str();
}

/** Run one workload and print its report; returns the exit code. */
int
runWorkload(const Workload &w, const Options &opt)
{
    std::printf("# workload %s seed %llu seconds %g trace %d\n",
                w.name.c_str(), (unsigned long long)opt.seed, opt.seconds,
                opt.trace ? 1 : 0);
    printThreads(w);
    if (!opt.trace)
        std::printf("# host %s\n", hostFingerprint(nullptr).c_str());
    Outcome o = opt.trace ? runTraced(w, opt) : runUntraced(w, opt);
    const Metrics m =
        ordered(o.metrics, opt.trace ? kPerLayer : kEndToEnd, o.faults);
    for (const Metrics::Entry &e : m.entries)
        std::printf("%-26s %14.6g %s\n", e.name.c_str(), e.value,
                    e.unit.c_str());
    for (const std::string &f : o.faults)
        std::printf("# FAIL %s\n", f.c_str());
    std::printf("%s\n", resultJson(o, m).c_str());
    std::fflush(stdout);
    return o.faults.empty() ? 0 : 1;
}

/** The benchmark's own fast checks; returns the number of failures. */
int
selftest()
{
    int failures = 0;
    auto check = [&](bool ok, const std::string &what) {
        std::printf("  [%s] %s\n", ok ? "ok" : "FAIL", what.c_str());
        failures += ok ? 0 : 1;
    };

    // Every declared metric prints with its unit, in both modes.
    Workload w;
    makeWorkload("wire-micro12", &w);
    Options opt;
    opt.seconds = 0.5;
    opt.builds = 1;
    for (bool trace : {false, true}) {
        opt.trace = trace;
        Outcome o = trace ? runTraced(w, opt) : runUntraced(w, opt);
        std::vector<std::string> faults;
        const Metrics m = ordered(o.metrics, trace ? kPerLayer : kEndToEnd,
                                  faults);
        check(faults.empty(), std::string(trace ? "per-layer" : "end-to-end") +
                                  " metrics all present with units");
        check(o.faults.empty(),
              std::string(trace ? "traced" : "untraced") +
                  " wire run is correct");
    }
    Workload q;
    makeWorkload("chain-f4-int8", &q);
    opt.trace = false;
    const Outcome qo = runUntraced(q, opt);
    check(qo.faults.empty(),
          "int8 chain matches its oracle; tap-wise beats layer-wise");

    // The span tree check rejects malformed trees.
    Tracer t;
    {
        Scope a(t, "parent", 1);
        Scope b(t, "child", 1);
    }
    check(t.validate().empty(), "nested spans validate");
    {
        Tracer mixed;
        {
            Scope a(mixed, "parent", 1);
            Scope b(mixed, "child", 2);
        }
        check(!mixed.validate().empty(),
              "a child with another request id is rejected");
    }

    // An injected shed (admission bound of one request, four in
    // flight per client) is counted as a failure on both transports.
    Workload shedW = w;
    shedW.runtime.maxPending = 1;
    auto st = buildStack(shedW, shedW.session);
    const std::vector<TensorD> inputs =
        makeInputs(st->session->inputShape(), 4, 3);
    for (Transport tr : {Transport::InProcess, Transport::Wire}) {
        ReferenceOutputs ref(inputs.size());
        const LoadResult r = runLoad(*st, tr, 2, 4, inputs, ref, 0.3, 3);
        check(r.shed > 0 && r.failed() == r.shed && r.ok > 0,
              std::string(tr == Transport::Wire ? "wire" : "in-process") +
                  " sheds counted in failed_frac (" +
                  std::to_string(r.shed) + " of " +
                  std::to_string(r.attempted) + ")");
    }

    std::printf("selftest: %d failure(s)\n", failures);
    return failures;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: servebench --workload NAME --seed N --seconds S "
                 "--trace 0|1\n"
                 "       servebench --selftest | --list-metrics\n"
                 "workloads:");
    for (const std::string &n : workloadNames())
        std::fprintf(stderr, " %s", n.c_str());
    std::fprintf(stderr, "\n");
    return 2;
}

} // namespace

} // namespace sb

int
main(int argc, char **argv)
{
    using namespace sb;
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--selftest")
            return selftest() == 0 ? 0 : 1;
        if (a == "--list-metrics") {
            for (const auto *table : {&kEndToEnd, &kPerLayer})
                for (const MetricDef &d : *table)
                    std::printf("%s %s %s\n",
                                table == &kEndToEnd ? "end_to_end"
                                                    : "per_layer",
                                d.name, d.unit);
            return 0;
        }
        if (i + 1 >= argc)
            return usage();
        const char *v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            opt.workload = v;
        } else if (a == "--seed") {
            opt.seed = std::strtoull(v, &end, 10);
        } else if (a == "--seconds") {
            opt.seconds = std::strtod(v, &end);
        } else if (a == "--trace") {
            opt.trace = std::strtol(v, &end, 10) != 0;
        } else {
            return usage();
        }
        if (end && *end != '\0')
            return usage();
    }
    Workload w;
    if (!makeWorkload(opt.workload, &w) || !(opt.seconds > 0))
        return usage();
    // Client threads and connections stay within the cores.
    const std::size_t cores =
        std::max(1u, std::thread::hardware_concurrency());
    w.clients = std::min(w.clients, cores);
    return runWorkload(w, opt);
}
