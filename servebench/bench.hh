/**
 * @file
 * Shared declarations of the serving benchmark (servebench).
 *
 * The benchmark drives named workloads through the library's public
 * serving API — Session, InferenceServer, net::NetServer/Client — from
 * one process, measures end-to-end metrics untraced, and in a separate
 * traced run times the calls into each layer's public functions from
 * this package's own files. Nothing here is linked into the library.
 */

#ifndef SERVEBENCH_BENCH_HH
#define SERVEBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "models/zoo.hh"
#include "net/server.hh"
#include "runtime/server.hh"

namespace sb
{

using twq::TensorD;

/** Monotonic nanoseconds. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Quantile q in [0, 1] of `v` (linear interpolation; copies). */
double quantile(std::vector<double> v, double q);

inline double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

/** Median wall time in ns of `reps` calls of `fn` after one warmup. */
template <typename Fn>
double
medianNs(int reps, Fn &&fn)
{
    fn();
    std::vector<double> t;
    t.reserve(static_cast<std::size_t>(reps));
    for (int r = 0; r < reps; ++r) {
        const std::int64_t t0 = nowNs();
        fn();
        t.push_back(static_cast<double>(nowNs() - t0));
    }
    return median(t);
}

// ------------------------------------------------------------- workloads

/** One named traffic mix against one model configuration. */
struct Workload
{
    std::string name;
    twq::NetworkDesc net;
    twq::SessionConfig session;
    twq::RuntimeConfig runtime;
    /// Requests travel over loopback TCP (net::Client) rather than
    /// in-process submit().get().
    bool wire = false;
    std::size_t ioThreads = 1;
    /// Closed-loop client threads (one connection each on the wire).
    std::size_t clients = 1;
    /// Requests each client keeps outstanding before it waits for
    /// all of their replies.
    std::size_t window = 1;
    /// int8 serving: outputs are checked against the layer-wise
    /// twin's error (tap-wise must be lower, the paper's headline
    /// claim) instead of against fp64 round-off.
    bool quantized = false;
};

/** The workload named `name`; false if there is none. */
bool makeWorkload(const std::string &name, Workload *out);

/** Names of every workload, in definition order. */
std::vector<std::string> workloadNames();

/**
 * The CIFAR-shaped plain chain: 3->16 stem, 6 x 16@32^2, stride-2 to
 * 32, 5 x 32@16^2, stride-2 to 64, 5 x 64@8^2, a Bias and a Relu node
 * after every conv.
 */
twq::NetworkDesc cifarChain();

/** A served model: session, server and (optionally) its front door. */
struct Stack
{
    std::shared_ptr<const twq::Session> session;
    std::unique_ptr<twq::InferenceServer> server;
    std::unique_ptr<twq::net::NetServer> front;
    std::uint16_t port = 0;

    Stack() = default;
    Stack(const Stack &) = delete;
    Stack &operator=(const Stack &) = delete;
    ~Stack();

    /** Start a loopback front door on the server (idempotent). */
    void startFront(std::size_t ioThreads);
};

/** Build session + server (+ front door for wire workloads). */
std::unique_ptr<Stack> buildStack(const Workload &w,
                                  const twq::SessionConfig &scfg);

/** One line naming each layer's engine/variant/layout. */
std::string planString(const twq::Session &s);

// ------------------------------------------------------------------ load

/**
 * First served output per input; every later response for the same
 * input must be bit-identical (batching and sharding never change a
 * response). Thread-safe.
 */
class ReferenceOutputs
{
  public:
    explicit ReferenceOutputs(std::size_t inputs) : outs_(inputs) {}

    /** Record or compare; false when a response differs. */
    bool check(std::size_t input, const double *data, std::size_t n);

    /** Inputs no response has been recorded for yet. */
    std::vector<std::size_t> missing() const;

    /** All outputs stacked [Q, ...]; false if any input is missing. */
    bool stacked(const twq::Shape &one, TensorD *out) const;

  private:
    mutable std::mutex mu_;
    std::vector<std::vector<double>> outs_;
};

enum class Transport
{
    Wire,
    InProcess,
    /// In process through submitTimed(), which also reports the
    /// server's own Session::runInto time for each request's batch.
    InProcessTimed,
};

struct LoadResult
{
    /// Latency of correct responses: the first kLatencySlots per
    /// client (a 60 s run at the fastest workload's rate needs a third).
    std::vector<double> latencyNs;
    std::uint64_t latencyCount = 0; ///< correct responses timed
    /// InProcessTimed only: the server's compute time of each sampled
    /// request's batch, slot for slot with latencyNs.
    std::vector<double> computeNs;
    std::vector<double> perSecond;  ///< completions in each second
    std::uint64_t attempted = 0;
    std::uint64_t ok = 0;
    std::uint64_t shed = 0;
    std::uint64_t errors = 0;     ///< error statuses / exceptions
    std::uint64_t wrong = 0;      ///< output differed from reference
    std::uint64_t idFaults = 0;   ///< unknown, repeated or missing ids
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;       ///< last completion
    /// VmHWM (MiB) right after the clients joined, before the
    /// per-client logs are merged.
    double peakRssMib = 0;

    std::uint64_t failed() const
    {
        return shed + errors + wrong + idFaults;
    }
};

/**
 * Latency slots each client allocates and touches up front: the load
 * generator's own memory is then the same on every run, whatever the
 * throughput, and does not move peak_rss_mb.
 */
inline constexpr std::size_t kLatencySlots = std::size_t{1} << 17;

/**
 * Closed-loop load for `seconds`: `clients` threads, each sending
 * `window` requests drawn from `inputs` and waiting for all replies
 * before sending more.
 */
LoadResult runLoad(Stack &stack, Transport t, std::size_t clients,
                   std::size_t window,
                   const std::vector<TensorD> &inputs,
                   ReferenceOutputs &ref, double seconds,
                   std::uint64_t seed);

/** Correct responses per second over the load window. */
double throughput(const LoadResult &r);

/** Inputs of `shape` drawn from `seed` (N(0, 1) elements). */
std::vector<TensorD> makeInputs(const twq::Shape &shape,
                                std::size_t count, std::uint64_t seed);

// ----------------------------------------------------------------- trace

/** One timed span recorded by the benchmark around a library call. */
struct Span
{
    const char *name = "";
    std::uint64_t request = 0; ///< shared by every span of one request
    int parent = -1;           ///< index into the span list, or -1
    std::int64_t t0 = 0;
    std::int64_t t1 = 0;
};

/**
 * In-memory span recorder for the traced run. Single-threaded: the
 * traced measurements call the layers one at a time. Disabled, open()
 * and close() only return, which is what the overhead run compares
 * against.
 */
class Tracer
{
  public:
    bool enabled = true;

    /** Open a child of the innermost open span; returns its index. */
    int open(const char *name, std::uint64_t request);
    void close(int idx);

    const std::vector<Span> &spans() const { return spans_; }
    void clear() { spans_.clear(); stack_.clear(); }

    /**
     * Check the tree: every child lies inside its parent and shares
     * its request id, and every span's self time is >= 0. Returns an
     * empty string when well formed, else the first fault.
     */
    std::string validate() const;

  private:
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** RAII span. */
class Scope
{
  public:
    Scope(Tracer &t, const char *name, std::uint64_t request)
        : t_(t), idx_(t.open(name, request))
    {}
    ~Scope() { t_.close(idx_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &t_;
    int idx_;
};

// ----------------------------------------------------------------- output

/** An ordered name -> (value, unit) metric set. */
struct Metrics
{
    struct Entry
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Entry> entries;

    void add(const std::string &name, double value,
             const std::string &unit)
    {
        entries.push_back({name, value, unit});
    }
};

/** End-to-end metric table: the keys of an untraced run. */
struct MetricDef
{
    const char *name;
    const char *unit;
};
extern const std::vector<MetricDef> kEndToEnd;
extern const std::vector<MetricDef> kPerLayer;

/** Measured host ceilings. */
struct Ceilings
{
    double fmaGflops = 0; ///< peak f64 FMA rate, one core
    double copyGbs = 0;   ///< streaming copy bandwidth, one core
};
Ceilings measureCeilings();

/** JSON object describing the host and build (one line). */
std::string hostFingerprint(const Ceilings *c);

/** Peak resident set (VmHWM) of this process in MiB. */
double peakRssMib();

/**
 * The traced run's per-layer measurements for one built stack.
 * Appends every kPerLayer metric except the load-derived ones.
 */
struct LayerReport
{
    Metrics metrics;
    std::string traceFault; ///< non-empty when the span tree is bad
};
LayerReport measureLayers(const Workload &w, const twq::Session &s,
                          const Ceilings &c, std::uint64_t seed,
                          Tracer &tracer);

} // namespace sb

#endif // SERVEBENCH_BENCH_HH
