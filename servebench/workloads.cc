/**
 * @file
 * The benchmark's workloads and the served stack they run on.
 *
 * Why each workload exists:
 *
 *   wire-micro12   serve_net's own model and server over loopback TCP.
 *                  Per-request compute is ~0.1 ms, so framing, epoll,
 *                  batcher wake-ups and the pool hand-off dominate;
 *                  kernel changes should show almost nothing here. Not
 *                  in BENCHMARK.json: each request crosses five thread
 *                  wake-ups, and on a host whose hypervisor steals
 *                  ~15% of the CPU its throughput falls 3x and spreads
 *                  80% from run to run. The chains' traced runs still
 *                  measure the front door (net.* metrics).
 *   chain-f4-fp    a CIFAR-shaped chain (~40 MMAC/img) in process on
 *                  blocked F4 fp64: the paper's compute-bound regime,
 *                  dominated by Winograd stages and layout seams.
 *   chain-f4-int8  the same chain and load on blocked tap-wise int8:
 *                  quantize/rescale and the widening GEMM instead of
 *                  fp64; its output error is the paper's headline.
 *   chain-autosel  the chain with autoSelect and the chain DP. Not in
 *                  BENCHMARK.json while autoSelect picks a different
 *                  plan per build: its peak RSS then spreads ~30%
 *                  from run to run. Every traced run races its own
 *                  workload's model instead (plan.* metrics).
 */

#include <sstream>

#include "bench.hh"
#include "common/rng.hh"

namespace sb
{

using namespace twq;

namespace
{

ConvLayerDesc
convNode(const std::string &name, std::size_t cin, std::size_t cout,
         std::size_t stride, std::size_t hw)
{
    ConvLayerDesc d;
    d.name = name;
    d.cin = cin;
    d.cout = cout;
    d.kernel = 3;
    d.stride = stride;
    d.height = hw;
    d.width = hw;
    return d;
}

ConvLayerDesc
postNode(LayerOp op, const std::string &name, std::size_t c,
         std::size_t hw)
{
    ConvLayerDesc d;
    d.op = op;
    d.name = name;
    d.cin = c;
    d.cout = c;
    d.kernel = 1;
    d.height = hw;
    d.width = hw;
    return d;
}

/**
 * Chain workloads: in process, two workers, three clients each keeping
 * a full batch of 8 in flight. One batch always waits while both
 * workers run, so a worker never goes idle with a partial batch queued
 * and every batch is cut at exactly 8: with fewer clients the idle-
 * worker flush splits batches at random and the latency distribution
 * turns bimodal from run to run.
 */
Workload
chainWorkload(const std::string &name)
{
    Workload w;
    w.name = name;
    w.net = cifarChain();
    w.session.variant = WinoVariant::F4;
    w.session.defaultEngine = ConvEngine::WinogradBlocked;
    w.runtime.threads = 2;
    w.runtime.pinWorkers = true;
    w.clients = 3;
    w.window = 8;
    return w;
}

} // namespace

NetworkDesc
cifarChain()
{
    NetworkDesc n;
    n.name = "CifarChain";
    n.inputRes = 32;
    auto add = [&](const std::string &name, std::size_t cin,
                   std::size_t cout, std::size_t stride,
                   std::size_t hw) {
        n.layers.push_back(convNode(name, cin, cout, stride, hw));
        const std::size_t ho = (hw + stride - 1) / stride;
        n.layers.push_back(postNode(LayerOp::Bias, name + ".bias", cout, ho));
        n.layers.push_back(postNode(LayerOp::Relu, name + ".relu", cout, ho));
    };
    add("stem", 3, 16, 1, 32);
    for (int i = 0; i < 6; ++i)
        add("s1." + std::to_string(i), 16, 16, 1, 32);
    add("down1", 16, 32, 2, 32);
    for (int i = 0; i < 5; ++i)
        add("s2." + std::to_string(i), 32, 32, 1, 16);
    add("down2", 32, 64, 2, 16);
    for (int i = 0; i < 5; ++i)
        add("s3." + std::to_string(i), 64, 64, 1, 8);
    return n;
}

std::vector<std::string>
workloadNames()
{
    return {"wire-micro12", "chain-f4-fp", "chain-f4-int8",
            "chain-autosel"};
}

bool
makeWorkload(const std::string &name, Workload *out)
{
    Workload w;
    if (name == "wire-micro12") {
        // serve_net's configuration (examples/serve_net.cpp).
        w.name = name;
        w.net = microServeNet(12, 8);
        w.session.defaultEngine = ConvEngine::WinogradFp32;
        w.runtime.threads = 2;
        w.runtime.maxPending =
            4 * w.runtime.threads * w.runtime.batch.maxBatch;
        w.wire = true;
        w.ioThreads = 1;
        w.clients = 2;
        w.window = 1;
    } else if (name == "chain-f4-fp") {
        w = chainWorkload(name);
    } else if (name == "chain-f4-int8") {
        w = chainWorkload(name);
        w.session.defaultEngine = ConvEngine::WinogradBlockedInt8;
        w.session.quant.variant = WinoVariant::F4;
        w.session.quant.granularity = QuantGranularity::TapWise;
        w.session.quant.pow2Scales = true;
        w.session.quant.spatialBits = 8;
        w.session.quant.winogradBits = 8;
        w.session.int8Fallback = true;
        w.quantized = true;
    } else if (name == "chain-autosel") {
        w = chainWorkload(name);
        w.session.autoSelect = true;
        w.session.chainDp = true;
    } else {
        return false;
    }
    *out = std::move(w);
    return true;
}

Stack::~Stack()
{
    if (front)
        front->shutdown();
    if (server)
        server->shutdown();
}

void
Stack::startFront(std::size_t ioThreads)
{
    if (front)
        return;
    net::NetConfig ncfg;
    ncfg.ioThreads = ioThreads;
    front = std::make_unique<net::NetServer>(*server, ncfg);
    port = front->start();
}

std::unique_ptr<Stack>
buildStack(const Workload &w, const SessionConfig &scfg)
{
    auto st = std::make_unique<Stack>();
    st->session = std::make_shared<const Session>(w.net, scfg);
    st->server = std::make_unique<InferenceServer>(st->session, w.runtime);
    if (w.wire)
        st->startFront(w.ioThreads);
    return st;
}

std::string
planString(const Session &s)
{
    std::ostringstream os;
    for (std::size_t i = 0; i < s.layerCount(); ++i) {
        const LayoutPlan &l = s.layerLayout(i);
        os << (i ? " " : "") << convEngineName(s.layerEngine(i)) << "/"
           << winoName(s.layerVariant(i)) << "/"
           << actLayoutName(l.in) << ">" << actLayoutName(l.out);
    }
    return os.str();
}

std::vector<TensorD>
makeInputs(const Shape &shape, std::size_t count, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<TensorD> v;
    v.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        TensorD t(shape);
        rng.fillNormal(t.storage(), 0.0, 1.0);
        v.push_back(std::move(t));
    }
    return v;
}

} // namespace sb
