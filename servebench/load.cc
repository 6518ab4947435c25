/**
 * @file
 * Closed-loop load generators: every client thread sends `window`
 * requests and waits for all of their replies before sending more, so
 * a slower system receives proportionally less load. Wire clients key
 * each request by the id net::Client::send() returns and check that
 * every id is answered exactly once.
 */

#include <algorithm>
#include <atomic>
#include <cstring>
#include <thread>
#include <unordered_map>

#include "bench.hh"
#include "common/rng.hh"
#include "net/client.hh"

namespace sb
{

using namespace twq;

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

bool
ReferenceOutputs::check(std::size_t input, const double *data,
                        std::size_t n)
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<double> &ref = outs_[input];
    if (ref.empty()) {
        ref.assign(data, data + n);
        return true;
    }
    return ref.size() == n &&
           std::memcmp(ref.data(), data, n * sizeof(double)) == 0;
}

std::vector<std::size_t>
ReferenceOutputs::missing() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::size_t> v;
    for (std::size_t i = 0; i < outs_.size(); ++i)
        if (outs_[i].empty())
            v.push_back(i);
    return v;
}

bool
ReferenceOutputs::stacked(const Shape &one, TensorD *out) const
{
    std::lock_guard<std::mutex> lock(mu_);
    Shape s = one;
    s[0] = outs_.size();
    TensorD t(s);
    const std::size_t per = t.numel() / outs_.size();
    for (std::size_t i = 0; i < outs_.size(); ++i) {
        if (outs_[i].size() != per)
            return false;
        std::copy(outs_[i].begin(), outs_[i].end(),
                  t.data() + i * per);
    }
    *out = std::move(t);
    return true;
}

namespace
{

/** One client's fixed-size log of a load run. */
struct ClientLog
{
    LoadResult counts;             ///< counters only
    std::vector<double> latency;   ///< kLatencySlots, touched up front
    std::vector<double> compute;   ///< same slots; timed transport only
    std::vector<double> perSecond; ///< completions per whole second
    std::int64_t startNs;

    ClientLog(std::int64_t start, double seconds, bool timed)
        : latency(kLatencySlots, 0.0),
          compute(timed ? kLatencySlots : 0, 0.0),
          perSecond(static_cast<std::size_t>(seconds) + 2, 0.0),
          startNs(start)
    {}

    /** One response: status bookkeeping, output check, latency. */
    void
    account(std::int64_t sentNs, bool ok, bool shed, std::size_t input,
            const double *data, std::size_t n, ReferenceOutputs &ref,
            double computeNs = 0)
    {
        const std::int64_t t = nowNs();
        counts.endNs = t;
        const std::size_t sec =
            static_cast<std::size_t>((t - startNs) / 1'000'000'000);
        if (sec < perSecond.size())
            perSecond[sec] += 1;
        if (!ok) {
            ++(shed ? counts.shed : counts.errors);
            return;
        }
        if (!ref.check(input, data, n)) {
            ++counts.wrong;
            return;
        }
        ++counts.ok;
        const std::uint64_t slot = counts.latencyCount;
        if (slot < kLatencySlots) {
            latency[slot] = static_cast<double>(t - sentNs);
            if (!compute.empty())
                compute[slot] = computeNs;
            ++counts.latencyCount;
        }
    }
};

void
wireClient(std::uint16_t port, std::size_t window,
           const std::vector<TensorD> &inputs, ReferenceOutputs &ref,
           std::int64_t deadline, Rng rng, ClientLog &log)
{
    LoadResult &r = log.counts;
    struct Pending
    {
        std::int64_t sentNs;
        std::size_t input;
    };
    net::Client cl;
    cl.connect("127.0.0.1", port);
    std::unordered_map<std::uint64_t, Pending> pending;
    net::Frame f;
    bool open = true;
    while (open && nowNs() < deadline) {
        for (std::size_t k = 0; k < window; ++k) {
            const std::size_t j = static_cast<std::size_t>(
                rng.uniformInt(0, static_cast<std::int64_t>(inputs.size()) - 1));
            const std::int64_t t0 = nowNs();
            const std::uint64_t id = cl.send(inputs[j]);
            ++r.attempted;
            if (!pending.emplace(id, Pending{t0, j}).second)
                ++r.idFaults; // send() handed out a live id twice
        }
        while (!pending.empty()) {
            if (!cl.recv(&f)) {
                open = false;
                break;
            }
            auto it = pending.find(f.id);
            if (it == pending.end()) {
                ++r.idFaults; // unknown or already answered
                continue;
            }
            log.account(it->second.sentNs, f.status == net::Status::Ok,
                        f.status == net::Status::Shed, it->second.input,
                        f.data.data(), f.data.size(), ref);
            pending.erase(it);
        }
    }
    // Ids never answered, then anything the server sends after the
    // last answer, are both id faults.
    r.idFaults += pending.size();
    if (open) {
        cl.shutdownWrite();
        while (cl.recv(&f))
            ++r.idFaults;
    }
    cl.close();
}

void
inProcessClient(InferenceServer &server, std::size_t window,
                const std::vector<TensorD> &inputs,
                ReferenceOutputs &ref, std::int64_t deadline, Rng rng,
                ClientLog &log)
{
    LoadResult &r = log.counts;
    std::vector<std::future<TensorD>> futs(window);
    std::vector<std::size_t> idx(window);
    std::vector<std::int64_t> sent(window);
    while (nowNs() < deadline) {
        for (std::size_t k = 0; k < window; ++k) {
            idx[k] = static_cast<std::size_t>(
                rng.uniformInt(0, static_cast<std::int64_t>(inputs.size()) - 1));
            sent[k] = nowNs();
            futs[k] = server.submit(inputs[idx[k]]);
            ++r.attempted;
        }
        for (std::size_t k = 0; k < window; ++k) {
            try {
                const TensorD out = futs[k].get();
                log.account(sent[k], true, false, idx[k], out.data(),
                            out.numel(), ref);
            } catch (const ServerOverloaded &) {
                log.account(sent[k], false, true, idx[k], nullptr, 0, ref);
            } catch (const std::exception &) {
                log.account(sent[k], false, false, idx[k], nullptr, 0,
                            ref);
            }
        }
    }
}

/**
 * inProcessClient through submitTimed(): the completion callback hands
 * back the response and the server's phase breakdown, whose computeNs
 * is the batched forward pass the request rode in.
 */
void
timedClient(InferenceServer &server, std::size_t window,
            const std::vector<TensorD> &inputs, ReferenceOutputs &ref,
            std::int64_t deadline, Rng rng, ClientLog &log)
{
    struct Reply
    {
        TensorD out;
        std::exception_ptr err;
        RequestTiming timing;
    };
    LoadResult &r = log.counts;
    std::vector<std::promise<Reply>> proms(window);
    std::vector<std::future<Reply>> futs(window);
    std::vector<std::size_t> idx(window);
    std::vector<std::int64_t> sent(window);
    while (nowNs() < deadline) {
        for (std::size_t k = 0; k < window; ++k) {
            idx[k] = static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<std::int64_t>(inputs.size()) - 1));
            proms[k] = std::promise<Reply>();
            futs[k] = proms[k].get_future();
            sent[k] = nowNs();
            ++r.attempted;
            std::promise<Reply> *p = &proms[k];
            if (!server.submitTimed(
                    inputs[idx[k]], 0,
                    [p](TensorD &&t, std::exception_ptr e,
                        const RequestTiming &rt) {
                        p->set_value(Reply{std::move(t), e, rt});
                    }))
                p->set_value(Reply{TensorD(),
                                   std::make_exception_ptr(
                                       ServerOverloaded{}),
                                   RequestTiming{}});
        }
        for (std::size_t k = 0; k < window; ++k) {
            const Reply rep = futs[k].get();
            bool shed = false;
            if (rep.err) {
                try {
                    std::rethrow_exception(rep.err);
                } catch (const ServerOverloaded &) {
                    shed = true;
                } catch (...) {
                }
            }
            log.account(sent[k], !rep.err, shed, idx[k], rep.out.data(),
                        rep.out.numel(), ref,
                        static_cast<double>(rep.timing.computeNs));
        }
    }
}

} // namespace

LoadResult
runLoad(Stack &stack, Transport t, std::size_t clients,
        std::size_t window, const std::vector<TensorD> &inputs,
        ReferenceOutputs &ref, double seconds, std::uint64_t seed)
{
    const std::int64_t start = nowNs();
    std::vector<std::unique_ptr<ClientLog>> logs;
    for (std::size_t c = 0; c < clients; ++c)
        logs.push_back(std::make_unique<ClientLog>(
            start, seconds, t == Transport::InProcessTimed));
    const std::int64_t deadline =
        nowNs() + static_cast<std::int64_t>(seconds * 1e9);
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients; ++c) {
        Rng rng(seed * 1000003u + c);
        if (t == Transport::Wire)
            threads.emplace_back(wireClient, stack.port, window,
                                 std::cref(inputs), std::ref(ref),
                                 deadline, rng, std::ref(*logs[c]));
        else
            threads.emplace_back(t == Transport::InProcess ? inProcessClient
                                                           : timedClient,
                                 std::ref(*stack.server), window,
                                 std::cref(inputs), std::ref(ref),
                                 deadline, rng, std::ref(*logs[c]));
    }
    for (std::thread &th : threads)
        th.join();

    LoadResult all;
    all.peakRssMib = peakRssMib();
    all.startNs = start;
    all.perSecond.assign(static_cast<std::size_t>(seconds), 0.0);
    for (const auto &log : logs) {
        const LoadResult &c = log->counts;
        all.attempted += c.attempted;
        all.ok += c.ok;
        all.shed += c.shed;
        all.errors += c.errors;
        all.wrong += c.wrong;
        all.idFaults += c.idFaults;
        all.latencyCount += c.latencyCount;
        all.endNs = std::max(all.endNs, c.endNs);
        const auto n = static_cast<std::ptrdiff_t>(c.latencyCount);
        all.latencyNs.insert(all.latencyNs.end(), log->latency.begin(),
                             log->latency.begin() + n);
        if (!log->compute.empty())
            all.computeNs.insert(all.computeNs.end(),
                                 log->compute.begin(),
                                 log->compute.begin() + n);
        for (std::size_t i = 0; i < all.perSecond.size(); ++i)
            all.perSecond[i] += log->perSecond[i];
    }
    return all;
}

double
throughput(const LoadResult &r)
{
    const double sec = static_cast<double>(r.endNs - r.startNs) * 1e-9;
    return sec > 0 ? static_cast<double>(r.ok) / sec : 0.0;
}

} // namespace sb
