/**
 * @file
 * The benchmark's span recorder: spans live in memory for the traced
 * run and are checked for well-formedness before their totals are
 * reported.
 */

#include <sstream>

#include "bench.hh"

namespace sb
{

int
Tracer::open(const char *name, std::uint64_t request)
{
    if (!enabled)
        return -1;
    Span s;
    s.name = name;
    s.request = request;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.t0 = nowNs();
    spans_.push_back(s);
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return stack_.back();
}

void
Tracer::close(int idx)
{
    if (idx < 0)
        return;
    spans_[static_cast<std::size_t>(idx)].t1 = nowNs();
    stack_.pop_back();
}

std::string
Tracer::validate() const
{
    std::vector<double> childNs(spans_.size(), 0.0);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::ostringstream why;
        if (s.t1 < s.t0)
            why << "span " << s.name << " ends before it starts";
        if (s.parent >= 0) {
            const Span &p = spans_[static_cast<std::size_t>(s.parent)];
            if (s.t0 < p.t0 || s.t1 > p.t1)
                why << "span " << s.name << " lies outside parent "
                    << p.name;
            else if (s.request != p.request)
                why << "span " << s.name << " has request " << s.request
                    << " under parent request " << p.request;
            childNs[static_cast<std::size_t>(s.parent)] +=
                static_cast<double>(s.t1 - s.t0);
        }
        if (!why.str().empty())
            return why.str();
    }
    // Spans are recorded on one thread, so siblings never overlap and
    // self time is the duration minus the children's sum.
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        if (static_cast<double>(s.t1 - s.t0) - childNs[i] < 0)
            return std::string("span ") + s.name +
                   " has negative self time";
    }
    return {};
}

} // namespace sb
