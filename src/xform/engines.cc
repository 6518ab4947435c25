#include "xform/engines.hh"

#include "common/logging.hh"
#include "winograd/matrices.hh"

namespace twq
{

const char *
engineKindName(EngineKind k)
{
    switch (k) {
      case EngineKind::RowByRowSlow:
        return "row-by-row (slow)";
      case EngineKind::RowByRowFast:
        return "row-by-row (fast)";
      case EngineKind::TapByTap:
        return "tap-by-tap";
    }
    return "?";
}

const char *
convEngineName(ConvEngine e)
{
    switch (e) {
      case ConvEngine::Im2col:
        return "im2col";
      case ConvEngine::WinogradFp32:
        return "winograd-fp32";
      case ConvEngine::Im2colInt8:
        return "im2col-int8";
      case ConvEngine::WinogradBlocked:
        return "winograd-blocked";
      case ConvEngine::WinogradBlockedInt8:
        return "winograd-blocked-int8";
      case ConvEngine::WinogradBlockedF16:
        return "winograd-blocked-f16";
    }
    return "?";
}

bool
convEngineFromName(const std::string &name, ConvEngine *out)
{
    for (ConvEngine e : kAllConvEngines) {
        if (name == convEngineName(e)) {
            *out = e;
            return true;
        }
    }
    return false;
}

std::size_t
tapByTapOps(const Matrix<Rational> &t)
{
    const TransformDfg d = buildTransformDfg(t);
    // Each adder-op is one cycle on the single shift+add+accumulate
    // PE; CSE (hash-consing) already removed recomputation.
    return d.dfg.numAdders();
}

std::size_t
rowPeAdders(const Matrix<Rational> &t)
{
    // One row of s times T: a 1D shift-add network with CSE.
    const std::int64_t scale = denominatorLcm(t);
    const MatrixI64 ti = scaledInteger(t, scale);
    Dfg dfg;
    for (std::size_t j = 0; j < t.cols(); ++j) {
        int acc = Dfg::kZero;
        for (std::size_t v = 0; v < t.rows(); ++v) {
            if (ti(v, j) == 0)
                continue;
            acc = dfg.add(acc, dfg.mulConst(dfg.input(0, v), ti(v, j)));
        }
        (void)acc;
    }
    return dfg.numAdders();
}

EnginePerf
evaluateEngine(const Matrix<Rational> &t, const EngineConfig &cfg)
{
    const std::size_t ht = t.rows();
    const std::size_t wt = t.cols();
    EnginePerf p;
    p.parallelXforms = cfg.pc * cfg.ps;

    const TransformDfg full = buildTransformDfg(t);
    p.dfgDepth = 0;
    for (int root : full.outputs)
        p.dfgDepth = std::max(p.dfgDepth, full.dfg.depth(root));

    switch (cfg.kind) {
      case EngineKind::RowByRowSlow:
        // One pass per row of s (hT cycles) plus one per column of
        // the intermediate (wT cycles), reusing the same PE.
        p.cyclesPerXform = static_cast<double>(ht + wt);
        p.addersPerPe = rowPeAdders(t);
        p.shiftersPerPe = 0; // fixed shifts folded into wiring
        // Reads one row (hT elements) per cycle per transform.
        p.rdBytesPerCycle = static_cast<double>(
            cfg.pc * cfg.ps * ht * cfg.inBytes);
        p.wrBytesPerCycle = static_cast<double>(
            cfg.pc * cfg.ps * ht * cfg.outBytes);
        break;
      case EngineKind::RowByRowFast:
        // Second pass computed by wT x wT output-stationary lanes.
        p.cyclesPerXform = static_cast<double>(ht);
        p.addersPerPe = rowPeAdders(t) + wt * wt;
        p.shiftersPerPe = wt * wt; // per-lane configurable shift
        p.rdBytesPerCycle = static_cast<double>(
            cfg.pc * cfg.ps * ht * cfg.inBytes);
        p.wrBytesPerCycle = static_cast<double>(
            cfg.pc * cfg.ps * ht * cfg.outBytes);
        break;
      case EngineKind::TapByTap: {
        // Fully time-unrolled: ops/Pt cycles per transform ("T
        // dependent" in Table I); worst case would be hT*hT per tap.
        const std::size_t ops = tapByTapOps(t);
        twq_assert(cfg.pt >= 1, "Pt must be at least 1");
        p.cyclesPerXform =
            static_cast<double>((ops + cfg.pt - 1) / cfg.pt);
        p.parallelXforms = cfg.pc * cfg.ps;
        p.addersPerPe = cfg.pt; // one adder/accumulator per tap lane
        p.shiftersPerPe = cfg.pt; // configurable shifter per lane
        // One element read per cycle, shared across the Pt tap
        // lanes; writes split into sub-writes (Table I): Pc*Ps each.
        p.rdBytesPerCycle =
            static_cast<double>(cfg.pc * cfg.ps * cfg.inBytes);
        p.wrBytesPerCycle =
            static_cast<double>(cfg.pc * cfg.ps * cfg.outBytes);
        break;
      }
    }
    return p;
}

} // namespace twq
