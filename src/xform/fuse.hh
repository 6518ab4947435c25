/**
 * @file
 * Epilogue descriptor and conv→bias→ReLU fusion planning over a
 * network's layer chain.
 *
 * Real networks present the session with conv nodes followed by
 * element-wise post-ops (models/zoo.hh LayerOp). Unfused, every
 * post-op is a second full pass over an activation that just left the
 * cache; the fused form folds bias/ReLU into the conv engine's final
 * output write (the blocked untile, the NCHW untile, the im2col GEMM
 * epilogue, the int8 dequant loop), so the activation is touched
 * exactly once. The arithmetic of the fused epilogue matches the
 * separate passes operation for operation, so fusion is bit-identical
 * on every FP engine.
 *
 * The planner here is pure dataflow analysis — it consumes the layer
 * list (a linear chain, the only topology the serving runtime
 * executes) and emits fused groups; the session decides whether to
 * act on them (SessionConfig::fuseEpilogues).
 */

#ifndef TWQ_XFORM_FUSE_HH
#define TWQ_XFORM_FUSE_HH

#include <cstddef>
#include <vector>

#include "models/zoo.hh"

namespace twq
{

/**
 * Post-conv epilogue folded into a conv engine's output write.
 *
 * `bias` is the per-output-channel addend ([Cout], empty = no bias);
 * `relu` clamps negatives to zero after the bias.
 */
struct Epilogue
{
    std::vector<double> bias; ///< per-Cout addend; empty = none
    bool relu = false;

    bool
    active() const
    {
        return !bias.empty() || relu;
    }
};

/**
 * One planned execution unit: a conv layer plus the post-ops fused
 * into it. `conv` indexes the source layer list; `bias`/`relu` say
 * which trailing post-op nodes were absorbed.
 */
struct FusedLayer
{
    std::size_t conv = 0; ///< index of the conv node in the source list
    bool bias = false;    ///< absorbed a Bias node
    bool relu = false;    ///< absorbed a Relu node
};

/**
 * Collapse conv→bias→relu runs of an expanded layer chain into fused
 * groups. Only the exact patterns conv[→bias][→relu] fuse (a relu
 * directly after a conv fuses without a bias; bias after relu does
 * not re-order). Post-op nodes must pass geometry through
 * (cin == cout, same resolution as the producing conv's output) —
 * violations panic, as the chain could not execute anyway.
 *
 * The input must be an expandedLayers() list whose conv nodes chain;
 * a post-op with no preceding conv (e.g. at the chain head) is
 * rejected.
 */
std::vector<FusedLayer>
planEpilogueFusion(const std::vector<ConvLayerDesc> &layers);

} // namespace twq

#endif // TWQ_XFORM_FUSE_HH
