/**
 * @file
 * Ahead-of-time shape inference and liveness-based slab planning
 * for the serving runtime. planServeForward() walks a model's named
 * module tree with a symbolic input shape, records every activation
 * tensor the eval forward will materialize (its shape, the step that
 * defines it, the last step that reads it), assigns each buffer an
 * offset in a single slab by greedy first-fit over the liveness
 * intervals, and reports the resulting peak — the slab size the
 * executor (serve/executor.hh) allocates. The walk
 * also lowers every GEMM-bearing step to the compiler layer's
 * LayerSpec form, so the same plan drives the FPGA timing simulator
 * (compiler/runner.hh simulateNetwork) for deploy-side estimates.
 *
 * The planner understands the repo's model zoo: Sequential chains,
 * BasicBlock / InvertedResidual (residual inputs stay live until the
 * add), the leaf layers, and the RNN task models (LstmLm, GruTagger,
 * LstmClassifier). Folded BatchNorm layers (serve/bn_fold.hh) plan
 * as a pass-through copy. Layer-internal scratch (packed panels,
 * im2col buffers) is per-step serve scratch sized by the layers'
 * prepareServe, not slab-planned — the plan covers the per-call
 * transient activations.
 */

#ifndef MIXQ_SERVE_PLANNER_HH
#define MIXQ_SERVE_PLANNER_HH

#include <string>
#include <vector>

#include "compiler/layer_spec.hh"
#include "nn/module.hh"

namespace mixq {

/** One planned activation buffer with its liveness and placement. */
struct PlanBuffer
{
    std::string name;          //!< producing step (dotted path)
    std::vector<size_t> shape; //!< tensor shape
    size_t bytes = 0;          //!< float32 payload bytes
    size_t def = 0;            //!< producing step index
    size_t lastUse = 0;        //!< last consuming step index
    size_t offset = 0;         //!< assigned slab offset
};

/**
 * One executable step of the planned forward. Layer steps run a leaf
 * module's forwardServe from buffer @p in into buffer @p out;
 * ResidualAdd replicates the blocks' in-place `h.add(s)` (out += in);
 * SliceLast copies the last timestep of a [T, N, H] buffer into an
 * [N, H] buffer (LstmClassifier's pre-head slice). The step list is
 * what makes the plan an executed contract (serve/executor.hh) rather
 * than a sizing hint.
 */
struct PlanStep
{
    enum class Kind { Layer, ResidualAdd, SliceLast };

    Kind kind = Kind::Layer;
    Module* mod = nullptr; //!< leaf to run (Layer steps only)
    size_t in = 0;         //!< input buffer index
    size_t out = 0;        //!< output buffer index
};

/** The full ahead-of-time plan for one (model, input shape) pair. */
struct ServePlan
{
    std::vector<PlanBuffer> buffers; //!< buffers[0] is the input
    std::vector<PlanStep> steps;     //!< executable forward recipe
    std::vector<size_t> outShape;    //!< forward output shape
    size_t outIndex = 0;             //!< buffer index of the output
    size_t peakBytes = 0;            //!< extent of the offset layout
    NetworkSpec net;                 //!< GEMM-form view (simulator)

    /**
     * Check the offset assignment: any two buffers whose liveness
     * intervals overlap must occupy disjoint byte ranges, and every
     * buffer must end within peakBytes. Returns false and fills
     * @p why on the first violation.
     */
    bool validate(std::string* why = nullptr) const;
};

/**
 * Greedy liveness-aware placement: buffers sorted by size
 * (descending, stable) are first-fit packed against already-placed
 * buffers with overlapping lifetimes, offsets 64-byte aligned.
 * Returns the layout extent (the plan's peakBytes). Deterministic —
 * replanning the same model and shape is byte-stable.
 */
size_t assignSlabOffsets(std::vector<PlanBuffer>& bufs);

/**
 * Plan one eval forward of @p root at @p inShape (the max-batch
 * shape the server will run). Panics on a module the planner does
 * not model — extending it is deliberate, not silent.
 */
ServePlan planServeForward(Module& root,
                           const std::vector<size_t>& inShape);

} // namespace mixq

#endif // MIXQ_SERVE_PLANNER_HH
