/**
 * @file
 * Plan execution: run a model's eval forward as the recorded step
 * list of its ServePlan, writing every activation into one pre-
 * faulted slab at the planner's precomputed offsets. A PlanExecutor
 * is the per-replica half of the serving split — it owns the slab
 * and every layer's mutable serve scratch (sized once, at the plan's
 * maximum batch), while the model it executes stays immutable and
 * replica-shared: packed weight panels, folded BN and float weights
 * are read concurrently by any number of executors, so n replicas
 * cost one model plus n plans.
 *
 * Steady-state run() calls allocate nothing: activations land at
 * fixed slab offsets that are stable across requests, and per-step
 * scratch was pre-sized by prepareServe. Variable batch sizes are
 * handled without replanning by planning twice (unit batch and
 * maximum batch) and interpolating every buffer dimension affinely
 * in the item count; the walk is
 * deterministic, so the two plans are structurally identical and the
 * interpolation is exact (asserted).
 *
 * Construction and run() are single-threaded from the caller's view
 * (one worker thread per replica). With a team of more than one
 * thread, a batch-axis-0 plan runs its item-local prefix — the
 * leading convolution, BatchNorm, activation, pooling and residual
 * steps — item-parallel inside ONE OpenMP region per batch: each
 * team member ("lane") computes whole items through every prefix
 * layer in its own unit-batch slab, with the layer kernels serial,
 * and stages its items' prefix outputs; after the join the staging
 * area is copied into the shared slab and the batched tail (the
 * weight-reusing Linear head, every RNN, every time-major plan) runs
 * the layers' own batched forwards. A lane never writes the shared
 * slab: its liveness packing reuses offsets across steps whose
 * per-item sizes differ. Each item runs exactly the single-item
 * computation, and the tail's kernels are thread-count invariant,
 * so outputs are bit-identical to Module::forward(x, false) alone
 * or in any batch, at every thread count.
 */

#ifndef MIXQ_SERVE_EXECUTOR_HH
#define MIXQ_SERVE_EXECUTOR_HH

#include <cstddef>
#include <memory>
#include <vector>

#include "nn/layers.hh"
#include "nn/rnn.hh"
#include "serve/planner.hh"

namespace mixq {

/** Executes one ServePlan against a shared, immutable model. */
class PlanExecutor
{
  public:
    /**
     * Plan @p root at @p itemShape (a single item: the batch axis
     * @p batchAxis must be 1) and at the same shape with the batch
     * axis widened to @p maxItems, allocate and pre-fault the slab,
     * and size every step's scratch for the maximum batch. Packs
     * weight panels via the layers' prepareServe — idempotent per
     * weight version, so building a second executor over the same
     * model packs nothing and shares the first one's panels.
     *
     * @p team is the OpenMP team run() may use (0: this thread's
     * omp_get_max_threads()). Above one, a batch-axis-0 plan whose
     * item-local prefix holds a convolution gets min(team, maxItems)
     * lanes, each with a unit-batch slab and one-item scratch for
     * the prefix steps, whose max-batch scratch is then not
     * allocated.
     */
    PlanExecutor(Module& root, const std::vector<size_t>& itemShape,
                 size_t batchAxis, size_t maxItems, int team = 0);
    PlanExecutor(const PlanExecutor&) = delete;
    PlanExecutor& operator=(const PlanExecutor&) = delete;

    /**
     * Execute the plan for @p items (1 <= items <= maxItems). The
     * caller has written the input into inputData() in the runtime
     * input shape; the output lands at outputData(). Allocation-free
     * in steady state (first call included — scratch is ctor-sized).
     */
    void run(size_t items);

    /** Slab address of the input buffer (gather target). */
    float* inputData() { return buf(0); }
    /** Slab address of the output buffer (scatter source). */
    const float* outputData() const { return buf(plan_.outIndex); }
    /** Byte size of the input buffer at the maximum batch. */
    size_t inputBytes() const { return plan_.buffers[0].bytes; }
    /** Runtime shape of the input buffer for @p items. */
    std::vector<size_t> inputShape(size_t items) const
    {
        return runtimeShape(0, items);
    }
    /** Runtime shape of the output buffer for @p items. */
    std::vector<size_t> outputShape(size_t items) const
    {
        return runtimeShape(plan_.outIndex, items);
    }

    /**
     * Re-run every step's prepareServe against the model's current
     * state. Needed after a hot weight swap (BatchServer::
     * reloadArtifact): prepareServe stages per-layer eval constants —
     * BatchNorm's frozen running-stat affine, panel packs keyed by
     * weight version — that would otherwise keep serving the old
     * model. Shapes are unchanged, so scratch never regrows; must not
     * race run() (the server calls it with every worker quiesced).
     */
    void restage();

    /** The executed (maximum-batch) plan. */
    const ServePlan& plan() const { return plan_; }
    size_t maxItems() const { return maxItems_; }
    /** Allocated slab size (the plan's peak, page-rounded up). */
    size_t slabBytes() const { return slabBytes_; }
    /**
     * This replica's memory beyond the plan slab: every step's serve
     * scratch plus, when it runs lanes, their slabs and the staging
     * area.
     */
    size_t scratchBytes() const;
    /** Item lanes of the prefix (0: every step runs batched). */
    size_t lanes() const { return lanes_.size(); }

  private:
    /** Resolved step: the plan step plus its serve lowering. */
    enum class Op
    {
        Linear,
        Conv,
        DwConv,
        Bn,
        Relu,
        MaxPool,
        Gap,
        Flatten,
        Embedding,
        Lstm,
        Gru,
        ResidualAdd,
        SliceLast
    };

    struct StepExec
    {
        Op op = Op::ResidualAdd;
        Module* mod = nullptr;
        std::unique_ptr<LinearServeScratch> lin;
        std::unique_ptr<ConvServeScratch> conv;
        std::unique_ptr<BnServeScratch> bn;
        std::unique_ptr<RnnServeScratch> rnn;
    };

    /** Prebuilt input/output views of one step at one batch size. */
    struct StepViews
    {
        TensorView in, out;
    };

    struct SlabFree
    {
        void operator()(float* p) const;
    };
    using Slab = std::unique_ptr<float[], SlabFree>;

    /** One team member's private state for the item-local prefix. */
    struct Lane
    {
        Slab slab;                    //!< unit-plan layout
        std::vector<StepExec> steps;  //!< prefix steps, one-item scratch
        std::vector<StepViews> views; //!< prefix views into slab
    };

    /** A prefix output the tail reads, staged per item by lanes. */
    struct Staged
    {
        size_t buf = 0;    //!< plan buffer index
        size_t floats = 0; //!< per-item size
        size_t at = 0;     //!< offset of item 0 in stage_
    };

    float* buf(size_t i) const
    {
        return slab_.get() + plan_.buffers[i].offset / sizeof(float);
    }
    std::vector<size_t> runtimeShape(size_t bufIdx, size_t n) const;
    static Slab allocSlab(size_t bytes);
    static Op opOf(const PlanStep& ps);
    /** (Re)size @p se's scratch for input shape @p in and stage the
        layer's eval constants (prepareServe). */
    static void stage(StepExec& se, const std::vector<size_t>& in);
    static void exec(const StepExec& se, const TensorView& x,
                     const TensorView& y);
    void buildLanes(size_t count);
    void runPrefix(size_t items);
    void runItem(Lane& lane, size_t item);

    ServePlan unit_; //!< plan at batch 1 (shape interpolation anchor)
    ServePlan plan_; //!< plan at maxItems (offsets, scratch sizing)
    size_t maxItems_ = 1;
    Slab slab_;
    size_t slabBytes_ = 0;
    std::vector<StepExec> steps_;
    std::vector<std::vector<StepViews>> viewsByN_; //!< [items][step]
    size_t prefix_ = 0;         //!< steps run per item on lanes_
    std::vector<Lane> lanes_;
    std::vector<Staged> staged_;
    std::vector<float> stage_;  //!< [staged buffer][maxItems][item]
};

} // namespace mixq

#endif // MIXQ_SERVE_EXECUTOR_HH
