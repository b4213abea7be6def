#include "serve/executor.hh"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "nn/gemm_backend.hh"
#include "util/logging.hh"

namespace mixq {

namespace {

constexpr size_t kSlabAlign = 64;

size_t alignUp(size_t v, size_t a)
{
    return (v + a - 1) / a * a;
}

int teamSize(int team)
{
#ifdef _OPENMP
    return team > 0 ? team : omp_get_max_threads();
#else
    return team > 0 ? team : 1;
#endif
}

size_t laneIndex()
{
#ifdef _OPENMP
    return size_t(omp_get_thread_num());
#else
    return 0;
#endif
}

} // namespace

void PlanExecutor::SlabFree::operator()(float* p) const
{
    std::free(p);
}

PlanExecutor::Slab PlanExecutor::allocSlab(size_t bytes)
{
    // memset pre-faults every page so steady-state runs never take a
    // soft page fault either.
    bytes = alignUp(bytes, kSlabAlign);
    MIXQ_ASSERT(bytes > 0, "PlanExecutor: empty plan");
    Slab s(static_cast<float*>(std::aligned_alloc(kSlabAlign, bytes)));
    MIXQ_ASSERT(s != nullptr, "PlanExecutor: slab allocation failed");
    std::memset(s.get(), 0, bytes);
    return s;
}

PlanExecutor::PlanExecutor(Module& root,
                           const std::vector<size_t>& itemShape,
                           size_t batchAxis, size_t maxItems, int team)
    : maxItems_(maxItems)
{
    MIXQ_ASSERT(maxItems >= 1, "PlanExecutor: maxItems must be >= 1");
    MIXQ_ASSERT(batchAxis < itemShape.size() &&
                    itemShape[batchAxis] == 1,
                "PlanExecutor: itemShape must carry a unit batch axis");

    unit_ = planServeForward(root, itemShape);
    if (maxItems_ == 1) {
        plan_ = unit_;
    } else {
        std::vector<size_t> ws = itemShape;
        ws[batchAxis] = maxItems_;
        plan_ = planServeForward(root, ws);
    }
    MIXQ_ASSERT(plan_.buffers.size() == unit_.buffers.size() &&
                    plan_.steps.size() == unit_.steps.size() &&
                    plan_.outIndex == unit_.outIndex,
                "PlanExecutor: unit and max-batch plans diverge "
                "structurally");

    // One slab covers the whole plan.
    slabBytes_ = alignUp(plan_.peakBytes, kSlabAlign);
    slab_ = allocSlab(slabBytes_);

    // Resolve each plan step to its serve lowering. The item-local
    // prefix (batch axis 0 only: the time-major plans carry items on
    // axis 1) ends at the first step that reuses weights across the
    // items — Linear, Embedding, the RNNs — or slices time.
    steps_.resize(plan_.steps.size());
    bool prefixConv = false;
    bool inPrefix = batchAxis == 0;
    for (size_t si = 0; si < plan_.steps.size(); ++si) {
        const PlanStep& ps = plan_.steps[si];
        const PlanStep& us = unit_.steps[si];
        MIXQ_ASSERT(ps.kind == us.kind && ps.mod == us.mod &&
                        ps.in == us.in && ps.out == us.out,
                    "PlanExecutor: unit and max-batch plans diverge "
                    "structurally");
        StepExec& se = steps_[si];
        se.op = opOf(ps);
        se.mod = ps.mod;
        switch (se.op) {
        case Op::Conv:
        case Op::DwConv:
            prefixConv = prefixConv || inPrefix;
            break;
        case Op::Linear:
        case Op::Embedding:
        case Op::Lstm:
        case Op::Gru:
        case Op::SliceLast:
            inPrefix = false;
            break;
        default:
            break;
        }
        if (inPrefix)
            prefix_ = si + 1;
    }
    const size_t lanes = size_t(teamSize(team));
    if (!prefixConv || lanes <= 1)
        prefix_ = 0;

    // Size every batched step's scratch at the maximum batch.
    // prepareServe also packs weight panels (idempotent per weight
    // version — a second executor over the same model reuses the
    // first one's packs).
    for (size_t si = prefix_; si < steps_.size(); ++si)
        stage(steps_[si], plan_.buffers[plan_.steps[si].in].shape);
    if (prefix_ > 0)
        buildLanes(std::min(lanes, maxItems_));

    // Prebuild every (batch size, step) view pair so run() touches
    // no heap: the views carry slab pointers at the max-batch plan's
    // offsets and the affinely interpolated runtime shapes.
    viewsByN_.resize(maxItems_ + 1);
    for (size_t n = 1; n <= maxItems_; ++n) {
        std::vector<StepViews>& vs = viewsByN_[n];
        vs.resize(plan_.steps.size());
        for (size_t si = prefix_; si < plan_.steps.size(); ++si) {
            const PlanStep& ps = plan_.steps[si];
            vs[si].in = TensorView{buf(ps.in), runtimeShape(ps.in, n)};
            vs[si].out =
                TensorView{buf(ps.out), runtimeShape(ps.out, n)};
        }
    }
}

void PlanExecutor::buildLanes(size_t count)
{
    // A lane walks the unit plan's prefix in its own slab: the unit
    // plan is a valid liveness layout for one item.
    lanes_.resize(count);
    for (Lane& lane : lanes_) {
        lane.slab = allocSlab(unit_.peakBytes);
        auto view = [&](size_t b) {
            return TensorView{lane.slab.get() +
                                  unit_.buffers[b].offset / sizeof(float),
                              unit_.buffers[b].shape};
        };
        lane.steps.resize(prefix_);
        lane.views.resize(prefix_);
        for (size_t si = 0; si < prefix_; ++si) {
            const PlanStep& us = unit_.steps[si];
            lane.steps[si].op = steps_[si].op;
            lane.steps[si].mod = steps_[si].mod;
            stage(lane.steps[si], unit_.buffers[us.in].shape);
            lane.views[si] = {view(us.in), view(us.out)};
        }
    }

    // Stage every prefix output that the tail (or the caller, as the
    // plan output) reads. These buffers are live together at the
    // first tail step, so their shared-slab ranges are disjoint, and
    // the input buffer the lanes read is never among them.
    std::vector<bool> written(plan_.buffers.size(), false);
    for (size_t si = 0; si < prefix_; ++si)
        written[plan_.steps[si].out] = true;
    std::vector<bool> read(plan_.buffers.size(), false);
    for (size_t si = prefix_; si < plan_.steps.size(); ++si)
        read[plan_.steps[si].in] = read[plan_.steps[si].out] = true;
    read[plan_.outIndex] = true;
    MIXQ_ASSERT(!written[0] && plan_.buffers[0].bytes ==
                                   maxItems_ * unit_.buffers[0].bytes,
                "PlanExecutor: lanes need an item-major, read-only "
                "input buffer");
    size_t at = 0;
    for (size_t b = 1; b < plan_.buffers.size(); ++b) {
        if (!written[b] || !read[b])
            continue;
        const size_t floats = unit_.buffers[b].bytes / sizeof(float);
        MIXQ_ASSERT(plan_.buffers[b].bytes ==
                        maxItems_ * unit_.buffers[b].bytes,
                    "PlanExecutor: staged buffer is not item-major");
        staged_.push_back({b, floats, at});
        at += maxItems_ * floats;
    }
    stage_.assign(at, 0.0f);
}

void PlanExecutor::restage()
{
    for (size_t si = prefix_; si < steps_.size(); ++si)
        stage(steps_[si], plan_.buffers[plan_.steps[si].in].shape);
    for (Lane& lane : lanes_)
        for (size_t si = 0; si < prefix_; ++si)
            stage(lane.steps[si],
                  unit_.buffers[unit_.steps[si].in].shape);
}

PlanExecutor::Op PlanExecutor::opOf(const PlanStep& ps)
{
    switch (ps.kind) {
    case PlanStep::Kind::ResidualAdd:
        return Op::ResidualAdd;
    case PlanStep::Kind::SliceLast:
        return Op::SliceLast;
    case PlanStep::Kind::Layer:
        break;
    }
    Module* m = ps.mod;
    if (dynamic_cast<Linear*>(m) != nullptr)
        return Op::Linear;
    if (dynamic_cast<Conv2d*>(m) != nullptr)
        return Op::Conv;
    if (dynamic_cast<DwConv2d*>(m) != nullptr)
        return Op::DwConv;
    if (dynamic_cast<BatchNorm2d*>(m) != nullptr)
        return Op::Bn;
    if (dynamic_cast<ReLU*>(m) != nullptr)
        return Op::Relu;
    if (dynamic_cast<MaxPool2d*>(m) != nullptr)
        return Op::MaxPool;
    if (dynamic_cast<GlobalAvgPool*>(m) != nullptr)
        return Op::Gap;
    if (dynamic_cast<Flatten*>(m) != nullptr)
        return Op::Flatten;
    if (dynamic_cast<Embedding*>(m) != nullptr)
        return Op::Embedding;
    if (dynamic_cast<Lstm*>(m) != nullptr)
        return Op::Lstm;
    if (dynamic_cast<Gru*>(m) != nullptr)
        return Op::Gru;
    panic("PlanExecutor: plan step has no serve lowering — planner "
          "and executor disagree");
}

void PlanExecutor::stage(StepExec& se, const std::vector<size_t>& in)
{
    switch (se.op) {
    case Op::Linear: {
        auto* ln = static_cast<Linear*>(se.mod);
        if (!se.lin)
            se.lin = std::make_unique<LinearServeScratch>();
        ln->prepareServe(*se.lin, shapeSize(in) / ln->inFeatures());
        break;
    }
    case Op::Conv:
        if (!se.conv)
            se.conv = std::make_unique<ConvServeScratch>();
        static_cast<Conv2d*>(se.mod)->prepareServe(*se.conv, in);
        break;
    case Op::DwConv:
        if (!se.conv)
            se.conv = std::make_unique<ConvServeScratch>();
        static_cast<DwConv2d*>(se.mod)->prepareServe(*se.conv, in);
        break;
    case Op::Bn:
        if (!se.bn)
            se.bn = std::make_unique<BnServeScratch>();
        static_cast<BatchNorm2d*>(se.mod)->prepareServe(*se.bn);
        break;
    case Op::Lstm:
        if (!se.rnn)
            se.rnn = std::make_unique<RnnServeScratch>();
        static_cast<Lstm*>(se.mod)->prepareServe(*se.rnn, in[1]);
        break;
    case Op::Gru:
        if (!se.rnn)
            se.rnn = std::make_unique<RnnServeScratch>();
        static_cast<Gru*>(se.mod)->prepareServe(*se.rnn, in[1]);
        break;
    default:
        break; // stateless steps stage nothing
    }
}

std::vector<size_t> PlanExecutor::runtimeShape(size_t bufIdx,
                                               size_t n) const
{
    const std::vector<size_t>& u = unit_.buffers[bufIdx].shape;
    const std::vector<size_t>& m = plan_.buffers[bufIdx].shape;
    MIXQ_ASSERT(u.size() == m.size(),
                "PlanExecutor: buffer rank differs between plans");
    std::vector<size_t> s(u.size());
    for (size_t d = 0; d < u.size(); ++d) {
        if (u[d] == m[d]) {
            s[d] = u[d];
            continue;
        }
        // Batch-carrying dimension: dim(n) must be affine in n for
        // the fixed max-batch offsets to hold every intermediate
        // batch. True for every modeled layer (batch axes pass
        // through untouched); asserted, not assumed.
        MIXQ_ASSERT(m[d] > u[d] && maxItems_ > 1 &&
                        (m[d] - u[d]) % (maxItems_ - 1) == 0,
                    "PlanExecutor: buffer dimension is not affine in "
                    "the item count");
        s[d] = u[d] + (m[d] - u[d]) / (maxItems_ - 1) * (n - 1);
    }
    return s;
}

size_t PlanExecutor::scratchBytes() const
{
    auto stepBytes = [](const StepExec& se) {
        return (se.lin ? se.lin->bytes() : 0) +
               (se.conv ? se.conv->bytes() : 0) +
               (se.bn ? se.bn->bytes() : 0) +
               (se.rnn ? se.rnn->bytes() : 0);
    };
    size_t total = stage_.size() * sizeof(float);
    for (const StepExec& se : steps_)
        total += stepBytes(se);
    for (const Lane& lane : lanes_) {
        total += alignUp(unit_.peakBytes, kSlabAlign);
        for (const StepExec& se : lane.steps)
            total += stepBytes(se);
    }
    return total;
}

void PlanExecutor::runItem(Lane& lane, size_t item)
{
    const PlanBuffer& in = unit_.buffers[0];
    const size_t inFloats = in.bytes / sizeof(float);
    std::memcpy(lane.slab.get() + in.offset / sizeof(float),
                buf(0) + item * inFloats, in.bytes);
    for (size_t si = 0; si < prefix_; ++si)
        exec(lane.steps[si], lane.views[si].in, lane.views[si].out);
    for (const Staged& s : staged_)
        std::memcpy(stage_.data() + s.at + item * s.floats,
                    lane.slab.get() +
                        unit_.buffers[s.buf].offset / sizeof(float),
                    s.floats * sizeof(float));
}

void PlanExecutor::runPrefix(size_t items)
{
    if (items == 1) {
        OmpSerialScope serial;
        runItem(lanes_[0], 0);
    } else {
        const int team = int(std::min(items, lanes_.size()));
        #pragma omp parallel for schedule(static) num_threads(team)
        for (long i = 0; i < long(items); ++i) {
            // Serial even when the runtime grants a team of one.
            OmpSerialScope serial;
            runItem(lanes_[laneIndex()], size_t(i));
        }
    }
    for (const Staged& s : staged_)
        std::memcpy(buf(s.buf), stage_.data() + s.at,
                    items * s.floats * sizeof(float));
}

void PlanExecutor::run(size_t items)
{
    MIXQ_ASSERT(items >= 1 && items <= maxItems_,
                "PlanExecutor::run: batch exceeds the planned maximum");
    if (prefix_ > 0)
        runPrefix(items);
    const std::vector<StepViews>& vs = viewsByN_[items];
    for (size_t si = prefix_; si < steps_.size(); ++si)
        exec(steps_[si], vs[si].in, vs[si].out);
}

void PlanExecutor::exec(const StepExec& se, const TensorView& x,
                        const TensorView& y)
{
    switch (se.op) {
    case Op::Linear:
        static_cast<const Linear*>(se.mod)->forwardServe(x, y, *se.lin);
        break;
    case Op::Conv:
        static_cast<const Conv2d*>(se.mod)->forwardServe(x, y, *se.conv);
        break;
    case Op::DwConv:
        static_cast<const DwConv2d*>(se.mod)->forwardServe(x, y,
                                                           *se.conv);
        break;
    case Op::Bn:
        static_cast<const BatchNorm2d*>(se.mod)->forwardServe(x, y,
                                                              *se.bn);
        break;
    case Op::Relu:
        static_cast<const ReLU*>(se.mod)->forwardServe(x, y);
        break;
    case Op::MaxPool:
        static_cast<const MaxPool2d*>(se.mod)->forwardServe(x, y);
        break;
    case Op::Gap:
        static_cast<const GlobalAvgPool*>(se.mod)->forwardServe(x, y);
        break;
    case Op::Flatten:
        // Flatten's eval forward is a copy + reshape; the view
        // already carries the flattened shape.
        std::memcpy(y.data, x.data, x.size() * sizeof(float));
        break;
    case Op::Embedding:
        static_cast<const Embedding*>(se.mod)->forwardServe(x, y);
        break;
    case Op::Lstm:
        static_cast<const Lstm*>(se.mod)->forwardServe(x, y, *se.rnn);
        break;
    case Op::Gru:
        static_cast<const Gru*>(se.mod)->forwardServe(x, y, *se.rnn);
        break;
    case Op::ResidualAdd: {
        // Replicates the blocks' in-place `h.add(s)`.
        const size_t len = y.size();
        MIXQ_ASSERT(x.size() == len,
                    "PlanExecutor: residual shape mismatch");
        float* dst = y.data;
        const float* src = x.data;
        for (size_t i = 0; i < len; ++i)
            dst[i] += src[i];
        break;
    }
    case Op::SliceLast: {
        // Last timestep of a [T, N, H] buffer into [N, H].
        const size_t t = x.dim(0);
        const size_t nn = x.dim(1);
        const size_t h = x.dim(2);
        std::memcpy(y.data, x.data + (t - 1) * nn * h,
                    nn * h * sizeof(float));
        break;
    }
    }
}

} // namespace mixq
