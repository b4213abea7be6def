#include "serve/planner.hh"

#include <algorithm>
#include <numeric>
#include <typeinfo>

#include "nn/blocks.hh"
#include "nn/layers.hh"
#include "nn/rnn.hh"
#include "nn/rnn_models.hh"
#include "util/logging.hh"

namespace mixq {

namespace {

constexpr size_t kPlanAlign = 64;

size_t
alignUp(size_t v, size_t a)
{
    return (v + a - 1) & ~(a - 1);
}

struct Ctx
{
    ServePlan plan;
};

size_t
emit(Ctx& c, std::string name, std::vector<size_t> shape)
{
    PlanBuffer b;
    b.name = std::move(name);
    b.bytes = shapeSize(shape) * sizeof(float);
    b.shape = std::move(shape);
    b.def = c.plan.buffers.size();
    b.lastUse = b.def;
    c.plan.buffers.push_back(std::move(b));
    return c.plan.buffers.size() - 1;
}

void
use(Ctx& c, size_t idx, size_t consumer)
{
    PlanBuffer& b = c.plan.buffers[idx];
    if (consumer > b.lastUse)
        b.lastUse = consumer;
}

void
step(Ctx& c, PlanStep::Kind kind, Module* mod, size_t in, size_t out)
{
    PlanStep s;
    s.kind = kind;
    s.mod = mod;
    s.in = in;
    s.out = out;
    c.plan.steps.push_back(s);
}

size_t
convOutDim(size_t h, size_t k, size_t s, size_t p)
{
    return (h + 2 * p - k) / s + 1;
}

std::string
joinPath(const std::string& a, const std::string& b)
{
    return a.empty() ? b : a + "." + b;
}

size_t walk(Ctx& c, Module& m, const std::string& path, size_t in);

/** Chain a composite's named children in order. */
size_t
walkChain(Ctx& c, Module& m, const std::string& path, size_t in)
{
    size_t h = in;
    for (const NamedChild& nc : m.namedChildren())
        h = walk(c, *nc.mod, joinPath(path, nc.name), h);
    return h;
}

Module*
childByName(Module& m, const std::string& name)
{
    for (const NamedChild& nc : m.namedChildren())
        if (nc.name == name)
            return nc.mod;
    return nullptr;
}

size_t
walkNamed(Ctx& c, Module& m, const std::string& path,
          const char* name, size_t in)
{
    Module* k = childByName(m, name);
    MIXQ_ASSERT(k != nullptr, std::string("planner: missing child ") +
                                  name);
    return walk(c, *k, joinPath(path, name), in);
}

size_t
walk(Ctx& c, Module& m, const std::string& path, size_t in)
{
    const std::vector<size_t> shape = c.plan.buffers[in].shape;

    if (auto* bb = dynamic_cast<BasicBlock*>(&m)) {
        size_t h = in;
        for (const char* n : {"conv1", "bn1", "relu1", "conv2", "bn2"})
            h = walkNamed(c, *bb, path, n, h);
        size_t s = in;
        if (childByName(*bb, "downConv")) {
            s = walkNamed(c, *bb, path, "downConv", in);
            s = walkNamed(c, *bb, path, "downBn", s);
        }
        // h.add(s) runs in place right before reluOut: the shortcut
        // buffer stays live until reluOut's output is defined.
        use(c, s, c.plan.buffers.size());
        step(c, PlanStep::Kind::ResidualAdd, nullptr, s, h);
        return walkNamed(c, *bb, path, "reluOut", h);
    }
    if (auto* ir = dynamic_cast<InvertedResidual*>(&m)) {
        size_t h = walkChain(c, *ir, path, in);
        // Skip connection (stride 1, equal channels): in-place add
        // into the bn3 output keeps the block input live until then.
        if (c.plan.buffers[h].shape == shape) {
            use(c, in, c.plan.buffers[h].def);
            step(c, PlanStep::Kind::ResidualAdd, nullptr, in, h);
        }
        return h;
    }
    if (auto* lc = dynamic_cast<LstmClassifier*>(&m)) {
        MIXQ_ASSERT(shape.size() == 2, "planner: LstmClassifier input");
        size_t h = in;
        for (const NamedChild& nc : lc->namedChildren()) {
            if (nc.name == "head")
                break;
            h = walk(c, *nc.mod, joinPath(path, nc.name), h);
        }
        // Last-timestep slice [N, H] feeds the head.
        const std::vector<size_t>& hs = c.plan.buffers[h].shape;
        size_t last = emit(c, joinPath(path, "last"), {hs[1], hs[2]});
        use(c, h, last);
        step(c, PlanStep::Kind::SliceLast, nullptr, h, last);
        return walkNamed(c, *lc, path, "head", last);
    }
    if (dynamic_cast<LstmLm*>(&m) || dynamic_cast<GruTagger*>(&m) ||
        dynamic_cast<Sequential*>(&m)) {
        // Pure chains; the pre-head reshape is in place (no buffer)
        // and the Linear leaf collapses leading dims itself.
        return walkChain(c, m, path, in);
    }

    if (auto* cv = dynamic_cast<Conv2d*>(&m)) {
        MIXQ_ASSERT(shape.size() == 4 && shape[1] == cv->inChannels(),
                    "planner: Conv2d input shape");
        size_t oh = convOutDim(shape[2], cv->kernel(), cv->stride(),
                               cv->pad());
        size_t ow = convOutDim(shape[3], cv->kernel(), cv->stride(),
                               cv->pad());
        size_t out = emit(c, path,
                          {shape[0], cv->outChannels(), oh, ow});
        use(c, in, out);
        step(c, PlanStep::Kind::Layer, &m, in, out);
        LayerSpec ls;
        ls.name = path;
        ls.kind = LayerKind::Conv;
        ls.m = shape[0] * oh * ow;
        ls.k = cv->inChannels() * cv->kernel() * cv->kernel();
        ls.n = cv->outChannels();
        c.plan.net.layers.push_back(ls);
        return out;
    }
    if (auto* dw = dynamic_cast<DwConv2d*>(&m)) {
        MIXQ_ASSERT(shape.size() == 4 && shape[1] == dw->channels(),
                    "planner: DwConv2d input shape");
        size_t oh = convOutDim(shape[2], dw->kernel(), dw->stride(),
                               dw->pad());
        size_t ow = convOutDim(shape[3], dw->kernel(), dw->stride(),
                               dw->pad());
        size_t out = emit(c, path,
                          {shape[0], dw->channels(), oh, ow});
        use(c, in, out);
        step(c, PlanStep::Kind::Layer, &m, in, out);
        LayerSpec ls;
        ls.name = path;
        ls.kind = LayerKind::DwConv;
        ls.m = shape[0] * oh * ow;
        ls.k = dw->kernel() * dw->kernel();
        ls.n = dw->channels();
        c.plan.net.layers.push_back(ls);
        return out;
    }
    if (dynamic_cast<BatchNorm2d*>(&m) || dynamic_cast<ReLU*>(&m)) {
        // Elementwise; folded BN still passes through as a copy.
        size_t out = emit(c, path, shape);
        use(c, in, out);
        step(c, PlanStep::Kind::Layer, &m, in, out);
        return out;
    }
    if (auto* mp = dynamic_cast<MaxPool2d*>(&m)) {
        MIXQ_ASSERT(shape.size() == 4, "planner: MaxPool2d input");
        size_t out = emit(c, path,
                          {shape[0], shape[1],
                           shape[2] / mp->window(),
                           shape[3] / mp->window()});
        use(c, in, out);
        step(c, PlanStep::Kind::Layer, &m, in, out);
        return out;
    }
    if (dynamic_cast<GlobalAvgPool*>(&m)) {
        MIXQ_ASSERT(shape.size() == 4, "planner: GlobalAvgPool input");
        size_t out = emit(c, path, {shape[0], shape[1]});
        use(c, in, out);
        step(c, PlanStep::Kind::Layer, &m, in, out);
        return out;
    }
    if (dynamic_cast<Flatten*>(&m)) {
        size_t out = emit(
            c, path,
            {shape[0], shapeSize(shape) / shape[0]});
        use(c, in, out);
        step(c, PlanStep::Kind::Layer, &m, in, out);
        return out;
    }
    if (auto* ln = dynamic_cast<Linear*>(&m)) {
        MIXQ_ASSERT(!shape.empty() &&
                        shape.back() == ln->inFeatures(),
                    "planner: Linear input shape");
        size_t rows = shapeSize(shape) / shape.back();
        size_t out = emit(c, path, {rows, ln->outFeatures()});
        use(c, in, out);
        step(c, PlanStep::Kind::Layer, &m, in, out);
        LayerSpec ls;
        ls.name = path;
        ls.kind = LayerKind::Linear;
        ls.m = rows;
        ls.k = ln->inFeatures();
        ls.n = ln->outFeatures();
        c.plan.net.layers.push_back(ls);
        return out;
    }
    if (auto* e = dynamic_cast<Embedding*>(&m)) {
        MIXQ_ASSERT(shape.size() == 2, "planner: Embedding input");
        size_t out = emit(c, path, {shape[0], shape[1], e->dim()});
        use(c, in, out);
        step(c, PlanStep::Kind::Layer, &m, in, out);
        return out;
    }
    if (auto* l = dynamic_cast<Lstm*>(&m)) {
        MIXQ_ASSERT(shape.size() == 3, "planner: Lstm input");
        size_t out =
            emit(c, path, {shape[0], shape[1], l->hidden()});
        use(c, in, out);
        step(c, PlanStep::Kind::Layer, &m, in, out);
        c.plan.net.layers.push_back(rnnInputGemm(
            path + ".wx", shape[2], 4 * l->hidden(), shape[0],
            shape[1]));
        c.plan.net.layers.push_back(rnnRecurrentGemm(
            path + ".wh", l->hidden(), 4 * l->hidden(), shape[0],
            shape[1]));
        return out;
    }
    if (auto* g = dynamic_cast<Gru*>(&m)) {
        MIXQ_ASSERT(shape.size() == 3, "planner: Gru input");
        size_t out =
            emit(c, path, {shape[0], shape[1], g->hidden()});
        use(c, in, out);
        step(c, PlanStep::Kind::Layer, &m, in, out);
        c.plan.net.layers.push_back(rnnInputGemm(
            path + ".wx", shape[2], 3 * g->hidden(), shape[0],
            shape[1]));
        c.plan.net.layers.push_back(rnnRecurrentGemm(
            path + ".wh", g->hidden(), 3 * g->hidden(), shape[0],
            shape[1]));
        return out;
    }

    panic(std::string("planner: unmodeled module type ") +
          typeid(m).name() + " at '" + (path.empty() ? "." : path) +
          "' — add a shape-transfer rule to serve/planner.cc");
}

bool
timeOverlap(const PlanBuffer& a, const PlanBuffer& b)
{
    return a.def <= b.lastUse && b.def <= a.lastUse;
}

} // namespace

size_t
assignSlabOffsets(std::vector<PlanBuffer>& bufs)
{
    std::vector<size_t> order(bufs.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&](size_t a, size_t b) {
                         return bufs[a].bytes > bufs[b].bytes;
                     });
    std::vector<size_t> placed;
    size_t extent = 0;
    for (size_t i : order) {
        PlanBuffer& b = bufs[i];
        // Byte ranges of already-placed buffers alive at the same
        // time, sorted by offset; first-fit below/between them.
        std::vector<std::pair<size_t, size_t>> busy;
        for (size_t j : placed)
            if (timeOverlap(b, bufs[j]))
                busy.emplace_back(bufs[j].offset,
                                  bufs[j].offset + bufs[j].bytes);
        std::sort(busy.begin(), busy.end());
        size_t off = 0;
        for (const auto& [s, e] : busy) {
            if (off + b.bytes <= s)
                break;
            if (e > off)
                off = alignUp(e, kPlanAlign);
        }
        b.offset = off;
        extent = std::max(extent, off + b.bytes);
        placed.push_back(i);
    }
    return alignUp(extent, kPlanAlign);
}

bool
ServePlan::validate(std::string* why) const
{
    for (size_t i = 0; i < buffers.size(); ++i) {
        const PlanBuffer& a = buffers[i];
        if (a.offset + a.bytes > peakBytes) {
            if (why)
                *why = "buffer '" + a.name +
                       "' ends past the plan's peakBytes";
            return false;
        }
        if (a.lastUse < a.def) {
            if (why)
                *why = "buffer '" + a.name +
                       "' has lastUse before def";
            return false;
        }
        for (size_t j = i + 1; j < buffers.size(); ++j) {
            const PlanBuffer& b = buffers[j];
            if (!timeOverlap(a, b))
                continue;
            bool disjoint = a.offset + a.bytes <= b.offset ||
                            b.offset + b.bytes <= a.offset;
            if (!disjoint) {
                if (why)
                    *why = "live buffers '" + a.name + "' and '" +
                           b.name + "' overlap in the slab";
                return false;
            }
        }
    }
    return true;
}

ServePlan
planServeForward(Module& root, const std::vector<size_t>& inShape)
{
    MIXQ_ASSERT(!inShape.empty() && shapeSize(inShape) > 0,
                "planner: empty input shape");
    Ctx c;
    c.plan.net.name = "serve";
    size_t inBuf = emit(c, "input", inShape);
    size_t outBuf = walk(c, root, "", inBuf);
    c.plan.outShape = c.plan.buffers[outBuf].shape;
    c.plan.outIndex = outBuf;
    c.plan.peakBytes = assignSlabOffsets(c.plan.buffers);
    std::string why;
    MIXQ_ASSERT(c.plan.validate(&why),
                "planner: invalid slab plan: " + why);
    return c.plan;
}

} // namespace mixq
