#include "layers.hh"

#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>

#include "compiler/runner.hh"
#include "fpga/design_point.hh"
#include "infer/qkernels.hh"
#include "nn/layers.hh"
#include "nn/rnn.hh"
#include "serial/deploy.hh"
#include "serve/executor.hh"
#include "serve/planner.hh"
#include "util/logging.hh"

using namespace mixq;

namespace perfbench {

namespace {

double
usBetween(Clock::time_point a, Clock::time_point b)
{
    return msBetween(a, b) * 1e3;
}

/** Median wall time of @p reps calls of @p fn, in microseconds. */
double
medianUs(size_t reps, const std::function<void()>& fn, Tracer& tracer,
         const char* span)
{
    std::vector<double> us;
    us.reserve(reps);
    for (size_t i = 0; i < reps; ++i) {
        Clock::time_point t0 = Clock::now();
        fn();
        Clock::time_point t1 = Clock::now();
        tracer.record(tracer.newId(), 0, span, t0, t1);
        us.push_back(usBetween(t0, t1));
    }
    return median(us);
}

/** Repetitions that fit @p budgetS for a call of @p oneUs, clamped. */
size_t
repsFor(double oneUs, double budgetS, size_t lo, size_t hi)
{
    double n = budgetS * 1e6 / std::max(oneUs, 1e-3);
    return std::clamp(size_t(n), lo, hi);
}

/** Write @p n pool items into a batched input buffer. */
void
gatherItems(ModelKind k, const Pool& pool, size_t n, float* dst)
{
    BatchTraits t = traitsOf(k);
    size_t per = pool.items[0].size();
    if (t.batchAxis == 0) {
        for (size_t i = 0; i < n; ++i)
            std::memcpy(dst + i * per, pool.items[i].data(),
                        per * sizeof(float));
        return;
    }
    // [T, N] id grid: row t holds every item's token t.
    for (size_t i = 0; i < n; ++i)
        for (size_t s = 0; s < per; ++s)
            dst[s * n + i] = pool.items[i].data()[s];
}

std::vector<size_t>
batchShape(ModelKind k, size_t n)
{
    BatchTraits t = traitsOf(k);
    std::vector<size_t> s = t.itemShape;
    s[t.batchAxis] = n;
    return s;
}

/**
 * Runs a plan one step at a time over buffers of its own (no slab
 * reuse), calling each leaf's public forwardServe exactly as the
 * executor lowers it. Lets every step be timed on its planned shapes
 * with realistic activations.
 */
class StepRunner
{
  public:
    StepRunner(Module& root, const std::vector<size_t>& inShape)
        : plan_(planServeForward(root, inShape))
    {
        for (const PlanBuffer& b : plan_.buffers)
            bufs_.emplace_back(shapeSize(b.shape), 0.0f);
        for (const PlanStep& ps : plan_.steps) {
            Scratch s;
            const std::vector<size_t>& in = plan_.buffers[ps.in].shape;
            if (ps.kind != PlanStep::Kind::Layer) {
            } else if (auto* ln = dynamic_cast<Linear*>(ps.mod)) {
                s.lin = std::make_unique<LinearServeScratch>();
                ln->prepareServe(*s.lin, shapeSize(in) / ln->inFeatures());
            } else if (auto* cv = dynamic_cast<Conv2d*>(ps.mod)) {
                s.conv = std::make_unique<ConvServeScratch>();
                cv->prepareServe(*s.conv, in);
            } else if (auto* dw = dynamic_cast<DwConv2d*>(ps.mod)) {
                s.conv = std::make_unique<ConvServeScratch>();
                dw->prepareServe(*s.conv, in);
            } else if (auto* bn = dynamic_cast<BatchNorm2d*>(ps.mod)) {
                s.bn = std::make_unique<BnServeScratch>();
                bn->prepareServe(*s.bn);
            } else if (auto* l = dynamic_cast<Lstm*>(ps.mod)) {
                s.rnn = std::make_unique<RnnServeScratch>();
                l->prepareServe(*s.rnn, in[1]);
            } else if (auto* g = dynamic_cast<Gru*>(ps.mod)) {
                s.rnn = std::make_unique<RnnServeScratch>();
                g->prepareServe(*s.rnn, in[1]);
            }
            scratch_.push_back(std::move(s));
        }
    }

    const ServePlan& plan() const { return plan_; }
    float* input() { return bufs_[0].data(); }
    const std::vector<float>& buffer(size_t i) const { return bufs_[i]; }

    void run(size_t si)
    {
        const PlanStep& ps = plan_.steps[si];
        TensorView x = view(ps.in), y = view(ps.out);
        Scratch& s = scratch_[si];
        if (ps.kind == PlanStep::Kind::ResidualAdd) {
            for (size_t i = 0; i < y.size(); ++i)
                y.data[i] += x.data[i];
        } else if (ps.kind == PlanStep::Kind::SliceLast) {
            size_t t = x.dim(0), nh = x.dim(1) * x.dim(2);
            std::memcpy(y.data, x.data + (t - 1) * nh,
                        nh * sizeof(float));
        } else if (auto* ln = dynamic_cast<const Linear*>(ps.mod)) {
            ln->forwardServe(x, y, *s.lin);
        } else if (auto* cv = dynamic_cast<const Conv2d*>(ps.mod)) {
            cv->forwardServe(x, y, *s.conv);
        } else if (auto* dw = dynamic_cast<const DwConv2d*>(ps.mod)) {
            dw->forwardServe(x, y, *s.conv);
        } else if (auto* bn = dynamic_cast<const BatchNorm2d*>(ps.mod)) {
            bn->forwardServe(x, y, *s.bn);
        } else if (auto* r = dynamic_cast<const ReLU*>(ps.mod)) {
            r->forwardServe(x, y);
        } else if (auto* mp = dynamic_cast<const MaxPool2d*>(ps.mod)) {
            mp->forwardServe(x, y);
        } else if (auto* gp = dynamic_cast<const GlobalAvgPool*>(ps.mod)) {
            gp->forwardServe(x, y);
        } else if (dynamic_cast<const Flatten*>(ps.mod)) {
            std::memcpy(y.data, x.data, x.size() * sizeof(float));
        } else if (auto* e = dynamic_cast<const Embedding*>(ps.mod)) {
            e->forwardServe(x, y);
        } else if (auto* l = dynamic_cast<const Lstm*>(ps.mod)) {
            l->forwardServe(x, y, *s.rnn);
        } else if (auto* g = dynamic_cast<const Gru*>(ps.mod)) {
            g->forwardServe(x, y, *s.rnn);
        } else {
            panic("perfbench: plan step with no serve lowering");
        }
    }

  private:
    struct Scratch
    {
        std::unique_ptr<LinearServeScratch> lin;
        std::unique_ptr<ConvServeScratch> conv;
        std::unique_ptr<BnServeScratch> bn;
        std::unique_ptr<RnnServeScratch> rnn;
    };

    TensorView view(size_t i)
    {
        return TensorView{bufs_[i].data(), plan_.buffers[i].shape};
    }

    ServePlan plan_;
    std::vector<std::vector<float>> bufs_;
    std::vector<Scratch> scratch_;
};

/** The LayerSpecs a plan attributes to step name @p step. */
std::vector<LayerSpec>
specsOf(const ServePlan& plan, const std::string& step)
{
    std::vector<LayerSpec> out;
    for (const LayerSpec& ls : plan.net.layers)
        if (ls.name == step || ls.name.rfind(step + ".", 0) == 0)
            out.push_back(ls);
    return out;
}

/** The packed int panel behind LayerSpec @p spec of module @p m. */
const PackedQMat*
panelOf(Module* m, const std::string& spec)
{
    bool wh = spec.size() > 3 &&
              spec.compare(spec.size() - 3, 3, ".wh") == 0;
    if (auto* ln = dynamic_cast<Linear*>(m))
        return &ln->packedQWeights();
    if (auto* cv = dynamic_cast<Conv2d*>(m))
        return &cv->packedQWeights();
    if (auto* dw = dynamic_cast<DwConv2d*>(m))
        return &dw->packedQWeights();
    if (auto* l = dynamic_cast<Lstm*>(m))
        return wh ? &l->packedQWh() : &l->packedQWx();
    return nullptr;
}

/** Eval-forward input for a step: the runner's buffer as a Tensor,
    flattened to [rows, in] for a Linear. */
Tensor
evalInput(const StepRunner& r, const PlanStep& ps)
{
    const PlanBuffer& b = r.plan().buffers[ps.in];
    Tensor x(b.shape);
    std::memcpy(x.data(), r.buffer(ps.in).data(),
                x.size() * sizeof(float));
    if (auto* ln = dynamic_cast<Linear*>(ps.mod))
        x.reshape({x.size() / ln->inFeatures(), ln->inFeatures()});
    return x;
}

struct StepTimes
{
    std::vector<double> stepUs; //!< per plan step, median
    double runUs = 0.0;         //!< PlanExecutor::run, median
};

/**
 * Alternate one timed PlanExecutor::run(n) with one full pass of the
 * StepRunner (every step timed on its own) for a fixed budget, so a
 * slow host phase lands on both sides of the coverage ratio.
 */
StepTimes
timeSteps(ModelKind k, Module& model, const Pool& pool, size_t n,
          StepRunner& runner, Tracer& tracer)
{
    BatchTraits t = traitsOf(k);
    PlanExecutor ex(model, t.itemShape, t.batchAxis, n);
    gatherItems(k, pool, n, ex.inputData());
    gatherItems(k, pool, n, runner.input());
    size_t steps = runner.plan().steps.size();
    for (size_t si = 0; si < steps; ++si) // fill every buffer once
        runner.run(si);
    Clock::time_point w0 = Clock::now();
    ex.run(n);
    size_t rounds = repsFor(usBetween(w0, Clock::now()), 0.4, 15, 400);

    std::vector<double> run;
    std::vector<std::vector<double>> per(steps);
    for (size_t r = 0; r < rounds; ++r) {
        Clock::time_point t0 = Clock::now();
        ex.run(n);
        Clock::time_point t1 = Clock::now();
        tracer.record(tracer.newId(), 0, "exec.run", t0, t1);
        run.push_back(usBetween(t0, t1));
        uint64_t pass = tracer.newId();
        Clock::time_point p0 = Clock::now();
        for (size_t si = 0; si < steps; ++si) {
            Clock::time_point s0 = Clock::now();
            runner.run(si);
            Clock::time_point s1 = Clock::now();
            tracer.record(tracer.newId(), pass, "step.serve", s0, s1);
            per[si].push_back(usBetween(s0, s1));
        }
        tracer.record(pass, 0, "step.pass", p0, Clock::now());
    }
    StepTimes st;
    st.runUs = median(run);
    for (auto& v : per)
        st.stepUs.push_back(median(v));
    return st;
}

} // namespace

void
measureSerial(ModelKind k, const Artifacts& art, Tracer& tracer,
              Metrics& out)
{
    constexpr size_t kReps = 7;
    std::vector<double> load, stage, apply, refuse;
    auto model = buildArch(k, 7);
    for (size_t i = 0; i < kReps; ++i) {
        auto fresh = buildArch(k, 7);
        size_t adopted = 0;
        Clock::time_point t0 = Clock::now();
        LoadResult r = tryLoadDeployArtifact(art.a, *fresh, adopted);
        Clock::time_point t1 = Clock::now();
        tracer.record(tracer.newId(), 0, "serial.load", t0, t1);
        if (!r.ok())
            fatal("perfbench: artifact A refused: " + r.message);
        load.push_back(msBetween(t0, t1));

        DeployStage st;
        t0 = Clock::now();
        r = stageDeployArtifact(i % 2 ? art.a : art.b, *model, st);
        t1 = Clock::now();
        tracer.record(tracer.newId(), 0, "serial.stage", t0, t1);
        if (!r.ok())
            fatal("perfbench: staging a good artifact failed: " +
                  r.message);
        stage.push_back(msBetween(t0, t1));
        t0 = Clock::now();
        st.apply(*model);
        t1 = Clock::now();
        tracer.record(tracer.newId(), 0, "serial.apply", t0, t1);
        apply.push_back(msBetween(t0, t1));

        DeployStage bad;
        t0 = Clock::now();
        r = stageDeployArtifact(art.damaged, *model, bad);
        t1 = Clock::now();
        tracer.record(tracer.newId(), 0, "serial.refuse", t0, t1);
        if (r.ok())
            fatal("perfbench: the damaged artifact was staged");
        refuse.push_back(msBetween(t0, t1));
    }
    out.push_back({"serial.load_ms", median(load), "ms"});
    out.push_back({"serial.stage_ms", median(stage), "ms"});
    out.push_back({"serial.apply_ms", median(apply), "ms"});
    out.push_back({"serial.refuse_ms", median(refuse), "ms"});
    out.push_back({"serial.artifact_bytes",
                   double(std::filesystem::file_size(art.a)), "bytes"});
}

double
measurePlanExec(ModelKind k, const Artifacts& art, const Pool& pool,
                size_t maxBatch, Tracer& tracer, Metrics& out)
{
    auto model = loadModel(k, art.a);
    BatchTraits t = traitsOf(k);
    ServePlan plan;
    double planUs = medianUs(
        15,
        [&] { plan = planServeForward(*model, batchShape(k, maxBatch)); },
        tracer, "plan");
    out.push_back({"plan.ms", planUs / 1e3, "ms"});
    out.push_back({"plan.peak_bytes", double(plan.peakBytes), "bytes"});

    std::unique_ptr<PlanExecutor> ex;
    double ctorUs = medianUs(
        9,
        [&] {
            ex.reset();
            ex = std::make_unique<PlanExecutor>(*model, t.itemShape,
                                                t.batchAxis, maxBatch);
        },
        tracer, "exec.ctor");
    out.push_back({"exec.ctor_ms", ctorUs / 1e3, "ms"});
    out.push_back({"exec.slab_bytes", double(ex->slabBytes()), "bytes"});
    out.push_back(
        {"exec.scratch_bytes", double(ex->scratchBytes()), "bytes"});

    // Interleave the three batch sizes so they share host phases.
    gatherItems(k, pool, maxBatch, ex->inputData());
    const size_t sizes[] = {1, 4, 16};
    std::vector<double> us[3];
    Clock::time_point w0 = Clock::now();
    ex->run(16);
    size_t rounds =
        repsFor(usBetween(w0, Clock::now()) * 1.5, 0.6, 15, 300);
    for (size_t r = 0; r < rounds; ++r)
        for (size_t i = 0; i < 3; ++i) {
            Clock::time_point t0 = Clock::now();
            ex->run(sizes[i]);
            Clock::time_point t1 = Clock::now();
            tracer.record(tracer.newId(), 0, "exec.run", t0, t1);
            us[i].push_back(usBetween(t0, t1));
        }
    for (size_t i = 0; i < 3; ++i)
        out.push_back({"exec.run_us.b" + std::to_string(sizes[i]),
                       median(us[i]), "us"});
    return median(us[0]);
}

void
measureSteps(ModelKind k, const Artifacts& art, const Pool& pool,
             Tracer& tracer, Metrics& out, bool coverage)
{
    auto model = loadModel(k, art.a);
    StepRunner r1(*model, batchShape(k, 1));
    StepRunner r16(*model, batchShape(k, 16));
    StepTimes t1 = timeSteps(k, *model, pool, 1, r1, tracer);
    StepTimes t16 = timeSteps(k, *model, pool, 16, r16, tracer);
    if (coverage) {
        double s1 = 0.0, s16 = 0.0;
        for (double v : t1.stepUs)
            s1 += v;
        for (double v : t16.stepUs)
            s16 += v;
        out.push_back({"exec.step_coverage.b1", s1 / t1.runUs, "ratio"});
        out.push_back(
            {"exec.step_coverage.b16", s16 / t16.runUs, "ratio"});
    }

    const DesignPoint& dp = designPointByName("D1-3");
    Rng codeRng(5);
    const ServePlan& p1 = r1.plan();
    const ServePlan& p16 = r16.plan();
    for (size_t si = 0; si < p16.steps.size(); ++si) {
        const PlanStep& ps = p16.steps[si];
        const std::string& step = p16.buffers[ps.out].name;
        std::vector<LayerSpec> specs16 = specsOf(p16, step);
        if (ps.kind != PlanStep::Kind::Layer || specs16.empty())
            continue;
        std::string key = std::string(modelName(k)) + "." + step;
        out.push_back({key + ".serve_us.b1", t1.stepUs[si], "us"});
        out.push_back({key + ".serve_us.b16", t16.stepUs[si], "us"});

        Tensor x = evalInput(r16, ps);
        double evalUs = medianUs(
            repsFor(t16.stepUs[si], 0.1, 9, 200),
            [&] { (void)ps.mod->forward(x, false); }, tracer,
            "step.eval");
        out.push_back({key + ".eval_us.b16", evalUs, "us"});

        // qgemm16 on the packed panel at one item's m, repeated as
        // the b1 LayerSpec repeats it (recurrent timesteps).
        double qUs = 0.0;
        for (const LayerSpec& ls : specsOf(p1, step)) {
            const PackedQMat* w = panelOf(ps.mod, ls.name);
            if (!w || w->rows() == 0)
                fatal("perfbench: no packed panel for " + ls.name);
            std::vector<int16_t> acts(w->cols() * ls.m);
            for (int16_t& a : acts)
                a = int16_t(int(codeRng.uniform(0.0, 15.0)) - 7);
            std::vector<int32_t> acc(w->rows() * ls.m);
            double one = medianUs(
                200,
                [&] { qgemm16(*w, acts.data(), ls.m, acc.data()); },
                tracer, "step.qgemm16");
            qUs += one * double(ls.repeat);
        }
        out.push_back({key + ".qgemm_us.b1", qUs, "us"});

        NetworkSpec net;
        net.name = key;
        net.layers = specs16;
        out.push_back({key + ".gops.b16",
                       net.ops() / (t16.stepUs[si] * 1e3), "GOP/s"});
        NetworkPerf perf = simulateNetwork(net, dp);
        out.push_back({key + ".sim_cycles", double(perf.cycles), "cycles"});
    }
}

} // namespace perfbench
