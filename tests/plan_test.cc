/**
 * @file
 * Ahead-of-time plan and plan-execution tests: the per-thread heap
 * counter behind every zero-allocation assertion, liveness-overlap
 * rejection in ServePlan::validate(), the greedy offset assignment
 * against an analytic hand case, plan byte-stability across replans,
 * the headline PlanExecutor property — a steady-state run allocates
 * nothing and is bit-identical to the eval forward — weight sharing
 * between executors, and the construction-time panic (with the
 * module's dotted path) on a model the planner cannot lower, which
 * is the serving contract: there is no fallback path.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "infer/session.hh"
#include "nn/models.hh"
#include "nn/rnn_models.hh"
#include "nn/trainer.hh"
#include "serve/executor.hh"
#include "serve/heap_count.hh"
#include "serve/planner.hh"
#include "serve/server.hh"
#include "util/rng.hh"

namespace mixq {
namespace {

TEST(HeapCount, ScopedHeapAllocCountSeesHeapTraffic)
{
    ScopedHeapAllocCount c;
    EXPECT_EQ(c.count(), 0u);
    char* p = new char[100];
    // Keep the pointer observable so the optimizer cannot elide the
    // new/delete pair (C++14 allocation elision).
    asm volatile("" : : "r"(p) : "memory");
    EXPECT_GE(c.count(), 1u);
    EXPECT_GE(c.bytes(), 100u);
    delete[] p;
}

namespace {

PlanBuffer
buf(const char* name, size_t bytes, size_t def, size_t lastUse,
    size_t offset = 0)
{
    PlanBuffer b;
    b.name = name;
    b.shape = {bytes / sizeof(float)};
    b.bytes = bytes;
    b.def = def;
    b.lastUse = lastUse;
    b.offset = offset;
    return b;
}

} // namespace

TEST(ServePlanValidate, RejectsOverlapOfLiveBuffers)
{
    ServePlan p;
    p.buffers.push_back(buf("a", 256, 0, 1, 0));
    p.buffers.push_back(buf("b", 256, 1, 2, 0)); // alive with a, same
                                                 // bytes — invalid
    p.peakBytes = 1024;
    std::string why;
    EXPECT_FALSE(p.validate(&why));
    EXPECT_NE(why.find("overlap"), std::string::npos);

    p.buffers[1].offset = 256; // disjoint ranges — valid
    EXPECT_TRUE(p.validate(&why)) << why;

    // Non-overlapping lifetimes may share bytes.
    p.buffers[1].def = 2;
    p.buffers[1].lastUse = 3;
    p.buffers[1].offset = 0;
    EXPECT_TRUE(p.validate(&why)) << why;

    // A buffer past peakBytes is invalid even without overlap.
    p.buffers[1].offset = 1000;
    EXPECT_FALSE(p.validate(&why));
    EXPECT_NE(why.find("peakBytes"), std::string::npos);
}

TEST(AssignSlabOffsets, MatchesAnalyticHandCase)
{
    // Chain a -> b -> c: a and b overlap, b and c overlap, a and c
    // do not — c reuses a's bytes, b packs above the larger of them.
    std::vector<PlanBuffer> bufs;
    bufs.push_back(buf("a", 1000, 0, 1));
    bufs.push_back(buf("b", 500, 1, 2));
    bufs.push_back(buf("c", 900, 2, 2));
    size_t peak = assignSlabOffsets(bufs);

    EXPECT_EQ(bufs[0].offset, 0u);
    EXPECT_EQ(bufs[2].offset, 0u); // reuses a's range
    EXPECT_EQ(bufs[1].offset, 1024u); // align64(1000)
    EXPECT_EQ(peak, 1536u); // align64(1024 + 500)

    ServePlan p;
    p.buffers = bufs;
    p.peakBytes = peak;
    std::string why;
    EXPECT_TRUE(p.validate(&why)) << why;
}

TEST(Planner, MiniResNetPlanIsValidAndByteStable)
{
    Rng rng(71);
    auto model = makeMiniResNet(4, rng);
    ServePlan p1 = planServeForward(*model, {8, 3, 12, 12});

    ASSERT_EQ(p1.outShape, (std::vector<size_t>{8, 4}));
    EXPECT_GT(p1.peakBytes, 0u);
    EXPECT_FALSE(p1.buffers.empty());
    EXPECT_FALSE(p1.net.layers.empty());
    std::string why;
    EXPECT_TRUE(p1.validate(&why)) << why;
    // The packed peak must beat keeping every buffer alive at once.
    size_t total = 0;
    for (const PlanBuffer& b : p1.buffers)
        total += b.bytes;
    EXPECT_LT(p1.peakBytes, total);

    // Replanning is deterministic field for field.
    ServePlan p2 = planServeForward(*model, {8, 3, 12, 12});
    ASSERT_EQ(p2.buffers.size(), p1.buffers.size());
    EXPECT_EQ(p2.peakBytes, p1.peakBytes);
    for (size_t i = 0; i < p1.buffers.size(); ++i) {
        EXPECT_EQ(p2.buffers[i].name, p1.buffers[i].name);
        EXPECT_EQ(p2.buffers[i].shape, p1.buffers[i].shape);
        EXPECT_EQ(p2.buffers[i].def, p1.buffers[i].def);
        EXPECT_EQ(p2.buffers[i].lastUse, p1.buffers[i].lastUse);
        EXPECT_EQ(p2.buffers[i].offset, p1.buffers[i].offset);
    }
}

TEST(Planner, RnnModelsPlanWithTimeMajorShapes)
{
    Rng rng(72);
    size_t vocab = 20, t = 6, n = 8;
    LstmLm lm(vocab, 10, 16, 2, rng);
    ServePlan lp = planServeForward(lm, {t, n});
    EXPECT_EQ(lp.outShape, (std::vector<size_t>{t * n, vocab}));
    std::string why;
    EXPECT_TRUE(lp.validate(&why)) << why;

    GruTagger tagger(12, 16, 2, 5, rng);
    ServePlan gp = planServeForward(tagger, {t, n, 12});
    EXPECT_EQ(gp.outShape, (std::vector<size_t>{t * n, 5}));
    EXPECT_TRUE(gp.validate(&why)) << why;

    LstmClassifier clf(vocab, 10, 16, 1, 2, rng);
    ServePlan cp = planServeForward(clf, {t, n});
    EXPECT_EQ(cp.outShape, (std::vector<size_t>{n, 2}));
    EXPECT_TRUE(cp.validate(&why)) << why;
}

// The executed plan's headline property: a steady-state PlanExecutor
// run allocates nothing at all, because every activation lands at its
// planned slab offset and all scratch was ctor-sized. Offsets are
// stable across requests, and the result is bit-identical to the eval
// forward.
TEST(PlanExecutor, SteadyStateRunAllocatesNothingAtAll)
{
    Rng dataRng(75);
    Tensor x = Tensor::randn({8, 3, 12, 12}, dataRng, 1.0);
    for (float& v : x.span())
        v = v < 0.0f ? -v : v;

    Rng rng(76);
    auto model = makeMiniResNet(4, rng);
    QConfig cfg;
    QatContext qat(cfg);
    qat.attach(model->params());
    model->setActQuant(cfg.actBits, true);
    model->forward(x, true); // calibrate
    qat.finalize();
    applyInferBackend(*model, InferBackend::Int, &qat);
    Tensor ref = model->forward(x, false);

    PlanExecutor exec(*model, {1, 3, 12, 12}, 0, 8);
    // The input buffer's slab range is recycled by later buffers
    // (liveness packing), so every run re-gathers its input — the
    // same contract the server's gatherInto follows.
    // Warmup: the GEMM backend's thread_local packing buffers reach
    // steady capacity on this thread during the first runs.
    std::copy_n(x.data(), x.size(), exec.inputData());
    exec.run(8);
    std::copy_n(x.data(), x.size(), exec.inputData());
    exec.run(8);
    const float* outBefore = exec.outputData();

    ScopedHeapAllocCount heap;
    std::copy_n(x.data(), x.size(), exec.inputData());
    exec.run(8);
    EXPECT_EQ(heap.count(), 0u)
        << "steady-state planned run hit the heap";

    // Offsets are the planner's — stable across requests.
    EXPECT_EQ(exec.outputData(), outBefore);

    ASSERT_EQ(exec.outputShape(8), ref.shape());
    const float* got = exec.outputData();
    for (size_t i = 0; i < ref.size(); ++i)
        ASSERT_EQ(got[i], ref[i]) << "index " << i;
}

// Weight sharing: a second executor over the same model packs
// nothing — both read the very same PackedQMat panel storage — so n
// replicas cost one model plus n (slab + scratch) plans.
TEST(PlanExecutor, ReplicasShareOneWeightCopy)
{
    Rng dataRng(77);
    Tensor x = Tensor::randn({4, 3, 12, 12}, dataRng, 1.0);
    for (float& v : x.span())
        v = v < 0.0f ? -v : v;

    Rng rng(78);
    auto model = makeMiniResNet(4, rng);
    QConfig cfg;
    QatContext qat(cfg);
    qat.attach(model->params());
    model->setActQuant(cfg.actBits, true);
    model->forward(x, true); // calibrate
    qat.finalize();
    applyInferBackend(*model, InferBackend::Int, &qat);

    std::vector<const PackedQMat*> packs;
    forEachNamedModule(*model, [&](const std::string&, Module& m) {
        if (auto* c = dynamic_cast<Conv2d*>(&m))
            packs.push_back(&c->packedQWeights());
        else if (auto* l = dynamic_cast<Linear*>(&m))
            packs.push_back(&l->packedQWeights());
    });
    ASSERT_FALSE(packs.empty());

    PlanExecutor a(*model, {1, 3, 12, 12}, 0, 4);
    std::vector<uint64_t> counts;
    for (const PackedQMat* p : packs) {
        EXPECT_GE(p->packCount(), 1u);
        counts.push_back(p->packCount());
    }

    // The second replica finds every panel current: zero repacks.
    PlanExecutor b(*model, {1, 3, 12, 12}, 0, 4);
    for (size_t i = 0; i < packs.size(); ++i)
        EXPECT_EQ(packs[i]->packCount(), counts[i])
            << "second executor repacked panel " << i;

    // Private slabs, shared weights, identical bits.
    EXPECT_NE(a.inputData(), b.inputData());
    std::copy_n(x.data(), x.size(), a.inputData());
    std::copy_n(x.data(), x.size(), b.inputData());
    a.run(4);
    b.run(4);
    const float* ya = a.outputData();
    const float* yb = b.outputData();
    size_t n = shapeSize(a.outputShape(4));
    for (size_t i = 0; i < n; ++i)
        ASSERT_EQ(ya[i], yb[i]) << "index " << i;
}

/** A module the planner has no shape-transfer rule for. */
struct UnmodeledModule : Module
{
    Tensor forward(const Tensor& x, bool) override { return x; }
    Tensor backward(const Tensor& gy) override { return gy; }
};

// The planner refuses silently-wrong plans: an unmodeled module
// panics with its dotted path so the failure names the offender.
TEST(PlannerDeath, UnmodeledModulePanicsWithDottedPath)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    Rng rng(79);
    Sequential seq;
    seq.add(std::make_unique<Linear>(8, 8, rng));
    seq.add(std::make_unique<UnmodeledModule>());
    EXPECT_DEATH(planServeForward(seq, {2, 8}),
                 "unmodeled module type .* at '1'");
    // The server plans at construction and has no fallback path.
    EXPECT_DEATH(BatchServer(seq, 1, BatchTraits{{1, 8}, 0, false},
                             ServeOptions{}),
                 "unmodeled module type .* at '1'");
}

} // namespace
} // namespace mixq
