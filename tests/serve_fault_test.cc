/**
 * @file
 * Chaos matrix for the serving fault-tolerance layer (serve/fault.hh
 * drives deterministic injections; see ARCHITECTURE.md "Failure
 * model"). Every test pins the same two invariants: (1) every future
 * submit() ever handed out settles — with the output or a structured
 * error — no matter which fault fires, and the process never aborts;
 * (2) once the fault is behind us, a healthy request's output is
 * bit-identical to a fault-free run. The matrix: a worker forward
 * that throws (batch fails, worker survives), a worker killed
 * permanently (survivor drains; last death fails everything instead
 * of hanging), a warmup allocation failure, per-request deadline
 * expiry under a stalled worker, and hot reload refusing a damaged or
 * mismatched artifact while a good one swaps in.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <future>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "infer/session.hh"
#include "nn/models.hh"
#include "nn/trainer.hh"
#include "serial/deploy.hh"
#include "serve/fault.hh"
#include "serve/server.hh"
#include "util/rng.hh"

namespace mixq {
namespace {

void
expectBitEqual(const Tensor& got, const Tensor& ref)
{
    ASSERT_EQ(got.shape(), ref.shape());
    for (size_t i = 0; i < ref.size(); ++i)
        ASSERT_EQ(got[i], ref[i]) << "index " << i;
}

/** Contiguous item slice of a batch-axis-0 tensor [N, ...]. */
Tensor
sliceAxis0(const Tensor& x, size_t off, size_t k)
{
    std::vector<size_t> s = x.shape();
    s[0] = k;
    Tensor o(std::move(s));
    size_t row = x.size() / x.dim(0);
    std::copy_n(x.data() + off * row, k * row, o.data());
    return o;
}

/** QAT-calibrate @p model on @p x and switch it to the Int backend. */
void
toIntBackend(Module& model, const Tensor& x)
{
    QConfig cfg;
    QatContext qat(cfg);
    qat.attach(model.params());
    model.setActQuant(cfg.actBits, true);
    model.forward(x, true); // calibrate
    qat.finalize();
    applyInferBackend(model, InferBackend::Int, &qat);
}

Tensor
cnnData(uint64_t seed = 81)
{
    Rng rng(seed);
    Tensor x = Tensor::randn({8, 3, 12, 12}, rng, 1.0);
    for (float& v : x.span())
        v = v < 0.0f ? -v : v;
    return x;
}

BatchTraits
cnnTraits()
{
    BatchTraits traits;
    traits.itemShape = {1, 3, 12, 12};
    return traits;
}

/** A MiniResNet on the Int backend, deterministic in @p seed. */
std::unique_ptr<Module>
intResNet(uint64_t seed, const Tensor& calib, size_t base = 8)
{
    Rng rng(seed);
    auto model = makeMiniResNet(4, rng, base);
    toIntBackend(*model, calib);
    return model;
}

std::string
tmpPath(const std::string& name)
{
    return testing::TempDir() + "mixq_fault_" + name;
}

/** Calibrate a fresh MiniResNet(seed) and write its deploy artifact. */
std::string
writeArtifact(const std::string& name, uint64_t seed,
              const Tensor& calib, size_t base = 8)
{
    Rng rng(seed);
    auto model = makeMiniResNet(4, rng, base);
    QConfig cfg;
    QatContext qat(cfg);
    qat.attach(model->params());
    model->setActQuant(cfg.actBits, true);
    model->forward(calib, true);
    qat.finalize();
    applyInferBackend(*model, InferBackend::Int, &qat);
    const std::string path = tmpPath(name);
    saveDeployArtifact(path, *model, qat);
    return path;
}

/** The ServeError code a settled-with-error future carries. */
ServeError::Code
errorCode(std::future<Tensor>& f)
{
    try {
        f.get();
    } catch (const ServeError& e) {
        return e.code();
    } catch (const std::exception& e) {
        ADD_FAILURE() << "expected ServeError, got: " << e.what();
        return ServeError::Code::Stopped;
    }
    ADD_FAILURE() << "future resolved with a value, expected an error";
    return ServeError::Code::Stopped;
}

/** Disarms on scope exit so a failing ASSERT cannot leak an armed
    plan into the next test. */
struct ArmedPlan
{
    explicit ArmedPlan(const FaultPlan& p) { armFaultPlan(p); }
    ~ArmedPlan() { disarmFaultPlan(); }
};

TEST(ServeFault, ForwardThrowFailsOnlyItsBatchAndWorkerKeepsServing)
{
    Tensor x = cnnData();
    auto model = intResNet(82, x);
    std::vector<Tensor> refs;
    for (size_t i = 0; i < 6; ++i)
        refs.push_back(model->forward(sliceAxis0(x, i, 1), false));

    FaultPlan plan;
    plan.throwInForwardAtBatch = 2;
    ArmedPlan armed(plan);

    ServeOptions opt;
    opt.deadlineUs = 0; // one request per batch: request i = batch i
    BatchServer server(*model, 1, cnnTraits(), opt);

    // Serve sequentially so the global batch sequence is the request
    // index. Batch 2 must fail with the injected error; every other
    // batch — including the ones after the fault — must be
    // bit-identical to the fault-free forward.
    for (size_t i = 0; i < 6; ++i) {
        SubmitResult r = server.submit(sliceAxis0(x, i, 1));
        ASSERT_EQ(r.status, ServeStatus::Accepted) << "request " << i;
        if (i == 2) {
            EXPECT_THROW(r.future.get(), FaultInjected);
        } else {
            Tensor got = r.future.get();
            expectBitEqual(got, refs[i]);
        }
    }

    // The worker surviving the fault is observable: it still serves,
    // bit-identically (stats are read after stop() joins it — the
    // success counters trail the futures settling).
    SubmitResult after = server.submit(sliceAxis0(x, 0, 1));
    ASSERT_EQ(after.status, ServeStatus::Accepted)
        << "a contained fault must not retire the worker";
    expectBitEqual(after.future.get(), refs[0]);
    server.stop(true);

    BatchServer::Stats st = server.stats();
    EXPECT_EQ(st.faults, 1u);
    EXPECT_EQ(st.failed, 1u);
    EXPECT_EQ(st.requests, 6u);
}

TEST(ServeFault, KilledWorkerLeavesSurvivorDrainingTheQueue)
{
    Tensor x = cnnData();
    auto model = intResNet(82, x);
    std::vector<Tensor> refs;
    for (size_t i = 0; i < 8; ++i)
        refs.push_back(model->forward(sliceAxis0(x, i, 1), false));

    FaultPlan plan;
    plan.killWorkerAtBatch = 1;
    ArmedPlan armed(plan);

    ServeOptions opt;
    opt.deadlineUs = 0;
    BatchServer server(*model, 2, cnnTraits(), opt);

    // Burst-submit; exactly one batch draws sequence number 1 and its
    // worker dies serving it. Whichever worker that was, the other
    // must drain everything else.
    std::vector<std::future<Tensor>> futs;
    for (size_t i = 0; i < 8; ++i) {
        SubmitResult r = server.submit(sliceAxis0(x, i, 1));
        ASSERT_EQ(r.status, ServeStatus::Accepted);
        futs.push_back(std::move(r.future));
    }

    size_t killed = 0, served = 0;
    for (size_t i = 0; i < futs.size(); ++i) {
        try {
            Tensor got = futs[i].get();
            expectBitEqual(got, refs[i]);
            ++served;
        } catch (const FaultInjected&) {
            ++killed;
        }
    }
    EXPECT_EQ(killed, 1u);
    EXPECT_EQ(served, 7u);

    // The survivor still serves, bit-identically.
    SubmitResult after = server.submit(sliceAxis0(x, 0, 1));
    ASSERT_EQ(after.status, ServeStatus::Accepted);
    expectBitEqual(after.future.get(), refs[0]);

    // The dead worker's exit bookkeeping may trail its batch's future
    // by an instant — poll for it rather than racing it.
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (server.stats().workersAlive != 1 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_EQ(server.stats().workersAlive, 1u);
    server.stop(true);
    EXPECT_EQ(server.stats().faults, 1u);
}

TEST(ServeFault, LastWorkerDeathFailsEverythingInsteadOfHanging)
{
    Tensor x = cnnData();
    auto model = intResNet(82, x);

    FaultPlan plan;
    plan.killWorkerAtBatch = 0;
    ArmedPlan armed(plan);

    ServeOptions opt;
    opt.deadlineUs = 0;
    BatchServer server(*model, 1, cnnTraits(), opt);

    std::vector<std::future<Tensor>> futs;
    for (size_t i = 0; i < 5; ++i)
        futs.push_back(server.submit(sliceAxis0(x, i, 1)).future);

    // Every future settles: one with the injected death, the rest
    // with a structured server error — never a hang.
    size_t killed = 0, orphaned = 0;
    for (auto& f : futs) {
        ASSERT_EQ(f.wait_for(std::chrono::seconds(60)),
                  std::future_status::ready)
            << "a future failed to settle after the last worker died";
        try {
            f.get();
            FAIL() << "no worker was alive to produce a value";
        } catch (const WorkerKillFault&) {
            ++killed;
        } catch (const ServeError& e) {
            EXPECT_TRUE(e.code() == ServeError::Code::WorkerFault ||
                        e.code() == ServeError::Code::Stopped);
            ++orphaned;
        }
    }
    EXPECT_EQ(killed, 1u);
    EXPECT_EQ(orphaned, 4u);
    EXPECT_EQ(server.stats().workersAlive, 0u);

    // Submission after total death is a deterministic rejection.
    SubmitResult r = server.submit(sliceAxis0(x, 0, 1));
    EXPECT_EQ(r.status, ServeStatus::Rejected);
    EXPECT_EQ(errorCode(r.future), ServeError::Code::Stopped);

    server.stop(true); // must return, not hang on dead workers
}

TEST(ServeFault, WarmupAllocationFailureRetiresTheWorkerCleanly)
{
    Tensor x = cnnData();
    auto model = intResNet(82, x);

    FaultPlan plan;
    plan.failWarmupAlloc = true;
    ArmedPlan armed(plan);

    ServeOptions opt;
    opt.deadlineUs = 0;
    BatchServer server(*model, 1, cnnTraits(), opt);

    // The worker dies in warmup before serving anything. Wait for the
    // death to be observed, then check the server degrades to
    // deterministic rejection instead of aborting or hanging.
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (server.stats().workersAlive != 0 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_EQ(server.stats().workersAlive, 0u);

    SubmitResult r = server.submit(sliceAxis0(x, 0, 1));
    EXPECT_EQ(r.status, ServeStatus::Rejected);
    EXPECT_EQ(errorCode(r.future), ServeError::Code::Stopped);
    server.stop(true);
}

TEST(ServeFault, DeadlineExpiryDropsQueuedRequestsBeforeGathering)
{
    Tensor x = cnnData();
    auto model = intResNet(82, x);
    std::vector<Tensor> refs;
    for (size_t i = 0; i < 6; ++i)
        refs.push_back(model->forward(sliceAxis0(x, i, 1), false));

    ServeOptions opt;
    opt.deadlineUs = 0;
    BatchServer server(*model, 1, cnnTraits(), opt);

    // Warm the server fault-free so the stall below is the only thing
    // slowing it down.
    expectBitEqual(server.submit(sliceAxis0(x, 0, 1)).future.get(),
                   refs[0]);

    // A 50ms stall per batch against 1ms request deadlines: whatever
    // is still queued when the worker comes back must be dropped as
    // expired, not gathered late.
    FaultPlan plan;
    plan.stallEveryBatchUs = 50'000;
    {
        ArmedPlan armed(plan);
        std::vector<std::future<Tensor>> futs;
        for (size_t i = 0; i < 6; ++i) {
            SubmitResult r = server.submit(sliceAxis0(x, i, 1), 1'000);
            ASSERT_EQ(r.status, ServeStatus::Accepted);
            futs.push_back(std::move(r.future));
        }
        size_t served = 0, expired = 0;
        for (size_t i = 0; i < futs.size(); ++i) {
            try {
                Tensor got = futs[i].get();
                expectBitEqual(got, refs[i]);
                ++served;
            } catch (const ServeError& e) {
                EXPECT_EQ(e.code(), ServeError::Code::Expired);
                ++expired;
            }
        }
        EXPECT_EQ(served + expired, 6u);
        EXPECT_GE(expired, 1u);
        EXPECT_EQ(server.stats().expired, expired);
    }

    // Fault gone, no deadline: healthy and bit-identical again.
    expectBitEqual(server.submit(sliceAxis0(x, 1, 1)).future.get(),
                   refs[1]);
    server.stop(true);
}

TEST(ServeFault, ReloadRefusesDamagedArtifactAndSwapsGoodOne)
{
    Tensor x = cnnData();
    const std::string artifactA = writeArtifact("reload_a.bin", 82, x);
    const std::string artifactB = writeArtifact("reload_b.bin", 97, x);
    const std::string artifactSmall =
        writeArtifact("reload_small.bin", 82, x, 4);

    // References: what models A and B answer when run directly.
    auto modelA = intResNet(82, x);
    auto modelB = intResNet(97, x);
    Tensor req = sliceAxis0(x, 2, 1);
    Tensor refA = modelA->forward(req, false);
    Tensor refB = modelB->forward(req, false);
    ASSERT_NE(std::memcmp(refA.data(), refB.data(),
                     refA.size() * sizeof(float)),
              0)
        << "fixture models must disagree for the swap to be visible";

    // Serve from a model that got its weights from artifact A.
    Rng rng(7);
    auto serving = makeMiniResNet(4, rng);
    loadDeployArtifact(artifactA, *serving);
    ServeOptions opt;
    opt.deadlineUs = 0;
    BatchServer server(*serving, 1, cnnTraits(), opt);
    expectBitEqual(server.submit(Tensor(req)).future.get(), refA);

    // Damaged file: precise failure class, old weights keep serving.
    {
        FaultPlan plan;
        plan.corruptOnRead = true;
        ArmedPlan armed(plan);
        LoadResult r = server.reloadArtifact(artifactA);
        EXPECT_EQ(r.status, LoadStatus::ChecksumMismatch)
            << r.message;
    }
    expectBitEqual(server.submit(Tensor(req)).future.get(), refA);

    // Wrong architecture: refused as a mismatch, still serving A.
    LoadResult mism = server.reloadArtifact(artifactSmall);
    EXPECT_EQ(mism.status, LoadStatus::Mismatch) << mism.message;
    expectBitEqual(server.submit(Tensor(req)).future.get(), refA);

    // Missing path: refused before touching the model.
    LoadResult miss = server.reloadArtifact(tmpPath("no_such.bin"));
    EXPECT_EQ(miss.status, LoadStatus::OpenFailed);

    // Good artifact: the swap takes and answers are model B's, bit
    // for bit.
    LoadResult ok = server.reloadArtifact(artifactB);
    EXPECT_TRUE(ok.ok()) << ok.message;
    expectBitEqual(server.submit(Tensor(req)).future.get(), refB);

    server.stop(true);
    for (const std::string& p : {artifactA, artifactB, artifactSmall})
        std::remove(p.c_str());
}

TEST(ServeFault, ReloadSwapsUnderTwoWorkers)
{
    Tensor x = cnnData();
    const std::string artifactB =
        writeArtifact("reload_planned_b.bin", 97, x);
    auto modelB = intResNet(97, x);
    Tensor req = sliceAxis0(x, 3, 1);
    Tensor refB = modelB->forward(req, false);

    auto serving = intResNet(82, x);
    Tensor refA = serving->forward(req, false);

    ServeOptions opt;
    opt.deadlineUs = 0;
    BatchServer server(*serving, size_t(2), cnnTraits(), opt);
    expectBitEqual(server.submit(Tensor(req)).future.get(), refA);

    LoadResult ok = server.reloadArtifact(artifactB);
    EXPECT_TRUE(ok.ok()) << ok.message;
    // Both workers must observe the swapped panels.
    for (int i = 0; i < 4; ++i)
        expectBitEqual(server.submit(Tensor(req)).future.get(), refB);

    server.stop(true);
    std::remove(artifactB.c_str());
}

// The same swap with a 3-thread team whatever OMP_NUM_THREADS says:
// the conv prefix runs on item lanes, whose one-item scratch restage()
// must refresh too. Multi-item requests spread over the lanes.
TEST(ServeFault, ReloadSwapsUnderPlannedLanes)
{
    Tensor x = cnnData();
    const std::string artifactB =
        writeArtifact("reload_lanes_b.bin", 97, x);
    auto modelB = intResNet(97, x);
    auto serving = intResNet(82, x);
    std::vector<Tensor> reqs, refsA, refsB;
    for (size_t k : {1, 5, 8}) {
        reqs.push_back(sliceAxis0(x, 0, k));
        refsA.push_back(serving->forward(reqs.back(), false));
        refsB.push_back(modelB->forward(reqs.back(), false));
    }

    ServeOptions opt;
    opt.deadlineUs = 0;
    opt.ompThreads = 3;
    BatchServer server(*serving, size_t(2), cnnTraits(), opt);
    for (size_t i = 0; i < reqs.size(); ++i)
        expectBitEqual(server.submit(Tensor(reqs[i])).future.get(),
                       refsA[i]);

    LoadResult ok = server.reloadArtifact(artifactB);
    EXPECT_TRUE(ok.ok()) << ok.message;
    for (int round = 0; round < 2; ++round)
        for (size_t i = 0; i < reqs.size(); ++i)
            expectBitEqual(server.submit(Tensor(reqs[i])).future.get(),
                           refsB[i]);

    server.stop(true);
    std::remove(artifactB.c_str());
}

} // namespace
} // namespace mixq
