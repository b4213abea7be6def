/**
 * @file
 * Admission control under sustained overload (S3 of the failure
 * model). A deterministic per-batch stall (serve/fault.hh) pins the
 * worker's capacity far below an open-loop producer's offered load —
 * the producer submits as fast as it can, several times what the
 * worker drains — and each OverloadPolicy must keep the queue inside
 * ServeOptions::maxQueueItems (bounded queue memory, checked via the
 * queuePeakItems high-water mark), account every request exactly once
 * (served + shed == offered, nothing lost, nothing duplicated), and
 * keep every *served* response bit-identical to a fault-free direct
 * forward — load shedding must never corrupt the requests that do get
 * through.
 */

#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <vector>

#include "infer/session.hh"
#include "nn/models.hh"
#include "nn/trainer.hh"
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

constexpr size_t kOffered = 60;
constexpr size_t kQueueBound = 8;

struct OverloadRun
{
    size_t acceptedStatus = 0; //!< submits that returned Accepted
    size_t shedStatus = 0;     //!< submits that returned Shed
    size_t served = 0;         //!< futures that resolved with a value
    size_t shedFutures = 0;    //!< futures failed ServeError::Shed
    BatchServer::Stats stats;
};

/**
 * Open-loop burst of kOffered single-item requests against a
 * one-worker server whose every batch is stalled 5ms — offered load
 * is orders of magnitude past capacity, far beyond the 3x the goodput
 * gate uses. Served responses are bit-checked against @p refs
 * (request i carries data slice i % 8); every future must settle.
 */
OverloadRun
runOverload(OverloadPolicy policy)
{
    Rng dataRng(81);
    Tensor x = Tensor::randn({8, 3, 12, 12}, dataRng, 1.0);
    for (float& v : x.span())
        v = v < 0.0f ? -v : v;
    Rng rng(82);
    auto model = makeMiniResNet(4, rng);
    toIntBackend(*model, x);
    std::vector<Tensor> refs;
    for (size_t i = 0; i < 8; ++i)
        refs.push_back(model->forward(sliceAxis0(x, i, 1), false));

    FaultPlan plan;
    plan.stallEveryBatchUs = 5'000;
    armFaultPlan(plan);

    OverloadRun run;
    {
        BatchTraits traits;
        traits.itemShape = {1, 3, 12, 12};
        ServeOptions opt;
        opt.deadlineUs = 0; // one request per batch
        opt.maxQueueItems = kQueueBound;
        opt.overload = policy;
        BatchServer server(*model, 1, traits, opt);

        std::vector<std::future<Tensor>> futs;
        for (size_t i = 0; i < kOffered; ++i) {
            SubmitResult r = server.submit(sliceAxis0(x, i % 8, 1));
            if (r.status == ServeStatus::Accepted)
                ++run.acceptedStatus;
            else if (r.status == ServeStatus::Shed)
                ++run.shedStatus;
            else
                ADD_FAILURE() << "submit " << i << " rejected";
            futs.push_back(std::move(r.future));
        }

        for (size_t i = 0; i < futs.size(); ++i) {
            try {
                Tensor got = futs[i].get();
                expectBitEqual(got, refs[i % 8]);
                ++run.served;
            } catch (const ServeError& e) {
                EXPECT_EQ(e.code(), ServeError::Code::Shed)
                    << "request " << i << ": " << e.what();
                ++run.shedFutures;
            }
        }
        server.stop(true);
        run.stats = server.stats();
    }
    disarmFaultPlan();

    // Universal accounting: every request settled exactly once, the
    // queue never outgrew its bound, and the server's own counters
    // agree with what the producer observed.
    EXPECT_EQ(run.served + run.shedFutures, kOffered);
    EXPECT_LE(run.stats.queuePeakItems, kQueueBound);
    EXPECT_GT(run.stats.queuePeakItems, 0u);
    EXPECT_EQ(run.stats.requests, run.served);
    EXPECT_EQ(run.stats.shed, run.shedFutures);
    EXPECT_EQ(run.stats.expired, 0u);
    EXPECT_EQ(run.stats.faults, 0u);
    return run;
}

TEST(ServeOverload, BlockPolicyBackpressuresAndServesEverything)
{
    OverloadRun run = runOverload(OverloadPolicy::Block);
    // Backpressure: the producer stalls instead of anything dropping.
    EXPECT_EQ(run.acceptedStatus, kOffered);
    EXPECT_EQ(run.served, kOffered);
    EXPECT_EQ(run.shedStatus, 0u);
    EXPECT_EQ(run.shedFutures, 0u);
}

TEST(ServeOverload, ShedPolicyAdmitsFreshAndDropsOldest)
{
    OverloadRun run = runOverload(OverloadPolicy::Shed);
    // Every submit is admitted; the queue makes room by failing the
    // oldest waiters. At this load shedding must actually happen.
    EXPECT_EQ(run.acceptedStatus, kOffered);
    EXPECT_EQ(run.shedStatus, 0u);
    EXPECT_GE(run.shedFutures, 1u);
    EXPECT_GE(run.served, 1u);
}

TEST(ServeOverload, FailFastPolicyRefusesAtTheDoor)
{
    OverloadRun run = runOverload(OverloadPolicy::FailFast);
    // Refused submits report Shed synchronously; accepted ones are
    // all served (nothing is evicted once queued).
    EXPECT_EQ(run.acceptedStatus + run.shedStatus, kOffered);
    EXPECT_GE(run.shedStatus, 1u);
    EXPECT_EQ(run.served, run.acceptedStatus);
    EXPECT_EQ(run.shedFutures, run.shedStatus);
    EXPECT_EQ(run.stats.accepted, run.acceptedStatus);
}

} // namespace
} // namespace mixq
