/**
 * @file
 * Batched inference server tests. The heart is batching invariance:
 * the Int backend's integer accumulation is per output column and
 * every float epilogue is per-element, so a request served alone must
 * be *bit-identical* to the same request inside any coalesced batch —
 * checked for the CNN (MiniResNet, batch axis 0) and both time-major
 * sequence models (LstmLm, GruTagger, batch axis 1) across worker
 * OMP thread counts. Around it: concurrency (ragged producers, no
 * lost or duplicated responses), shutdown mid-flight (every future
 * settles), the deadline=0 degenerate case (one request per batch),
 * request validation — shapes, NaN/Inf values and out-of-vocabulary
 * token ids are rejected at submit() while good requests in the same
 * batch window serve bit-identically — and inference-only Conv+BN
 * folding (serve/bn_fold.hh) staying bit-identical on the Int backend.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <limits>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "infer/session.hh"
#include "nn/models.hh"
#include "nn/rnn_models.hh"
#include "nn/trainer.hh"
#include "serve/bn_fold.hh"
#include "serve/executor.hh"
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

/** Item-column slice of a batch-axis-1 tensor [T, N, ...]. */
Tensor
sliceAxis1(const Tensor& x, size_t off, size_t k)
{
    std::vector<size_t> s = x.shape();
    s[1] = k;
    Tensor o(std::move(s));
    size_t t = x.dim(0), n = x.dim(1);
    size_t inner = x.size() / (t * n);
    for (size_t tt = 0; tt < t; ++tt)
        std::copy_n(x.data() + (tt * n + off) * inner, k * inner,
                    o.data() + tt * k * inner);
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

/**
 * Serve every composition of @p data through a fresh one-worker
 * server and require each response bit-identical to the same request
 * run alone (@p refs, computed by direct eval forwards — so this is
 * also the executed-plan-vs-forward bit-equality check). Compositions
 * are sized to sum to maxBatch so the worker coalesces them into one
 * forward (a slow machine may split them — invariance must hold
 * either way).
 */
void
checkCompositions(Module& model, const BatchTraits& traits,
                  const Tensor& data, int ompThreads,
                  const std::vector<std::vector<size_t>>& comps)
{
    auto slice = traits.batchAxis == 0 ? sliceAxis0 : sliceAxis1;
    for (const std::vector<size_t>& comp : comps) {
        size_t total = 0;
        for (size_t k : comp)
            total += k;

        std::vector<Tensor> reqs, refs;
        size_t off = 0;
        for (size_t k : comp) {
            reqs.push_back(slice(data, off, k));
            refs.push_back(model.forward(reqs.back(), false));
            off += k;
        }

        ServeOptions opt;
        opt.maxBatch = total;
        opt.deadlineUs = 2'000'000; // settled by the batch filling
        opt.ompThreads = ompThreads;
        BatchServer server(model, 1, traits, opt);
        std::vector<std::future<Tensor>> futs;
        for (Tensor& r : reqs)
            futs.push_back(server.submit(std::move(r)).future);
        for (size_t i = 0; i < futs.size(); ++i) {
            SCOPED_TRACE(testing::Message()
                         << "request " << i << " of " << comp.size()
                         << ", threads " << ompThreads);
            Tensor got = futs[i].get();
            expectBitEqual(got, refs[i]);
        }
        server.stop(true);
        BatchServer::Stats st = server.stats();
        EXPECT_EQ(st.requests, comp.size());
        EXPECT_EQ(st.items, total);
        EXPECT_GT(st.planPeakBytes, 0u);
        EXPECT_GE(st.slabBytes, st.planPeakBytes);
        EXPECT_GT(st.scratchBytes, 0u);
    }
}

std::vector<int>
threadCounts()
{
#ifdef _OPENMP
    return {1, 4, 8};
#else
    return {0};
#endif
}

const std::vector<std::vector<size_t>> kComps = {
    {1, 1},                     // pair of singles
    {3, 1, 2, 1},               // ragged batch of 7
    {1, 1, 1, 1, 1, 1, 1, 1},   // full batch of 8 singles
};

TEST(ServeBatching, MiniResNetRequestInvariantToCoalescing)
{
    Rng dataRng(81);
    Tensor x = Tensor::randn({8, 3, 12, 12}, dataRng, 1.0);
    for (float& v : x.span())
        v = v < 0.0f ? -v : v;

    for (int threads : threadCounts()) {
#ifdef _OPENMP
        omp_set_num_threads(threads); // for the reference forwards
#endif
        Rng rng(82);
        auto model = makeMiniResNet(4, rng);
        toIntBackend(*model, x);

        BatchTraits traits;
        traits.itemShape = {1, 3, 12, 12};
        checkCompositions(*model, traits, x, threads, kComps);
    }
}

// The CNN plans run their conv prefix on item lanes when the team
// has more than one thread: {1, 1} and {2, 3} give fewer items than
// a team of 4 or 8, and 5 and 7 items do not divide over 4 lanes.
const std::vector<std::vector<size_t>> kLaneComps = {
    {1, 1}, {2, 3}, {3, 1, 2, 1}, {1, 1, 1, 1, 1, 1, 1, 1}};

/** Planned coalescing invariance of a CNN built by @p make. */
template <typename Make>
void
checkPlannedCnn(Make make)
{
    Rng dataRng(87);
    Tensor x = Tensor::randn({8, 3, 12, 12}, dataRng, 1.0);
    for (float& v : x.span())
        v = v < 0.0f ? -v : v;

    for (int threads : threadCounts()) {
#ifdef _OPENMP
        omp_set_num_threads(threads);
#endif
        Rng rng(88);
        auto model = make(rng);
        toIntBackend(*model, x);
        checkCompositions(*model, BatchTraits{{1, 3, 12, 12}, 0, false},
                          x, threads, kLaneComps);
    }
}

TEST(ServeBatching, MiniMobileNetPlannedInvariantToCoalescing)
{
    // DwConv2d, ReLU6 and InvertedResidual shortcuts on the lanes.
    checkPlannedCnn([](Rng& rng) { return makeMiniMobileNet(4, rng); });
}

TEST(ServeBatching, TinyConvNetPlannedInvariantToCoalescing)
{
    // MaxPool2d and biased convolutions on the lanes.
    checkPlannedCnn([](Rng& rng) { return makeTinyConvNet(4, rng); });
}

TEST(ServeBatching, LstmLmRequestInvariantToCoalescing)
{
    size_t vocab = 20, t = 6;
    Rng dataRng(83);
    Tensor x({t, 8});
    for (float& v : x.span())
        v = float(int(dataRng.uniform(0.0, double(vocab) - 0.001)));

    for (int threads : threadCounts()) {
#ifdef _OPENMP
        omp_set_num_threads(threads);
#endif
        Rng rng(84);
        LstmLm lm(vocab, 10, 16, 2, rng);
        toIntBackend(lm, x);

        BatchTraits traits;
        traits.itemShape = {t, 1};
        traits.batchAxis = 1;
        traits.timeMajorOut = true;
        checkCompositions(lm, traits, x, threads, kComps);
    }
}

TEST(ServeBatching, GruTaggerRequestInvariantToCoalescing)
{
    size_t feat = 12, t = 6;
    Rng dataRng(85);
    Tensor x = Tensor::randn({t, 8, feat}, dataRng, 1.0);

    for (int threads : threadCounts()) {
#ifdef _OPENMP
        omp_set_num_threads(threads);
#endif
        Rng rng(86);
        GruTagger tagger(feat, 16, 2, 5, rng);
        toIntBackend(tagger, x);

        BatchTraits traits;
        traits.itemShape = {t, 1, feat};
        traits.batchAxis = 1;
        traits.timeMajorOut = true;
        checkCompositions(tagger, traits, x, threads, kComps);
    }
}

TEST(ServeConcurrency, RaggedProducersAllSettleCorrectly)
{
    Rng dataRng(87);
    Tensor pool = Tensor::randn({16, 3, 12, 12}, dataRng, 1.0);
    for (float& v : pool.span())
        v = v < 0.0f ? -v : v;

    Rng rng(88);
    auto model = makeMiniResNet(4, rng);
    toIntBackend(*model, pool);

    // Pre-compute the alone-served reference of every request the
    // producers will send (the model belongs to the worker once the
    // server is up).
    constexpr size_t kProducers = 4, kPerProducer = 12;
    std::vector<std::vector<Tensor>> reqs(kProducers);
    std::vector<std::vector<Tensor>> refs(kProducers);
    for (size_t p = 0; p < kProducers; ++p) {
        for (size_t i = 0; i < kPerProducer; ++i) {
            size_t k = 1 + (p + i) % 3; // ragged 1..3
            size_t off = (3 * i + p) % (16 - k);
            reqs[p].push_back(sliceAxis0(pool, off, k));
            refs[p].push_back(
                model->forward(reqs[p].back(), false));
        }
    }

    ServeOptions opt;
    opt.maxBatch = 8;
    opt.deadlineUs = 300;
    BatchServer server(*model, 1, BatchTraits{{1, 3, 12, 12}, 0, false},
                       opt);

    std::vector<std::vector<std::future<Tensor>>> futs(kProducers);
    std::vector<std::thread> producers;
    for (size_t p = 0; p < kProducers; ++p)
        producers.emplace_back([&, p] {
            for (size_t i = 0; i < kPerProducer; ++i)
                futs[p].push_back(
                    server.submit(std::move(reqs[p][i])).future);
        });
    for (std::thread& t : producers)
        t.join();

    size_t totalItems = 0;
    for (size_t p = 0; p < kProducers; ++p)
        for (size_t i = 0; i < kPerProducer; ++i) {
            SCOPED_TRACE(testing::Message()
                         << "producer " << p << " request " << i);
            ASSERT_EQ(futs[p][i].wait_for(std::chrono::seconds(30)),
                      std::future_status::ready)
                << "lost response";
            Tensor got = futs[p][i].get();
            expectBitEqual(got, refs[p][i]);
            totalItems += got.dim(0);
        }

    server.stop(true);
    BatchServer::Stats st = server.stats();
    EXPECT_EQ(st.requests, kProducers * kPerProducer);
    EXPECT_EQ(st.items, totalItems);
    EXPECT_GE(st.batches, 1u);
    EXPECT_LE(st.batches, st.requests);
}

TEST(ServeShutdown, StopMidFlightSettlesEveryFuture)
{
    Rng dataRng(89);
    Tensor x = Tensor::randn({1, 3, 12, 12}, dataRng, 1.0);
    Rng rng(90);
    auto model = makeMiniResNet(4, rng);
    toIntBackend(*model, x);

    ServeOptions opt;
    opt.maxBatch = 4;
    opt.deadlineUs = 50'000; // keep requests queued at stop time
    BatchServer server(*model, 1, BatchTraits{{1, 3, 12, 12}, 0, false},
                       opt);

    std::vector<std::future<Tensor>> futs;
    for (int i = 0; i < 40; ++i)
        futs.push_back(server.submit(sliceAxis0(x, 0, 1)).future);
    server.stop(/*drain=*/false);

    size_t served = 0, rejected = 0;
    for (size_t i = 0; i < futs.size(); ++i) {
        // stop() joined the workers, so every future must already be
        // settled — a zero-wait poll is the no-hang guard.
        ASSERT_EQ(futs[i].wait_for(std::chrono::seconds(0)),
                  std::future_status::ready)
            << "future " << i << " left hanging";
        try {
            Tensor got = futs[i].get();
            EXPECT_EQ(got.dim(0), 1u);
            ++served;
        } catch (const std::runtime_error&) {
            ++rejected;
        }
    }
    EXPECT_EQ(served + rejected, futs.size());

    // Submissions after stop are rejected, not enqueued.
    std::future<Tensor> late = server.submit(sliceAxis0(x, 0, 1)).future;
    EXPECT_THROW(late.get(), std::runtime_error);
}

TEST(ServeShutdown, SubmitVsStopHammerIsDeterministic)
{
    // Producers race submit() against stop(): whatever interleaving
    // the scheduler picks, each submit must come back with a coherent
    // verdict — Accepted (the future settles with a value or a
    // structured stop error) or Rejected (the future already failed,
    // nothing was enqueued) — and nothing may hang, crash, or settle
    // twice. Several rounds shake out different interleavings.
    Rng dataRng(101);
    Tensor x = Tensor::randn({1, 3, 12, 12}, dataRng, 1.0);
    Rng rng(102);
    auto model = makeMiniResNet(4, rng);
    toIntBackend(*model, x);

    constexpr size_t kProducers = 4;
    constexpr size_t kPerProducer = 25;
    for (int round = 0; round < 3; ++round) {
        ServeOptions opt;
        opt.maxBatch = 4;
        opt.deadlineUs = 200;
        BatchServer server(*model, 1,
                           BatchTraits{{1, 3, 12, 12}, 0, false}, opt);

        std::vector<std::vector<SubmitResult>> results(kProducers);
        std::vector<std::thread> producers;
        for (size_t p = 0; p < kProducers; ++p)
            producers.emplace_back([&, p] {
                for (size_t i = 0; i < kPerProducer; ++i)
                    results[p].push_back(
                        server.submit(sliceAxis0(x, 0, 1)));
            });
        // Stop mid-burst, racing the producers.
        std::this_thread::sleep_for(
            std::chrono::milliseconds(1 + round * 2));
        server.stop(/*drain=*/false);
        for (std::thread& t : producers)
            t.join();

        size_t served = 0, stopped = 0, rejected = 0;
        for (size_t p = 0; p < kProducers; ++p)
            for (size_t i = 0; i < results[p].size(); ++i) {
                SubmitResult& r = results[p][i];
                SCOPED_TRACE(testing::Message()
                             << "round " << round << " producer " << p
                             << " request " << i);
                ASSERT_EQ(r.future.wait_for(std::chrono::seconds(30)),
                          std::future_status::ready)
                    << "future left hanging across stop()";
                try {
                    Tensor got = r.future.get();
                    EXPECT_EQ(r.status, ServeStatus::Accepted);
                    EXPECT_EQ(got.dim(0), 1u);
                    ++served;
                } catch (const ServeError& e) {
                    EXPECT_EQ(e.code(), ServeError::Code::Stopped);
                    (r.status == ServeStatus::Rejected ? rejected
                                                       : stopped)++;
                }
            }
        EXPECT_EQ(served + stopped + rejected,
                  kProducers * kPerProducer);
        BatchServer::Stats st = server.stats();
        EXPECT_EQ(st.requests, served);
        EXPECT_EQ(st.accepted, served + stopped);
    }
}

TEST(ServeDeadline, ZeroDeadlineServesOneRequestPerBatch)
{
    Rng dataRng(91);
    Tensor x = Tensor::randn({2, 3, 12, 12}, dataRng, 1.0);
    Rng rng(92);
    auto model = makeMiniResNet(4, rng);
    toIntBackend(*model, x);

    ServeOptions opt;
    opt.maxBatch = 8;
    opt.deadlineUs = 0; // degenerate: never coalesce
    BatchServer server(*model, 1, BatchTraits{{1, 3, 12, 12}, 0, false},
                       opt);

    std::vector<std::future<Tensor>> futs;
    for (int i = 0; i < 6; ++i)
        futs.push_back(server.submit(sliceAxis0(x, i % 2, 1)).future);
    for (std::future<Tensor>& f : futs)
        f.get();
    server.stop(true);

    BatchServer::Stats st = server.stats();
    EXPECT_EQ(st.requests, 6u);
    EXPECT_EQ(st.batches, 6u) << "deadline 0 must not coalesce";
}

TEST(ServeValidation, BadRequestsFailTheirFutureOnly)
{
    Rng dataRng(93);
    Tensor x = Tensor::randn({1, 3, 12, 12}, dataRng, 1.0);
    Rng rng(94);
    auto model = makeMiniResNet(4, rng);
    toIntBackend(*model, x);

    ServeOptions opt;
    opt.maxBatch = 4;
    BatchServer server(*model, 1, BatchTraits{{1, 3, 12, 12}, 0, false},
                       opt);

    EXPECT_THROW(
        server.submit(Tensor({1, 3, 10, 10})).future.get(), // wrong dims
        std::invalid_argument);
    EXPECT_THROW(
        server.submit(Tensor({3, 12, 12})).future.get(), // wrong rank
        std::invalid_argument);
    EXPECT_THROW(
        server.submit(Tensor({5, 3, 12, 12})).future.get(), // > maxBatch
        std::invalid_argument);

    // The server still serves good requests afterwards.
    Tensor got = server.submit(sliceAxis0(x, 0, 1)).future.get();
    EXPECT_EQ(got.dim(0), 1u);
    server.stop(true);
}

/**
 * Submit @p bad between two good requests of one batch window (the
 * server's maxBatch is 2 and its deadline long, so the good pair
 * coalesces): the bad request must come back Rejected with
 * std::invalid_argument, never reaching a worker, and both good
 * requests must be served bit-identical to their direct forwards.
 */
void
checkHostileRejected(BatchServer& server, const Tensor& good0,
                     const Tensor& ref0, const Tensor& good1,
                     const Tensor& ref1, Tensor bad)
{
    SubmitResult r0 = server.submit(good0);
    SubmitResult rb = server.submit(std::move(bad));
    SubmitResult r1 = server.submit(good1);
    EXPECT_EQ(rb.status, ServeStatus::Rejected);
    EXPECT_THROW(rb.future.get(), std::invalid_argument);
    ASSERT_EQ(r0.status, ServeStatus::Accepted);
    ASSERT_EQ(r1.status, ServeStatus::Accepted);
    expectBitEqual(r0.future.get(), ref0);
    expectBitEqual(r1.future.get(), ref1);
}

TEST(ServeValidation, NonFiniteValuesAreRejected)
{
    Rng dataRng(105);
    Tensor x = Tensor::randn({2, 3, 12, 12}, dataRng, 1.0);
    Rng rng(106);
    auto model = makeMiniResNet(4, rng);
    toIntBackend(*model, x);
    Tensor good0 = sliceAxis0(x, 0, 1), good1 = sliceAxis0(x, 1, 1);
    Tensor ref0 = model->forward(good0, false);
    Tensor ref1 = model->forward(good1, false);

    ServeOptions opt;
    opt.maxBatch = 2;
    opt.deadlineUs = 2'000'000; // settled by the pair filling it
    BatchServer server(*model, 1, BatchTraits{{1, 3, 12, 12}, 0, false},
                       opt);
    const float kBad[] = {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity()};
    for (float v : kBad) {
        SCOPED_TRACE(testing::Message() << "value " << v);
        Tensor all = Tensor::full({1, 3, 12, 12}, v);
        checkHostileRejected(server, good0, ref0, good1, ref1, all);
        Tensor one = good0;
        one[77] = v;
        checkHostileRejected(server, good0, ref0, good1, ref1, one);
    }
    server.stop(true);
    BatchServer::Stats st = server.stats();
    EXPECT_EQ(st.requests, 12u);
    EXPECT_EQ(st.accepted, 12u);
    EXPECT_EQ(st.faults, 0u);
}

TEST(ServeValidation, TokenIdsOutsideTheVocabularyAreRejected)
{
    size_t vocab = 20, t = 6;
    Tensor x({t, 2});
    for (size_t i = 0; i < x.size(); ++i)
        x[i] = float(i % vocab);
    Rng rng(107);
    LstmLm lm(vocab, 10, 16, 2, rng);
    toIntBackend(lm, x);
    Tensor good0 = sliceAxis1(x, 0, 1), good1 = sliceAxis1(x, 1, 1);
    Tensor ref0 = lm.forward(good0, false);
    Tensor ref1 = lm.forward(good1, false);
    Tensor edge = good0; // the last valid id
    edge[3] = float(vocab - 1);
    Tensor refEdge = lm.forward(edge, false);

    ServeOptions opt;
    opt.maxBatch = 2;
    opt.deadlineUs = 2'000'000;
    BatchServer server(lm, 1, BatchTraits{{t, 1}, 1, true}, opt);
    const float kBad[] = {-1.0f, 2.5f, float(vocab), 1e6f,
                          std::numeric_limits<float>::quiet_NaN()};
    for (float v : kBad) {
        SCOPED_TRACE(testing::Message() << "id " << v);
        Tensor bad = good0;
        bad[3] = v;
        checkHostileRejected(server, good0, ref0, good1, ref1, bad);
    }
    SubmitResult re = server.submit(edge);
    SubmitResult r1 = server.submit(good1);
    expectBitEqual(re.future.get(), refEdge);
    expectBitEqual(r1.future.get(), ref1);
    server.stop(true);
    EXPECT_EQ(server.stats().faults, 0u);
}

// ------------------------------------------------------------------
// Conv+BN folding: the fold replicates BatchNorm2d's eval arithmetic
// per element inside the conv epilogue, so outputs stay bit-identical
// on every backend; unfolding restores the original graph.
// ------------------------------------------------------------------

TEST(ServeBnFold, FoldIsBitIdenticalOnIntAndFakeQuant)
{
    Rng dataRng(95);
    Tensor x = Tensor::randn({5, 3, 12, 12}, dataRng, 1.0);
    for (float& v : x.span())
        v = v < 0.0f ? -v : v;

    Rng rng(96);
    auto model = makeMiniResNet(4, rng);
    // Give the BN layers non-trivial running stats before folding.
    model->forward(x, true);
    QConfig cfg;
    QatContext qat(cfg);
    qat.attach(model->params());
    model->setActQuant(cfg.actBits, true);
    model->forward(x, true); // calibrate
    qat.finalize();

    InferenceSession sess(*model, &qat, InferBackend::Int);
    Tensor intRef = sess.run(x);
    sess.setBackend(InferBackend::FakeQuant);
    Tensor fqRef = sess.run(x);
    sess.setBackend(InferBackend::Int);

    size_t folded = foldBatchNormForEval(*model);
    EXPECT_GT(folded, 0u);
    EXPECT_EQ(foldBatchNormForEval(*model), 0u) << "must be idempotent";

    Tensor intFolded = sess.run(x);
    expectBitEqual(intFolded, intRef);

    sess.setBackend(InferBackend::FakeQuant);
    Tensor fqFolded = sess.run(x);
    ASSERT_EQ(fqFolded.shape(), fqRef.shape());
    for (size_t i = 0; i < fqRef.size(); ++i)
        ASSERT_NEAR(fqFolded[i], fqRef[i], 1e-5f) << "index " << i;

    size_t unfolded = unfoldBatchNormForEval(*model);
    EXPECT_EQ(unfolded, folded);
    Tensor fqBack = sess.run(x);
    expectBitEqual(fqBack, fqRef);
    sess.setBackend(InferBackend::Int);
    Tensor intBack = sess.run(x);
    expectBitEqual(intBack, intRef);
}

TEST(ServeBnFold, FoldedModelServesBitIdentically)
{
    Rng dataRng(97);
    Tensor x = Tensor::randn({8, 3, 12, 12}, dataRng, 1.0);
    for (float& v : x.span())
        v = v < 0.0f ? -v : v;

    Rng rng(98);
    auto model = makeMiniResNet(4, rng);
    toIntBackend(*model, x);
    ASSERT_GT(foldBatchNormForEval(*model), 0u);

    BatchTraits traits;
    traits.itemShape = {1, 3, 12, 12};
    checkCompositions(*model, traits, x, 0, {{3, 1, 2, 1}});
}

TEST(ServePlanned, TwoReplicasOverOneModelServeConcurrently)
{
    Rng dataRng(99);
    Tensor pool = Tensor::randn({16, 3, 12, 12}, dataRng, 1.0);
    for (float& v : pool.span())
        v = v < 0.0f ? -v : v;

    Rng rng(100);
    auto model = makeMiniResNet(4, rng);
    toIntBackend(*model, pool);

    std::vector<Tensor> reqs, refs;
    for (size_t i = 0; i < 24; ++i) {
        size_t k = 1 + i % 3;
        size_t off = (5 * i) % (16 - k);
        reqs.push_back(sliceAxis0(pool, off, k));
        refs.push_back(model->forward(reqs.back(), false));
    }

    // Two planned workers share the one model; both read its packed
    // panels concurrently while owning private slabs and scratch.
    ServeOptions opt;
    opt.maxBatch = 4;
    opt.deadlineUs = 200;
    BatchServer server(*model, 2, BatchTraits{{1, 3, 12, 12}, 0, false},
                       opt);
    std::vector<std::future<Tensor>> futs;
    for (Tensor& r : reqs)
        futs.push_back(server.submit(std::move(r)).future);
    for (size_t i = 0; i < futs.size(); ++i) {
        SCOPED_TRACE(testing::Message() << "request " << i);
        Tensor got = futs[i].get();
        expectBitEqual(got, refs[i]);
    }
    server.stop(true);
    BatchServer::Stats st = server.stats();
    EXPECT_EQ(st.requests, reqs.size());
}

/** bench_serve --memory-report's weight-heavy MLP, Int backend. */
std::unique_ptr<Sequential>
weightHeavyMlp(const Tensor& calib)
{
    Rng rng(101);
    auto model = std::make_unique<Sequential>();
    model->add(std::make_unique<Flatten>());
    model->add(std::make_unique<Linear>(432, 2048, rng));
    model->add(std::make_unique<ReLU>());
    model->add(std::make_unique<Linear>(2048, 2048, rng));
    model->add(std::make_unique<ReLU>());
    model->add(std::make_unique<Linear>(2048, 10, rng));
    toIntBackend(*model, calib);
    return model;
}

TEST(ServePlanned, OnlyConvPrefixesRunOnLanes)
{
    Rng dataRng(102);
    Tensor x = Tensor::randn({4, 3, 12, 12}, dataRng, 1.0);
    for (float& v : x.span())
        v = v < 0.0f ? -v : v;
    const std::vector<size_t> item = {1, 3, 12, 12};

    // Linear from the first step: nothing item-local to split off.
    auto mlp = weightHeavyMlp(x);
    PlanExecutor mlp1(*mlp, item, 0, 16, 1), mlp3(*mlp, item, 0, 16, 3);
    EXPECT_EQ(mlp3.lanes(), 0u);
    EXPECT_EQ(mlp3.scratchBytes(), mlp1.scratchBytes());

    // Time-major: the batch axis is 1, so the plan stays batched.
    size_t t = 6;
    Tensor ids({t, 4});
    Rng rngLm(103);
    LstmLm lm(20, 10, 16, 2, rngLm);
    toIntBackend(lm, ids);
    PlanExecutor lm1(lm, {t, 1}, 1, 16, 1), lm3(lm, {t, 1}, 1, 16, 3);
    EXPECT_EQ(lm3.lanes(), 0u);
    EXPECT_EQ(lm3.scratchBytes(), lm1.scratchBytes());

    // MiniResNet: three one-item lanes cost less than the batched
    // walk's max-batch scratch, and give the same bits.
    Rng rng(104);
    auto cnn = makeMiniResNet(4, rng);
    toIntBackend(*cnn, x);
    PlanExecutor cnn1(*cnn, item, 0, 16, 1), cnn3(*cnn, item, 0, 16, 3);
    EXPECT_EQ(cnn1.lanes(), 0u);
    EXPECT_EQ(cnn3.lanes(), 3u);
    EXPECT_LT(cnn3.scratchBytes(), cnn1.scratchBytes());
    for (size_t n : {1, 4}) {
        std::copy_n(x.data(), n * 3 * 12 * 12, cnn1.inputData());
        std::copy_n(x.data(), n * 3 * 12 * 12, cnn3.inputData());
        cnn1.run(n);
        cnn3.run(n);
        size_t len = shapeSize(cnn1.outputShape(n));
        for (size_t i = 0; i < len; ++i)
            ASSERT_EQ(cnn3.outputData()[i], cnn1.outputData()[i])
                << "items " << n << ", index " << i;
    }
}

} // namespace
} // namespace mixq
