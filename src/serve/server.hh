/**
 * @file
 * Batched inference server runtime. BatchServer runs a small pool of
 * worker threads over ONE shared, immutable model; callers submit()
 * single- or multi-item request tensors and get a future for the
 * per-request output slice. Workers pull from one shared FIFO queue
 * and coalesce adjacent requests into a batch of up to
 * ServeOptions::maxBatch items, waiting at most deadlineUs for the
 * batch to fill — the classic dynamic-batching latency/throughput
 * trade. Coalescing never reorders: the queue head that does not fit
 * ships the batch (a request is one unit; items of one request are
 * never split across batches).
 *
 * Every batch runs an executed plan. Each worker owns only a
 * PlanExecutor (serve/executor.hh) — a pre-faulted slab plus per-step
 * serve scratch, and for a CNN one item lane per member of its
 * ompThreads team — gathers requests straight into the slab's input
 * buffer, runs the recorded step list at the planner's fixed offsets
 * and scatters from the output buffer. Steady state allocates nothing
 * (Debug builds assert it with serve/heap_count.hh), and activation
 * addresses are stable across requests. n workers cost one model
 * plus n plans.
 *
 * The model must be one the planner (serve/planner.hh) can lower.
 * There is no fallback path: constructing a server over a model with
 * a module the planner does not model panics, naming the module's
 * dotted path.
 *
 * Batch composition does not change results: the Int backend's
 * integer accumulation is per output column and every float epilogue
 * is per-element, so a request served alone is bit-identical to the
 * same request inside any coalesced batch, and to the model's own
 * forward(x, false) (tests/serve_test.cc locks this in).
 *
 * Failure model (see ARCHITECTURE.md "Failure model" for the full
 * contract): every future submit() hands out settles exactly once —
 * with the output tensor or with a structured error — no matter what
 * faults the server absorbs. submit() refuses requests the model
 * cannot answer (wrong shape, non-finite values, token ids outside
 * the embedding's vocabulary) before they reach a worker. Admission
 * control bounds queue memory (ServeOptions::maxQueueItems +
 * OverloadPolicy); per-request deadlines expire requests that waited
 * too long; a worker forward that throws fails only its own batch's
 * futures and the worker keeps serving; a worker that dies
 * permanently leaves the survivors draining the queue, and when the
 * last worker dies every queued and future request fails instead of
 * hanging. reloadArtifact() swaps in a new deploy artifact between
 * batches — a damaged artifact is refused with the old model still
 * serving.
 */

#ifndef MIXQ_SERVE_SERVER_HH
#define MIXQ_SERVE_SERVER_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "nn/module.hh"
#include "serial/record_io.hh"
#include "serve/planner.hh"

namespace mixq {

class PlanExecutor;

/**
 * What submit() does when accepting a request would push the queue
 * past ServeOptions::maxQueueItems.
 */
enum class OverloadPolicy
{
    /** Block the producer until the queue has room (backpressure). */
    Block,
    /** Accept the new request and shed the *oldest* queued requests
        to make room — their futures fail with ServeError::Shed
        immediately. Freshest-first under overload. */
    Shed,
    /** Refuse the new request: its future fails with
        ServeError::Shed immediately, the queue is untouched. */
    FailFast,
};

/** Admission outcome of one submit() call. */
enum class ServeStatus
{
    Accepted, //!< queued; the future settles when served (or on a
              //!< later fault/expiry/stop)
    Shed,     //!< refused by the overload policy; the future already
              //!< holds ServeError::Shed
    Rejected, //!< invalid request or server not accepting (stopped /
              //!< all workers dead); the future already holds the
              //!< error
};

/**
 * The structured error a request future fails with when the server —
 * not the model — is the reason. code() tells the caller what
 * happened without string matching.
 */
class ServeError : public std::runtime_error
{
  public:
    enum class Code
    {
        Shed,        //!< dropped by the overload policy
        Expired,     //!< per-request deadline passed before serving
        Stopped,     //!< server stopped (or never had live workers)
        WorkerFault, //!< the serving worker failed
    };

    ServeError(Code code, const std::string& what)
        : std::runtime_error(what), code_(code)
    {
    }

    Code code() const { return code_; }

  private:
    Code code_;
};

/** Tuning knobs of a BatchServer. */
struct ServeOptions
{
    size_t maxBatch = 8;   //!< max coalesced items per forward
    long deadlineUs = 1000; //!< max wait for a batch to fill; 0 =
                            //!< never coalesce (batch of one request)
    int ompThreads = 0;    //!< omp_set_num_threads per worker and
                           //!< the executors' lane count;
                           //!< 0 = inherit the environment
    size_t maxQueueItems = 0; //!< admission bound on queued items;
                              //!< 0 = unbounded (no admission
                              //!< control). Must be >= maxBatch.
    OverloadPolicy overload = OverloadPolicy::Block; //!< what to do
                                                     //!< at the bound
};

/**
 * How request items map onto the model's input/output tensors.
 * itemShape is the full input shape of a single item (batch dim 1):
 * {1, C, H, W} for the CNNs (batchAxis 0), {T, 1} / {T, 1, F} for
 * the sequence models (batchAxis 1). timeMajorOut marks models whose
 * output rows are [T*N, ...] grouped by timestep (LstmLm, GruTagger);
 * off it is [N, ...] grouped by item.
 */
struct BatchTraits
{
    std::vector<size_t> itemShape;
    size_t batchAxis = 0;
    bool timeMajorOut = false;
};

/** Admission status plus the future for the request's output. The
    future is valid in every case; non-Accepted futures already hold
    their error. */
struct SubmitResult
{
    ServeStatus status = ServeStatus::Rejected;
    std::future<Tensor> future;

    bool accepted() const { return status == ServeStatus::Accepted; }
};

/** Dynamic-batching inference server over one shared model. */
class BatchServer
{
  public:
    /** Running totals and sizing facts (test/bench introspection). */
    struct Stats
    {
        size_t requests = 0; //!< requests served successfully
        size_t items = 0;    //!< items served successfully
        size_t batches = 0;  //!< forwards attempted
        size_t slabBytes = 0;      //!< worker 0's slab size
        size_t planPeakBytes = 0;  //!< planner's analytic peak
        size_t scratchBytes = 0;   //!< worker 0's memory beyond its
                                   //!< slab: serve scratch, lane
                                   //!< slabs, staging
        size_t accepted = 0; //!< requests admitted to the queue
        size_t shed = 0;     //!< requests dropped by overload policy
        size_t expired = 0;  //!< requests dropped past their deadline
        size_t failed = 0;   //!< requests failed by worker faults /
                             //!< worker death
        size_t faults = 0;   //!< worker forwards that threw
        size_t queuePeakItems = 0; //!< max items ever queued at once
        size_t workersAlive = 0;   //!< workers currently serving
    };

    /**
     * Spawn @p replicas workers over ONE immutable @p model. Each
     * worker owns only a PlanExecutor (activation slab + per-step
     * serve scratch); the model — packed weight panels, folded BN,
     * float weights — is read concurrently by all of them. The model
     * must already be switched to its serving backend and must not be
     * mutated while the server runs (reloadArtifact() is the one
     * sanctioned mutation — it quiesces the workers first). Panics,
     * naming the module's dotted path, on a model the planner cannot
     * lower.
     */
    BatchServer(Module& model, size_t replicas,
                const BatchTraits& traits, const ServeOptions& opt);

    /** stop(true): drain the queue, then join the workers. */
    ~BatchServer();

    BatchServer(const BatchServer&) = delete;
    BatchServer& operator=(const BatchServer&) = delete;

    /**
     * Enqueue one request of one or more items (dim batchAxis is the
     * item count; every other dim must match itemShape). The future
     * resolves to this request's output slice — bit-identical to
     * running the request alone.
     *
     * Admission is governed by ServeOptions::maxQueueItems and the
     * overload policy; the returned status says what happened. Shape
     * errors, oversize requests (items > maxBatch), non-finite values
     * and — for a model whose first step is an Embedding — values
     * that are not integer token ids in [0, vocab) return Rejected
     * with std::invalid_argument on the future; submission after
     * stop() — or after every worker died — deterministically returns
     * Rejected with ServeError::Stopped, never enqueues, never
     * blocks.
     *
     * @p deadlineUs > 0 gives the request a deadline: if it is still
     * queued when the deadline passes, the coalescer drops it before
     * gathering and its future fails with ServeError::Expired. 0 (the
     * default) never expires.
     */
    SubmitResult submit(Tensor x, long deadlineUs = 0);

    /**
     * Stop the server. drain == true serves every queued request
     * first; drain == false stops after in-flight batches and fails
     * the remaining futures with ServeError::Stopped. Idempotent;
     * subsequent submit() calls are rejected.
     */
    void stop(bool drain = true);

    /**
     * Hot-swap the served weights from a deploy artifact: stage the
     * artifact read-only against the serving model (concurrent
     * batches keep running), then quiesce every worker between
     * batches, apply the staged panels to the model, and resume.
     * Accepted requests straddling the swap are never lost — they
     * serve either the old or the new weights, whole batches at a
     * time. On any failure (damaged / mismatched file, stopped
     * server) returns the failure class with the old weights still
     * serving, untouched. Serializes with concurrent reloads.
     */
    LoadResult reloadArtifact(const std::string& path);

    Stats stats() const;

    /** The executed (maximum-batch) plan. */
    const ServePlan& plan() const { return plan_; }

  private:
    struct Request
    {
        Tensor x;
        size_t items = 0;
        std::promise<Tensor> result;
        bool hasDeadline = false;
        std::chrono::steady_clock::time_point expiry{};
    };

    void workerLoop(size_t worker);
    /** Serving loop; returns normally on shutdown, throws on
        permanent worker death. */
    void workerBody(size_t worker);
    /** Worker bookkeeping on exit; sweeps the queue when the last
        worker dies abnormally. */
    void workerExit(bool abnormal);
    /** Dequeue + coalesce the next batch; false = shut down. Drops
        expired requests instead of gathering them. */
    bool nextBatch(std::vector<Request>& batch, size_t& items);
    /** Fail every future of @p batch with @p e (tolerates futures a
        partial scatter already satisfied). */
    static void failBatch(std::vector<Request>& batch,
                          std::exception_ptr e);
    /** Run one batch; false = this worker must die (injected worker
        death). Either way every future of @p batch settles. */
    bool runBatchPlanned(PlanExecutor& exec,
                         std::vector<Request>& batch, size_t items,
                         size_t batchesDone, uint64_t seq);
    /** Gather straight into the executor's input buffer. */
    void gatherInto(const std::vector<Request>& batch, size_t items,
                    float* dst) const;
    /** Scatter from the executor's output of shape @p ys. */
    void scatterRaw(const float* yb, const std::vector<size_t>& ys,
                    size_t items, std::vector<Request>& batch) const;

    Module* model_ = nullptr; //!< the one shared model
    std::vector<std::unique_ptr<PlanExecutor>> execs_;
    BatchTraits traits_;
    ServeOptions opt_;
    ServePlan plan_;
    size_t slabBytes_ = 0;    //!< worker 0's slab (set before start)
    size_t scratchBytes_ = 0; //!< worker 0's scratch (likewise)
    size_t vocab_ = 0; //!< ids a first-step Embedding accepts (0: the
                       //!< model does not start with one)

    mutable std::mutex mu_;
    std::condition_variable cv_;     //!< queue / pause / stop wakeups
    std::condition_variable roomCv_; //!< Block producers wait here
    std::condition_variable pauseCv_; //!< reload waits for quiescence
    std::deque<Request> queue_;
    size_t queuedItems_ = 0; //!< items in queue_ (admission bound)
    bool stopping_ = false;
    bool drain_ = true;
    bool dead_ = false; //!< every worker died abnormally
    bool pauseRequested_ = false; //!< reload wants workers parked
    size_t pausedWorkers_ = 0;
    size_t liveWorkers_ = 0;
    std::mutex joinMu_;   //!< serializes the join in stop()
    std::mutex reloadMu_; //!< serializes reloadArtifact() calls
    std::vector<std::thread> workers_;

    std::atomic<size_t> doneRequests_{0};
    std::atomic<size_t> doneItems_{0};
    std::atomic<size_t> doneBatches_{0};

    std::atomic<size_t> accepted_{0};
    std::atomic<size_t> shed_{0};
    std::atomic<size_t> expired_{0};
    std::atomic<size_t> failed_{0};
    std::atomic<size_t> faults_{0};
    std::atomic<size_t> queuePeakItems_{0};
    std::atomic<uint64_t> batchSeq_{0}; //!< global batch numbering
                                        //!< (fault-plan triggers)
    std::atomic<uint64_t> reloadGen_{0}; //!< bumped per hot-swap
                                         //!< (resets workers' steady-
                                         //!< state assertion grace)
};

} // namespace mixq

#endif // MIXQ_SERVE_SERVER_HH
