/**
 * @file
 * Batched inference server runtime. BatchServer owns a small pool of
 * worker threads, each bound to one model replica; callers submit()
 * single- or multi-item request tensors and get a future for the
 * per-request output slice. Workers pull from one shared FIFO queue
 * and coalesce adjacent requests into a batch of up to
 * ServeOptions::maxBatch items, waiting at most deadlineUs for the
 * batch to fill — the classic dynamic-batching latency/throughput
 * trade. Coalescing never reorders: the queue head that does not fit
 * ships the batch (a request is one unit; items of one request are
 * never split across batches).
 *
 * Two execution modes share the queue/coalescing front end:
 *
 * Replica mode (legacy): each worker owns a full model replica and
 * runs its steady-state forwards inside an ArenaScope
 * (serve/arena.hh): warmup sizes all layer-internal scratch at the
 * max-batch shape on the real heap, the arena is sized from the
 * measured transient footprint and the ahead-of-time plan
 * (serve/planner.hh), and from then on each batch's activations are
 * bump-allocated and released with one pointer reset. In Debug
 * builds the worker asserts the steady state allocates nothing on
 * the calling thread's heap.
 *
 * Planned mode (shared model): the plan is *executed*, not just a
 * sizing hint. One immutable model is shared by every worker; each
 * worker owns only a PlanExecutor (serve/executor.hh) — a pre-
 * faulted slab plus per-step serve scratch, and for a CNN one item
 * lane per member of its ompThreads team — and gathers requests
 * straight into the slab's input buffer, runs the recorded step
 * list at the planner's fixed offsets, and scatters from the output
 * buffer. Steady state allocates nothing at all: no heap *and* no
 * bump-pointer traffic (Debug builds assert both), and activation
 * addresses are stable across requests. n replicas cost one model
 * plus n plans.
 *
 * Batch composition does not change results: the Int backend's
 * integer accumulation is per output column and every float epilogue
 * is per-element, so a request served alone is bit-identical to the
 * same request inside any coalesced batch (tests/serve_test.cc locks
 * this in).
 *
 * Failure model (see ARCHITECTURE.md "Failure model" for the full
 * contract): every future submit() hands out settles exactly once —
 * with the output tensor or with a structured error — no matter what
 * faults the server absorbs. Admission control bounds queue memory
 * (ServeOptions::maxQueueItems + OverloadPolicy); per-request
 * deadlines expire requests that waited too long; a worker forward
 * that throws fails only its own batch's futures and the worker
 * keeps serving; a worker that dies permanently leaves the survivors
 * draining the queue, and when the last worker dies every queued and
 * future request fails instead of hanging. reloadArtifact() swaps in
 * a new deploy artifact between batches — a damaged artifact is
 * refused with the old model still serving.
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
#include "serve/arena.hh"
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
    size_t arenaBytes = 0; //!< arena capacity floor; 0 = sized from
                           //!< warmup measurement and the plan
    int ompThreads = 0;    //!< omp_set_num_threads per worker and
                           //!< the planned executors' lane count;
                           //!< 0 = inherit the environment
    bool planArena = true; //!< run the ahead-of-time planner
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

/** Dynamic-batching inference server over per-worker model replicas. */
class BatchServer
{
  public:
    /** Running totals and sizing facts (test/bench introspection). */
    struct Stats
    {
        size_t requests = 0; //!< requests served successfully
        size_t items = 0;    //!< items served successfully
        size_t batches = 0;  //!< forwards attempted
        size_t arenaCapacity = 0;  //!< worker 0's arena / slab size
        size_t planPeakBytes = 0;  //!< planner's analytic peak
        size_t arenaHighWater = 0; //!< worker 0's observed peak
        size_t arenaOverflows = 0; //!< heap-fallback allocations
        size_t scratchBytes = 0;   //!< worker 0's memory beyond its
                                   //!< slab: serve scratch, lane
                                   //!< slabs, staging (planned only)
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
     * Spawn one worker thread per replica. Replicas must be distinct
     * Module trees of identical architecture and weights, already
     * switched to the serving backend — layer forward passes use
     * member scratch, so a replica must never be shared between
     * workers. The server does not own the replicas.
     */
    BatchServer(std::vector<Module*> replicas, BatchTraits traits,
                ServeOptions opt);

    /**
     * Plan-executed shared-model mode: spawn @p replicas workers over
     * ONE immutable @p model. Each worker owns only a PlanExecutor
     * (activation slab + per-step serve scratch); the model — packed
     * weight panels, folded BN, float weights — is read concurrently
     * by all of them, so n replicas cost one model plus n plans. The
     * model must already be switched to its serving backend and must
     * not be mutated while the server runs (reloadArtifact() is the
     * one sanctioned mutation — it quiesces the workers first).
     * Steady-state batches allocate nothing (no heap, no arena; Debug
     * builds assert both) and are bit-identical to replica-mode
     * serving. ServeOptions::arenaBytes and planArena are ignored
     * here.
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
     * errors and oversize requests (items > maxBatch) return Rejected
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
     * batches, apply the staged panels to every replica, and resume.
     * Accepted requests straddling the swap are never lost — they
     * serve either the old or the new weights, whole batches at a
     * time. On any failure (damaged / mismatched file, stopped
     * server) returns the failure class with the old weights still
     * serving, untouched. Serializes with concurrent reloads.
     */
    LoadResult reloadArtifact(const std::string& path);

    Stats stats() const;

    /** The ahead-of-time plan ({} when planArena was off). */
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
    /** Replica / planned serving loops; return normally on shutdown,
        throw on permanent worker death. */
    void replicaWorkerBody(size_t worker);
    void plannedWorkerBody(size_t worker);
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
    bool runBatch(Module& model, Arena& arena,
                  std::vector<Request>& batch, size_t items,
                  size_t batchesDone, uint64_t seq);
    bool runBatchPlanned(PlanExecutor& exec,
                         std::vector<Request>& batch, size_t items,
                         size_t batchesDone, uint64_t seq);
    Tensor gather(const std::vector<Request>& batch,
                  size_t items) const;
    /** Gather straight into a planned input buffer (no Tensor). */
    void gatherInto(const std::vector<Request>& batch, size_t items,
                    float* dst) const;
    void scatter(const Tensor& yb, size_t items,
                 std::vector<Request>& batch) const;
    /** Scatter from a raw output of shape @p ys (planned mode; the
        Tensor overload delegates here). */
    void scatterRaw(const float* yb, const std::vector<size_t>& ys,
                    size_t items, std::vector<Request>& batch) const;

    std::vector<Module*> replicas_;
    bool planned_ = false;
    Module* sharedModel_ = nullptr; //!< planned mode's one model
    std::vector<std::unique_ptr<PlanExecutor>> execs_;
    BatchTraits traits_;
    ServeOptions opt_;
    ServePlan plan_;

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
    std::atomic<size_t> arenaCapacity_{0};
    std::atomic<size_t> arenaHighWater_{0};
    std::atomic<size_t> arenaOverflows_{0};
    std::atomic<size_t> scratchBytes_{0};
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
