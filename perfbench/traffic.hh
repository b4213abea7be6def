/**
 * @file
 * Load generation against a BatchServer: open-loop Poisson slices
 * timed from each request's due time, closed-loop slices with a fixed
 * window of outstanding requests, a reload thread, and the in-memory
 * span recorder of the traced run.
 *
 * Thread budget of a run: the calling thread paces (open loop) or
 * drives the window (closed loop), one collector thread settles
 * open-loop futures, and cnn-overload-reload adds one reload thread.
 */

#ifndef PERFBENCH_TRAFFIC_HH
#define PERFBENCH_TRAFFIC_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_math.hh"
#include "fixtures.hh"
#include "serve/server.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/**
 * Spans kept in memory and written out when the run ends. A span is
 * (id, parent, name, start, end); a request's span id is its request
 * id. Disabled tracers record nothing and cost one branch.
 */
class Tracer
{
  public:
    explicit Tracer(bool on) : on_(on), origin_(Clock::now()) {}

    uint64_t newId() { return next_.fetch_add(1); }
    void record(uint64_t id, uint64_t parent, const char* name,
                Clock::time_point t0, Clock::time_point t1);
    size_t count() const;
    /** Tab-separated: id, parent, name, start_us, end_us. */
    bool write(const std::string& path) const;

  private:
    struct Span
    {
        uint64_t id, parent;
        const char* name;
        Clock::time_point t0, t1;
    };

    bool on_;
    Clock::time_point origin_;
    std::atomic<uint64_t> next_{1};
    mutable std::mutex mu_;
    std::vector<Span> spans_;
};

/** Everything one slice observed. */
struct SliceResult
{
    Ledger ledger;
    std::vector<double> latMs;    //!< correct responses, from due time
    std::vector<double> lateMs;   //!< generator lateness per request
    std::vector<double> submitUs; //!< time inside submit()
    double seconds = 0.0;  //!< first due (or start) to last settle
    size_t backlogMid = 0, backlogEnd = 0; //!< outstanding requests at
                                           //!< half time and at the end
    size_t items = 0, batches = 0; //!< server deltas

    void add(const SliceResult& o);
};

/** Settles open-loop futures in submission order on one thread. */
class Collector
{
  public:
    Collector(const Pool& pool, Tracer& tracer);
    ~Collector();
    Collector(const Collector&) = delete;
    Collector& operator=(const Collector&) = delete;

    struct Pending
    {
        std::future<mixq::Tensor> fut;
        Clock::time_point due, sent;
        uint32_t item = 0;
        bool acceptB = false; //!< B's reference is also correct
        uint64_t id = 0, parent = 0;
    };

    /** Route results into @p out until the next begin(). */
    void begin(SliceResult* out);
    void push(Pending p);
    /** Block until every pushed future has settled. */
    void waitIdle();
    /** Time the last future settled. */
    Clock::time_point lastSettle() const;
    /** Futures pushed but not settled yet. */
    size_t outstanding() const;

  private:
    void loop();

    const Pool& pool_;
    Tracer& tracer_;
    mutable std::mutex mu_;
    std::condition_variable cv_, idleCv_;
    std::deque<Pending> queue_;
    size_t outstanding_ = 0;
    bool stop_ = false;
    SliceResult* out_ = nullptr;
    Clock::time_point lastSettle_{};
    std::thread thread_; //!< last: uses every member above
};

/**
 * Wait for @p fut and classify it into @p out: bit-exact against the
 * item's reference (A, or A-or-B when @p acceptB), or by ServeError
 * code. Returns the settle time; appends the latency from @p due for
 * correct responses.
 */
Clock::time_point settleOne(std::future<mixq::Tensor>& fut,
                            const Pool& pool, uint32_t item,
                            bool acceptB, Clock::time_point due,
                            SliceResult& out);

/** Draws the arrival schedule and the item of each request. */
struct Schedule
{
    explicit Schedule(uint64_t seed) : rng(seed) {}
    double gapS(double rate);
    uint32_t item(size_t poolSize);

    mixq::Rng rng;
};

/** Fill @p r's server-side deltas since @p s0, once the server's
    counters account for every request the slice submitted. */
void serverDelta(mixq::BatchServer& srv,
                 const mixq::BatchServer::Stats& s0, SliceResult& r);

/**
 * Offer Poisson arrivals at @p rate for @p seconds, each request with
 * @p deadlineUs (0 = none), and wait until all settle. @p acceptB
 * when the server may be serving artifact B.
 */
SliceResult openLoop(mixq::BatchServer& srv, Collector& col,
                     const Pool& pool, Schedule& sched, double rate,
                     double seconds, long deadlineUs, bool acceptB,
                     Tracer& tracer, uint64_t parent);

/** Keep @p window requests outstanding for @p seconds. */
SliceResult closedLoop(mixq::BatchServer& srv, const Pool& pool,
                       Schedule& sched, size_t window, double seconds,
                       bool acceptB, Tracer& tracer, uint64_t parent);

/**
 * Reloads whichever server is the current target every period:
 * A, B, A, ... with every fourth attempt offering the damaged copy,
 * which must be refused.
 */
class Reloader
{
  public:
    Reloader(const Artifacts& art, double periodMs, Tracer& tracer);
    ~Reloader();
    Reloader(const Reloader&) = delete;
    Reloader& operator=(const Reloader&) = delete;

    void setTarget(mixq::BatchServer* srv) { target_.store(srv); }
    void stop();

    size_t attempts = 0;       //!< reloads tried
    size_t failed = 0;         //!< good refused or damaged accepted
    std::vector<double> goodMs; //!< duration of accepted reloads

  private:
    void loop();

    Artifacts art_;
    double periodMs_;
    Tracer& tracer_;
    std::atomic<mixq::BatchServer*> target_{nullptr};
    std::mutex mu_;
    std::condition_variable cv_;
    bool stop_ = false;
    std::thread thread_; //!< last: uses every member above
};

} // namespace perfbench

#endif // PERFBENCH_TRAFFIC_HH
