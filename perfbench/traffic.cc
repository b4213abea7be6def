#include "traffic.hh"

#include <cmath>
#include <cstdio>
#include <cstring>

using namespace mixq;

namespace perfbench {

void
Tracer::record(uint64_t id, uint64_t parent, const char* name,
               Clock::time_point t0, Clock::time_point t1)
{
    if (!on_)
        return;
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back({id, parent, name, t0, t1});
}

size_t
Tracer::count() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return spans_.size();
}

bool
Tracer::write(const std::string& path) const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "id\tparent\tname\tstart_us\tend_us\n");
    for (const Span& s : spans_)
        std::fprintf(f, "%llu\t%llu\t%s\t%.3f\t%.3f\n",
                     (unsigned long long)s.id,
                     (unsigned long long)s.parent, s.name,
                     msBetween(origin_, s.t0) * 1e3,
                     msBetween(origin_, s.t1) * 1e3);
    return std::fclose(f) == 0;
}

void
SliceResult::add(const SliceResult& o)
{
    ledger.add(o.ledger);
    latMs.insert(latMs.end(), o.latMs.begin(), o.latMs.end());
    lateMs.insert(lateMs.end(), o.lateMs.begin(), o.lateMs.end());
    submitUs.insert(submitUs.end(), o.submitUs.begin(), o.submitUs.end());
    seconds += o.seconds;
    items += o.items;
    batches += o.batches;
}

Clock::time_point
settleOne(std::future<Tensor>& fut, const Pool& pool, uint32_t item,
          bool acceptB, Clock::time_point due, SliceResult& out)
{
    Ledger& l = out.ledger;
    try {
        Tensor y = fut.get();
        Clock::time_point t = Clock::now();
        auto same = [&](const std::vector<float>& ref) {
            return y.size() == ref.size() &&
                   std::memcmp(y.data(), ref.data(),
                               ref.size() * sizeof(float)) == 0;
        };
        if (same(pool.refA[item]) || (acceptB && same(pool.refB[item]))) {
            ++l.ok;
            out.latMs.push_back(msBetween(due, t));
        } else {
            ++l.wrong;
        }
        return t;
    } catch (const ServeError& e) {
        if (e.code() == ServeError::Code::Shed)
            ++l.shed;
        else if (e.code() == ServeError::Code::Expired)
            ++l.expired;
        else
            ++l.errors;
    } catch (...) {
        ++l.errors;
    }
    return Clock::now();
}

Collector::Collector(const Pool& pool, Tracer& tracer)
    : pool_(pool), tracer_(tracer),
      thread_([this] { loop(); })
{
}

Collector::~Collector()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
}

void
Collector::begin(SliceResult* out)
{
    std::lock_guard<std::mutex> lk(mu_);
    out_ = out;
}

void
Collector::push(Pending p)
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        queue_.push_back(std::move(p));
        ++outstanding_;
    }
    cv_.notify_one();
}

void
Collector::waitIdle()
{
    std::unique_lock<std::mutex> lk(mu_);
    idleCv_.wait(lk, [&] { return outstanding_ == 0; });
}

size_t
Collector::outstanding() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return outstanding_;
}

Clock::time_point
Collector::lastSettle() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return lastSettle_;
}

void
Collector::loop()
{
    for (;;) {
        Pending p;
        SliceResult* out = nullptr;
        {
            std::unique_lock<std::mutex> lk(mu_);
            cv_.wait(lk, [&] { return stop_ || !queue_.empty(); });
            if (queue_.empty())
                return;
            p = std::move(queue_.front());
            queue_.pop_front();
            out = out_;
        }
        // Only this thread writes *out while futures are outstanding;
        // the pacing thread reads it after waitIdle().
        Clock::time_point t =
            settleOne(p.fut, pool_, p.item, p.acceptB, p.due, *out);
        tracer_.record(p.id, p.parent, "request", p.sent, t);
        {
            std::lock_guard<std::mutex> lk(mu_);
            lastSettle_ = t;
            if (--outstanding_ == 0)
                idleCv_.notify_all();
        }
    }
}

double
Schedule::gapS(double rate)
{
    return -std::log(1.0 - rng.uniform()) / rate;
}

uint32_t
Schedule::item(size_t poolSize)
{
    size_t i = size_t(rng.uniform() * double(poolSize));
    return uint32_t(std::min(i, poolSize - 1));
}

namespace {

size_t
settledCount(const BatchServer::Stats& s)
{
    return s.requests + s.shed + s.expired + s.failed;
}

} // namespace

void
serverDelta(BatchServer& srv, const BatchServer::Stats& s0,
            SliceResult& r)
{
    // A worker fulfils a batch's promises before it bumps its served
    // counters, so a client can see every future settle a moment
    // before Stats does. Wait (bounded) for the server's books to
    // catch up; a ledger that never balances is reported.
    BatchServer::Stats s1 = srv.stats();
    Clock::time_point giveUp = Clock::now() + std::chrono::seconds(1);
    while (settledCount(s1) - settledCount(s0) < r.ledger.submitted &&
           Clock::now() < giveUp) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        s1 = srv.stats();
    }
    r.ledger.srvServed = s1.requests - s0.requests;
    r.ledger.srvShed = s1.shed - s0.shed;
    r.ledger.srvExpired = s1.expired - s0.expired;
    r.ledger.srvFailed = s1.failed - s0.failed;
    r.items = s1.items - s0.items;
    r.batches = s1.batches - s0.batches;
}

SliceResult
openLoop(BatchServer& srv, Collector& col, const Pool& pool,
         Schedule& sched, double rate, double seconds, long deadlineUs,
         bool acceptB, Tracer& tracer, uint64_t parent)
{
    SliceResult r;
    BatchServer::Stats s0 = srv.stats();
    col.begin(&r);
    Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(1);
    Clock::time_point due = t0;
    double at = 0.0;
    bool pastMid = false;
    for (;;) {
        at += sched.gapS(rate);
        if (at >= seconds)
            break;
        if (!pastMid && at >= seconds / 2) {
            pastMid = true;
            r.backlogMid = col.outstanding();
        }
        due = t0 + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(at));
        Collector::Pending p;
        p.item = sched.item(pool.items.size());
        p.acceptB = acceptB;
        Tensor x = pool.items[p.item];
        std::this_thread::sleep_until(due);
        p.due = due;
        p.sent = Clock::now();
        SubmitResult sr = srv.submit(std::move(x), deadlineUs);
        Clock::time_point after = Clock::now();
        r.lateMs.push_back(msBetween(due, p.sent));
        r.submitUs.push_back(msBetween(p.sent, after) * 1e3);
        p.fut = std::move(sr.future);
        p.id = tracer.newId();
        p.parent = parent;
        ++r.ledger.submitted;
        col.push(std::move(p));
    }
    r.backlogEnd = col.outstanding();
    col.waitIdle();
    Clock::time_point last = col.lastSettle();
    col.begin(nullptr);
    serverDelta(srv, s0, r);
    r.seconds = std::max(msBetween(t0, last), seconds * 1e3) / 1e3;
    return r;
}

SliceResult
closedLoop(BatchServer& srv, const Pool& pool, Schedule& sched,
           size_t window, double seconds, bool acceptB, Tracer& tracer,
           uint64_t parent)
{
    struct InFlight
    {
        std::future<Tensor> fut;
        Clock::time_point sent;
        uint32_t item;
        uint64_t id;
    };
    SliceResult r;
    BatchServer::Stats s0 = srv.stats();
    std::deque<InFlight> inflight;
    Clock::time_point t0 = Clock::now();
    Clock::time_point end =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
    auto submitOne = [&] {
        uint32_t item = sched.item(pool.items.size());
        Tensor x = pool.items[item];
        Clock::time_point sent = Clock::now();
        SubmitResult sr = srv.submit(std::move(x));
        r.submitUs.push_back(msBetween(sent, Clock::now()) * 1e3);
        inflight.push_back(
            {std::move(sr.future), sent, item, tracer.newId()});
        ++r.ledger.submitted;
    };
    for (size_t i = 0; i < window; ++i)
        submitOne();
    Clock::time_point last = t0;
    while (!inflight.empty()) {
        InFlight f = std::move(inflight.front());
        inflight.pop_front();
        last = settleOne(f.fut, pool, f.item, acceptB, f.sent, r);
        tracer.record(f.id, parent, "request", f.sent, last);
        if (last < end)
            submitOne();
    }
    serverDelta(srv, s0, r);
    r.seconds = msBetween(t0, last) / 1e3;
    return r;
}

Reloader::Reloader(const Artifacts& art, double periodMs, Tracer& tracer)
    : art_(art), periodMs_(periodMs), tracer_(tracer),
      thread_([this] { loop(); })
{
}

Reloader::~Reloader()
{
    stop();
}

void
Reloader::stop()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable())
        thread_.join();
}

void
Reloader::loop()
{
    auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double, std::milli>(periodMs_));
    Clock::time_point next = Clock::now() + period;
    size_t good = 0;
    for (;;) {
        {
            std::unique_lock<std::mutex> lk(mu_);
            if (cv_.wait_until(lk, next, [&] { return stop_; }))
                return;
        }
        next += period;
        BatchServer* srv = target_.load();
        if (!srv)
            continue;
        bool damaged = attempts % 4 == 3;
        const std::string& path =
            damaged ? art_.damaged : (good++ % 2 == 0 ? art_.b : art_.a);
        Clock::time_point t0 = Clock::now();
        LoadResult res = srv->reloadArtifact(path);
        Clock::time_point t1 = Clock::now();
        tracer_.record(tracer_.newId(), 0,
                       damaged ? "reload.damaged" : "reload", t0, t1);
        ++attempts;
        if (res.ok() == damaged) {
            ++failed;
            std::fprintf(stderr, "perfbench: reload of %s %s (%s)\n",
                         path.c_str(),
                         damaged ? "was accepted" : "was refused",
                         res.message.c_str());
        } else if (!damaged) {
            goodMs.push_back(msBetween(t0, t1));
        }
    }
}

} // namespace perfbench
