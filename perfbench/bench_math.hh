/**
 * @file
 * The serving benchmark's own arithmetic, kept free of any server
 * code so math_test.cc can pin it down on synthetic inputs:
 *
 * - nearest-rank percentiles, and the rule that a percentile is only
 *   reported when at least kMinBeyond samples lie beyond it;
 * - the SLO rate search: bisection in log-rate space between a floor
 *   and a ceiling, one probe ("rung") at a time, until the bracket is
 *   narrower than its resolution. A rung passes only with p90 at or
 *   under the limit, nothing lost, and a backlog that did not grow;
 * - the per-phase ledger: what was attempted, what failed, and the
 *   identity BatchServer::Stats documents (served + shed + expired +
 *   failed == submitted).
 */

#ifndef PERFBENCH_BENCH_MATH_HH
#define PERFBENCH_BENCH_MATH_HH

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

/** A percentile is printed only when this many samples lie beyond it. */
constexpr size_t kMinBeyond = 10;

/** 1-based nearest rank of percentile @p q (0 < q <= 100) among n. */
inline size_t
nearestRank(double q, size_t n)
{
    double r = std::ceil(q / 100.0 * double(n) - 1e-9);
    return std::clamp<size_t>(size_t(std::max(r, 1.0)), 1, n);
}

/** Samples strictly after the nearest-rank position of @p q. */
inline size_t
samplesBeyond(double q, size_t n)
{
    return n == 0 ? 0 : n - nearestRank(q, n);
}

/** Whether @p n samples support reporting percentile @p q. */
inline bool
percentileSupported(double q, size_t n)
{
    return n > 0 && samplesBeyond(q, n) >= kMinBeyond;
}

/** Nearest-rank percentile of @p sorted (ascending); 0 when empty. */
inline double
percentileSorted(const std::vector<double>& sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    return sorted[nearestRank(q, sorted.size()) - 1];
}

/** Nearest-rank percentile of an unsorted sample (copied). */
inline double
percentile(std::vector<double> v, double q)
{
    std::sort(v.begin(), v.end());
    return percentileSorted(v, q);
}

/** Median as the nearest-rank 50th percentile. */
inline double
median(std::vector<double> v)
{
    return percentile(std::move(v), 50.0);
}

/** Samples per group of the latency estimator: a group's p90 then has
    kMinBeyond samples beyond it. */
constexpr size_t kGroupSamples = 100;

/**
 * Cut @p samples (in arrival order) into groups of @p size consecutive
 * samples, fold a short remainder into the last full group, and return
 * each group's percentile @p q. Fewer than @p size samples make one
 * group.
 */
inline std::vector<double>
groupPercentiles(const std::vector<double>& samples, size_t size, double q)
{
    size_t groups = std::max<size_t>(1, samples.size() / size);
    std::vector<double> out;
    for (size_t g = 0; g < groups && !samples.empty(); ++g) {
        auto first = samples.begin() + g * size;
        auto last = g + 1 == groups ? samples.end() : first + size;
        out.push_back(percentile(std::vector<double>(first, last), q));
    }
    return out;
}

/**
 * The latency a run reports: the lower quartile of the groups'
 * percentile @p q. A stretch of the run that the host slowed raises
 * the groups that fall in it; up to three quarters of the groups can
 * be slowed before the figure moves, while a slowdown of the program
 * itself raises every group and moves it.
 */
inline double
favourableLatency(const std::vector<double>& samples, double q)
{
    return percentile(groupPercentiles(samples, kGroupSamples, q), 25.0);
}

/** One SLO probe: a short open-loop slice at a fixed offered rate. */
struct Rung
{
    double rate = 0.0;   //!< offered requests/s
    double p90Ms = 0.0;  //!< p90 latency from due time
    size_t samples = 0;  //!< settled requests behind p90Ms
    size_t lost = 0;     //!< requests that did not return a value
    bool backlogGrew = false; //!< outstanding requests kept growing
};

/**
 * Whether outstanding requests grew over a slice: the backlog at its
 * end exceeds the backlog at its midpoint by more than @p slack (a
 * queue that keeps up only fluctuates by a batch or two).
 */
inline bool
backlogGrowing(size_t atMid, size_t atEnd, size_t slack)
{
    return atEnd > atMid + slack;
}

/** Whether @p r meets the SLO: p90 supported and within the limit,
    nothing lost, backlog not growing. */
inline bool
rungPasses(const Rung& r, double limitMs)
{
    return r.lost == 0 && !r.backlogGrew &&
           percentileSupported(90.0, r.samples) && r.p90Ms <= limitMs;
}

/**
 * Bisection for the highest rate that meets the SLO. The floor is
 * taken as passing and the ceiling as failing; each probe halves the
 * bracket in log space. done() once ceiling / floor - 1 <= resolution,
 * so the answer (the highest passing rate seen, or the floor) is
 * within @p resolution of the crossing.
 */
class SloSearch
{
  public:
    SloSearch(double floor, double ceiling, double resolution)
        : lo_(floor), hi_(ceiling), res_(resolution)
    {
    }

    bool done() const { return hi_ / lo_ - 1.0 <= res_; }
    double next() const { return std::sqrt(lo_ * hi_); }
    double result() const { return lo_; }
    size_t probes() const { return probes_; }

    void record(const Rung& r, double limitMs)
    {
        ++probes_;
        if (rungPasses(r, limitMs))
            lo_ = std::max(lo_, r.rate);
        else
            hi_ = std::min(hi_, r.rate);
    }

  private:
    double lo_, hi_, res_;
    size_t probes_ = 0;
};

/**
 * What one phase attempted and how it ended. "expected" outcomes are
 * the designed overload outcomes (Shed, Expired); they count as
 * failures only in phases that must serve everything.
 */
struct Ledger
{
    size_t submitted = 0; //!< requests offered
    size_t ok = 0;        //!< settled with the reference bits
    size_t wrong = 0;     //!< settled with other bits
    size_t shed = 0;      //!< ServeError::Shed
    size_t expired = 0;   //!< ServeError::Expired
    size_t errors = 0;    //!< any other error

    /** Server-side deltas over the phase (BatchServer::Stats). */
    size_t srvServed = 0, srvShed = 0, srvExpired = 0, srvFailed = 0;

    void add(const Ledger& o)
    {
        submitted += o.submitted;
        ok += o.ok;
        wrong += o.wrong;
        shed += o.shed;
        expired += o.expired;
        errors += o.errors;
        srvServed += o.srvServed;
        srvShed += o.srvShed;
        srvExpired += o.srvExpired;
        srvFailed += o.srvFailed;
    }

    size_t settled() const
    {
        return ok + wrong + shed + expired + errors;
    }

    /** Failed operations: shedding and expiry are failures unless the
        phase is designed to overload. */
    size_t failed(bool overload) const
    {
        return wrong + errors + (overload ? 0 : shed + expired);
    }

    /**
     * The accounting identity: every offered request settled exactly
     * once on the client side, and the server's own ledger agrees
     * (served + shed + expired + failed == submitted, each class
     * matching what the client observed). Fills @p why on mismatch.
     */
    bool balanced(std::string* why = nullptr) const
    {
        auto fail = [&](const char* m) {
            if (why)
                *why = m;
            return false;
        };
        if (settled() != submitted)
            return fail("client outcomes do not add up to submitted");
        if (srvServed + srvShed + srvExpired + srvFailed != submitted)
            return fail("server served+shed+expired+failed != "
                        "submitted");
        // With both sums equal, served == ok + wrong follows.
        if (srvShed != shed || srvExpired != expired ||
            srvFailed != errors)
            return fail("server ledger disagrees with client outcomes");
        return true;
    }
};

} // namespace perfbench

#endif // PERFBENCH_BENCH_MATH_HH
