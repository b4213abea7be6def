/**
 * @file
 * Tests of the benchmark's own arithmetic (bench_math.hh): percentiles,
 * the SLO rate search on a synthetic latency curve, and the phase
 * ledger, and the grouped latency estimator. Exits nonzero on the
 * first failed check.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>

#include "bench_math.hh"

using namespace perfbench;

namespace {

int failures = 0;

#define CHECK(cond)                                                     \
    do {                                                                \
        if (!(cond)) {                                                  \
            std::printf("FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond); \
            ++failures;                                                 \
        }                                                               \
    } while (0)

std::vector<double>
oneTo(size_t n)
{
    std::vector<double> v;
    for (size_t i = n; i >= 1; --i) // descending: percentile() sorts
        v.push_back(double(i));
    return v;
}

void
testPercentiles()
{
    // Nearest rank: the smallest value with at least q% at or below.
    CHECK(percentile(oneTo(10), 50) == 5.0);
    CHECK(percentile(oneTo(10), 90) == 9.0);
    CHECK(percentile(oneTo(10), 91) == 10.0);
    CHECK(percentile(oneTo(100), 90) == 90.0);
    CHECK(percentile(oneTo(100), 99) == 99.0);
    CHECK(percentile(oneTo(1000), 99.9) == 999.0);
    CHECK(percentile(oneTo(1), 50) == 1.0);
    CHECK(percentile(oneTo(1), 100) == 1.0);
    CHECK(percentile({}, 50) == 0.0);
    CHECK(median(oneTo(11)) == 6.0);

    // At least ten samples must lie beyond a reported percentile.
    CHECK(samplesBeyond(90, 100) == 10);
    CHECK(percentileSupported(90, 100));
    CHECK(!percentileSupported(90, 99));
    CHECK(!percentileSupported(99, 999));
    CHECK(percentileSupported(99, 1000));
    CHECK(!percentileSupported(99.9, 9999));
    CHECK(percentileSupported(99.9, 10000));
    CHECK(!percentileSupported(50, 0));
}

void
testGroups()
{
    // 250 samples: groups 1..100 and 101..250 (the remainder of 50 is
    // folded into the last full group).
    std::vector<double> s;
    for (size_t i = 1; i <= 250; ++i)
        s.push_back(double(i));
    std::vector<double> g = groupPercentiles(s, 100, 90);
    CHECK(g.size() == 2);
    CHECK(g[0] == 90.0);
    CHECK(g[1] == 235.0); // rank 135 of 150 values starting at 101
    CHECK(groupPercentiles(oneTo(40), 100, 50).size() == 1);
    CHECK(groupPercentiles({}, 100, 50).empty());

    // Eight groups of 100; two (a quarter) sit in a slowed stretch.
    std::vector<double> run;
    for (size_t grp = 0; grp < 8; ++grp)
        for (size_t i = 1; i <= kGroupSamples; ++i)
            run.push_back(double(i) * (grp == 2 || grp == 5 ? 3.0 : 1.0));
    CHECK(favourableLatency(run, 90) == 90.0);
    // Six of eight slowed still leave it; seven move it.
    std::vector<double> six, seven;
    for (size_t grp = 0; grp < 8; ++grp)
        for (size_t i = 1; i <= kGroupSamples; ++i) {
            six.push_back(double(i) * (grp < 6 ? 3.0 : 1.0));
            seven.push_back(double(i) * (grp < 7 ? 3.0 : 1.0));
        }
    CHECK(favourableLatency(six, 90) == 90.0);
    CHECK(favourableLatency(seven, 90) == 270.0);
}

/** Synthetic M/M/1-like curve: p90 = base / (1 - rate / capacity). */
Rung
probeCurve(double rate, double capacity, double baseMs, size_t samples)
{
    Rung r;
    r.rate = rate;
    r.samples = samples;
    if (rate >= capacity) {
        r.p90Ms = 1e9;
        r.backlogGrew = true;
    } else {
        r.p90Ms = baseMs / (1.0 - rate / capacity);
    }
    return r;
}

void
testSloSearch()
{
    const double capacity = 9000.0, base = 2.0, limit = 7.0;
    // Crossing: base / (1 - r / c) = limit.
    const double truth = capacity * (1.0 - base / limit);
    for (double res : {0.05, 0.02, 0.01}) {
        SloSearch s(1000.0, 16000.0, res);
        size_t guard = 0;
        while (!s.done() && guard++ < 64)
            s.record(probeCurve(s.next(), capacity, base, 500), limit);
        CHECK(s.done());
        CHECK(s.result() <= truth);
        CHECK(s.result() >= truth / (1.0 + res));
        // Bisection in log space halves ln(ceiling / floor) per probe
        // and stops once it is at most ln(1 + res).
        CHECK(double(s.probes()) ==
              std::ceil(std::log2(std::log(16.0) / std::log1p(res))));
    }

    // A rung with loss fails even with a good p90.
    Rung lossy = probeCurve(3000.0, capacity, base, 500);
    CHECK(rungPasses(lossy, limit));
    lossy.lost = 1;
    CHECK(!rungPasses(lossy, limit));
    // A growing backlog fails the rung.
    Rung backlog = probeCurve(3000.0, capacity, base, 500);
    backlog.backlogGrew = true;
    CHECK(!rungPasses(backlog, limit));
    CHECK(!backlogGrowing(40, 72, 32));
    CHECK(backlogGrowing(40, 73, 32));
    CHECK(!backlogGrowing(40, 3, 32));
    // Too few samples to support p90 fails the rung.
    CHECK(!rungPasses(probeCurve(3000.0, capacity, base, 99), limit));

    // Loss above 5000 rps pushes the answer below 5000.
    SloSearch s(1000.0, 16000.0, 0.02);
    while (!s.done()) {
        Rung r = probeCurve(s.next(), capacity, base, 500);
        if (r.rate > 5000.0)
            r.lost = 3;
        s.record(r, limit);
    }
    CHECK(s.result() <= 5000.0 && s.result() >= 5000.0 / 1.02);

    // Nothing passes: the floor is the answer.
    SloSearch none(1000.0, 16000.0, 0.02);
    while (!none.done())
        none.record(probeCurve(none.next(), 500.0, base, 500), limit);
    CHECK(none.result() == 1000.0);
}

void
testLedger()
{
    // Scripted overload phase: 100 offered, 60 served (2 with wrong
    // bits), 30 shed, 8 expired, 2 worker faults.
    Ledger l;
    l.submitted = 100;
    l.ok = 58;
    l.wrong = 2;
    l.shed = 30;
    l.expired = 8;
    l.errors = 2;
    l.srvServed = 60;
    l.srvShed = 30;
    l.srvExpired = 8;
    l.srvFailed = 2;
    std::string why;
    CHECK(l.balanced(&why));
    CHECK(l.failed(true) == 4);   // shedding is the design here
    CHECK(l.failed(false) == 42); // ...and a failure anywhere else

    Ledger lost = l;
    lost.ok -= 1; // a request that never settled
    CHECK(!lost.balanced(&why));
    Ledger skew = l;
    skew.srvShed -= 1;
    skew.srvExpired += 1; // server and client disagree on a class
    CHECK(!skew.balanced(&why));
    // Sums agree but the server files one served request under another
    // class than the client observed.
    for (size_t Ledger::*cls :
         {&Ledger::srvShed, &Ledger::srvExpired, &Ledger::srvFailed}) {
        Ledger moved = l;
        moved.srvServed -= 1;
        moved.*cls += 1;
        CHECK(!moved.balanced(&why));
    }
    Ledger extra = l;
    extra.srvServed += 1; // server served more than was offered
    CHECK(!extra.balanced(&why));

    Ledger sum;
    sum.add(l);
    sum.add(l);
    CHECK(sum.submitted == 200 && sum.balanced() &&
          sum.failed(true) == 8);
}

} // namespace

int
main()
{
    testPercentiles();
    testGroups();
    testSloSearch();
    testLedger();
    if (failures) {
        std::printf("%d check(s) failed\n", failures);
        return 1;
    }
    std::printf("perfbench math: all checks passed\n");
    return 0;
}
