/**
 * @file
 * Serving benchmark: one command per workload. Loads a MIXQDEPL
 * artifact, serves it through the planned BatchServer (one worker)
 * from one open-loop generator, checks every response bit for bit
 * against single-item PlanExecutor references, and prints one JSON
 * result line. See METRICS.md for what each number means and which
 * layer metric should move which end-to-end metric.
 *
 *   perfbench_serve --workload cnn-poisson --seed 1 --seconds 45 \
 *       --trace 0 --workdir DIR
 *   perfbench_serve --rss-probe --workload cnn-poisson --workdir DIR
 *
 * A run is a number of identical rounds; each round holds one short
 * slice of every phase (light, mid, SLO probes, saturated, overload),
 * so a slow stretch of the host lands on every metric alike.
 */

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "bench_math.hh"
#include "fixtures.hh"
#include "layers.hh"
#include "serial/deploy.hh"
#include "traffic.hh"
#include "util/logging.hh"

using namespace mixq;
using namespace perfbench;

namespace {

/** Served model and traffic, shared by every workload. Rates and limits
    are fixed numbers; METRICS.md gives the measurements behind them. */
constexpr ModelKind kModel = ModelKind::Cnn;
constexpr size_t kMaxBatch = 16;
constexpr size_t kPoolSize = 256;      //!< distinct request items
constexpr long kBatchWaitUs = 500;     //!< ServeOptions::deadlineUs
constexpr size_t kOverQueue = 64;      //!< overload maxQueueItems (Shed)
constexpr long kOverDeadlineUs = 25000; //!< per-request deadline, overload
constexpr double kLightRps = 1000.0, kMidRps = 4000.0, kOverRps = 30000.0;
constexpr double kSloLimitMs = 7.0;    //!< p90 limit of an SLO rung
constexpr double kSloFloor = 4000.0, kSloCeil = 13000.0, kSloRes = 0.025;
constexpr size_t kSloProbes = 2;       //!< SLO probe slices per round
constexpr size_t kSloMinSamples = 600; //!< a probe lasts this many arrivals
constexpr size_t kWindow = 64;         //!< closed-loop outstanding requests
constexpr size_t kSetups = 4;          //!< timed set-ups per round
// Seconds of each slice in one round (overload: per workload).
constexpr double kLightS = 0.30, kMidS = 0.30, kSloS = 0.25, kSatS = 0.25;

/** What the workloads differ in: live reloads during overload. */
struct Workload
{
    const char* name;
    bool reload;       //!< reload A/B/damaged during overload slices
    double overS;      //!< seconds of the overload slice in one round
    double reloadPeriodMs;
};

const Workload kWorkloads[] = {
    {"cnn-poisson", false, 0.25, 0.0},
    {"cnn-overload-reload", true, 0.50, 100.0},
};

struct Args
{
    std::string workload, workdir = ".";
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false, rssProbe = false;
};

Args
parseArgs(int argc, char** argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string k = argv[i];
        auto val = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal("perfbench: " + k + " needs a value");
            return argv[++i];
        };
        if (k == "--workload")
            a.workload = val();
        else if (k == "--seed")
            a.seed = std::stoull(val());
        else if (k == "--seconds")
            a.seconds = std::stod(val());
        else if (k == "--trace")
            a.trace = val() != "0";
        else if (k == "--workdir")
            a.workdir = val();
        else if (k == "--rss-probe")
            a.rssProbe = true;
        else
            fatal("perfbench: unknown argument " + k);
    }
    return a;
}

const Workload&
findWorkload(const std::string& name)
{
    for (const Workload& w : kWorkloads)
        if (name == w.name)
            return w;
    fatal("perfbench: unknown workload '" + name + "'");
}

/**
 * OMP team of the serving worker: one hardware thread fewer than the
 * host has, so the pacing and collector threads never preempt a team
 * member (an OpenMP barrier waits for its slowest thread).
 */
int
ompTeam()
{
    return int(std::max(2u, std::thread::hardware_concurrency()) - 1);
}

ServeOptions
normalOptions()
{
    ServeOptions o;
    o.maxBatch = kMaxBatch;
    o.ompThreads = ompTeam();
    o.deadlineUs = kBatchWaitUs;
    return o;
}

ServeOptions
overloadOptions()
{
    ServeOptions o = normalOptions();
    o.maxQueueItems = kOverQueue;
    o.overload = OverloadPolicy::Shed;
    return o;
}

/** VmHWM of this process in MB (0 if unavailable). */
double
vmHwmMb()
{
    std::FILE* f = std::fopen("/proc/self/status", "r");
    if (!f)
        return 0.0;
    char line[256];
    size_t kb = 0;
    while (std::fgets(line, sizeof(line), f))
        if (std::sscanf(line, "VmHWM: %zu", &kb) == 1)
            break;
    std::fclose(f);
    return double(kb) / 1024.0;
}

/** Host steal time of all CPUs so far, in seconds (0 if unknown). */
double
stealS()
{
    std::FILE* f = std::fopen("/proc/stat", "r");
    if (!f)
        return 0.0;
    unsigned long long v[8] = {};
    int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                        &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                        &v[7]);
    std::fclose(f);
    return n == 8 ? double(v[7]) / 100.0 : 0.0;
}

/**
 * Loads A, starts the server, serves the warm-up and prints VmHWM.
 * Nothing else runs in this process, so the generator's buffers and
 * the reference models are not counted.
 */
int
rssProbe(const std::string& artifact)
{
    auto model = loadModel(kModel, artifact);
    BatchServer srv(*model, 1, traitsOf(kModel), normalOptions());
    Rng rng(7);
    std::vector<std::future<Tensor>> futs;
    for (size_t i = 0; i < 2 * kMaxBatch; ++i)
        futs.push_back(srv.submit(makeItem(kModel, rng)).future);
    for (auto& f : futs)
        f.get();
    srv.stop(true);
    std::printf("rss_mb %.3f\n", vmHwmMb());
    return 0;
}

/**
 * One set-up for setup_s: artifact on disk to first correct response,
 * through a freshly built model, the BatchServer ctor and request
 * @p item. Returns seconds.
 */
double
measureSetup(const Artifacts& art, const Pool& pool, size_t item,
             Tracer& tracer, Ledger& ledger)
{
    Clock::time_point t0 = Clock::now();
    auto model = buildArch(kModel, 99 + item);
    size_t adopted = 0;
    LoadResult lr = tryLoadDeployArtifact(art.a, *model, adopted);
    if (!lr.ok())
        fatal("perfbench: artifact A refused: " + lr.message);
    BatchServer srv(*model, 1, traitsOf(kModel), normalOptions());
    uint32_t i = uint32_t(item % pool.items.size());
    std::future<Tensor> f = srv.submit(pool.items[i]).future;
    SliceResult one;
    Clock::time_point t1 = settleOne(f, pool, i, false, t0, one);
    tracer.record(tracer.newId(), 0, "setup", t0, t1);
    srv.stop(true);
    ++ledger.submitted;
    ledger.ok += one.ledger.ok;
    ledger.wrong += one.ledger.settled() - one.ledger.ok;
    return msBetween(t0, t1) / 1e3;
}

/**
 * One phase's slices, accumulated over the run. Latencies are reported
 * with favourableLatency() (bench_math.hh); rates per slice, as the
 * upper quartile over the run's slices, for the same reason: a
 * stretch the host slowed can only lower a slice's rate.
 */
struct Phase
{
    SliceResult all; //!< every slice, in order
    std::vector<double> rates; //!< ok items / second of each slice
    bool overload = false;
    size_t failed = 0;
    std::string ledgerError;

    void add(const SliceResult& s)
    {
        all.add(s);
        rates.push_back(double(s.ledger.ok) / s.seconds);
        failed += s.ledger.failed(overload);
        std::string why;
        if (!s.ledger.balanced(&why) && ledgerError.empty())
            ledgerError = why;
    }

    double latency(double q) const { return favourableLatency(all.latMs, q); }
    double rate() const { return percentile(rates, 75); }
};

using Named = std::pair<const char*, Phase*>;

void
printInfo(const char* phase, const SliceResult& s)
{
    std::vector<double> v = s.latMs;
    std::sort(v.begin(), v.end());
    auto pct = [&](double q) {
        return percentileSupported(q, v.size())
                   ? std::to_string(percentileSorted(v, q))
                   : std::string("n/a");
    };
    std::printf("info %-6s n=%zu p50=%s p90=%s p99=%s (beyond %zu) "
                "p99.9=%s (beyond %zu) items/batch=%.2f "
                "submitted=%zu ok=%zu shed=%zu expired=%zu "
                "failed_ops=%zu\n",
                phase, v.size(), pct(50).c_str(), pct(90).c_str(),
                pct(99).c_str(), samplesBeyond(99, v.size()),
                pct(99.9).c_str(), samplesBeyond(99.9, v.size()),
                s.batches ? double(s.items) / double(s.batches) : 0.0,
                s.ledger.submitted, s.ledger.ok, s.ledger.shed,
                s.ledger.expired, s.ledger.wrong + s.ledger.errors);
}

std::string
jsonNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.12g", v);
    return buf;
}

/** Interleaved closed-loop slices with and without spans; their
    requests are added to @p ledger. */
double
traceOverheadPct(BatchServer& srv, const Pool& pool, Schedule& sched,
                 size_t window, Tracer& tracer, Ledger& ledger)
{
    Tracer off(false);
    std::vector<double> plain, traced;
    for (int i = 0; i < 8; ++i) {
        bool tracedFirst = i % 2;
        for (int j = 0; j < 2; ++j) {
            bool useTrace = (j == 0) == tracedFirst;
            SliceResult s = closedLoop(srv, pool, sched, window, 0.25,
                                       false, useTrace ? tracer : off,
                                       0);
            (useTrace ? traced : plain)
                .push_back(double(s.ledger.ok) / s.seconds);
            ledger.add(s.ledger);
        }
    }
    double p = median(plain), t = median(traced);
    return (p - t) / p * 100.0;
}

int
runWorkload(const Workload& w, const Args& args, const Artifacts& art)
{
    Tracer tracer(args.trace);
    Pool pool = makePool(kModel, art, kPoolSize, args.seed * 7919 + 11);
    int ompThreads = ompTeam();
#ifdef _OPENMP
    omp_set_num_threads(ompThreads); // standalone layer timings too
#endif
    std::printf("fingerprint workload=%s seed=%llu seconds=%g trace=%d "
                "omp_threads=%d hw_threads=%u workers=1 max_batch=%zu\n",
                w.name, (unsigned long long)args.seed, args.seconds,
                int(args.trace), ompThreads,
                std::thread::hardware_concurrency(), kMaxBatch);

    auto normalModel = loadModel(kModel, art.a);
    auto overModel = loadModel(kModel, art.a);
    BatchServer normal(*normalModel, 1, traitsOf(kModel), normalOptions());
    BatchServer shedder(*overModel, 1, traitsOf(kModel), overloadOptions());
    Schedule sched(args.seed);
    Phase warm;
    warm.add(closedLoop(normal, pool, sched, 2 * kMaxBatch, 0.0, false,
                        tracer, 0));
    warm.add(closedLoop(shedder, pool, sched, 2 * kMaxBatch, 0.0, false,
                        tracer, 0));

    std::unique_ptr<Reloader> reloader;
    if (w.reload)
        reloader = std::make_unique<Reloader>(art, w.reloadPeriodMs,
                                              tracer);
    Collector col(pool, tracer);

    Phase light, mid, slo, sat, over;
    over.overload = true;
    std::vector<double> sloResults;
    SloSearch search(kSloFloor, kSloCeil, kSloRes);

    // Only the overload server is reloaded, so every other slice must
    // return artifact A's bits.
    auto slice = [&](const char* name, BatchServer& srv, auto&& body) {
        uint64_t id = tracer.newId();
        if (reloader && &srv == &shedder)
            reloader->setTarget(&srv);
        Clock::time_point t0 = Clock::now();
        SliceResult s = body(id);
        if (reloader)
            reloader->setTarget(nullptr);
        tracer.record(id, 0, name, t0, Clock::now());
        return s;
    };

    double round = kLightS + kMidS + kSloS * double(kSloProbes) +
                   kSatS + w.overS;
    size_t rounds =
        std::max<size_t>(1, size_t(std::lround(args.seconds / round)));
    Ledger setupLedger;
    std::vector<double> setupSecs;
    Clock::time_point runStart = Clock::now();
    double stealStart = stealS();
    for (size_t r = 0; r < rounds; ++r) {
        for (size_t i = 0; i < kSetups; ++i)
            setupSecs.push_back(measureSetup(art, pool, setupSecs.size(),
                                             tracer, setupLedger));
        light.add(slice("slice.light", normal, [&](uint64_t id) {
            return openLoop(normal, col, pool, sched, kLightRps,
                            kLightS, 0, false, tracer, id);
        }));
        mid.add(slice("slice.mid", normal, [&](uint64_t id) {
            return openLoop(normal, col, pool, sched, kMidRps, kMidS,
                            0, false, tracer, id);
        }));
        for (size_t p = 0; p < kSloProbes; ++p) {
            double rate = search.next();
            double secs =
                std::max(kSloS, double(kSloMinSamples) / rate);
            SliceResult s = slice("slice.slo", normal, [&](uint64_t id) {
                return openLoop(normal, col, pool, sched, rate, secs, 0,
                                false, tracer, id);
            });
            Rung rung;
            rung.rate = rate;
            rung.p90Ms = percentile(s.latMs, 90.0);
            rung.samples = s.latMs.size();
            rung.lost = s.ledger.submitted - s.ledger.ok;
            rung.backlogGrew =
                backlogGrowing(s.backlogMid, s.backlogEnd, 2 * kMaxBatch);
            search.record(rung, kSloLimitMs);
            std::printf("info probe round=%zu rate=%.1f p90=%.3f n=%zu "
                        "lost=%zu backlog=%zu->%zu pass=%d\n",
                        r, rate, rung.p90Ms, rung.samples, rung.lost,
                        s.backlogMid, s.backlogEnd,
                        int(rungPasses(rung, kSloLimitMs)));
            slo.add(s);
            if (search.done()) {
                sloResults.push_back(search.result());
                search = SloSearch(kSloFloor, kSloCeil, kSloRes);
            }
        }
        sat.add(slice("slice.sat", normal, [&](uint64_t id) {
            return closedLoop(normal, pool, sched, kWindow, kSatS,
                              false, tracer, id);
        }));
        over.add(slice("slice.over", shedder, [&](uint64_t id) {
            return openLoop(shedder, col, pool, sched, kOverRps, w.overS,
                            kOverDeadlineUs, w.reload, tracer, id);
        }));
    }
    double runS = msBetween(runStart, Clock::now()) / 1e3;
    if (reloader)
        reloader->stop();

    // ------------------------------------------------------ verdicts
    std::vector<std::string> problems;
    // Disturbed stretches fail rungs that a steady host passes, so
    // searches err low; report the upper quartile of their answers.
    double sloRate = percentile(sloResults, 75);
    if (sloResults.empty())
        problems.push_back("no SLO search completed");
    size_t attempted = setupLedger.submitted;
    size_t failed = setupLedger.failed(false);
    for (Phase* ph : {&warm, &light, &mid, &slo, &sat, &over}) {
        attempted += ph->all.ledger.submitted;
        failed += ph->failed;
        if (!ph->ledgerError.empty())
            problems.push_back("ledger: " + ph->ledgerError);
    }
    if (reloader) {
        attempted += reloader->attempts;
        failed += reloader->failed;
        if (reloader->attempts == 0)
            problems.push_back("no reload ran");
    }
    for (auto [name, ph] : {Named{"light", &light}, Named{"mid", &mid}})
        if (!percentileSupported(90, ph->all.latMs.size()))
            problems.push_back(std::string("too few ") + name +
                               " samples for p90");
    std::vector<double> late;
    for (Phase* ph : {&light, &mid, &slo, &over})
        late.insert(late.end(), ph->all.lateMs.begin(),
                    ph->all.lateMs.end());
    double lateP90 = percentile(late, 90.0);
    double lateMax = late.empty() ? 0.0 : *std::max_element(
                                              late.begin(), late.end());
    // A generator that ran late offered less than it claims: the run
    // is reported invalid. Its outputs were still checked, so this
    // does not touch "correct".
    constexpr double kMaxLateP90Ms = 1.0;
    if (lateP90 > kMaxLateP90Ms)
        std::printf("invalid run: generator fell behind (late p90 %.3f "
                    "ms > %.1f ms)\n",
                    lateP90, kMaxLateP90Ms);

    for (auto [name, ph] :
         {Named{"light", &light}, Named{"mid", &mid}, Named{"slo", &slo},
          Named{"sat", &sat}, Named{"over", &over}})
        printInfo(name, ph->all);
    std::printf("info groups light=%zu mid=%zu over=%zu\n",
                groupPercentiles(light.all.latMs, kGroupSamples, 50).size(),
                groupPercentiles(mid.all.latMs, kGroupSamples, 50).size(),
                groupPercentiles(over.all.latMs, kGroupSamples, 50).size());
    std::printf("info setup_ms n=%zu p25=%.3f p50=%.3f p75=%.3f\n",
                setupSecs.size(), percentile(setupSecs, 25) * 1e3,
                median(setupSecs) * 1e3, percentile(setupSecs, 75) * 1e3);
    std::printf("info rounds=%zu run_s=%.2f steal_s=%.2f "
                "slo_probes=%zu gen_late_ms p90=%.4f max=%.3f "
                "slo_searches=",
                rounds, runS, stealS() - stealStart,
                slo.rates.size(), lateP90, lateMax);
    for (double r : sloResults)
        std::printf("%.1f ", r);
    std::printf("\n");
    if (reloader)
        std::printf("info reloads=%zu failed_reloads=%zu\n",
                    reloader->attempts, reloader->failed);
    for (const std::string& p : problems)
        std::printf("problem %s\n", p.c_str());

    Metrics m;
    if (!args.trace) {
        m.push_back({"setup_s", median(setupSecs), "s"});
        m.push_back({"lat_p50_ms.light", light.latency(50), "ms"});
        m.push_back({"lat_p90_ms.light", light.latency(90), "ms"});
        m.push_back({"lat_p50_ms.mid", mid.latency(50), "ms"});
        m.push_back({"lat_p90_ms.mid", mid.latency(90), "ms"});
        m.push_back({"slo_rate_rps", sloRate, "req/s"});
        m.push_back({"peak_items_per_s", sat.rate(), "items/s"});
        m.push_back({"goodput_items_per_s", over.rate(), "items/s"});
        m.push_back({"lat_p50_ms.over", over.latency(50), "ms"});
    } else {
        // Per-layer rows of the served model, then the per-step rows
        // of both models so every workload prints the same names.
        measureSerial(kModel, art, tracer, m);
        double runB1 =
            measurePlanExec(kModel, art, pool, kMaxBatch, tracer, m);
        for (ModelKind k : {ModelKind::Cnn, ModelKind::Lm}) {
            if (k == kModel) {
                measureSteps(k, art, pool, tracer, m, true);
            } else {
                Artifacts other = writeArtifacts(k, args.workdir);
                Pool otherPool = makePool(k, other, kMaxBatch, args.seed);
                measureSteps(k, other, otherPool, tracer, m, false);
            }
        }

        std::vector<double> submitUs = light.all.submitUs;
        submitUs.insert(submitUs.end(), mid.all.submitUs.begin(),
                        mid.all.submitUs.end());
        m.push_back(
            {"serve.submit_us.p50", percentile(submitUs, 50), "us"});
        m.push_back(
            {"serve.submit_us.p90", percentile(submitUs, 90), "us"});
        std::vector<double> rtt;
        for (int i = 0; i < 40; ++i) {
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            SliceResult s = closedLoop(normal, pool, sched, 1, 0.0,
                                       false, tracer, 0);
            rtt.push_back(s.seconds * 1e6);
            failed += s.ledger.failed(false);
            attempted += s.ledger.submitted;
        }
        m.push_back({"serve.overhead_us", median(rtt) - runB1, "us"});
        for (auto [name, ph] : {Named{"light", &light},
                                Named{"mid", &mid}, Named{"sat", &sat}})
            m.push_back({std::string("serve.items_per_batch.") + name,
                         ph->all.batches ? double(ph->all.items) /
                                               double(ph->all.batches)
                                         : 0.0,
                         "items"});
        m.push_back({"serve.queue_peak_items",
                     double(shedder.stats().queuePeakItems), "items"});
        m.push_back({"serve.shed", double(over.all.ledger.shed), "count"});
        m.push_back({"serve.expired", double(over.all.ledger.expired),
                     "count"});
        const Ledger& ol = over.all.ledger;
        double offered = double(std::max<size_t>(1, ol.submitted));
        m.push_back({"serve.useful_ratio", double(ol.ok) / offered,
                     "ratio"});

        Ledger overheadLedger;
        double overheadPct = traceOverheadPct(normal, pool, sched, kWindow,
                                              tracer, overheadLedger);
        attempted += overheadLedger.submitted;
        failed += overheadLedger.failed(false);

        // Workloads without live reloads time a short reload series
        // on the idle overload server instead.
        std::vector<double> reloadMs;
        size_t reloads = 0;
        if (reloader) {
            reloadMs = reloader->goodMs;
            reloads = reloader->attempts;
        } else {
            for (size_t i = 0; i < 8; ++i) {
                bool damaged = i % 4 == 3;
                Clock::time_point t0 = Clock::now();
                LoadResult lr = shedder.reloadArtifact(
                    damaged ? art.damaged : (i % 2 ? art.a : art.b));
                Clock::time_point t1 = Clock::now();
                tracer.record(tracer.newId(), 0, "reload", t0, t1);
                ++reloads;
                ++attempted;
                if (lr.ok() == damaged)
                    ++failed;
                else if (!damaged)
                    reloadMs.push_back(msBetween(t0, t1));
            }
        }
        m.push_back({"serve.reloads", double(reloads), "count"});
        m.push_back(
            {"serve.reload_ms.p50", percentile(reloadMs, 50), "ms"});
        m.push_back({"serve.reload_ms.max",
                     reloadMs.empty() ? 0.0
                                      : *std::max_element(reloadMs.begin(),
                                                          reloadMs.end()),
                     "ms"});
        m.push_back({"bench.gen_late_ms.p90", lateP90, "ms"});
        m.push_back({"bench.gen_late_ms.max", lateMax, "ms"});
        m.push_back({"trace.overhead_pct", overheadPct, "%"});
        m.push_back({"trace.spans", double(tracer.count()), "count"});
        std::string path =
            args.workdir + "/spans-" + std::string(w.name) + ".tsv";
        if (!tracer.write(path))
            problems.push_back("cannot write " + path);
        std::printf("info spans written to %s\n", path.c_str());
    }
    normal.stop(true);
    shedder.stop(true);

    bool correct = failed == 0 && problems.empty();
    std::string json = std::string("{\"correct\": ") +
                       (correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(attempted) +
                       ", \"failed\": " + std::to_string(failed) +
                       ", \"metrics\": {";
    for (size_t i = 0; i < m.size(); ++i)
        json += (i ? ", \"" : "\"") + m[i].name + "\": {\"value\": " +
                jsonNumber(m[i].value) + ", \"unit\": \"" + m[i].unit +
                "\"}";
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    Args args = parseArgs(argc, argv);
    const Workload& w = findWorkload(args.workload);
    std::filesystem::create_directories(args.workdir);
    if (args.rssProbe)
        return rssProbe(args.workdir + "/" + modelName(kModel) + "_a.mixq");
    Artifacts art = writeArtifacts(kModel, args.workdir);
    return runWorkload(w, args, art);
}
