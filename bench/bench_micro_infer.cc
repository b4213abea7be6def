/**
 * @file
 * Micro-benchmarks (google-benchmark) of the integer inference
 * backend: packed shift-add Linear eval vs the float GEMM eval at
 * the same shape (the items/s ratio is the int backend's deploy-time
 * win that tools/check_perf_budget.py gates in CI — the int path
 * must at least break even against float at one pinned thread,
 * end to end including activation quantization and rescale), plus
 * the row-parallel 4-thread/1-thread scaling of the same int eval
 * (gated on multi-core runners), and an informational Conv2d int
 * eval. Shapes are latency-oriented small batches: that is the
 * regime the deployable backend targets, and where the blocked
 * float GEMM pays its full MR-tile padding.
 */

#include <benchmark/benchmark.h>

#include <cmath>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "nn/gemm.hh"
#include "nn/layers.hh"
#include "quant/quantizer.hh"
#include "util/rng.hh"

using namespace mixq;

namespace {

class ThreadPin
{
  public:
    explicit ThreadPin(int threads)
    {
#ifdef _OPENMP
        prev_ = omp_get_max_threads();
        if (threads > 0)
            omp_set_num_threads(threads);
#else
        (void)threads;
#endif
    }
    ~ThreadPin()
    {
#ifdef _OPENMP
        omp_set_num_threads(prev_);
#endif
    }

  private:
    int prev_ = 0;
};

Tensor
positiveActs(std::initializer_list<size_t> shape, uint64_t seed)
{
    Rng rng(seed);
    Tensor x = Tensor::randn(shape, rng, 1.0);
    for (float& v : x.span())
        v = std::fabs(v);
    return x;
}

/** Calibrate the layer's own act quantizer and hard-quantize +
 *  pack its weights, mirroring the finalize -> deploy flow. */
void
enableIntPath(Linear& lin, Tensor& x, size_t out, size_t in)
{
    lin.configureOwnActQuant(4, true);
    lin.forward(x, true); // calibrate
    QConfig cfg;          // Mixed, 4-bit, PerRow
    MatrixQuantResult res = quantizeMatrix(
        lin.weight().w.data(), lin.weight().w.data(), out, in, cfg);
    lin.weight().noteUpdated();
    lin.enableIntInference(res, cfg.bits);
    lin.forward(x, false); // warm the packed plan
}

void
runLinearEval(benchmark::State& state, bool integer, int threads)
{
    ThreadPin pin(threads);
    size_t m = size_t(state.range(0));
    size_t in = size_t(state.range(1));
    size_t out = size_t(state.range(2));
    Rng rng(3);
    Linear lin(in, out, rng, /*bias=*/true);
    Tensor x = positiveActs({m, in}, 11);
    if (integer)
        enableIntPath(lin, x, out, in);
    for (auto _ : state) {
        Tensor y = lin.forward(x, false);
        benchmark::DoNotOptimize(y.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(2 * m * in * out));
}

void
BM_LinearFloatEval1T(benchmark::State& state)
{
    runLinearEval(state, /*integer=*/false, 1);
}
BENCHMARK(BM_LinearFloatEval1T)
    ->Args({4, 256, 256})
    ->Args({8, 256, 256})
    ->Args({16, 256, 256})
    ->Args({32, 256, 256})
    ->Args({64, 256, 256})
    ->UseRealTime();

void
BM_LinearIntEval1T(benchmark::State& state)
{
    runLinearEval(state, /*integer=*/true, 1);
}
BENCHMARK(BM_LinearIntEval1T)
    ->Args({4, 256, 256})
    ->Args({8, 256, 256})
    ->Args({16, 256, 256})
    ->Args({32, 256, 256})
    ->Args({64, 256, 256})
    ->UseRealTime();

void
BM_LinearIntEval4T(benchmark::State& state)
{
    runLinearEval(state, /*integer=*/true, 4);
}
BENCHMARK(BM_LinearIntEval4T)
    ->Args({4, 256, 256})
    ->Args({8, 256, 256})
    ->Args({32, 256, 256})
    ->UseRealTime();

// 8-thread scaling point of the same int eval (gated vs 4T on
// runners with >= 8 cores; 32 rows still give 4 rows per thread).
void
BM_LinearIntEval8T(benchmark::State& state)
{
    runLinearEval(state, /*integer=*/true, 8);
}
BENCHMARK(BM_LinearIntEval8T)->Args({32, 256, 256})->UseRealTime();

// Conv2d eval, 3x3 pad 1, Args {n, ch, hw, stride} — informational,
// no budget gate. The int path reads a phased code image instead of
// copying im2col columns; the stride-2 shape exercises its four
// stride phases.
void
runConvEval(benchmark::State& state, bool integer, int threads)
{
    ThreadPin pin(threads);
    size_t n = size_t(state.range(0));
    size_t ch = size_t(state.range(1));
    size_t hw = size_t(state.range(2));
    size_t stride = size_t(state.range(3));
    size_t ohw = convOut(hw, 3, stride, 1);
    Rng rng(5);
    Conv2d conv(ch, ch, 3, stride, 1, rng);
    Tensor x = positiveActs({n, ch, hw, hw}, 13);
    if (integer) {
        conv.configureOwnActQuant(4, true);
        conv.forward(x, true);
        QConfig cfg;
        MatrixQuantResult res =
            quantizeMatrix(conv.weight().w.data(),
                           conv.weight().w.data(), ch, ch * 9, cfg);
        conv.weight().noteUpdated();
        conv.enableIntInference(res, cfg.bits);
        conv.forward(x, false);
    }
    for (auto _ : state) {
        Tensor y = conv.forward(x, false);
        benchmark::DoNotOptimize(y.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(2 * n * ch * ch * 9 * ohw * ohw));
}

void
BM_ConvFloatEval1T(benchmark::State& state)
{
    runConvEval(state, /*integer=*/false, 1);
}
BENCHMARK(BM_ConvFloatEval1T)->Args({2, 16, 14, 1})->UseRealTime();

void
BM_ConvIntEval1T(benchmark::State& state)
{
    runConvEval(state, /*integer=*/true, 1);
}
BENCHMARK(BM_ConvIntEval1T)
    ->Args({2, 16, 14, 1})
    ->Args({2, 16, 14, 2})
    ->UseRealTime();

} // namespace

BENCHMARK_MAIN();
