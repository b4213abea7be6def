/**
 * @file
 * Differential tests of the integer inference backend (src/infer/):
 * the packed shift-add/MAC microkernels against the simulator cores
 * (bit-exact int32 accumulators — both sides are specifications of
 * the same datapath), the packed layers against their fake-quant
 * float forwards (tolerance — same math, different summation), and
 * the compiler bridge that feeds packed panels through
 * referenceGemmInt/runGemmFunctional. Edge cases ride the same
 * harness: all-zero rows, alpha extremes, and the j = -1 zero-term
 * SP2 codes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "compiler/runner.hh"
#include "fpga/design_point.hh"
#include "infer/qkernels.hh"
#include "infer/qpack.hh"
#include "infer/session.hh"
#include "nn/gemm.hh"
#include "nn/layers.hh"
#include "nn/models.hh"
#include "nn/rnn.hh"
#include "nn/trainer.hh"
#include "quant/quantizer.hh"
#include "sim/gemm_core.hh"
#include "util/rng.hh"

namespace mixq {
namespace {

/** Random unsigned activation codes in the 4-bit range [0, 15] —
 *  int8-safe and overflow-safe against 8-bit SP2 magnitudes. */
std::vector<int8_t>
randomActCodes(size_t n, Rng& rng)
{
    std::vector<int8_t> a(n);
    for (int8_t& v : a)
        v = int8_t(rng.uniform(0.0, 15.999));
    return a;
}

/** Widen int8 codes to the int32 lanes qgemm consumes. */
std::vector<int32_t>
widen(const std::vector<int8_t>& a)
{
    return std::vector<int32_t>(a.begin(), a.end());
}

/** Sim-core accumulators of packed row @p r over acts [m x cols]. */
void
simRowAccumulators(const PackedQMat& w, size_t r,
                   const std::vector<int8_t>& acts, size_t m,
                   int32_t* acc)
{
    size_t cols = w.cols();
    if (w.rowScheme(r) == QuantScheme::Sp2) {
        GemmSp2Core core(m, cols, 1);
        core.step(w.sp2Codes().data() + r * cols, acts.data());
        std::copy_n(core.acc().data(), m, acc);
    } else {
        GemmFixedCore core(m, cols, 1);
        core.step(w.fixedCodes().data() + r * cols, acts.data());
        std::copy_n(core.acc().data(), m, acc);
    }
}

/**
 * Reference accumulators via the simulator cores, one single-row
 * core per packed row: SP2 rows through GemmSp2Core (shift-add
 * datapath), Fixed rows through GemmFixedCore (MAC datapath).
 * Returns [rows x m] to match qgemm's layout.
 */
std::vector<int32_t>
simAccumulators(const PackedQMat& w, const std::vector<int8_t>& acts,
                size_t m)
{
    std::vector<int32_t> acc(w.rows() * m);
    for (size_t r = 0; r < w.rows(); ++r)
        simRowAccumulators(w, r, acts, m, acc.data() + r * m);
    return acc;
}

/** qgemm accumulators for int8 acts laid out [m x cols]. */
std::vector<int32_t>
packedAccumulators(const PackedQMat& w,
                   const std::vector<int8_t>& acts, size_t m)
{
    size_t cols = w.cols();
    std::vector<int32_t> a32 = widen(acts);
    std::vector<int32_t> actsT(cols * m);
    transposeInt32(a32.data(), actsT.data(), m, cols);
    std::vector<int32_t> acc(w.rows() * m);
    qgemm(w, actsT.data(), m, acc.data());
    return acc;
}

void
expectNearRel(const Tensor& got, const Tensor& want, double tol)
{
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
        double t = tol * (1.0 + std::fabs(double(want[i])));
        ASSERT_NEAR(got[i], want[i], t) << "index " << i;
    }
}

// ------------------------------------------------------------------
// Microkernel vs simulator cores: bit-exact int32 accumulators over
// the full schemes x bits x granularity matrix. The weights are real
// quantizer output (quantizeMatrix), so the packed codes face the
// exact values deployment faces.
// ------------------------------------------------------------------

TEST(InferDiff, QgemmMatchesSimCoresAcrossSchemesBitsGranularity)
{
    Rng rng(11);
    size_t rows = 12, cols = 20, m = 7;
    for (QuantScheme scheme :
         {QuantScheme::Sp2, QuantScheme::Fixed, QuantScheme::Mixed}) {
        for (int bits = 2; bits <= 8; ++bits) {
            for (Granularity g :
                 {Granularity::PerRow, Granularity::PerGroup}) {
                SCOPED_TRACE(testing::Message()
                             << toString(scheme) << " bits=" << bits
                             << " perRow="
                             << (g == Granularity::PerRow));
                std::vector<float> w(rows * cols), q(rows * cols);
                for (float& x : w)
                    x = float(rng.normal(0.0, 0.4));
                QConfig cfg;
                cfg.scheme = scheme;
                cfg.bits = bits;
                cfg.granularity = g;
                MatrixQuantResult res = quantizeMatrix(
                    w.data(), q.data(), rows, cols, cfg);

                PackedQMat pack;
                pack.ensure(q.data(), rows, cols, 1, res.rowScheme,
                            res.rowAlpha, bits);
                if (scheme == QuantScheme::Mixed) {
                    EXPECT_EQ(pack.numSp2(), res.numSp2);
                    EXPECT_GT(pack.numSp2(), 0u);
                    EXPECT_LT(pack.numSp2(), rows);
                }

                std::vector<int8_t> acts =
                    randomActCodes(m * cols, rng);
                std::vector<int32_t> want =
                    simAccumulators(pack, acts, m);
                std::vector<int32_t> got =
                    packedAccumulators(pack, acts, m);
                ASSERT_EQ(got, want);
            }
        }
    }
}

// ------------------------------------------------------------------
// Edge cases through the same harness: all-zero rows (fitAlpha's 1.0
// fallback), alpha extremes at both ends of the clamp range, and the
// j = -1 zero-term codes (absent second term / all-absent zero code).
// ------------------------------------------------------------------

TEST(InferDiff, ZeroRowsAlphaExtremesAndZeroTermCodes)
{
    Rng rng(12);
    size_t cols = 16, m = 5;
    Sp2Codec codec(4);

    // Hand-built rows: codes times per-row alphas spanning the
    // fitAlpha clamp floor up to a large scale.
    std::vector<float> alphas = {1e-12f, 1e-6f, 1.0f, 1e4f, 1.0f,
                                 1.0f};
    std::vector<QuantScheme> schemes = {
        QuantScheme::Sp2,   QuantScheme::Sp2,  QuantScheme::Sp2,
        QuantScheme::Fixed, QuantScheme::Sp2,  QuantScheme::Fixed};
    size_t rows = schemes.size();
    std::vector<float> w(rows * cols, 0.0f);
    auto mags = sp2Magnitudes(4);
    for (size_t r = 0; r < 4; ++r) { // rows 4, 5 stay all-zero
        for (size_t j = 0; j < cols; ++j) {
            if (schemes[r] == QuantScheme::Sp2) {
                double v = mags[size_t(rng.uniform(
                    0.0, double(mags.size()) - 0.001))];
                double s = rng.bernoulli(0.5) ? 1.0 : -1.0;
                w[r * cols + j] = float(s * v * double(alphas[r]));
            } else {
                int k = int(rng.uniform(-7.999, 7.999));
                w[r * cols + j] =
                    float(double(k) / 7.0 * double(alphas[r]));
            }
        }
    }

    PackedQMat pack;
    pack.ensure(w.data(), rows, cols, 1, schemes, alphas, 4);

    // The zero-term expansion must appear: zero codes (both j = -1)
    // from the all-zero rows, and at least one single-term code
    // (j2 = -1, j1 >= 0) among the power-of-two magnitudes.
    bool sawZeroCode = false, sawSingleTerm = false;
    for (const Sp2Code& c : pack.sp2Codes()) {
        if (c.j1 < 0 && c.j2 < 0)
            sawZeroCode = true;
        if (c.j1 >= 0 && c.j2 < 0)
            sawSingleTerm = true;
    }
    EXPECT_TRUE(sawZeroCode);
    EXPECT_TRUE(sawSingleTerm);

    std::vector<int8_t> acts = randomActCodes(m * cols, rng);
    std::vector<int32_t> want = simAccumulators(pack, acts, m);
    std::vector<int32_t> got = packedAccumulators(pack, acts, m);
    ASSERT_EQ(got, want);

    // All-zero rows accumulate exactly zero on both paths.
    for (size_t r = 4; r < 6; ++r)
        for (size_t b = 0; b < m; ++b)
            EXPECT_EQ(got[r * m + b], 0) << "row " << r;
}

// ------------------------------------------------------------------
// Pack lifecycle: ensure() is O(1) on unchanged inputs and repacks
// on a version bump.
// ------------------------------------------------------------------

TEST(InferPack, EnsureReusesUntilVersionBump)
{
    Rng rng(13);
    size_t rows = 6, cols = 8;
    std::vector<float> w(rows * cols), q(rows * cols);
    for (float& x : w)
        x = float(rng.normal(0.0, 0.4));
    QConfig cfg;
    MatrixQuantResult res =
        quantizeMatrix(w.data(), q.data(), rows, cols, cfg);

    PackedQMat pack;
    pack.ensure(q.data(), rows, cols, 1, res.rowScheme, res.rowAlpha,
                cfg.bits);
    EXPECT_EQ(pack.packCount(), 1u);
    pack.ensure(q.data(), rows, cols, 1, res.rowScheme, res.rowAlpha,
                cfg.bits);
    EXPECT_EQ(pack.packCount(), 1u);
    pack.ensure(q.data(), rows, cols, 2, res.rowScheme, res.rowAlpha,
                cfg.bits);
    EXPECT_EQ(pack.packCount(), 2u);
}

// ------------------------------------------------------------------
// Layer-level differential: the int backend's eval forward against
// the fake-quant float eval forward on the same calibrated layer.
// The integer path is exact accumulation + one rescale; the float
// path sums float products — they agree to rounding tolerance.
// ------------------------------------------------------------------

TEST(InferDiff, LinearIntForwardMatchesFloatEval)
{
    for (QuantScheme scheme :
         {QuantScheme::Sp2, QuantScheme::Fixed, QuantScheme::Mixed}) {
        SCOPED_TRACE(toString(scheme));
        Rng rng(21);
        size_t in = 24, out = 18, n = 9;
        Linear lin(in, out, rng, /*bias=*/true);
        lin.configureOwnActQuant(4, true);
        Tensor x = Tensor::randn({n, in}, rng, 1.0);
        for (float& v : x.span())
        v = std::fabs(v);
        lin.forward(x, true); // calibrate the activation quantizer

        QConfig cfg;
        cfg.scheme = scheme;
        MatrixQuantResult res = quantizeMatrix(
            lin.weight().w.data(), lin.weight().w.data(), out, in,
            cfg);
        lin.weight().noteUpdated();

        Tensor want = lin.forward(x, false); // fake-quant float path
        lin.enableIntInference(res, cfg.bits);
        Tensor got = lin.forward(x, false); // packed int path
        ASSERT_TRUE(lin.intInferenceEnabled());
        EXPECT_EQ(lin.packedQWeights().packCount(), 1u);
        expectNearRel(got, want, 5e-5);

        // Backend toggles switch cleanly back.
        lin.disableIntInference();
        Tensor back = lin.forward(x, false);
        for (size_t i = 0; i < back.size(); ++i)
            ASSERT_EQ(back[i], want[i]);
    }
}

TEST(InferDiff, Conv2dIntForwardMatchesFloatEval)
{
    Rng rng(22);
    size_t n = 3;
    Conv2d conv(3, 10, 3, 1, 1, rng, /*bias=*/true);
    conv.configureOwnActQuant(4, true);
    Tensor x = Tensor::randn({n, 3, 9, 9}, rng, 1.0);
    for (float& v : x.span())
        v = std::fabs(v);
    conv.forward(x, true);

    QConfig cfg; // Mixed, 4-bit, per-row — the paper default
    MatrixQuantResult res = quantizeMatrix(
        conv.weight().w.data(), conv.weight().w.data(), 10, 3 * 3 * 3,
        cfg);
    conv.weight().noteUpdated();

    Tensor want = conv.forward(x, false);
    conv.enableIntInference(res, cfg.bits);
    Tensor got = conv.forward(x, false);
    expectNearRel(got, want, 5e-5);
}

TEST(InferDiff, DwConv2dIntForwardMatchesFloatEval)
{
    Rng rng(26);
    size_t n = 3, ch = 6;
    DwConv2d dw(ch, 3, 1, 1, rng);
    dw.configureOwnActQuant(4, true);
    Tensor x = Tensor::randn({n, ch, 9, 9}, rng, 1.0);
    for (float& v : x.span())
        v = std::fabs(v);
    dw.forward(x, true); // calibrate

    QConfig cfg; // Mixed, 4-bit, per-row: one row per channel kernel
    MatrixQuantResult res = quantizeMatrix(
        dw.weight().w.data(), dw.weight().w.data(), ch, 3 * 3, cfg);
    dw.weight().noteUpdated();

    Tensor want = dw.forward(x, false); // fake-quant float path
    dw.enableIntInference(res, cfg.bits);
    Tensor got = dw.forward(x, false); // packed shift-add path
    ASSERT_TRUE(dw.intInferenceEnabled());
    EXPECT_EQ(dw.packedQWeights().packCount(), 1u);
    expectNearRel(got, want, 5e-5);

    // Backend toggles switch cleanly back.
    dw.disableIntInference();
    Tensor back = dw.forward(x, false);
    for (size_t i = 0; i < back.size(); ++i)
        ASSERT_EQ(back[i], want[i]);
}

// ------------------------------------------------------------------
// Int Conv2d / DwConv2d forwards bit for bit against a test-local
// oracle: float im2col of the input's integer codes, the simulator
// cores, then the layers' rescale. Covers kernel x stride x pad over
// odd, non-square inputs, batch 1 and 3, bias on and off, and both
// code pipelines: halfword, and int32 forced by a reduction depth
// past 2184 at 4-bit unsigned codes (15 * 2185 > INT16_MAX).
// ------------------------------------------------------------------

struct ConvCase
{
    size_t k, stride, pad, inCh, h, w, n;
};

std::string
describe(const ConvCase& c)
{
    return "k=" + std::to_string(c.k) + " s=" + std::to_string(c.stride) +
           " p=" + std::to_string(c.pad) + " cin=" +
           std::to_string(c.inCh) + " " + std::to_string(c.h) + "x" +
           std::to_string(c.w) + " n=" + std::to_string(c.n);
}

/** Nonnegative input, so 4-bit unsigned codes span their range. */
Tensor
positiveInput(const ConvCase& c, Rng& rng)
{
    Tensor x = Tensor::randn({c.n, c.inCh, c.h, c.w}, rng, 1.0);
    for (float& v : x.span())
        v = std::fabs(v);
    return x;
}

/**
 * Oracle accumulators of rows [r0, r1) of @p pack over one item's
 * [chans, h, w] code image @p codes: float im2col, then one sim core
 * per row. Returns [r1 - r0 x OH*OW].
 */
std::vector<int32_t>
oracleConvAccumulators(const PackedQMat& pack, size_t r0, size_t r1,
                       const float* codes, size_t chans,
                       const ConvCase& c)
{
    size_t oh = convOut(c.h, c.k, c.stride, c.pad);
    size_t ow = convOut(c.w, c.k, c.stride, c.pad);
    size_t rowsK = chans * c.k * c.k, m = oh * ow;
    std::vector<float> cols(rowsK * m);
    im2col(codes, chans, c.h, c.w, c.k, c.k, c.stride, c.pad,
           cols.data());
    std::vector<int8_t> acts(m * rowsK); // [m x rowsK] for the cores
    for (size_t j = 0; j < rowsK; ++j)
        for (size_t q = 0; q < m; ++q)
            acts[q * rowsK + j] = int8_t(cols[j * m + q]);
    std::vector<int32_t> acc((r1 - r0) * m);
    for (size_t r = r0; r < r1; ++r)
        simRowAccumulators(pack, r, acts, m, acc.data() + (r - r0) * m);
    return acc;
}

/** Integer codes of @p x under @p ap, carried as floats for im2col. */
std::vector<float>
codeImage(const Tensor& x, const ActQuantParams& ap)
{
    std::vector<int32_t> q(x.size());
    quantizeActsInt(x.data(), q.data(), x.size(), ap);
    return std::vector<float>(q.begin(), q.end());
}

void
expectBitIdentical(const Tensor& got, const std::vector<float>& want)
{
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i)
        ASSERT_EQ(std::memcmp(got.data() + i, &want[i], sizeof(float)),
                  0)
            << "index " << i << ": " << got[i] << " vs " << want[i];
}

void
checkConv2dAgainstOracle(const ConvCase& c, bool bias, bool halfword)
{
    SCOPED_TRACE(describe(c) + (bias ? " bias" : " no-bias"));
    Rng rng(41 + c.k * 7 + c.stride * 3 + c.pad);
    size_t outCh = 5, ckk = c.inCh * c.k * c.k;
    Conv2d conv(c.inCh, outCh, c.k, c.stride, c.pad, rng, bias);
    conv.configureOwnActQuant(4, true);
    Tensor x = positiveInput(c, rng);
    conv.forward(x, true); // calibrate
    if (bias)
        for (float& b : conv.params()[1]->w.span())
            b = float(rng.normal(0.0, 0.5));
    QConfig cfg; // Mixed, 4-bit, per-row
    MatrixQuantResult res =
        quantizeMatrix(conv.weight().w.data(), conv.weight().w.data(),
                       outCh, ckk, cfg);
    conv.weight().noteUpdated();
    conv.enableIntInference(res, cfg.bits);
    Tensor got = conv.forward(x, false);

    const PackedQMat& pack = conv.packedQWeights();
    ActQuantParams ap = actQuantParams(conv.actQuant());
    ASSERT_EQ(halfwordSafe(ap, ckk), halfword);
    std::vector<float> codes = codeImage(x, ap);
    size_t oh = convOut(c.h, c.k, c.stride, c.pad);
    size_t ow = convOut(c.w, c.k, c.stride, c.pad);
    size_t m = oh * ow, chw = c.inCh * c.h * c.w;
    std::vector<float> want(c.n * outCh * m);
    for (size_t i = 0; i < c.n; ++i) {
        std::vector<int32_t> acc = oracleConvAccumulators(
            pack, 0, outCh, codes.data() + i * chw, c.inCh, c);
        for (size_t r = 0; r < outCh; ++r) {
            double f = pack.rowDequant(r) * double(ap.invScale);
            float b = bias ? conv.params()[1]->w[r] : 0.0f;
            for (size_t q = 0; q < m; ++q)
                want[(i * outCh + r) * m + q] =
                    float(double(acc[r * m + q]) * f) + b;
        }
    }
    expectBitIdentical(got, want);
}

void
checkDwConv2dAgainstOracle(const ConvCase& c, bool halfword)
{
    SCOPED_TRACE(describe(c));
    Rng rng(61 + c.k * 7 + c.stride * 3 + c.pad);
    size_t kk = c.k * c.k;
    DwConv2d dw(c.inCh, c.k, c.stride, c.pad, rng);
    dw.configureOwnActQuant(4, true);
    Tensor x = positiveInput(c, rng);
    dw.forward(x, true); // calibrate
    QConfig cfg;
    MatrixQuantResult res = quantizeMatrix(
        dw.weight().w.data(), dw.weight().w.data(), c.inCh, kk, cfg);
    dw.weight().noteUpdated();
    dw.enableIntInference(res, cfg.bits);
    Tensor got = dw.forward(x, false);

    const PackedQMat& pack = dw.packedQWeights();
    ActQuantParams ap = actQuantParams(dw.actQuant());
    ASSERT_EQ(halfwordSafe(ap, kk), halfword);
    std::vector<float> codes = codeImage(x, ap);
    size_t oh = convOut(c.h, c.k, c.stride, c.pad);
    size_t ow = convOut(c.w, c.k, c.stride, c.pad);
    size_t m = oh * ow, hw = c.h * c.w;
    std::vector<float> want(c.n * c.inCh * m);
    for (size_t i = 0; i < c.n; ++i) {
        for (size_t ch = 0; ch < c.inCh; ++ch) {
            std::vector<int32_t> acc = oracleConvAccumulators(
                pack, ch, ch + 1, codes.data() + (i * c.inCh + ch) * hw,
                1, c);
            double f = pack.rowDequant(ch) * double(ap.invScale);
            for (size_t q = 0; q < m; ++q)
                want[(i * c.inCh + ch) * m + q] =
                    float(double(acc[q]) * f);
        }
    }
    expectBitIdentical(got, want);
}

TEST(InferConvExact, HalfwordPathMatchesOracleAcrossGeometry)
{
    for (size_t k : {1, 3, 5})
        for (size_t stride : {1, 2, 3})
            for (size_t pad : {0, 1, 2})
                for (size_t n : {1, 3}) {
                    ConvCase c{k, stride, pad, 3, 9, 7, n};
                    checkConv2dAgainstOracle(c, /*bias=*/n == 1, true);
                    checkConv2dAgainstOracle(c, /*bias=*/n != 1, true);
                    checkDwConv2dAgainstOracle(c, true);
                }
}

TEST(InferConvExact, Int32PathMatchesOracle)
{
    // ckk = inCh * k * k > 2184 leaves the halfword bound.
    for (ConvCase c : {ConvCase{1, 2, 1, 2185, 5, 4, 1},
                       ConvCase{3, 1, 1, 243, 4, 5, 3},
                       ConvCase{3, 3, 2, 243, 7, 5, 1},
                       ConvCase{5, 2, 0, 88, 7, 6, 3}}) {
        checkConv2dAgainstOracle(c, /*bias=*/true, false);
        checkConv2dAgainstOracle(c, /*bias=*/false, false);
    }
    // Depthwise rows reduce over k * k only: a 47x47 kernel.
    for (ConvCase c : {ConvCase{47, 1, 1, 2, 49, 48, 1},
                       ConvCase{47, 2, 2, 2, 48, 50, 3}})
        checkDwConv2dAgainstOracle(c, false);
}

TEST(InferDiff, LstmIntForwardMatchesFloatEval)
{
    Rng rng(23);
    size_t i = 12, h = 16, t = 5, n = 8;
    Lstm lstm(i, h, rng);
    lstm.configureOwnActQuant(4, true);
    Tensor x = Tensor::randn({t, n, i}, rng, 1.0);
    lstm.forward(x, true);

    QConfig cfg;
    MatrixQuantResult rwx = quantizeMatrix(
        lstm.wxParam().w.data(), lstm.wxParam().w.data(), 4 * h, i,
        cfg);
    lstm.wxParam().noteUpdated();
    MatrixQuantResult rwh = quantizeMatrix(
        lstm.whParam().w.data(), lstm.whParam().w.data(), 4 * h, h,
        cfg);
    lstm.whParam().noteUpdated();

    Tensor want = lstm.forward(x, false);
    lstm.enableIntInference(rwx, rwh, cfg.bits);
    Tensor got = lstm.forward(x, false);
    // Recurrent tolerance: per-step rounding differences are
    // re-absorbed by the hidden-state quantizer, so drift stays
    // bounded rather than compounding.
    expectNearRel(got, want, 2e-3);
}

TEST(InferDiff, GruIntForwardMatchesFloatEval)
{
    Rng rng(24);
    size_t i = 12, h = 16, t = 5, n = 8;
    Gru gru(i, h, rng);
    gru.configureOwnActQuant(4, true);
    Tensor x = Tensor::randn({t, n, i}, rng, 1.0);
    gru.forward(x, true);

    QConfig cfg;
    MatrixQuantResult rwx = quantizeMatrix(
        gru.wxParam().w.data(), gru.wxParam().w.data(), 3 * h, i,
        cfg);
    gru.wxParam().noteUpdated();
    MatrixQuantResult rwh = quantizeMatrix(
        gru.whParam().w.data(), gru.whParam().w.data(), 3 * h, h,
        cfg);
    gru.whParam().noteUpdated();

    Tensor want = gru.forward(x, false);
    gru.enableIntInference(rwx, rwh, cfg.bits);
    Tensor got = gru.forward(x, false);
    expectNearRel(got, want, 2e-3);
}

// ------------------------------------------------------------------
// Session-level: a QAT-finalized model routed through all three
// backends by InferenceSession. FakeQuant must reproduce the plain
// eval forward exactly; Int must track it to tolerance; Float must
// differ from FakeQuant only by the activation quantizers.
// ------------------------------------------------------------------

TEST(InferSession, BackendsAgreeOnFinalizedModel)
{
    Rng rng(25);
    auto model = makeTinyConvNet(4, rng);
    QConfig cfg;
    QatContext qat(cfg);
    qat.attach(model->params());
    model->setActQuant(cfg.actBits, true);

    Tensor x = Tensor::randn({4, 3, 12, 12}, rng, 1.0);
    for (float& v : x.span())
        v = std::fabs(v);
    model->forward(x, true); // calibrate activation quantizers
    qat.finalize();

    Tensor evalRef = model->forward(x, false);

    InferenceSession sess(*model, &qat, InferBackend::FakeQuant);
    EXPECT_GT(sess.layersSwitched(), 0u);
    Tensor fq = sess.run(x);
    ASSERT_EQ(fq.size(), evalRef.size());
    for (size_t j = 0; j < fq.size(); ++j)
        ASSERT_EQ(fq[j], evalRef[j]) << "index " << j;

    sess.setBackend(InferBackend::Int);
    Tensor iq = sess.run(x);
    expectNearRel(iq, fq, 2e-3);

    sess.setBackend(InferBackend::Float);
    Tensor fl = sess.run(x);
    ASSERT_EQ(fl.size(), fq.size());

    sess.setBackend(InferBackend::FakeQuant);
    Tensor fq2 = sess.run(x);
    for (size_t j = 0; j < fq2.size(); ++j)
        ASSERT_EQ(fq2[j], fq[j]) << "index " << j;
}

// ------------------------------------------------------------------
// Compiler bridge: the packed panels fed through the simulator's
// functional path. referenceGemmInt and runGemmFunctional are
// already pinned to each other (runner_test); here the packed qgemm
// accumulators must equal both, modulo the fixed-first permutation.
// ------------------------------------------------------------------

TEST(InferDiff, PackedPanelsMatchRunnerFunctionalPath)
{
    Rng rng(26);
    size_t rows = 10, cols = 12, m = 4;
    std::vector<float> w(rows * cols), q(rows * cols);
    for (float& x : w)
        x = float(rng.normal(0.0, 0.4));
    QConfig cfg; // Mixed
    MatrixQuantResult res =
        quantizeMatrix(w.data(), q.data(), rows, cols, cfg);
    PackedQMat pack;
    pack.ensure(q.data(), rows, cols, 1, res.rowScheme, res.rowAlpha,
                cfg.bits);

    std::vector<int8_t> acts = randomActCodes(m * cols, rng);
    std::vector<size_t> rowOrder;
    QuantizedGemm qg = packedToQuantizedGemm(pack, acts, m, rowOrder);
    ASSERT_EQ(rowOrder.size(), rows);
    EXPECT_EQ(qg.ns, pack.numSp2());
    EXPECT_EQ(qg.nf + qg.ns, rows);

    std::vector<int32_t> ref = referenceGemmInt(qg);
    std::vector<int32_t> sim =
        runGemmFunctional(qg, designPointByName("D1-3"));
    ASSERT_EQ(ref, sim);

    std::vector<int32_t> acc = packedAccumulators(pack, acts, m);
    for (size_t b = 0; b < m; ++b)
        for (size_t c = 0; c < rows; ++c)
            ASSERT_EQ(ref[b * rows + c], acc[rowOrder[c] * m + b])
                << "batch " << b << " column " << c;
}

} // namespace
} // namespace mixq
