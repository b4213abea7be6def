#include "nn/layers.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>

#include "infer/qkernels.hh"
#include "nn/gemm.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace mixq {

namespace {

/** Kaiming-style init std for a fan-in. */
double
kaimingStd(size_t fan_in)
{
    return std::sqrt(2.0 / double(std::max<size_t>(fan_in, 1)));
}

/**
 * Upper bound on Conv2d backward batch chunks: each chunk carries a
 * private copy of the weight gradient until the tree merge, so this
 * bounds that memory at 16 weight-sized buffers while still feeding
 * every core on the batch sizes the models train with.
 */
constexpr size_t kConvMaxGradChunks = 16;

/**
 * Upper bound on batch chunks of the DwConv2d backward and the Linear
 * bias-gradient reduction: like kConvMaxGradChunks, each chunk holds
 * a private gradient partial until the fixed-order tree merge, so the
 * cap bounds that scratch while the chunk boundaries stay a pure
 * function of the batch size (bit-identical gradients across
 * OMP_NUM_THREADS; tests/layers_mt_test.cc pins both layers).
 */
constexpr size_t kLayerMaxGradChunks = 16;

/**
 * Quantize-or-freeze for an activation quantizer at a layer input:
 * training forwards observe (EMA calibration) then quantize; eval
 * forwards quantize against the frozen clip range only. Eval must
 * never mutate calibration state — the int inference backend snapshots
 * the same frozen alpha, so the float fake-quant forward it is
 * tolerance-tested against has to be a pure function of the weights.
 */
void
actQuantForward(ActFakeQuant& aq, std::span<float> x, bool train)
{
    if (!aq.enabled())
        return;
    if (train)
        aq.forward(x);
    else
        aq.quantizeOnly(x);
}

/**
 * Upper bound on BatchNorm2d statistics chunks: each chunk carries
 * one double accumulator per channel per statistic, merged by the
 * fixed reduction tree. Like the Conv2d chunking, the boundaries are
 * a pure function of the batch size, so the batch statistics — and
 * with them every normalized activation and gradient — are
 * bit-identical across OMP_NUM_THREADS.
 */
constexpr size_t kBnMaxStatChunks = 16;

/**
 * Chunk-parallel per-channel accumulation for BatchNorm2d: run
 * fn(i, c, acc) over every batch item i of each chunk and channel c,
 * where acc points at NStats per-(statistic, channel, chunk) double
 * accumulators, then tree-merge the chunk partials per statistic and
 * channel into out[s][c]. The merge order depends only on (n, chunk
 * cap), never the thread count.
 */
template <size_t NStats, class Fn>
void
bnChunkedReduce(size_t n, size_t ch,
                std::array<std::vector<double>, NStats>& out, Fn&& fn)
{
    std::vector<size_t> bounds =
        deterministicBatchChunks(n, 1, kBnMaxStatChunks);
    size_t chunks = bounds.size() - 1;
    std::vector<double> part(NStats * ch * chunks, 0.0);
    #pragma omp parallel for schedule(static)
    for (long k = 0; k < long(chunks); ++k) {
        for (size_t i = bounds[size_t(k)]; i < bounds[size_t(k) + 1];
             ++i) {
            for (size_t c = 0; c < ch; ++c) {
                double* acc[NStats];
                for (size_t s = 0; s < NStats; ++s)
                    acc[s] =
                        &part[(s * ch + c) * chunks + size_t(k)];
                fn(i, c, acc);
            }
        }
    }
    for (size_t s = 0; s < NStats; ++s) {
        out[s].resize(ch);
        for (size_t c = 0; c < ch; ++c)
            out[s][c] = treeReduceValues(std::span<double>(
                part.data() + (s * ch + c) * chunks, chunks));
    }
}

/**
 * Size the int-backend conv scratch for @p n items of a [c, h, w]
 * input: the layout tables, n phased code images of the active code
 * width — zeroed here, which lays down the padding for every later
 * forwardServe — and n * @p accRows accumulator rows.
 */
void
stageIntConv(ConvServeScratch& s, bool halfword, size_t n, size_t c,
             size_t h, size_t w, size_t k, size_t stride, size_t pad,
             size_t accRows)
{
    s.layout.build(c, h, w, k, stride, pad);
    const size_t codes = n * s.layout.size;
    if (halfword)
        s.qIn16.assign(codes, 0);
    else
        s.qIn32.assign(codes, 0);
    s.qAcc.resize(n * accRows * s.layout.lanes);
}

} // namespace

// ---------------------------------------------------------------- Linear

Linear::Linear(size_t in, size_t out, Rng& rng, bool bias,
               bool signed_act)
    : in_(in), out_(out),
      w_("linear.w", Tensor::randn({out, in}, rng, kaimingStd(in)),
         out, in),
      b_("linear.b", Tensor::zeros({out}), 0, 0, false),
      hasBias_(bias), actq_(4, signed_act)
{
}

void
Linear::ownParams(std::vector<Param*>& out)
{
    out.push_back(&w_);
    if (hasBias_)
        out.push_back(&b_);
}

void
Linear::configureOwnActQuant(int bits, bool enable)
{
    actq_ = ActFakeQuant(bits, actq_.isSigned());
    actq_.setEnabled(enable);
}

Tensor
Linear::forward(const Tensor& x, bool train)
{
    MIXQ_ASSERT(x.ndim() == 2 && x.dim(1) == in_, "Linear shape");
    size_t n = x.dim(0);
    if (intBackend_ && !train) {
        prepareServe(evalScratch_, n);
        Tensor y({n, out_});
        forwardServe(viewOf(x), viewOf(y), evalScratch_);
        return y;
    }
    xq_ = x;
    if (train)
        xPre_ = x;
    actQuantForward(actq_, xq_.span(), train);
    Tensor y({n, out_});
    wPlanFwd_.ensureB(w_.w.data(), in_, out_, /*trans=*/true,
                      w_.version);
    gemmPackedB(xq_.data(), wPlanFwd_, y.data(), n, out_, in_);
    if (hasBias_) {
        // Disjoint per-row writes: thread split cannot change a bit.
        #pragma omp parallel for schedule(static) if (!inOmpParallel())
        for (long i = 0; i < long(n); ++i)
            for (size_t j = 0; j < out_; ++j)
                y.at2(size_t(i), j) += b_.w[j];
    }
    return y;
}

void
Linear::enableIntInference(const MatrixQuantResult& proj, int wbits)
{
    MIXQ_ASSERT(proj.rowScheme.size() == out_ &&
                proj.rowAlpha.size() == out_,
                "Linear: projection record does not match the layer");
    qProj_ = proj;
    qBits_ = wbits;
    intBackend_ = true;
}

void
Linear::adoptDeployedWeights(PackedQMat pack, int wbits)
{
    MIXQ_ASSERT(pack.locked() && pack.rows() == out_ &&
                    pack.cols() == in_,
                "Linear: deployed panels do not match the layer");
    qpack_ = std::move(pack);
    qBits_ = wbits;
    intBackend_ = true;
}

void
Linear::prepareServe(LinearServeScratch& s, size_t maxRows)
{
    MIXQ_ASSERT(maxRows > 0, "Linear: empty serve batch");
    if (intBackend_) {
        qpack_.ensure(w_.w.data(), out_, in_, w_.version,
                      qProj_.rowScheme, qProj_.rowAlpha, qBits_);
        ActQuantParams ap = actQuantParams(actq_);
        if (halfwordSafe(ap, in_))
            s.qT16.resize(in_ * maxRows);
        else
            s.qT32.resize(in_ * maxRows);
        s.qAcc.resize(out_ * maxRows);
        s.f.resize(out_);
        return;
    }
    wPlanFwd_.ensureB(w_.w.data(), in_, out_, /*trans=*/true,
                      w_.version);
    if (actq_.enabled())
        s.xq.resize(maxRows * in_);
}

void
Linear::forwardServe(const TensorView& x, const TensorView& y,
                     LinearServeScratch& s) const
{
    // The planner hands RNN-shaped inputs [T, n, in] to a head Linear
    // as flat rows (rnn_models reshape in place), so the row count is
    // whatever the view holds, not dim(0).
    size_t n = x.size() / in_;
    MIXQ_ASSERT(n * in_ == x.size() && y.size() == n * out_,
                "Linear: serve view shape");
    if (intBackend_) {
        ActQuantParams ap = actQuantParams(actq_);
        if (halfwordSafe(ap, in_)) {
            quantizeTransposeActs(x.data, n, in_, ap, s.qT16.data());
            qgemm16(qpack_, s.qT16.data(), n, s.qAcc.data());
        } else {
            quantizeTransposeActs(x.data, n, in_, ap, s.qT32.data());
            qgemm(qpack_, s.qT32.data(), n, s.qAcc.data());
        }
        rescaleLinear(qpack_, s.qAcc.data(), n, ap.invScale,
                      hasBias_ ? b_.w.data() : nullptr, y.data,
                      s.f.data());
        return;
    }
    // Quantize into replica scratch, never the plan buffer: residual
    // consumers may re-read the input view after this layer runs.
    const float* src = x.data;
    if (actq_.enabled()) {
        std::memcpy(s.xq.data(), x.data, n * in_ * sizeof(float));
        actq_.quantizeOnly({s.xq.data(), n * in_});
        src = s.xq.data();
    }
    gemmPackedB(src, wPlanFwd_, y.data, n, out_, in_);
    if (hasBias_) {
        #pragma omp parallel for schedule(static) if (!inOmpParallel())
        for (long i = 0; i < long(n); ++i) {
            float* yr = y.data + size_t(i) * out_;
            for (size_t j = 0; j < out_; ++j)
                yr[j] += b_.w[j];
        }
    }
}

Tensor
Linear::backward(const Tensor& gy)
{
    size_t n = gy.dim(0);
    MIXQ_ASSERT(gy.ndim() == 2 && gy.dim(1) == out_, "Linear grad shape");
    // gW += gy^T x  (A = gy [N x out] read as [K x M], B = xq [N x in])
    gemmATAcc(gy.data(), xq_.data(), w_.grad.data(), out_, in_, n);
    if (hasBias_) {
        // Bias gradient over deterministic batch chunks with private
        // partials, merged by the fixed-order tree — same scheme as
        // the Conv2d weight gradient, bit-identical across threads.
        std::vector<size_t> bounds =
            deterministicBatchChunks(n, 1, kLayerMaxGradChunks);
        size_t chunks = bounds.size() - 1;
        std::vector<float> buf(chunks * out_, 0.0f);
        std::vector<float*> bp(chunks);
        for (size_t ci = 0; ci < chunks; ++ci)
            bp[ci] = buf.data() + ci * out_;
        #pragma omp parallel for schedule(static)
        for (long ci = 0; ci < long(chunks); ++ci) {
            float* gb = bp[size_t(ci)];
            for (size_t i = bounds[size_t(ci)];
                 i < bounds[size_t(ci) + 1]; ++i)
                for (size_t j = 0; j < out_; ++j)
                    gb[j] += gy.at2(i, j);
        }
        treeReduceAcc(bp.data(), chunks, out_, b_.grad.data());
    }
    Tensor gx({n, in_});
    wPlanBwd_.ensureB(w_.w.data(), out_, in_, /*trans=*/false,
                      w_.version);
    gemmPackedB(gy.data(), wPlanBwd_, gx.data(), n, in_, out_);
    if (actq_.enabled())
        actq_.backwardSte(xPre_.span(), gx.span());
    return gx;
}

// ---------------------------------------------------------------- Conv2d

Conv2d::Conv2d(size_t in_ch, size_t out_ch, size_t kernel,
               size_t stride, size_t pad, Rng& rng, bool bias)
    : inCh_(in_ch), outCh_(out_ch), k_(kernel), stride_(stride),
      pad_(pad),
      w_("conv.w",
         Tensor::randn({out_ch, in_ch * kernel * kernel}, rng,
                       kaimingStd(in_ch * kernel * kernel)),
         out_ch, in_ch * kernel * kernel),
      b_("conv.b", Tensor::zeros({out_ch}), 0, 0, false),
      hasBias_(bias), actq_(4, false)
{
}

void
Conv2d::ownParams(std::vector<Param*>& out)
{
    out.push_back(&w_);
    if (hasBias_)
        out.push_back(&b_);
}

void
Conv2d::configureOwnActQuant(int bits, bool enable)
{
    actq_ = ActFakeQuant(bits, false);
    actq_.setEnabled(enable);
}

Tensor
Conv2d::forward(const Tensor& x, bool train)
{
    MIXQ_ASSERT(x.ndim() == 4 && x.dim(1) == inCh_, "Conv2d shape");
    size_t n = x.dim(0), h = x.dim(2), w = x.dim(3);
    size_t oh = convOut(h, k_, stride_, pad_);
    size_t ow = convOut(w, k_, stride_, pad_);
    if (intBackend_ && !train) {
        prepareServe(evalScratch_, x.shape());
        Tensor y({n, outCh_, oh, ow});
        forwardServe(viewOf(x), viewOf(y), evalScratch_);
        return y;
    }
    inShape_ = x.shape();
    size_t ckk = inCh_ * k_ * k_;
    size_t ohow = oh * ow;

    Tensor xq = x;
    if (train)
        xPre_ = x;
    actQuantForward(actq_, xq.span(), train);

    cols_ = Tensor({n, ckk, ohow});
    Tensor y({n, outCh_, oh, ow});
    // Pack the weight once for the whole batch (and every batch
    // until the optimizer/quantizer bumps w_.version). Must happen
    // before the parallel region: ensure mutates the plan.
    wPlanFwd_.ensureA(w_.w.data(), outCh_, ckk, /*trans=*/false,
                      w_.version);
    #pragma omp parallel for schedule(static)
    for (long i = 0; i < long(n); ++i) {
        const float* img = xq.data() + size_t(i) * inCh_ * h * w;
        float* col = cols_.data() + size_t(i) * ckk * ohow;
        im2col(img, inCh_, h, w, k_, k_, stride_, pad_, col);
        float* out = y.data() + size_t(i) * outCh_ * ohow;
        // y = W [outCh x ckk] * col [ckk x ohow]
        gemmPackedA(wPlanFwd_, col, out, outCh_, ohow, ckk);
        if (hasBias_) {
            for (size_t r = 0; r < outCh_; ++r) {
                float* yrow = out + r * ohow;
                for (size_t q = 0; q < ohow; ++q)
                    yrow[q] += b_.w[r];
            }
        }
        if (!train && bnFold_)
            applyBnEpilogue(out, ohow);
    }
    (void)train;
    return y;
}

void
Conv2d::enableIntInference(const MatrixQuantResult& proj, int wbits)
{
    MIXQ_ASSERT(proj.rowScheme.size() == outCh_ &&
                proj.rowAlpha.size() == outCh_,
                "Conv2d: projection record does not match the layer");
    qProj_ = proj;
    qBits_ = wbits;
    intBackend_ = true;
}

void
Conv2d::adoptDeployedWeights(PackedQMat pack, int wbits)
{
    MIXQ_ASSERT(pack.locked() && pack.rows() == outCh_ &&
                    pack.cols() == inCh_ * k_ * k_,
                "Conv2d: deployed panels do not match the layer");
    qpack_ = std::move(pack);
    qBits_ = wbits;
    intBackend_ = true;
}

void
Conv2d::setBnEvalEpilogue(std::vector<float> mean,
                          std::vector<float> invStd,
                          std::vector<float> gamma,
                          std::vector<float> beta)
{
    MIXQ_ASSERT(mean.size() == outCh_ && invStd.size() == outCh_ &&
                    gamma.size() == outCh_ && beta.size() == outCh_,
                "Conv2d: BN epilogue channel mismatch");
    bnM_ = std::move(mean);
    bnIs_ = std::move(invStd);
    bnG_ = std::move(gamma);
    bnB_ = std::move(beta);
    bnFold_ = true;
}

void
Conv2d::applyBnEpilogue(float* y, size_t ohow) const
{
    // Exactly BatchNorm2d's eval elementwise pass (same operation
    // order per element), so folding cannot change a bit.
    for (size_t c = 0; c < outCh_; ++c) {
        float m = bnM_[c], is = bnIs_[c];
        float g = bnG_[c], b = bnB_[c];
        float* row = y + c * ohow;
        for (size_t q = 0; q < ohow; ++q) {
            float xh = (row[q] - m) * is;
            row[q] = g * xh + b;
        }
    }
}

void
Conv2d::prepareServe(ConvServeScratch& s,
                     const std::vector<size_t>& inShape)
{
    MIXQ_ASSERT(inShape.size() == 4 && inShape[1] == inCh_,
                "Conv2d: serve input shape");
    size_t n = inShape[0], h = inShape[2], w = inShape[3];
    size_t oh = convOut(h, k_, stride_, pad_);
    size_t ow = convOut(w, k_, stride_, pad_);
    size_t ckk = inCh_ * k_ * k_;
    size_t ohow = oh * ow;
    size_t chw = inCh_ * h * w;
    if (intBackend_) {
        qpack_.ensure(w_.w.data(), outCh_, ckk, w_.version,
                      qProj_.rowScheme, qProj_.rowAlpha, qBits_);
        stageIntConv(s, halfwordSafe(actQuantParams(actq_), ckk), n,
                     inCh_, h, w, k_, stride_, pad_, outCh_);
        return;
    }
    wPlanFwd_.ensureA(w_.w.data(), outCh_, ckk, /*trans=*/false,
                      w_.version);
    if (actq_.enabled())
        s.xq.resize(n * chw);
    s.cols.resize(n * ckk * ohow);
}

void
Conv2d::forwardServe(const TensorView& x, const TensorView& y,
                     ConvServeScratch& s) const
{
    MIXQ_ASSERT(x.ndim() == 4 && x.dim(1) == inCh_,
                "Conv2d: serve view shape");
    size_t n = x.dim(0), h = x.dim(2), w = x.dim(3);
    size_t oh = convOut(h, k_, stride_, pad_);
    size_t ow = convOut(w, k_, stride_, pad_);
    size_t ckk = inCh_ * k_ * k_;
    size_t ohow = oh * ow;
    size_t chw = inCh_ * h * w;
    MIXQ_ASSERT(y.size() == n * outCh_ * ohow,
                "Conv2d: serve out shape");
    if (intBackend_) {
        // Each item's codes go straight into its phased image, whose
        // padding prepareServe already zeroed; every kernel tap then
        // reads one contiguous span of it. Codes ride the halfword
        // pipeline whenever the reduction depth admits it
        // (halfwordSafe): bit-identical accumulators, half the
        // traffic. Item-parallel over disjoint slices.
        const ActQuantParams ap = actQuantParams(actq_);
        const ConvCodeLayout& L = s.layout;
        auto run = [&](auto* img) {
            #pragma omp parallel for schedule(static) if (!inOmpParallel())
            for (long i = 0; i < long(n); ++i) {
                auto* im = img + size_t(i) * L.size;
                int32_t* acc =
                    s.qAcc.data() + size_t(i) * outCh_ * L.lanes;
                float* out = y.data + size_t(i) * outCh_ * ohow;
                quantizeActsScatter(x.data + size_t(i) * chw, chw, ap,
                                    L.dst.data(), im);
                qgemmConv(qpack_, im, L.rowOff.data(), L.lanes, acc);
                rescaleConv(qpack_, acc, L, ap.invScale,
                            hasBias_ ? b_.w.data() : nullptr, out);
                if (bnFold_)
                    applyBnEpilogue(out, ohow);
            }
        };
        if (halfwordSafe(ap, ckk))
            run(s.qIn16.data());
        else
            run(s.qIn32.data());
        return;
    }
    // Quantize into replica scratch, never the plan buffer (residual
    // consumers may re-read the input view).
    const float* src = x.data;
    if (actq_.enabled()) {
        std::memcpy(s.xq.data(), x.data, n * chw * sizeof(float));
        actq_.quantizeOnly({s.xq.data(), n * chw});
        src = s.xq.data();
    }
    #pragma omp parallel for schedule(static) if (!inOmpParallel())
    for (long i = 0; i < long(n); ++i) {
        const float* img = src + size_t(i) * chw;
        float* col = s.cols.data() + size_t(i) * ckk * ohow;
        im2col(img, inCh_, h, w, k_, k_, stride_, pad_, col);
        float* out = y.data + size_t(i) * outCh_ * ohow;
        gemmPackedA(wPlanFwd_, col, out, outCh_, ohow, ckk);
        if (hasBias_) {
            for (size_t r = 0; r < outCh_; ++r) {
                float* yrow = out + r * ohow;
                for (size_t q = 0; q < ohow; ++q)
                    yrow[q] += b_.w[r];
            }
        }
        if (bnFold_)
            applyBnEpilogue(out, ohow);
    }
}

Tensor
Conv2d::backward(const Tensor& gy)
{
    size_t n = inShape_[0], h = inShape_[2], w = inShape_[3];
    size_t oh = convOut(h, k_, stride_, pad_);
    size_t ow = convOut(w, k_, stride_, pad_);
    size_t ckk = inCh_ * k_ * k_;
    size_t ohow = oh * ow;
    MIXQ_ASSERT(gy.ndim() == 4 && gy.dim(1) == outCh_ &&
                gy.dim(2) == oh && gy.dim(3) == ow, "Conv2d grad shape");

    Tensor gx(inShape_);
    wPlanBwd_.ensureA(w_.w.data(), ckk, outCh_, /*trans=*/true,
                      w_.version);
    // Input gradient: parallel over every batch item — disjoint
    // writes, no reduction, so full item-parallelism costs nothing
    // in determinism. gcols is per-thread scratch sized once, not a
    // fresh heap allocation per batch item.
    #pragma omp parallel
    {
        std::vector<float> gcols(ckk * ohow);
        #pragma omp for schedule(static)
        for (long i = 0; i < long(n); ++i) {
            const float* g = gy.data() + size_t(i) * outCh_ * ohow;
            // gcols = W^T [ckk x outCh] * g [outCh x ohow]
            gemmPackedA(wPlanBwd_, g, gcols.data(), ckk, ohow,
                        outCh_);
            float* gimg = gx.data() + size_t(i) * inCh_ * h * w;
            col2im(gcols.data(), inCh_, h, w, k_, k_, stride_, pad_,
                   gimg);
        }
    }
    // Weight gradient: parallel over fixed batch chunks, one
    // private partial per chunk, merged by the fixed-order tree
    // reduction. The chunking depends only on n — never on the
    // thread count — so unlike the old per-thread gw_parts (whose
    // merge followed thread scheduling order) the gradient is
    // bit-identical for any OMP_NUM_THREADS. Only this reduction
    // needs the chunk cap: each chunk carries a weight-sized buffer.
    size_t wLen = w_.grad.size();
    std::vector<size_t> bounds =
        deterministicBatchChunks(n, 1, kConvMaxGradChunks);
    size_t chunks = bounds.size() - 1;
    std::vector<float> gwBuf(chunks * wLen, 0.0f);
    std::vector<float*> gwP(chunks);
    for (size_t ci = 0; ci < chunks; ++ci)
        gwP[ci] = gwBuf.data() + ci * wLen;
    #pragma omp parallel for schedule(static)
    for (long ci = 0; ci < long(chunks); ++ci) {
        float* gw = gwP[size_t(ci)];
        for (size_t i = bounds[size_t(ci)];
             i < bounds[size_t(ci) + 1]; ++i) {
            const float* g = gy.data() + i * outCh_ * ohow;
            const float* col = cols_.data() + i * ckk * ohow;
            // gW += g [outCh x ohow] * col^T [ohow x ckk]
            gemmBTAcc(g, col, gw, outCh_, ckk, ohow);
        }
    }
    treeReduceAcc(gwP.data(), chunks, wLen, w_.grad.data());

    if (hasBias_) {
        for (size_t i = 0; i < n; ++i)
            for (size_t r = 0; r < outCh_; ++r)
                for (size_t q = 0; q < ohow; ++q)
                    b_.grad[r] += gy.data()[(i * outCh_ + r) * ohow + q];
    }
    if (actq_.enabled())
        actq_.backwardSte(xPre_.span(), gx.span());
    return gx;
}

// -------------------------------------------------------------- DwConv2d

DwConv2d::DwConv2d(size_t channels, size_t kernel, size_t stride,
                   size_t pad, Rng& rng)
    : ch_(channels), k_(kernel), stride_(stride), pad_(pad),
      w_("dwconv.w",
         Tensor::randn({channels, kernel * kernel}, rng,
                       kaimingStd(kernel * kernel)),
         channels, kernel * kernel),
      actq_(4, false)
{
}

void
DwConv2d::ownParams(std::vector<Param*>& out)
{
    out.push_back(&w_);
}

void
DwConv2d::configureOwnActQuant(int bits, bool enable)
{
    actq_ = ActFakeQuant(bits, false);
    actq_.setEnabled(enable);
}

Tensor
DwConv2d::forward(const Tensor& x, bool train)
{
    MIXQ_ASSERT(x.ndim() == 4 && x.dim(1) == ch_, "DwConv2d shape");
    size_t n = x.dim(0), h = x.dim(2), w = x.dim(3);
    size_t oh = convOut(h, k_, stride_, pad_);
    size_t ow = convOut(w, k_, stride_, pad_);
    if (intBackend_ && !train) {
        prepareServe(evalScratch_, x.shape());
        Tensor y({n, ch_, oh, ow});
        forwardServe(viewOf(x), viewOf(y), evalScratch_);
        return y;
    }
    inShape_ = x.shape();

    xq_ = x;
    if (train)
        xPre_ = x;
    actQuantForward(actq_, xq_.span(), train);

    Tensor y({n, ch_, oh, ow});
    #pragma omp parallel for schedule(static)
    for (long idx = 0; idx < long(n * ch_); ++idx) {
        size_t i = size_t(idx) / ch_;
        size_t c = size_t(idx) % ch_;
        const float* img = xq_.data() + (i * ch_ + c) * h * w;
        const float* ker = w_.w.data() + c * k_ * k_;
        float* out = y.data() + (i * ch_ + c) * oh * ow;
        for (size_t oy = 0; oy < oh; ++oy) {
            for (size_t ox = 0; ox < ow; ++ox) {
                float s = 0.0f;
                for (size_t ki = 0; ki < k_; ++ki) {
                    long iy = long(oy * stride_ + ki) - long(pad_);
                    if (iy < 0 || iy >= long(h))
                        continue;
                    for (size_t kj = 0; kj < k_; ++kj) {
                        long ix = long(ox * stride_ + kj) - long(pad_);
                        if (ix < 0 || ix >= long(w))
                            continue;
                        s += ker[ki * k_ + kj] *
                             img[size_t(iy) * w + size_t(ix)];
                    }
                }
                out[oy * ow + ox] = s;
            }
        }
    }
    (void)train;
    return y;
}

void
DwConv2d::enableIntInference(const MatrixQuantResult& proj, int wbits)
{
    MIXQ_ASSERT(proj.rowScheme.size() == ch_ &&
                proj.rowAlpha.size() == ch_,
                "DwConv2d: projection record does not match the layer");
    qProj_ = proj;
    qBits_ = wbits;
    intBackend_ = true;
}

void
DwConv2d::adoptDeployedWeights(PackedQMat pack, int wbits)
{
    MIXQ_ASSERT(pack.locked() && pack.rows() == ch_ &&
                    pack.cols() == k_ * k_,
                "DwConv2d: deployed panels do not match the layer");
    qpack_ = std::move(pack);
    qBits_ = wbits;
    intBackend_ = true;
}

void
DwConv2d::prepareServe(ConvServeScratch& s,
                       const std::vector<size_t>& inShape)
{
    MIXQ_ASSERT(inShape.size() == 4 && inShape[1] == ch_,
                "DwConv2d: serve input shape");
    size_t n = inShape[0], h = inShape[2], w = inShape[3];
    size_t kk = k_ * k_;
    size_t chw = ch_ * h * w;
    if (intBackend_) {
        qpack_.ensure(w_.w.data(), ch_, kk, w_.version,
                      qProj_.rowScheme, qProj_.rowAlpha, qBits_);
        stageIntConv(s, halfwordSafe(actQuantParams(actq_), kk), n, ch_,
                     h, w, k_, stride_, pad_, 1);
        return;
    }
    if (actq_.enabled())
        s.xq.resize(n * chw);
}

void
DwConv2d::forwardServe(const TensorView& x, const TensorView& y,
                       ConvServeScratch& s) const
{
    MIXQ_ASSERT(x.ndim() == 4 && x.dim(1) == ch_,
                "DwConv2d: serve view shape");
    size_t n = x.dim(0), h = x.dim(2), w = x.dim(3);
    size_t oh = convOut(h, k_, stride_, pad_);
    size_t ow = convOut(w, k_, stride_, pad_);
    size_t kk = k_ * k_;
    size_t ohow = oh * ow;
    size_t chw = ch_ * h * w;
    MIXQ_ASSERT(y.size() == n * ch_ * ohow,
                "DwConv2d: serve out shape");
    if (intBackend_) {
        // Each channel's kernel is one code row of the [C, kh*kw]
        // pack, and row c reads channel c's block of the row-offset
        // table — Conv2d's shift-add datapath one row at a time.
        const ActQuantParams ap = actQuantParams(actq_);
        const ConvCodeLayout& L = s.layout;
        auto run = [&](auto* img) {
            #pragma omp parallel for schedule(static) if (!inOmpParallel())
            for (long i = 0; i < long(n); ++i) {
                auto* im = img + size_t(i) * L.size;
                int32_t* acc = s.qAcc.data() + size_t(i) * L.lanes;
                quantizeActsScatter(x.data + size_t(i) * chw, chw, ap,
                                    L.dst.data(), im);
                for (size_t c = 0; c < ch_; ++c) {
                    qgemmConvRow(qpack_, c, im, L.rowOff.data() + c * kk,
                                 L.lanes, acc);
                    double f = qpack_.rowDequant(c) * double(ap.invScale);
                    float* out = y.data + (size_t(i) * ch_ + c) * ohow;
                    for (size_t oy = 0; oy < oh; ++oy) {
                        const int32_t* ar = acc + oy * L.rowStride;
                        #pragma omp simd
                        for (size_t ox = 0; ox < ow; ++ox)
                            out[oy * ow + ox] = float(double(ar[ox]) * f);
                    }
                }
            }
        };
        if (halfwordSafe(ap, kk))
            run(s.qIn16.data());
        else
            run(s.qIn32.data());
        return;
    }
    const float* src = x.data;
    if (actq_.enabled()) {
        std::memcpy(s.xq.data(), x.data, n * chw * sizeof(float));
        actq_.quantizeOnly({s.xq.data(), n * chw});
        src = s.xq.data();
    }
    #pragma omp parallel for schedule(static) if (!inOmpParallel())
    for (long idx = 0; idx < long(n * ch_); ++idx) {
        size_t i = size_t(idx) / ch_;
        size_t c = size_t(idx) % ch_;
        const float* img = src + (i * ch_ + c) * h * w;
        const float* ker = w_.w.data() + c * kk;
        float* out = y.data + (i * ch_ + c) * ohow;
        for (size_t oy = 0; oy < oh; ++oy) {
            for (size_t ox = 0; ox < ow; ++ox) {
                float sum = 0.0f;
                for (size_t ki = 0; ki < k_; ++ki) {
                    long iy = long(oy * stride_ + ki) - long(pad_);
                    if (iy < 0 || iy >= long(h))
                        continue;
                    for (size_t kj = 0; kj < k_; ++kj) {
                        long ix = long(ox * stride_ + kj) - long(pad_);
                        if (ix < 0 || ix >= long(w))
                            continue;
                        sum += ker[ki * k_ + kj] *
                               img[size_t(iy) * w + size_t(ix)];
                    }
                }
                out[oy * ow + ox] = sum;
            }
        }
    }
}

Tensor
DwConv2d::backward(const Tensor& gy)
{
    size_t n = inShape_[0], h = inShape_[2], w = inShape_[3];
    size_t oh = convOut(h, k_, stride_, pad_);
    size_t ow = convOut(w, k_, stride_, pad_);
    Tensor gx(inShape_);

    // Batch-chunked weight gradient: every chunk accumulates its own
    // kernel-gradient partial in the serial image order, then the
    // partials collapse through the fixed reduction tree — identical
    // sums at any thread count. gx rows are disjoint per image, so
    // they go straight to the output.
    size_t wLen = w_.grad.size();
    std::vector<size_t> bounds =
        deterministicBatchChunks(n, 1, kLayerMaxGradChunks);
    size_t nc = bounds.size() - 1;
    std::vector<float> gkBuf(nc * wLen, 0.0f);
    std::vector<float*> gkP(nc);
    for (size_t t = 0; t < nc; ++t)
        gkP[t] = gkBuf.data() + t * wLen;

    #pragma omp parallel for schedule(static) if (!inOmpParallel())
    for (long t = 0; t < long(nc); ++t) {
        float* gkAll = gkP[size_t(t)];
        for (size_t i = bounds[size_t(t)];
             i < bounds[size_t(t) + 1]; ++i) {
            for (size_t c = 0; c < ch_; ++c) {
                const float* img = xq_.data() + (i * ch_ + c) * h * w;
                const float* g = gy.data() + (i * ch_ + c) * oh * ow;
                const float* ker = w_.w.data() + c * k_ * k_;
                float* gk = gkAll + c * k_ * k_;
                float* gi = gx.data() + (i * ch_ + c) * h * w;
                for (size_t oy = 0; oy < oh; ++oy) {
                    for (size_t ox = 0; ox < ow; ++ox) {
                        float gv = g[oy * ow + ox];
                        if (gv == 0.0f)
                            continue;
                        for (size_t ki = 0; ki < k_; ++ki) {
                            long iy =
                                long(oy * stride_ + ki) - long(pad_);
                            if (iy < 0 || iy >= long(h))
                                continue;
                            for (size_t kj = 0; kj < k_; ++kj) {
                                long ix = long(ox * stride_ + kj) -
                                          long(pad_);
                                if (ix < 0 || ix >= long(w))
                                    continue;
                                size_t ii =
                                    size_t(iy) * w + size_t(ix);
                                gk[ki * k_ + kj] += gv * img[ii];
                                gi[ii] += gv * ker[ki * k_ + kj];
                            }
                        }
                    }
                }
            }
        }
    }
    treeReduceAcc(gkP.data(), nc, wLen, w_.grad.data());
    if (actq_.enabled())
        actq_.backwardSte(xPre_.span(), gx.span());
    return gx;
}

// ----------------------------------------------------------- BatchNorm2d

BatchNorm2d::BatchNorm2d(size_t channels, double momentum, double eps)
    : ch_(channels), momentum_(momentum), eps_(eps),
      gamma_("bn.gamma", Tensor::full({channels}, 1.0f), 0, 0, false),
      beta_("bn.beta", Tensor::zeros({channels}), 0, 0, false),
      runMean_(Tensor::zeros({channels})),
      runVar_(Tensor::full({channels}, 1.0f))
{
}

void
BatchNorm2d::ownParams(std::vector<Param*>& out)
{
    out.push_back(&gamma_);
    out.push_back(&beta_);
}

void
BatchNorm2d::restoreRunningStats(std::span<const float> mean,
                                 std::span<const float> var)
{
    MIXQ_ASSERT(mean.size() == ch_ && var.size() == ch_,
                "BatchNorm2d: running-stat size mismatch");
    std::memcpy(runMean_.data(), mean.data(), ch_ * sizeof(float));
    std::memcpy(runVar_.data(), var.data(), ch_ * sizeof(float));
}

Tensor
BatchNorm2d::forward(const Tensor& x, bool train)
{
    MIXQ_ASSERT(x.ndim() == 4 && x.dim(1) == ch_, "BatchNorm2d shape");
    if (foldedEval_) {
        MIXQ_ASSERT(!train, "BatchNorm2d: training forward while "
                            "folded for eval (serve/bn_fold.hh)");
        return x;
    }
    inShape_ = x.shape();
    size_t n = x.dim(0), h = x.dim(2), w = x.dim(3);
    size_t plane = h * w;
    size_t count = n * plane;

    Tensor y(x.shape());
    if (train) {
        xhat_ = Tensor(x.shape());
        invStd_ = Tensor({ch_});
    }

    // Per-channel statistics: two chunk-parallel passes over the
    // batch (sum, then squared deviation about the mean — same
    // two-pass formula as the serial implementation) with the chunk
    // partials tree-merged, so the statistics are bit-identical
    // across OMP_NUM_THREADS.
    std::vector<double> mean(ch_), var(ch_);
    if (train) {
        std::array<std::vector<double>, 1> sum;
        bnChunkedReduce<1>(
            n, ch_, sum, [&](size_t i, size_t c, double* const* acc) {
                const float* p = x.data() + (i * ch_ + c) * plane;
                double s = *acc[0];
                for (size_t q = 0; q < plane; ++q)
                    s += p[q];
                *acc[0] = s;
            });
        for (size_t c = 0; c < ch_; ++c)
            mean[c] = sum[0][c] / double(count);

        std::array<std::vector<double>, 1> sqdev;
        bnChunkedReduce<1>(
            n, ch_, sqdev,
            [&](size_t i, size_t c, double* const* acc) {
                const float* p = x.data() + (i * ch_ + c) * plane;
                double m = mean[c];
                double s = *acc[0];
                for (size_t q = 0; q < plane; ++q) {
                    double d = p[q] - m;
                    s += d * d;
                }
                *acc[0] = s;
            });
        for (size_t c = 0; c < ch_; ++c) {
            var[c] = sqdev[0][c] / double(count);
            runMean_[c] = float((1.0 - momentum_) * runMean_[c] +
                                momentum_ * mean[c]);
            runVar_[c] = float((1.0 - momentum_) * runVar_[c] +
                               momentum_ * var[c]);
        }
    } else {
        for (size_t c = 0; c < ch_; ++c) {
            mean[c] = runMean_[c];
            var[c] = runVar_[c];
        }
    }

    // Normalize: purely elementwise, parallel over (item, channel)
    // planes — disjoint writes, no reduction, determinism is free.
    std::vector<float> istd(ch_);
    for (size_t c = 0; c < ch_; ++c) {
        istd[c] = float(1.0 / std::sqrt(var[c] + eps_));
        if (train)
            invStd_[c] = istd[c];
    }
    #pragma omp parallel for schedule(static)
    for (long ic = 0; ic < long(n * ch_); ++ic) {
        size_t c = size_t(ic) % ch_;
        float m = float(mean[c]);
        float is = istd[c];
        float g = gamma_.w[c], b = beta_.w[c];
        size_t base = size_t(ic) * plane;
        for (size_t q = 0; q < plane; ++q) {
            float xh = (x.data()[base + q] - m) * is;
            if (train)
                xhat_[base + q] = xh;
            y[base + q] = g * xh + b;
        }
    }
    return y;
}

void
BatchNorm2d::prepareServe(BnServeScratch& s)
{
    if (foldedEval_)
        return;
    // Stage the frozen eval affine exactly as forward(eval) stages it
    // per call: running stats widened to double, then the float
    // inverse-std — identical rounding chain, computed once.
    s.mean.resize(ch_);
    s.var.resize(ch_);
    s.istd.resize(ch_);
    for (size_t c = 0; c < ch_; ++c) {
        s.mean[c] = runMean_[c];
        s.var[c] = runVar_[c];
        s.istd[c] = float(1.0 / std::sqrt(s.var[c] + eps_));
    }
}

void
BatchNorm2d::forwardServe(const TensorView& x, const TensorView& y,
                          BnServeScratch& s) const
{
    MIXQ_ASSERT(x.ndim() == 4 && x.dim(1) == ch_,
                "BatchNorm2d: serve view shape");
    if (foldedEval_) {
        std::memcpy(y.data, x.data, x.size() * sizeof(float));
        return;
    }
    size_t n = x.dim(0), plane = x.dim(2) * x.dim(3);
    #pragma omp parallel for schedule(static) if (!inOmpParallel())
    for (long ic = 0; ic < long(n * ch_); ++ic) {
        size_t c = size_t(ic) % ch_;
        float m = float(s.mean[c]);
        float is = s.istd[c];
        float g = gamma_.w[c], b = beta_.w[c];
        const float* xin = x.data + size_t(ic) * plane;
        float* yout = y.data + size_t(ic) * plane;
        for (size_t q = 0; q < plane; ++q) {
            float xh = (xin[q] - m) * is;
            yout[q] = g * xh + b;
        }
    }
}

Tensor
BatchNorm2d::backward(const Tensor& gy)
{
    size_t n = inShape_[0], h = inShape_[2], w = inShape_[3];
    size_t plane = h * w;
    double count = double(n * plane);
    Tensor gx(inShape_);

    // One chunk-parallel walk accumulates both reductions (sum of gy
    // and of gy * xhat per channel); tree-merged as in forward.
    std::array<std::vector<double>, 2> sums;
    bnChunkedReduce<2>(
        n, ch_, sums, [&](size_t i, size_t c, double* const* acc) {
            size_t base = (i * ch_ + c) * plane;
            double s0 = *acc[0];
            double s1 = *acc[1];
            for (size_t q = 0; q < plane; ++q) {
                double g = gy[base + q];
                s0 += g;
                s1 += g * double(xhat_[base + q]);
            }
            *acc[0] = s0;
            *acc[1] = s1;
        });

    std::vector<float> mean_gy(ch_), mean_gy_xh(ch_);
    for (size_t c = 0; c < ch_; ++c) {
        beta_.grad[c] += float(sums[0][c]);
        gamma_.grad[c] += float(sums[1][c]);
        mean_gy[c] = float(sums[0][c] / count);
        mean_gy_xh[c] = float(sums[1][c] / count);
    }

    #pragma omp parallel for schedule(static)
    for (long ic = 0; ic < long(n * ch_); ++ic) {
        size_t c = size_t(ic) % ch_;
        float g = gamma_.w[c];
        float istd = invStd_[c];
        float mg = mean_gy[c];
        float mgxh = mean_gy_xh[c];
        size_t base = size_t(ic) * plane;
        for (size_t q = 0; q < plane; ++q) {
            gx[base + q] =
                g * istd *
                (gy[base + q] - mg - xhat_[base + q] * mgxh);
        }
    }
    return gx;
}

// -------------------------------------------------------------- ReLU

Tensor
ReLU::forward(const Tensor& x, bool train)
{
    Tensor y = x;
    mask_.assign(x.size(), 0);
    float cap = float(cap_);
    for (size_t i = 0; i < y.size(); ++i) {
        bool pass = y[i] > 0.0f && (cap_ == 0.0 || y[i] < cap);
        mask_[i] = pass ? 1 : 0;
        if (y[i] < 0.0f)
            y[i] = 0.0f;
        else if (cap_ != 0.0 && y[i] > cap)
            y[i] = cap;
    }
    (void)train;
    return y;
}

void
ReLU::forwardServe(const TensorView& x, const TensorView& y) const
{
    // Selects, not branches, so the loops vectorize; the compares
    // are forward()'s, so NaN and -0.0 pass through unchanged.
    const float* src = x.data;
    float* dst = y.data;
    const size_t len = x.size();
    if (cap_ == 0.0) {
        #pragma omp simd
        for (size_t i = 0; i < len; ++i)
            dst[i] = src[i] < 0.0f ? 0.0f : src[i];
        return;
    }
    const float cap = float(cap_);
    #pragma omp simd
    for (size_t i = 0; i < len; ++i) {
        float v = src[i];
        dst[i] = v < 0.0f ? 0.0f : (v > cap ? cap : v);
    }
}

Tensor
ReLU::backward(const Tensor& gy)
{
    MIXQ_ASSERT(gy.size() == mask_.size(), "ReLU grad size");
    Tensor gx = gy;
    for (size_t i = 0; i < gx.size(); ++i) {
        if (!mask_[i])
            gx[i] = 0.0f;
    }
    return gx;
}

// ----------------------------------------------------------- MaxPool2d

Tensor
MaxPool2d::forward(const Tensor& x, bool train)
{
    MIXQ_ASSERT(x.ndim() == 4, "MaxPool2d shape");
    inShape_ = x.shape();
    size_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
    size_t oh = h / k_, ow = w / k_;
    Tensor y({n, c, oh, ow});
    argmax_.assign(n * c * oh * ow, 0);
    for (size_t i = 0; i < n * c; ++i) {
        const float* img = x.data() + i * h * w;
        float* out = y.data() + i * oh * ow;
        size_t* am = argmax_.data() + i * oh * ow;
        for (size_t oy = 0; oy < oh; ++oy) {
            for (size_t ox = 0; ox < ow; ++ox) {
                float best = -1e30f;
                size_t bi = 0;
                for (size_t ki = 0; ki < k_; ++ki) {
                    for (size_t kj = 0; kj < k_; ++kj) {
                        size_t idx =
                            (oy * k_ + ki) * w + (ox * k_ + kj);
                        if (img[idx] > best) {
                            best = img[idx];
                            bi = idx;
                        }
                    }
                }
                out[oy * ow + ox] = best;
                am[oy * ow + ox] = bi;
            }
        }
    }
    (void)train;
    return y;
}

void
MaxPool2d::forwardServe(const TensorView& x, const TensorView& y) const
{
    MIXQ_ASSERT(x.ndim() == 4, "MaxPool2d: serve view shape");
    size_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
    size_t oh = h / k_, ow = w / k_;
    MIXQ_ASSERT(y.size() == n * c * oh * ow,
                "MaxPool2d: serve out shape");
    for (size_t i = 0; i < n * c; ++i) {
        const float* img = x.data + i * h * w;
        float* out = y.data + i * oh * ow;
        for (size_t oy = 0; oy < oh; ++oy) {
            for (size_t ox = 0; ox < ow; ++ox) {
                float best = -1e30f;
                for (size_t ki = 0; ki < k_; ++ki) {
                    for (size_t kj = 0; kj < k_; ++kj) {
                        size_t idx =
                            (oy * k_ + ki) * w + (ox * k_ + kj);
                        if (img[idx] > best)
                            best = img[idx];
                    }
                }
                out[oy * ow + ox] = best;
            }
        }
    }
}

Tensor
MaxPool2d::backward(const Tensor& gy)
{
    size_t n = inShape_[0], c = inShape_[1], h = inShape_[2],
           w = inShape_[3];
    size_t oh = h / k_, ow = w / k_;
    Tensor gx(inShape_);
    for (size_t i = 0; i < n * c; ++i) {
        const float* g = gy.data() + i * oh * ow;
        const size_t* am = argmax_.data() + i * oh * ow;
        float* gi = gx.data() + i * h * w;
        for (size_t p = 0; p < oh * ow; ++p)
            gi[am[p]] += g[p];
    }
    return gx;
}

// -------------------------------------------------------- GlobalAvgPool

Tensor
GlobalAvgPool::forward(const Tensor& x, bool train)
{
    MIXQ_ASSERT(x.ndim() == 4, "GlobalAvgPool shape");
    inShape_ = x.shape();
    size_t n = x.dim(0), c = x.dim(1), plane = x.dim(2) * x.dim(3);
    Tensor y({n, c});
    for (size_t i = 0; i < n * c; ++i) {
        const float* img = x.data() + i * plane;
        double s = 0.0;
        for (size_t p = 0; p < plane; ++p)
            s += img[p];
        y[i] = float(s / double(plane));
    }
    (void)train;
    return y;
}

void
GlobalAvgPool::forwardServe(const TensorView& x,
                            const TensorView& y) const
{
    MIXQ_ASSERT(x.ndim() == 4, "GlobalAvgPool: serve view shape");
    size_t n = x.dim(0), c = x.dim(1), plane = x.dim(2) * x.dim(3);
    MIXQ_ASSERT(y.size() == n * c, "GlobalAvgPool: serve out shape");
    for (size_t i = 0; i < n * c; ++i) {
        const float* img = x.data + i * plane;
        double s = 0.0;
        for (size_t p = 0; p < plane; ++p)
            s += img[p];
        y.data[i] = float(s / double(plane));
    }
}

Tensor
GlobalAvgPool::backward(const Tensor& gy)
{
    size_t plane = inShape_[2] * inShape_[3];
    Tensor gx(inShape_);
    for (size_t i = 0; i < gy.size(); ++i) {
        float g = gy[i] / float(plane);
        float* gi = gx.data() + i * plane;
        for (size_t p = 0; p < plane; ++p)
            gi[p] = g;
    }
    return gx;
}

// ------------------------------------------------------------- Flatten

Tensor
Flatten::forward(const Tensor& x, bool train)
{
    inShape_ = x.shape();
    Tensor y = x;
    y.reshape({x.dim(0), x.size() / x.dim(0)});
    (void)train;
    return y;
}

Tensor
Flatten::backward(const Tensor& gy)
{
    Tensor gx = gy;
    gx.reshape(inShape_);
    return gx;
}

// ---------------------------------------------------------- Sequential

Sequential&
Sequential::add(std::unique_ptr<Module> m)
{
    mods_.push_back(std::move(m));
    return *this;
}

Tensor
Sequential::forward(const Tensor& x, bool train)
{
    Tensor h = x;
    for (auto& m : mods_)
        h = m->forward(h, train);
    return h;
}

Tensor
Sequential::backward(const Tensor& gy)
{
    Tensor g = gy;
    for (size_t i = mods_.size(); i > 0; --i)
        g = mods_[i - 1]->backward(g);
    return g;
}

std::vector<Module*>
Sequential::children()
{
    std::vector<Module*> v;
    v.reserve(mods_.size());
    for (auto& m : mods_)
        v.push_back(m.get());
    return v;
}

} // namespace mixq
