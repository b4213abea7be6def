#include "nn/rnn.hh"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "infer/qkernels.hh"
#include "nn/gemm.hh"
#include "nn/loss.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace mixq {

namespace {

double
rnnInitStd(size_t fan_in)
{
    return 1.0 / std::sqrt(double(std::max<size_t>(fan_in, 1)));
}

bool gRnnBatchParallel = true;

/**
 * Batch partition for one sequence pass. Every chunk has at least
 * kGemmMR rows so the per-chunk gate GEMMs all stay on the
 * blocked/packed path (a skinnier M would fall back to the naive
 * kernel and stop using the sequence-level plans); at most
 * kRnnMaxBatchChunks chunks so the per-chunk gradient partials stay
 * bounded.
 */
std::vector<size_t>
rnnBatchChunks(size_t n)
{
    return deterministicBatchChunks(n, kGemmMR, kRnnMaxBatchChunks);
}

/**
 * Chunked-forward orchestration shared by Lstm and Gru: the slice
 * callback over the fixed chunks in parallel, or one plain call for
 * a single chunk. The caller passes the same frozenQuant decision
 * either way — QAT semantics must follow the mode toggle, never the
 * batch size.
 */
template <class SliceFn>
void
chunkedForward(const std::vector<size_t>& bounds, SliceFn&& slice)
{
    size_t chunks = bounds.size() - 1;
    if (chunks > 1) {
        #pragma omp parallel for schedule(static)
        for (long ci = 0; ci < long(chunks); ++ci)
            slice(bounds[size_t(ci)], bounds[size_t(ci) + 1]);
    } else {
        slice(bounds[0], bounds[chunks]);
    }
}

/**
 * Stage the int-backend serve scratch shared by Lstm and Gru for
 * batches of up to @p maxN sequences: the per-gate-row rescale
 * factors of panels @p wxQ / @p whQ, the chunk bounds of every batch
 * size, and one Slot per chunk, sized for the widest chunk. Chunk
 * bounds are a pure function of n; tabulating every batch size keeps
 * the live path free of even the bounds vector's allocation. @p cell
 * sizes the LSTM's cell-state buffer.
 */
void
stageRnnServe(RnnServeScratch& s, size_t maxN, size_t in, size_t hidden,
              const PackedQMat& wxQ, const PackedQMat& whQ,
              const ActQuantParams& px, const ActQuantParams& ph,
              bool cell)
{
    size_t rows = wxQ.rows();
    s.fx.resize(rows);
    s.fh.resize(rows);
    for (size_t r = 0; r < rows; ++r) {
        s.fx[r] = wxQ.rowDequant(r) * double(px.invScale);
        s.fh[r] = whQ.rowDequant(r) * double(ph.invScale);
    }
    s.boundsByN.assign(maxN + 1, {});
    size_t width = 0;
    for (size_t nn = 1; nn <= maxN; ++nn) {
        const std::vector<size_t>& b = s.boundsByN[nn] =
            rnnBatchChunks(nn);
        for (size_t ci = 0; ci + 1 < b.size(); ++ci)
            width = std::max(width, b[ci + 1] - b[ci]);
    }
    // The chunk count never falls as n grows, so the maximum batch
    // uses the most slots; live batches index with their actual nb.
    s.slots.resize(s.boundsByN[maxN].size() - 1);
    for (auto& sl : s.slots) {
        sl.qx.resize(width * in);
        sl.qxT.resize(in * width);
        sl.qh.resize(width * hidden);
        sl.qhT.resize(hidden * width);
        sl.accX.resize(rows * width);
        sl.accH.resize(rows * width);
        sl.hprev.resize(width * hidden);
        sl.cprev.resize(cell ? width * hidden : 0);
    }
}

/**
 * Gather a batch slice [b0, b0 + nb) of every timestep of a
 * [T, N, width] tensor into a contiguous [T*nb, width] buffer — the
 * layout the batched weight-gradient GEMMs consume.
 */
void
gatherSliceRows(float* dst, const float* src, size_t t, size_t n,
                size_t b0, size_t nb, size_t width)
{
    for (size_t s = 0; s < t; ++s)
        std::memcpy(dst + s * nb * width,
                    src + (s * n + b0) * width,
                    nb * width * sizeof(float));
}

/**
 * Chunked-backward orchestration shared by Lstm and Gru: private
 * (wx, wh, b) gradient partials per chunk, the slice callback run
 * over the fixed chunks in parallel, then the fixed-order tree
 * merge into the gradient buffers.
 */
template <class SliceFn>
void
chunkedBackward(const std::vector<size_t>& bounds, size_t wxLen,
                size_t whLen, size_t bLen, float* gwx, float* gwh,
                float* gb, SliceFn&& slice)
{
    size_t chunks = bounds.size() - 1;
    std::vector<float> wxBuf(chunks * wxLen, 0.0f);
    std::vector<float> whBuf(chunks * whLen, 0.0f);
    std::vector<float> bBuf(chunks * bLen, 0.0f);
    std::vector<float*> wxP(chunks), whP(chunks), bP(chunks);
    for (size_t ci = 0; ci < chunks; ++ci) {
        wxP[ci] = wxBuf.data() + ci * wxLen;
        whP[ci] = whBuf.data() + ci * whLen;
        bP[ci] = bBuf.data() + ci * bLen;
    }
    #pragma omp parallel for schedule(static)
    for (long ci = 0; ci < long(chunks); ++ci)
        slice(bounds[size_t(ci)], bounds[size_t(ci) + 1],
              wxP[size_t(ci)], whP[size_t(ci)], bP[size_t(ci)]);
    treeReduceAcc(wxP.data(), chunks, wxLen, gwx);
    treeReduceAcc(whP.data(), chunks, whLen, gwh);
    treeReduceAcc(bP.data(), chunks, bLen, gb);
}

/**
 * Sequence-input quantizer step shared by the cells: training
 * observes + quantizes (EMA calibration), eval applies the frozen
 * clip range only, so eval outputs are a pure function of weights.
 */
void
seqActQuant(ActFakeQuant& aq, std::span<float> x, bool train)
{
    if (!aq.enabled())
        return;
    if (train)
        aq.forward(x);
    else
        aq.quantizeOnly(x);
}

} // namespace

void
setRnnBatchParallel(bool on)
{
    gRnnBatchParallel = on;
}

bool
rnnBatchParallel()
{
    return gRnnBatchParallel;
}

// ------------------------------------------------------------ Embedding

Embedding::Embedding(size_t vocab, size_t dim, Rng& rng)
    : vocab_(vocab), dim_(dim),
      w_("embed.w", Tensor::randn({vocab, dim}, rng, 0.1))
{
}

Tensor
Embedding::forward(const std::vector<int>& ids, size_t t, size_t n)
{
    MIXQ_ASSERT(ids.size() == t * n, "Embedding: id grid mismatch");
    ids_ = ids;
    t_ = t;
    n_ = n;
    Tensor y({t, n, dim_});
    for (size_t i = 0; i < ids.size(); ++i) {
        int id = ids[i];
        MIXQ_ASSERT(id >= 0 && size_t(id) < vocab_,
                    "Embedding: id out of range");
        std::memcpy(y.data() + i * dim_, w_.w.data() + size_t(id) * dim_,
                    dim_ * sizeof(float));
    }
    return y;
}

Tensor
Embedding::forward(const Tensor& x, bool train)
{
    (void)train;
    MIXQ_ASSERT(x.ndim() == 2, "Embedding: id grid must be [T, N]");
    std::vector<int> ids(x.size());
    for (size_t i = 0; i < ids.size(); ++i)
        ids[i] = int(x.data()[i]);
    return forward(ids, x.dim(0), x.dim(1));
}

void
Embedding::forwardServe(const TensorView& x, const TensorView& y) const
{
    MIXQ_ASSERT(x.ndim() == 2, "Embedding: serve id grid must be [T, N]");
    size_t count = x.size();
    MIXQ_ASSERT(y.size() == count * dim_,
                "Embedding: serve out shape");
    for (size_t i = 0; i < count; ++i) {
        int id = int(x.data[i]);
        MIXQ_ASSERT(id >= 0 && size_t(id) < vocab_,
                    "Embedding: id out of range");
        std::memcpy(y.data + i * dim_,
                    w_.w.data() + size_t(id) * dim_,
                    dim_ * sizeof(float));
    }
}

Tensor
Embedding::backward(const Tensor& gy)
{
    MIXQ_ASSERT(gy.size() == ids_.size() * dim_,
                "Embedding: grad mismatch");
    for (size_t i = 0; i < ids_.size(); ++i) {
        float* g = w_.grad.data() + size_t(ids_[i]) * dim_;
        const float* src = gy.data() + i * dim_;
        for (size_t d = 0; d < dim_; ++d)
            g[d] += src[d];
    }
    return {};
}

// ----------------------------------------------------------------- Lstm

Lstm::Lstm(size_t input, size_t hidden, Rng& rng)
    : i_(input), h_(hidden),
      wx_("lstm.wx", Tensor::randn({4 * hidden, input}, rng,
                                   rnnInitStd(input)),
          4 * hidden, input),
      wh_("lstm.wh", Tensor::randn({4 * hidden, hidden}, rng,
                                   rnnInitStd(hidden)),
          4 * hidden, hidden),
      b_("lstm.b", Tensor::zeros({4 * hidden}), 0, 0, false),
      axq_(4, true), ahq_(4, true)
{
    // Forget-gate bias of 1 helps early training stability.
    for (size_t j = hidden; j < 2 * hidden; ++j)
        b_.w[j] = 1.0f;
}

void
Lstm::ownParams(std::vector<Param*>& out)
{
    out.push_back(&wx_);
    out.push_back(&wh_);
    out.push_back(&b_);
}

void
Lstm::configureOwnActQuant(int bits, bool enable)
{
    axq_ = ActFakeQuant(bits, true);
    ahq_ = ActFakeQuant(bits, true);
    axq_.setEnabled(enable);
    ahq_.setEnabled(enable);
}

Tensor
Lstm::forward(const Tensor& x, bool train)
{
    MIXQ_ASSERT(x.ndim() == 3 && x.dim(2) == i_, "Lstm input shape");
    if (intBackend_ && !train) {
        prepareServe(evalScratch_, x.dim(1));
        Tensor y({x.dim(0), x.dim(1), h_});
        forwardServe(viewOf(x), viewOf(y), evalScratch_);
        return y;
    }
    t_ = x.dim(0);
    n_ = x.dim(1);
    size_t t = t_, n = n_;

    xq_ = x;
    if (train)
        xPre_ = x;
    seqActQuant(axq_, xq_.span(), train);

    hq_ = Tensor({t, n, h_});
    hPre_ = Tensor({t, n, h_});
    gates_ = Tensor({t, n, 4 * h_});
    c_ = Tensor({t, n, h_});
    tanhc_ = Tensor({t, n, h_});
    Tensor hOut({t, n, h_});

    // Pack the gate weights once for all T timesteps (and all later
    // sequences until the optimizer/quantizer bumps the versions).
    // Must happen before the parallel region: ensure mutates the
    // plan, while the workers only read it.
    wxPlanFwd_.ensureB(wx_.w.data(), i_, 4 * h_, /*trans=*/true,
                       wx_.version);
    whPlanFwd_.ensureB(wh_.w.data(), h_, 4 * h_, /*trans=*/true,
                       wh_.version);

    if (gRnnBatchParallel) {
        // Frozen-alpha quantization + calibration replay even when
        // the batch yields a single chunk, so the QAT semantics
        // depend only on the toggle, never on the batch size (a
        // ragged final batch must not quantize differently).
        chunkedForward(rnnBatchChunks(n),
                       [&](size_t b0, size_t b1) {
                           forwardSlice(b0, b1, hOut,
                                        /*frozenQuant=*/true);
                       });
        // The slices quantized h_{t-1} against a frozen clip range;
        // replay the EMA calibration they skipped in timestep order
        // over the raw h values, so alpha evolves deterministically.
        // Eval never observes — the clip range stays frozen.
        if (train && ahq_.enabled()) {
            for (size_t s = 0; s < t; ++s)
                ahq_.observe(std::span<const float>(
                    hPre_.data() + s * n * h_, n * h_));
        }
    } else {
        forwardSlice(0, n, hOut, /*frozenQuant=*/!train);
    }
    return hOut;
}

void
Lstm::forwardSlice(size_t b0, size_t b1, Tensor& hOut,
                   bool frozenQuant)
{
    size_t t = t_, n = n_, nb = b1 - b0;
    std::vector<float> a(nb * 4 * h_);
    for (size_t s = 0; s < t; ++s) {
        // h_{t-1}: zero at s == 0, else previous output.
        float* hprev = hPre_.data() + (s * n + b0) * h_;
        if (s == 0) {
            std::memset(hprev, 0, nb * h_ * sizeof(float));
        } else {
            std::memcpy(hprev, hOut.data() + ((s - 1) * n + b0) * h_,
                        nb * h_ * sizeof(float));
        }
        float* hqs = hq_.data() + (s * n + b0) * h_;
        std::memcpy(hqs, hprev, nb * h_ * sizeof(float));
        if (ahq_.enabled()) {
            std::span<float> hspan(hqs, nb * h_);
            if (frozenQuant)
                ahq_.quantizeOnly(hspan);
            else
                ahq_.forward(hspan);
        }

        // Pre-activations a = xq Wx^T + hq Wh^T + b.
        const float* xs = xq_.data() + (s * n + b0) * i_;
        gemmPackedB(xs, wxPlanFwd_, a.data(), nb, 4 * h_, i_);
        gemmPackedBAcc(hqs, whPlanFwd_, a.data(), nb, 4 * h_, h_);

        float* g = gates_.data() + (s * n + b0) * 4 * h_;
        float* cs = c_.data() + (s * n + b0) * h_;
        const float* cprev =
            s == 0 ? nullptr : c_.data() + ((s - 1) * n + b0) * h_;
        float* th = tanhc_.data() + (s * n + b0) * h_;
        float* ho = hOut.data() + (s * n + b0) * h_;
        for (size_t b = 0; b < nb; ++b) {
            const float* ab = a.data() + b * 4 * h_;
            float* gb = g + b * 4 * h_;
            for (size_t j = 0; j < h_; ++j) {
                float iv = sigmoidf(ab[j] + b_.w[j]);
                float fv = sigmoidf(ab[h_ + j] + b_.w[h_ + j]);
                float gv = std::tanh(ab[2 * h_ + j] + b_.w[2 * h_ + j]);
                float ov = sigmoidf(ab[3 * h_ + j] + b_.w[3 * h_ + j]);
                gb[j] = iv;
                gb[h_ + j] = fv;
                gb[2 * h_ + j] = gv;
                gb[3 * h_ + j] = ov;
                float cp = cprev ? cprev[b * h_ + j] : 0.0f;
                float cv = fv * cp + iv * gv;
                cs[b * h_ + j] = cv;
                float tv = std::tanh(cv);
                th[b * h_ + j] = tv;
                ho[b * h_ + j] = ov * tv;
            }
        }
    }
}

void
Lstm::enableIntInference(const MatrixQuantResult& projWx,
                         const MatrixQuantResult& projWh, int wbits)
{
    MIXQ_ASSERT(projWx.rowScheme.size() == 4 * h_ &&
                projWh.rowScheme.size() == 4 * h_,
                "Lstm: projection records do not match the gates");
    qProjWx_ = projWx;
    qProjWh_ = projWh;
    qBits_ = wbits;
    intBackend_ = true;
}

void
Lstm::adoptDeployedWeights(PackedQMat wx, PackedQMat wh, int wbits)
{
    MIXQ_ASSERT(wx.locked() && wx.rows() == 4 * h_ && wx.cols() == i_ &&
                    wh.locked() && wh.rows() == 4 * h_ &&
                    wh.cols() == h_,
                "Lstm: deployed panels do not match the gates");
    wxQ_ = std::move(wx);
    whQ_ = std::move(wh);
    qBits_ = wbits;
    intBackend_ = true;
}

void
Lstm::prepareServe(RnnServeScratch& s, size_t maxN)
{
    MIXQ_ASSERT(intBackend_,
                "Lstm: planned serving requires the int inference "
                "backend — the float train-path forward mutates "
                "member caches and cannot run replica-shared");
    MIXQ_ASSERT(maxN > 0, "Lstm: empty serve batch");
    size_t rows = 4 * h_;
    wxQ_.ensure(wx_.w.data(), rows, i_, wx_.version,
                qProjWx_.rowScheme, qProjWx_.rowAlpha, qBits_);
    whQ_.ensure(wh_.w.data(), rows, h_, wh_.version,
                qProjWh_.rowScheme, qProjWh_.rowAlpha, qBits_);
    stageRnnServe(s, maxN, i_, h_, wxQ_, whQ_, actQuantParams(axq_),
                  actQuantParams(ahq_), /*cell=*/true);
}

void
Lstm::forwardServe(const TensorView& x, const TensorView& y,
                   RnnServeScratch& s) const
{
    MIXQ_ASSERT(x.ndim() == 3 && x.dim(2) == i_,
                "Lstm: serve view shape");
    size_t t = x.dim(0), n = x.dim(1);
    MIXQ_ASSERT(n > 0 && n < s.boundsByN.size() &&
                    !s.boundsByN[n].empty(),
                "Lstm: serve batch exceeds the prepared plan");
    MIXQ_ASSERT(y.size() == t * n * h_, "Lstm: serve out shape");
    ActQuantParams px = actQuantParams(axq_);
    ActQuantParams ph = actQuantParams(ahq_);

    // Sequences evolve independently, so the batch splits into the
    // same fixed chunks as training, each with its own pre-sized Slot;
    // every output element is a pure function of its own sequence, so
    // outputs are bit-identical at any thread count. The per-gate-row
    // rescale factors are carried in double like the Linear rescale,
    // so the only float rounding is at the gate pre-activation.
    const std::vector<size_t>& bounds = s.boundsByN[n];
    size_t chunks = bounds.size() - 1;
    auto slice = [&](size_t ci, size_t b0, size_t b1) {
        size_t nb = b1 - b0;
        RnnServeScratch::Slot& sl = s.slots[ci];
        std::fill_n(sl.hprev.data(), nb * h_, 0.0f);
        std::fill_n(sl.cprev.data(), nb * h_, 0.0f);
        for (size_t st = 0; st < t; ++st) {
            const float* xs = x.data + (st * n + b0) * i_;
            quantizeActsInt(xs, sl.qx.data(), nb * i_, px);
            transposeInt32(sl.qx.data(), sl.qxT.data(), nb, i_);
            qgemm(wxQ_, sl.qxT.data(), nb, sl.accX.data());
            quantizeActsInt(sl.hprev.data(), sl.qh.data(), nb * h_,
                            ph);
            transposeInt32(sl.qh.data(), sl.qhT.data(), nb, h_);
            qgemm(whQ_, sl.qhT.data(), nb, sl.accH.data());

            float* ho = y.data + (st * n + b0) * h_;
            for (size_t b = 0; b < nb; ++b) {
                for (size_t j = 0; j < h_; ++j) {
                    auto pre = [&](size_t r) {
                        return float(
                            double(sl.accX[r * nb + b]) * s.fx[r] +
                            double(sl.accH[r * nb + b]) * s.fh[r]);
                    };
                    float iv = sigmoidf(pre(j) + b_.w[j]);
                    float fv = sigmoidf(pre(h_ + j) + b_.w[h_ + j]);
                    float gv = std::tanh(pre(2 * h_ + j) +
                                         b_.w[2 * h_ + j]);
                    float ov = sigmoidf(pre(3 * h_ + j) +
                                        b_.w[3 * h_ + j]);
                    float cv = fv * sl.cprev[b * h_ + j] + iv * gv;
                    sl.cprev[b * h_ + j] = cv;
                    float hv = ov * std::tanh(cv);
                    sl.hprev[b * h_ + j] = hv;
                    ho[b * h_ + j] = hv;
                }
            }
        }
    };
    if (chunks > 1) {
        #pragma omp parallel for schedule(static)
        for (long ci = 0; ci < long(chunks); ++ci)
            slice(size_t(ci), bounds[size_t(ci)],
                  bounds[size_t(ci) + 1]);
    } else {
        slice(0, bounds[0], bounds[chunks]);
    }
}

Tensor
Lstm::backward(const Tensor& gy)
{
    size_t t = t_, n = n_;
    MIXQ_ASSERT(gy.ndim() == 3 && gy.dim(0) == t && gy.dim(1) == n &&
                gy.dim(2) == h_, "Lstm grad shape");

    Tensor gx({t, n, i_});
    // Backward streams da against the un-transposed weights; the
    // plans again pack once for all T steps, before any workers run.
    wxPlanBwd_.ensureB(wx_.w.data(), 4 * h_, i_, /*trans=*/false,
                       wx_.version);
    whPlanBwd_.ensureB(wh_.w.data(), 4 * h_, h_, /*trans=*/false,
                       wh_.version);

    std::vector<size_t> bounds = rnnBatchChunks(n);
    if (gRnnBatchParallel && bounds.size() > 2) {
        // Private weight-gradient partials per chunk, merged in the
        // fixed tree order — never via concurrent accumulate.
        chunkedBackward(bounds, 4 * h_ * i_, 4 * h_ * h_, 4 * h_,
                        wx_.grad.data(), wh_.grad.data(),
                        b_.grad.data(),
                        [&](size_t b0, size_t b1, float* gwx,
                            float* gwh, float* gb) {
                            backwardSlice(b0, b1, gy, gx, gwx, gwh,
                                          gb);
                        });
    } else {
        backwardSlice(0, n, gy, gx, wx_.grad.data(), wh_.grad.data(),
                      b_.grad.data());
    }
    if (axq_.enabled())
        axq_.backwardSte(xPre_.span(), gx.span());
    return gx;
}

void
Lstm::backwardSlice(size_t b0, size_t b1, const Tensor& gy, Tensor& gx,
                    float* gwx, float* gwh, float* gb)
{
    size_t t = t_, n = n_, nb = b1 - b0;
    std::vector<float> dh_next(nb * h_, 0.0f);
    std::vector<float> dc_next(nb * h_, 0.0f);
    // da for every timestep of the slice, kept for the batched
    // weight-gradient GEMM below (same order of magnitude as the
    // forward caches already held per sequence).
    std::vector<float> daAll(t * nb * 4 * h_);

    for (size_t s = t; s-- > 0;) {
        const float* g = gates_.data() + (s * n + b0) * 4 * h_;
        const float* th = tanhc_.data() + (s * n + b0) * h_;
        const float* cprev =
            s == 0 ? nullptr : c_.data() + ((s - 1) * n + b0) * h_;
        const float* gys = gy.data() + (s * n + b0) * h_;
        float* da = daAll.data() + s * nb * 4 * h_;

        for (size_t b = 0; b < nb; ++b) {
            const float* gbv = g + b * 4 * h_;
            float* dab = da + b * 4 * h_;
            for (size_t j = 0; j < h_; ++j) {
                float dh = gys[b * h_ + j] + dh_next[b * h_ + j];
                float iv = gbv[j], fv = gbv[h_ + j];
                float gv = gbv[2 * h_ + j], ov = gbv[3 * h_ + j];
                float tv = th[b * h_ + j];
                float dct = dh * ov * (1.0f - tv * tv) +
                            dc_next[b * h_ + j];
                float cp = cprev ? cprev[b * h_ + j] : 0.0f;
                dab[j] = dct * gv * iv * (1.0f - iv);
                dab[h_ + j] = dct * cp * fv * (1.0f - fv);
                dab[2 * h_ + j] = dct * iv * (1.0f - gv * gv);
                dab[3 * h_ + j] = dh * tv * ov * (1.0f - ov);
                dc_next[b * h_ + j] = dct * fv;
            }
        }

        // Bias gradient (into the caller's buffer).
        for (size_t b = 0; b < nb; ++b)
            for (size_t j = 0; j < 4 * h_; ++j)
                gb[j] += da[b * 4 * h_ + j];

        // Input and recurrent gradients.
        float* gxs = gx.data() + (s * n + b0) * i_;
        gemmPackedB(da, wxPlanBwd_, gxs, nb, i_, 4 * h_);
        gemmPackedB(da, whPlanBwd_, dh_next.data(), nb, h_,
                    4 * h_);
        if (ahq_.enabled()) {
            const float* hp = hPre_.data() + (s * n + b0) * h_;
            ahq_.backwardSte(std::span<const float>(hp, nb * h_),
                             std::span<float>(dh_next.data(),
                                              nb * h_));
        }
    }

    // Weight gradients, batched over the whole slice: gather the
    // slice's strided xq/hq rows into contiguous [T*nb, ...] views
    // and run one GEMM with k = T*nb instead of T GEMMs with k = nb.
    // The reduction dimension is tiny per step, so per-step calls
    // pay a full C-matrix pass per timestep; one call pays it once.
    std::vector<float> xbuf(t * nb * i_);
    std::vector<float> hbuf(t * nb * h_);
    gatherSliceRows(xbuf.data(), xq_.data(), t, n, b0, nb, i_);
    gatherSliceRows(hbuf.data(), hq_.data(), t, n, b0, nb, h_);
    gemmATAcc(daAll.data(), xbuf.data(), gwx, 4 * h_, i_, t * nb);
    gemmATAcc(daAll.data(), hbuf.data(), gwh, 4 * h_, h_, t * nb);
}

// ------------------------------------------------------------------ Gru

Gru::Gru(size_t input, size_t hidden, Rng& rng)
    : i_(input), h_(hidden),
      wx_("gru.wx", Tensor::randn({3 * hidden, input}, rng,
                                  rnnInitStd(input)),
          3 * hidden, input),
      wh_("gru.wh", Tensor::randn({3 * hidden, hidden}, rng,
                                  rnnInitStd(hidden)),
          3 * hidden, hidden),
      b_("gru.b", Tensor::zeros({3 * hidden}), 0, 0, false),
      axq_(4, true), ahq_(4, true)
{
}

void
Gru::ownParams(std::vector<Param*>& out)
{
    out.push_back(&wx_);
    out.push_back(&wh_);
    out.push_back(&b_);
}

void
Gru::configureOwnActQuant(int bits, bool enable)
{
    axq_ = ActFakeQuant(bits, true);
    ahq_ = ActFakeQuant(bits, true);
    axq_.setEnabled(enable);
    ahq_.setEnabled(enable);
}

Tensor
Gru::forward(const Tensor& x, bool train)
{
    MIXQ_ASSERT(x.ndim() == 3 && x.dim(2) == i_, "Gru input shape");
    if (intBackend_ && !train) {
        prepareServe(evalScratch_, x.dim(1));
        Tensor y({x.dim(0), x.dim(1), h_});
        forwardServe(viewOf(x), viewOf(y), evalScratch_);
        return y;
    }
    t_ = x.dim(0);
    n_ = x.dim(1);
    size_t t = t_, n = n_;

    xq_ = x;
    if (train)
        xPre_ = x;
    seqActQuant(axq_, xq_.span(), train);

    hq_ = Tensor({t, n, h_});
    hPre_ = Tensor({t, n, h_});
    gates_ = Tensor({t, n, 3 * h_});
    ahn_ = Tensor({t, n, h_});
    hOut_ = Tensor({t, n, h_});

    wxPlanFwd_.ensureB(wx_.w.data(), i_, 3 * h_, /*trans=*/true,
                       wx_.version);
    whPlanFwd_.ensureB(wh_.w.data(), h_, 3 * h_, /*trans=*/true,
                       wh_.version);

    if (gRnnBatchParallel) {
        // Frozen-alpha + replay regardless of chunk count, so QAT
        // semantics follow the toggle, not the batch size (see
        // Lstm::forward).
        chunkedForward(rnnBatchChunks(n),
                       [&](size_t b0, size_t b1) {
                           forwardSlice(b0, b1,
                                        /*frozenQuant=*/true);
                       });
        if (train && ahq_.enabled()) {
            for (size_t s = 0; s < t; ++s)
                ahq_.observe(std::span<const float>(
                    hPre_.data() + s * n * h_, n * h_));
        }
    } else {
        forwardSlice(0, n, /*frozenQuant=*/!train);
    }
    return hOut_;
}

void
Gru::forwardSlice(size_t b0, size_t b1, bool frozenQuant)
{
    size_t t = t_, n = n_, nb = b1 - b0;
    std::vector<float> ax(nb * 3 * h_);
    std::vector<float> ah(nb * 3 * h_);
    for (size_t s = 0; s < t; ++s) {
        float* hprev = hPre_.data() + (s * n + b0) * h_;
        if (s == 0) {
            std::memset(hprev, 0, nb * h_ * sizeof(float));
        } else {
            std::memcpy(hprev, hOut_.data() + ((s - 1) * n + b0) * h_,
                        nb * h_ * sizeof(float));
        }
        float* hqs = hq_.data() + (s * n + b0) * h_;
        std::memcpy(hqs, hprev, nb * h_ * sizeof(float));
        if (ahq_.enabled()) {
            std::span<float> hspan(hqs, nb * h_);
            if (frozenQuant)
                ahq_.quantizeOnly(hspan);
            else
                ahq_.forward(hspan);
        }

        const float* xs = xq_.data() + (s * n + b0) * i_;
        gemmPackedB(xs, wxPlanFwd_, ax.data(), nb, 3 * h_, i_);
        gemmPackedB(hqs, whPlanFwd_, ah.data(), nb, 3 * h_, h_);

        float* g = gates_.data() + (s * n + b0) * 3 * h_;
        float* hu = ahn_.data() + (s * n + b0) * h_;
        float* ho = hOut_.data() + (s * n + b0) * h_;
        for (size_t b = 0; b < nb; ++b) {
            const float* axb = ax.data() + b * 3 * h_;
            const float* ahb = ah.data() + b * 3 * h_;
            float* gb = g + b * 3 * h_;
            for (size_t j = 0; j < h_; ++j) {
                float zv = sigmoidf(axb[j] + ahb[j] + b_.w[j]);
                float rv = sigmoidf(axb[h_ + j] + ahb[h_ + j] +
                                    b_.w[h_ + j]);
                float huv = ahb[2 * h_ + j];
                float nv = std::tanh(axb[2 * h_ + j] + b_.w[2 * h_ + j] +
                                     rv * huv);
                gb[j] = zv;
                gb[h_ + j] = rv;
                gb[2 * h_ + j] = nv;
                hu[b * h_ + j] = huv;
                float hp = hprev[b * h_ + j];
                ho[b * h_ + j] = (1.0f - zv) * nv + zv * hp;
            }
        }
    }
}

void
Gru::enableIntInference(const MatrixQuantResult& projWx,
                        const MatrixQuantResult& projWh, int wbits)
{
    MIXQ_ASSERT(projWx.rowScheme.size() == 3 * h_ &&
                projWh.rowScheme.size() == 3 * h_,
                "Gru: projection records do not match the gates");
    qProjWx_ = projWx;
    qProjWh_ = projWh;
    qBits_ = wbits;
    intBackend_ = true;
}

void
Gru::adoptDeployedWeights(PackedQMat wx, PackedQMat wh, int wbits)
{
    MIXQ_ASSERT(wx.locked() && wx.rows() == 3 * h_ && wx.cols() == i_ &&
                    wh.locked() && wh.rows() == 3 * h_ &&
                    wh.cols() == h_,
                "Gru: deployed panels do not match the gates");
    wxQ_ = std::move(wx);
    whQ_ = std::move(wh);
    qBits_ = wbits;
    intBackend_ = true;
}

void
Gru::prepareServe(RnnServeScratch& s, size_t maxN)
{
    MIXQ_ASSERT(intBackend_,
                "Gru: planned serving requires the int inference "
                "backend — the float train-path forward mutates "
                "member caches and cannot run replica-shared");
    MIXQ_ASSERT(maxN > 0, "Gru: empty serve batch");
    size_t rows = 3 * h_;
    wxQ_.ensure(wx_.w.data(), rows, i_, wx_.version,
                qProjWx_.rowScheme, qProjWx_.rowAlpha, qBits_);
    whQ_.ensure(wh_.w.data(), rows, h_, wh_.version,
                qProjWh_.rowScheme, qProjWh_.rowAlpha, qBits_);
    stageRnnServe(s, maxN, i_, h_, wxQ_, whQ_, actQuantParams(axq_),
                  actQuantParams(ahq_), /*cell=*/false);
}

void
Gru::forwardServe(const TensorView& x, const TensorView& y,
                  RnnServeScratch& s) const
{
    MIXQ_ASSERT(x.ndim() == 3 && x.dim(2) == i_,
                "Gru: serve view shape");
    size_t t = x.dim(0), n = x.dim(1);
    MIXQ_ASSERT(n > 0 && n < s.boundsByN.size() &&
                    !s.boundsByN[n].empty(),
                "Gru: serve batch exceeds the prepared plan");
    MIXQ_ASSERT(y.size() == t * n * h_, "Gru: serve out shape");
    ActQuantParams px = actQuantParams(axq_);
    ActQuantParams ph = actQuantParams(ahq_);

    // Lstm::forwardServe's chunked slice. The x and h contributions
    // stay separate through rescale because the n~ gate couples them
    // through r, not by a plain sum.
    const std::vector<size_t>& bounds = s.boundsByN[n];
    size_t chunks = bounds.size() - 1;
    auto slice = [&](size_t ci, size_t b0, size_t b1) {
        size_t nb = b1 - b0;
        RnnServeScratch::Slot& sl = s.slots[ci];
        std::fill_n(sl.hprev.data(), nb * h_, 0.0f);
        for (size_t st = 0; st < t; ++st) {
            const float* xs = x.data + (st * n + b0) * i_;
            quantizeActsInt(xs, sl.qx.data(), nb * i_, px);
            transposeInt32(sl.qx.data(), sl.qxT.data(), nb, i_);
            qgemm(wxQ_, sl.qxT.data(), nb, sl.accX.data());
            quantizeActsInt(sl.hprev.data(), sl.qh.data(), nb * h_,
                            ph);
            transposeInt32(sl.qh.data(), sl.qhT.data(), nb, h_);
            qgemm(whQ_, sl.qhT.data(), nb, sl.accH.data());

            float* ho = y.data + (st * n + b0) * h_;
            for (size_t b = 0; b < nb; ++b) {
                for (size_t j = 0; j < h_; ++j) {
                    auto preX = [&](size_t r) {
                        return float(double(sl.accX[r * nb + b]) *
                                     s.fx[r]);
                    };
                    auto preH = [&](size_t r) {
                        return float(double(sl.accH[r * nb + b]) *
                                     s.fh[r]);
                    };
                    float zv = sigmoidf(preX(j) + preH(j) + b_.w[j]);
                    float rv = sigmoidf(preX(h_ + j) +
                                        preH(h_ + j) + b_.w[h_ + j]);
                    float huv = preH(2 * h_ + j);
                    float nv = std::tanh(preX(2 * h_ + j) +
                                         b_.w[2 * h_ + j] + rv * huv);
                    float hp = sl.hprev[b * h_ + j];
                    float hv = (1.0f - zv) * nv + zv * hp;
                    sl.hprev[b * h_ + j] = hv;
                    ho[b * h_ + j] = hv;
                }
            }
        }
    };
    if (chunks > 1) {
        #pragma omp parallel for schedule(static)
        for (long ci = 0; ci < long(chunks); ++ci)
            slice(size_t(ci), bounds[size_t(ci)],
                  bounds[size_t(ci) + 1]);
    } else {
        slice(0, bounds[0], bounds[chunks]);
    }
}

Tensor
Gru::backward(const Tensor& gy)
{
    size_t t = t_, n = n_;
    MIXQ_ASSERT(gy.ndim() == 3 && gy.dim(0) == t && gy.dim(1) == n &&
                gy.dim(2) == h_, "Gru grad shape");

    Tensor gx({t, n, i_});
    wxPlanBwd_.ensureB(wx_.w.data(), 3 * h_, i_, /*trans=*/false,
                       wx_.version);
    whPlanBwd_.ensureB(wh_.w.data(), 3 * h_, h_, /*trans=*/false,
                       wh_.version);

    std::vector<size_t> bounds = rnnBatchChunks(n);
    if (gRnnBatchParallel && bounds.size() > 2) {
        chunkedBackward(bounds, 3 * h_ * i_, 3 * h_ * h_, 3 * h_,
                        wx_.grad.data(), wh_.grad.data(),
                        b_.grad.data(),
                        [&](size_t b0, size_t b1, float* gwx,
                            float* gwh, float* gb) {
                            backwardSlice(b0, b1, gy, gx, gwx, gwh,
                                          gb);
                        });
    } else {
        backwardSlice(0, n, gy, gx, wx_.grad.data(), wh_.grad.data(),
                      b_.grad.data());
    }
    if (axq_.enabled())
        axq_.backwardSte(xPre_.span(), gx.span());
    return gx;
}

void
Gru::backwardSlice(size_t b0, size_t b1, const Tensor& gy, Tensor& gx,
                   float* gwx, float* gwh, float* gb)
{
    size_t t = t_, n = n_, nb = b1 - b0;
    std::vector<float> dh_next(nb * h_, 0.0f);
    // dax/dah for every timestep of the slice, kept for the batched
    // weight-gradient GEMMs below.
    std::vector<float> daxAll(t * nb * 3 * h_);
    std::vector<float> dahAll(t * nb * 3 * h_);
    // Per-step scratch hoisted out of the timestep loop: dh_prev is
    // re-zeroed each step (accumulated below); dh_rec is overwritten
    // by gemmPackedB.
    std::vector<float> dh_prev(nb * h_);
    std::vector<float> dh_rec(nb * h_);

    for (size_t s = t; s-- > 0;) {
        const float* g = gates_.data() + (s * n + b0) * 3 * h_;
        const float* hu = ahn_.data() + (s * n + b0) * h_;
        const float* hprev = hPre_.data() + (s * n + b0) * h_;
        const float* gys = gy.data() + (s * n + b0) * h_;
        float* dax = daxAll.data() + s * nb * 3 * h_;
        float* dah = dahAll.data() + s * nb * 3 * h_;

        std::fill(dh_prev.begin(), dh_prev.end(), 0.0f);
        for (size_t b = 0; b < nb; ++b) {
            const float* gbv = g + b * 3 * h_;
            float* daxb = dax + b * 3 * h_;
            float* dahb = dah + b * 3 * h_;
            for (size_t j = 0; j < h_; ++j) {
                float dh = gys[b * h_ + j] + dh_next[b * h_ + j];
                float zv = gbv[j], rv = gbv[h_ + j];
                float nv = gbv[2 * h_ + j];
                float hp = hprev[b * h_ + j];
                float huv = hu[b * h_ + j];

                float dz = dh * (hp - nv);
                float dn = dh * (1.0f - zv);
                dh_prev[b * h_ + j] += dh * zv;

                float da_z = dz * zv * (1.0f - zv);
                float da_n = dn * (1.0f - nv * nv);
                float dr = da_n * huv;
                float da_r = dr * rv * (1.0f - rv);
                float dhu = da_n * rv;

                daxb[j] = da_z;
                daxb[h_ + j] = da_r;
                daxb[2 * h_ + j] = da_n;
                dahb[j] = da_z;
                dahb[h_ + j] = da_r;
                dahb[2 * h_ + j] = dhu;
            }
        }

        // Bias gradient (applied on the input path).
        for (size_t b = 0; b < nb; ++b)
            for (size_t j = 0; j < 3 * h_; ++j)
                gb[j] += dax[b * 3 * h_ + j];

        float* gxs = gx.data() + (s * n + b0) * i_;
        gemmPackedB(dax, wxPlanBwd_, gxs, nb, i_, 3 * h_);
        // Recurrent gradient through the three Uh paths.
        gemmPackedB(dah, whPlanBwd_, dh_rec.data(), nb, h_,
                    3 * h_);
        if (ahq_.enabled()) {
            ahq_.backwardSte(std::span<const float>(hprev, nb * h_),
                             std::span<float>(dh_rec.data(),
                                              nb * h_));
        }
        for (size_t k = 0; k < nb * h_; ++k)
            dh_next[k] = dh_prev[k] + dh_rec[k];
    }

    // Batched weight gradients over the whole slice (see Lstm): one
    // GEMM with k = T*nb pays the C-matrix pass once, not T times.
    std::vector<float> xbuf(t * nb * i_);
    std::vector<float> hbuf(t * nb * h_);
    gatherSliceRows(xbuf.data(), xq_.data(), t, n, b0, nb, i_);
    gatherSliceRows(hbuf.data(), hq_.data(), t, n, b0, nb, h_);
    gemmATAcc(daxAll.data(), xbuf.data(), gwx, 3 * h_, i_, t * nb);
    gemmATAcc(dahAll.data(), hbuf.data(), gwh, 3 * h_, h_, t * nb);
}

} // namespace mixq
