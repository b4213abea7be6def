/**
 * @file
 * Recurrent layers with manual BPTT: LSTM and GRU cells unrolled over
 * [T, N, F] sequence tensors, and an Embedding lookup. The gate
 * weight matrices are the quantization targets of the paper's RNN
 * experiments (Table VI); their rows (gate units) are what MSQ
 * partitions. Hidden/input activations are fake-quantized with a
 * symmetric signed range because tanh outputs are in [-1, 1].
 *
 * The gate weight matrices are packed once per sequence into
 * PackedMat plans (nn/gemm_backend.hh) and reused across all T
 * timesteps of forward and backward — the host-side mirror of the
 * paper's weight-stationary buffers, and the difference between
 * packing wx/wh twice per sequence and 2T times.
 *
 * Batch-parallel training path: the timestep recurrence serializes T
 * but not the batch — each sequence evolves independently — so
 * forward and backward split the batch into fixed-size chunks
 * (deterministicBatchChunks) and run the full timestep loop per chunk
 * under OpenMP, every worker streaming activations past the same
 * shared read-only plans. Each backward chunk accumulates private
 * weight-gradient partials that are merged by the fixed-order tree
 * reduction (treeReduceAcc), so gradients are bit-identical for any
 * OMP_NUM_THREADS. See docs/ARCHITECTURE.md "Threading model".
 */

#ifndef MIXQ_NN_RNN_HH
#define MIXQ_NN_RNN_HH

#include <vector>

#include "infer/qpack.hh"
#include "nn/gemm_backend.hh"
#include "nn/module.hh"
#include "quant/act_quant.hh"
#include "quant/quantizer.hh"

namespace mixq {

class Rng;

/**
 * Upper bound on batch chunks per RNN layer pass. Caps the memory
 * spent on per-chunk weight-gradient partials (each chunk holds a
 * private copy of the gate-weight gradients until the tree merge).
 */
constexpr size_t kRnnMaxBatchChunks = 16;

/**
 * Per-replica scratch of the plan-executed LSTM/GRU forwards
 * (serve/executor.hh) and of the int eval forward. prepareServe()
 * sizes one Slot per batch chunk for the widest chunk any batch up to
 * the plan's maximum produces, precomputes the per-row
 * rescale factors and the chunk bounds for every batch size up to the
 * maximum, so forwardServe() touches the heap exactly never: the
 * chunk partition a live batch uses is a table lookup, and each
 * chunk's code/accumulator/state buffers are pre-sized slices of its
 * Slot. The layer itself stays immutable (const forwardServe), so
 * replicas share the packed gate panels and own only this scratch.
 */
struct RnnServeScratch
{
    /** Buffers of one batch chunk (indexed by chunk position). */
    struct Slot
    {
        std::vector<int32_t> qx, qxT;   //!< input codes / transposed
        std::vector<int32_t> qh, qhT;   //!< hidden codes / transposed
        std::vector<int32_t> accX, accH; //!< gate accumulators
        std::vector<float> hprev;        //!< running hidden state
        std::vector<float> cprev;        //!< running cell state (LSTM)
    };

    std::vector<Slot> slots;
    std::vector<double> fx, fh; //!< per-gate-row rescale factors
    /** boundsByN[n] = chunk bounds for a batch of n sequences. */
    std::vector<std::vector<size_t>> boundsByN;

    size_t bytes() const
    {
        size_t b = (fx.size() + fh.size()) * sizeof(double);
        for (const Slot& s : slots)
            b += (s.qx.size() + s.qxT.size() + s.qh.size() +
                  s.qhT.size() + s.accX.size() + s.accH.size()) *
                     sizeof(int32_t) +
                 (s.hprev.size() + s.cprev.size()) * sizeof(float);
        for (const auto& v : boundsByN)
            b += v.size() * sizeof(size_t);
        return b;
    }
};

/**
 * Toggle the batch-parallel LSTM/GRU training path (default on).
 * Off runs the single-sweep path: one timestep loop over the whole
 * batch, gradients accumulated straight into Param::grad. With
 * activation quantization disabled the two paths differ only in
 * float summation order (per-chunk partials + tree merge vs one
 * running sum), i.e. to rounding. With it enabled they also differ
 * in calibration cadence: the serial path updates the hidden-state
 * EMA clip range every timestep (and starts quantizing mid-sequence
 * on the very first call), while the parallel path quantizes the
 * whole sequence against the alpha frozen at sequence start and
 * replays the EMA afterwards — up to a full quantization step of
 * divergence, by design. Each path is individually
 * bit-deterministic across thread counts. Not thread-safe against
 * concurrent forward/backward calls — bench/test setup only.
 */
void setRnnBatchParallel(bool on);

/** Current batch-parallel setting. */
bool rnnBatchParallel();

/**
 * Token embedding: ids [T*N] -> [T, N, E]. A Module so the lookup
 * table registers in the named state tree ("emb.w" in the task
 * models); the Tensor-based Module::forward accepts a [T, N] grid of
 * integer ids carried as floats (exact below 2^24) and is what the
 * tree-walking callers use — the id-vector overload stays the primary
 * training API.
 */
class Embedding : public Module
{
  public:
    Embedding(size_t vocab, size_t dim, Rng& rng);

    /** Look up a [T, N] id grid into a [T, N, E] tensor. */
    Tensor forward(const std::vector<int>& ids, size_t t, size_t n);

    /** Module entry point: @p x is a [T, N] float grid of ids. */
    Tensor forward(const Tensor& x, bool train) override;

    /** Scatter-add gradient for the last forward; returns {} (the
        lookup has no input gradient). */
    Tensor backward(const Tensor& gy) override;

    void ownParams(std::vector<Param*>& out) override
    {
        out.push_back(&w_);
    }
    size_t vocab() const { return vocab_; }
    size_t dim() const { return dim_; }

    /** Plan-executed eval lookup: x is a [T, N] float id grid, y a
        [T, N, E] view; allocation-free and const (replica-shared). */
    void forwardServe(const TensorView& x, const TensorView& y) const;

  private:
    size_t vocab_, dim_;
    Param w_;
    std::vector<int> ids_;
    size_t t_ = 0, n_ = 0;
};

/** Unrolled LSTM layer, gate order (i, f, g, o). */
class Lstm : public Module
{
  public:
    Lstm(size_t input, size_t hidden, Rng& rng);

    /** x is [T, N, I]; returns hidden states [T, N, H]. */
    Tensor forward(const Tensor& x, bool train) override;

    /** gy is [T, N, H]; returns [T, N, I]. */
    Tensor backward(const Tensor& gy) override;

    void ownParams(std::vector<Param*>& out) override;
    void configureOwnActQuant(int bits, bool enable) override;

    size_t hidden() const { return h_; }

    /**
     * Route eval-time forwards onto the integer shift-add backend:
     * both gate matrices are packed per their projection records and
     * every timestep runs quantize -> int accumulate -> rescale for
     * the x and h paths (forwardServe). Training forwards are
     * unaffected.
     */
    void enableIntInference(const MatrixQuantResult& projWx,
                            const MatrixQuantResult& projWh,
                            int wbits);
    void disableIntInference() { intBackend_ = false; }
    bool intInferenceEnabled() const { return intBackend_; }
    ActFakeQuant& inputQuant() { return axq_; }
    ActFakeQuant& hiddenQuant() { return ahq_; }
    Param& wxParam() { return wx_; }
    Param& whParam() { return wh_; }
    const PackedQMat& packedQWx() const { return wxQ_; }
    const PackedQMat& packedQWh() const { return whQ_; }

    /** Adopt deploy-artifact gate panels; see
        Linear::adoptDeployedWeights. */
    void adoptDeployedWeights(PackedQMat wx, PackedQMat wh, int wbits);

    /**
     * Pack the gate panels and size @p s for sequences of up to
     * @p maxN batch rows. Panics unless the int backend is active:
     * the float train-path forward mutates member caches per call
     * and cannot run replica-shared. Orchestrating thread only.
     */
    void prepareServe(RnnServeScratch& s, size_t maxN);

    /**
     * Plan-executed eval forward: x [T, n, I] -> y [T, n, H] with
     * n <= the prepared maximum, allocating nothing. The int
     * backend's forward(x, false) runs exactly this over a member
     * scratch. The layer is immutable here; all mutable state is in
     * @p s.
     */
    void forwardServe(const TensorView& x, const TensorView& y,
                      RnnServeScratch& s) const;

  private:
    /**
     * Full timestep loop (forward) for batch rows [b0, b1). With
     * @p frozenQuant the hidden-state quantizer applies its current
     * clip range without observing (the const path parallel workers
     * share); the orchestrator replays calibration afterwards.
     */
    void forwardSlice(size_t b0, size_t b1, Tensor& hOut,
                      bool frozenQuant);

    /**
     * Full reverse timestep loop for batch rows [b0, b1),
     * accumulating weight/bias gradients into the caller's buffers
     * (Param::grad on the serial path, a private per-chunk partial
     * on the parallel path) and input gradients into @p gx.
     */
    void backwardSlice(size_t b0, size_t b1, const Tensor& gy,
                       Tensor& gx, float* gwx, float* gwh, float* gb);

    size_t i_, h_;
    Param wx_;   //!< [4H, I]
    Param wh_;   //!< [4H, H]
    Param b_;    //!< [4H]
    ActFakeQuant axq_, ahq_;
    PackedMat wxPlanFwd_, whPlanFwd_; //!< packed Wx^T / Wh^T
    PackedMat wxPlanBwd_, whPlanBwd_; //!< packed Wx / Wh

    // Caches (train forward).
    size_t t_ = 0, n_ = 0;
    Tensor xq_, xPre_;   //!< quantized / raw input
    Tensor hq_;          //!< quantized h_{t-1} per step [T, N, H]
    Tensor hPre_;        //!< raw h_{t-1} per step
    Tensor gates_;       //!< post-activation (i,f,g,o) [T, N, 4H]
    Tensor c_;           //!< cell states [T, N, H]
    Tensor tanhc_;       //!< tanh(c_t)

    bool intBackend_ = false;
    int qBits_ = 0;
    MatrixQuantResult qProjWx_, qProjWh_;
    PackedQMat wxQ_, whQ_; //!< int backend gate-weight panels
    RnnServeScratch evalScratch_; //!< int eval forward's scratch
};

/** Unrolled GRU layer, gate order (z, r, n); bias applied on the
 *  input path (the "v3" GRU variant: n = tanh(Wn x + bn + r .* Un h)).
 */
class Gru : public Module
{
  public:
    Gru(size_t input, size_t hidden, Rng& rng);

    Tensor forward(const Tensor& x, bool train) override;
    Tensor backward(const Tensor& gy) override;
    void ownParams(std::vector<Param*>& out) override;
    void configureOwnActQuant(int bits, bool enable) override;

    size_t hidden() const { return h_; }

    /** Int-backend switch; see Lstm::enableIntInference. */
    void enableIntInference(const MatrixQuantResult& projWx,
                            const MatrixQuantResult& projWh,
                            int wbits);
    void disableIntInference() { intBackend_ = false; }
    bool intInferenceEnabled() const { return intBackend_; }
    ActFakeQuant& inputQuant() { return axq_; }
    ActFakeQuant& hiddenQuant() { return ahq_; }
    Param& wxParam() { return wx_; }
    Param& whParam() { return wh_; }
    const PackedQMat& packedQWx() const { return wxQ_; }
    const PackedQMat& packedQWh() const { return whQ_; }

    /** Adopt deploy-artifact gate panels; see
        Linear::adoptDeployedWeights. */
    void adoptDeployedWeights(PackedQMat wx, PackedQMat wh, int wbits);

    /** Pack + size scratch for serve batches up to @p maxN; see
        Lstm::prepareServe. */
    void prepareServe(RnnServeScratch& s, size_t maxN);

    /** Plan-executed eval forward x [T, n, I] -> y [T, n, H]; see
        Lstm::forwardServe. */
    void forwardServe(const TensorView& x, const TensorView& y,
                      RnnServeScratch& s) const;

  private:
    /** Forward timestep loop for batch rows [b0, b1) (see Lstm). */
    void forwardSlice(size_t b0, size_t b1, bool frozenQuant);

    /** Reverse timestep loop for batch rows [b0, b1) (see Lstm). */
    void backwardSlice(size_t b0, size_t b1, const Tensor& gy,
                       Tensor& gx, float* gwx, float* gwh, float* gb);

    size_t i_, h_;
    Param wx_;   //!< [3H, I]
    Param wh_;   //!< [3H, H]
    Param b_;    //!< [3H]
    ActFakeQuant axq_, ahq_;
    PackedMat wxPlanFwd_, whPlanFwd_; //!< packed Wx^T / Wh^T
    PackedMat wxPlanBwd_, whPlanBwd_; //!< packed Wx / Wh

    size_t t_ = 0, n_ = 0;
    Tensor xq_, xPre_;
    Tensor hq_, hPre_;
    Tensor gates_;   //!< post-activation (z, r, n~) [T, N, 3H]
    Tensor ahn_;     //!< cached Un * h term [T, N, H]
    Tensor hOut_;    //!< produced hidden states [T, N, H]

    bool intBackend_ = false;
    int qBits_ = 0;
    MatrixQuantResult qProjWx_, qProjWh_;
    PackedQMat wxQ_, whQ_;
    RnnServeScratch evalScratch_; //!< int eval forward's scratch
};

} // namespace mixq

#endif // MIXQ_NN_RNN_HH
