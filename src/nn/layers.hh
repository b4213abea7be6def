/**
 * @file
 * Leaf layers of the CNN substrate: Linear, Conv2d, DwConv2d,
 * BatchNorm2d, activations, pooling, Flatten, and the Sequential
 * container. Convolution weights are stored in their GEMM-matrix
 * layout [Cout, Cin*kh*kw] — the same row view that MSQ partitions.
 * All float matrix compute (Linear forward/backward, conv via
 * im2col) funnels through nn/gemm.hh and inherits its shape-based
 * dispatch onto the cache-blocked backend. The weight-side operand
 * of each GEMM is held as a pre-packed PackedMat plan (one per
 * weight view), refreshed against Param::version so weights repack
 * only after an optimizer step or quantizer projection, not on every
 * call. The int backend's convolutions skip im2col: they read each
 * kernel tap's span of a zero-padded, stride-phased code image
 * (ConvCodeLayout, infer/qkernels.hh).
 */

#ifndef MIXQ_NN_LAYERS_HH
#define MIXQ_NN_LAYERS_HH

#include <memory>
#include <vector>

#include "infer/qkernels.hh"
#include "infer/qpack.hh"
#include "nn/gemm_backend.hh"
#include "nn/module.hh"
#include "quant/act_quant.hh"
#include "quant/quantizer.hh"

namespace mixq {

class Rng;

// ------------------------------------------------------------------
// Plan-execution scratch. The serving executor (serve/executor.hh)
// runs eval forwards that read and write planner-placed TensorViews
// instead of allocating activations; everything a forward would
// otherwise allocate per call lives in one of these per-replica
// structs, sized once at the plan's maximum batch by the layer's
// prepareServe(). The layer itself stays immutable during
// forwardServe() (const), so n replicas share one model — packed
// weight panels, folded BN, float weights — and own only their
// scratch. Each struct's bytes() prices that per-replica state for
// the serving memory report. forwardServe is also the one int eval
// path: an int-backend forward(x, false) prepares a member scratch
// for x's shape, allocates the output and calls forwardServe.
// ------------------------------------------------------------------

/** Scratch of Linear::forwardServe (both float and int backends). */
struct LinearServeScratch
{
    std::vector<float> xq;      //!< quantized input copy (float path)
    std::vector<int16_t> qT16;  //!< transposed act codes (halfword)
    std::vector<int32_t> qT32;  //!< transposed act codes (fallback)
    std::vector<int32_t> qAcc;  //!< int accumulators
    std::vector<double> f;      //!< per-row rescale factors

    size_t bytes() const
    {
        return xq.size() * sizeof(float) +
               qT16.size() * sizeof(int16_t) +
               qT32.size() * sizeof(int32_t) +
               qAcc.size() * sizeof(int32_t) +
               f.size() * sizeof(double);
    }
};

/**
 * Scratch of Conv2d::forwardServe and DwConv2d::forwardServe. The int
 * backend keeps one phased code image per item (ConvCodeLayout,
 * infer/qkernels.hh): prepareServe zeroes it, which lays down the
 * padding once, and forwardServe writes only the input slots.
 */
struct ConvServeScratch
{
    std::vector<float> xq;   //!< quantized input copy (float path)
    std::vector<float> cols; //!< im2col columns (float path)
    ConvCodeLayout layout;   //!< int path: row-offset + slot tables
    std::vector<int16_t> qIn16; //!< phased code images (halfword)
    std::vector<int32_t> qIn32; //!< phased code images (int32)
    std::vector<int32_t> qAcc;  //!< int accumulators

    size_t bytes() const
    {
        return (xq.size() + cols.size()) * sizeof(float) +
               layout.bytes() + qIn16.size() * sizeof(int16_t) +
               (qIn32.size() + qAcc.size()) * sizeof(int32_t);
    }
};

/** Scratch of BatchNorm2d::forwardServe (unfolded eval affine). */
struct BnServeScratch
{
    std::vector<double> mean, var;
    std::vector<float> istd;

    size_t bytes() const
    {
        return (mean.size() + var.size()) * sizeof(double) +
               istd.size() * sizeof(float);
    }
};

/** Fully connected layer: y = x W^T + b, x is [N, in]. */
class Linear : public Module
{
  public:
    Linear(size_t in, size_t out, Rng& rng, bool bias = true,
           bool signed_act = false);

    Tensor forward(const Tensor& x, bool train) override;
    Tensor backward(const Tensor& gy) override;
    void ownParams(std::vector<Param*>& out) override;
    void configureOwnActQuant(int bits, bool enable) override;

    Param& weight() { return w_; }
    ActFakeQuant& actQuant() { return actq_; }
    size_t inFeatures() const { return in_; }
    size_t outFeatures() const { return out_; }

    /**
     * Route eval-time forwards onto the integer shift-add backend:
     * pack the (already hard-projected) weights per @p proj and run
     * quantize -> int accumulate -> rescale (forwardServe) instead
     * of the float GEMM. Training forwards are unaffected. The
     * activation quantizer must be enabled and calibrated by the
     * first int call.
     */
    void enableIntInference(const MatrixQuantResult& proj, int wbits);
    void disableIntInference() { intBackend_ = false; }
    bool intInferenceEnabled() const { return intBackend_; }
    /** Packed panels of the int backend (test introspection). */
    const PackedQMat& packedQWeights() const { return qpack_; }

    /**
     * Adopt deploy-artifact weight panels (serial/deploy.hh): eval
     * forwards run the int backend on @p pack directly — the float
     * Param never has to hold trained weights. @p pack must be locked
     * (loadFromCodes) and match the layer's [out x in] shape.
     */
    void adoptDeployedWeights(PackedQMat pack, int wbits);

    /**
     * Pack the active backend's weight plan and size @p s for eval
     * batches of up to @p maxRows input rows. Must run on the
     * orchestrating thread before any forwardServe call (PackedMat /
     * PackedQMat ensure discipline); idempotent per weight version.
     */
    void prepareServe(LinearServeScratch& s, size_t maxRows);

    /**
     * Plan-executed eval forward: read x [rows, in], write y [rows,
     * out], both placed by the caller, allocating nothing —
     * bit-identical to forward(x, false) on the active backend. The
     * layer is immutable here (replica-shared); all mutable state is
     * in @p s.
     */
    void forwardServe(const TensorView& x, const TensorView& y,
                      LinearServeScratch& s) const;

  private:
    size_t in_, out_;
    Param w_;
    Param b_;
    bool hasBias_;
    ActFakeQuant actq_;
    Tensor xPre_;   //!< pre-quantization input (STE mask)
    Tensor xq_;     //!< quantized input (gradient computation)
    PackedMat wPlanFwd_; //!< packed W^T (forward x W^T)
    PackedMat wPlanBwd_; //!< packed W (backward gy W)
    bool intBackend_ = false;
    int qBits_ = 0;
    MatrixQuantResult qProj_; //!< row schemes/alphas of the projection
    PackedQMat qpack_;        //!< int backend weight panels
    LinearServeScratch evalScratch_; //!< int eval forward's scratch
};

/** 2-D convolution (float path via im2col, int path via a phased
    code image); weight is [Cout, Cin*kh*kw]. */
class Conv2d : public Module
{
  public:
    Conv2d(size_t in_ch, size_t out_ch, size_t kernel, size_t stride,
           size_t pad, Rng& rng, bool bias = false);

    Tensor forward(const Tensor& x, bool train) override;
    Tensor backward(const Tensor& gy) override;
    void ownParams(std::vector<Param*>& out) override;
    void configureOwnActQuant(int bits, bool enable) override;

    Param& weight() { return w_; }
    size_t inChannels() const { return inCh_; }
    size_t outChannels() const { return outCh_; }
    size_t kernel() const { return k_; }
    size_t stride() const { return stride_; }
    size_t pad() const { return pad_; }
    ActFakeQuant& actQuant() { return actq_; }

    /** Int-backend switch; see Linear::enableIntInference. */
    void enableIntInference(const MatrixQuantResult& proj, int wbits);
    void disableIntInference() { intBackend_ = false; }
    bool intInferenceEnabled() const { return intBackend_; }
    const PackedQMat& packedQWeights() const { return qpack_; }

    /** Adopt deploy-artifact panels; see Linear. */
    void adoptDeployedWeights(PackedQMat pack, int wbits);

    /**
     * Inference-only BatchNorm fold (serve/bn_fold.hh): after the
     * conv epilogue (rescale + bias), apply the *exact* per-element
     * affine of BatchNorm2d's eval path — xh = (y - mean) * invStd;
     * y = gamma * xh + beta — per output channel. Replicating the
     * operation order keeps folded eval forwards bit-identical to
     * conv-then-BN on every backend. Eval forwards only; training
     * forwards ignore the epilogue (the fold is a rewrite of a
     * frozen model).
     */
    void setBnEvalEpilogue(std::vector<float> mean,
                           std::vector<float> invStd,
                           std::vector<float> gamma,
                           std::vector<float> beta);
    void clearBnEvalEpilogue() { bnFold_ = false; }
    bool bnEvalFolded() const { return bnFold_; }

    /** Pack + size scratch for batches up to @p inShape (the plan's
        max-batch input shape); see Linear::prepareServe. */
    void prepareServe(ConvServeScratch& s,
                      const std::vector<size_t>& inShape);

    /** Plan-executed eval forward (see Linear::forwardServe):
        x [n, Cin, H, W] -> y [n, Cout, OH, OW]. */
    void forwardServe(const TensorView& x, const TensorView& y,
                      ConvServeScratch& s) const;

  private:
    /** Apply the folded BN affine to one [outCh, ohow] image slice. */
    void applyBnEpilogue(float* y, size_t ohow) const;

    size_t inCh_, outCh_, k_, stride_, pad_;
    Param w_;
    Param b_;
    bool hasBias_;
    ActFakeQuant actq_;
    Tensor xPre_;
    Tensor cols_;   //!< cached im2col of the quantized input [N,CKK,OHOW]
    PackedMat wPlanFwd_; //!< packed W (forward W * cols)
    PackedMat wPlanBwd_; //!< packed W^T (backward W^T * gy)
    std::vector<size_t> inShape_;
    bool intBackend_ = false;
    int qBits_ = 0;
    MatrixQuantResult qProj_;
    PackedQMat qpack_;
    ConvServeScratch evalScratch_; //!< int eval forward's scratch
    std::vector<float> bnM_, bnIs_, bnG_, bnB_; //!< folded BN affine
    bool bnFold_ = false;
};

/** Depthwise 3x3-style convolution; weight is [C, kh*kw]. */
class DwConv2d : public Module
{
  public:
    DwConv2d(size_t channels, size_t kernel, size_t stride, size_t pad,
             Rng& rng);

    Tensor forward(const Tensor& x, bool train) override;
    Tensor backward(const Tensor& gy) override;
    void ownParams(std::vector<Param*>& out) override;
    void configureOwnActQuant(int bits, bool enable) override;

    Param& weight() { return w_; }
    ActFakeQuant& actQuant() { return actq_; }
    size_t channels() const { return ch_; }
    size_t kernel() const { return k_; }
    size_t stride() const { return stride_; }
    size_t pad() const { return pad_; }

    /**
     * Int-backend switch (see Linear::enableIntInference). The
     * depthwise weight packs as a [C, kh*kw] PackedQMat — each
     * channel's kernel is one row — and eval forwards run
     * quantize -> per-channel shift-add row kernel -> rescale, row c
     * reading channel c's spans of the phased code image.
     */
    void enableIntInference(const MatrixQuantResult& proj, int wbits);
    void disableIntInference() { intBackend_ = false; }
    bool intInferenceEnabled() const { return intBackend_; }
    const PackedQMat& packedQWeights() const { return qpack_; }

    /** Adopt deploy-artifact panels; see Linear. */
    void adoptDeployedWeights(PackedQMat pack, int wbits);

    /** Pack + size scratch for batches up to @p inShape; see
        Linear::prepareServe. */
    void prepareServe(ConvServeScratch& s,
                      const std::vector<size_t>& inShape);

    /** Plan-executed eval forward (see Linear::forwardServe):
        x [n, C, H, W] -> y [n, C, OH, OW]. */
    void forwardServe(const TensorView& x, const TensorView& y,
                      ConvServeScratch& s) const;

  private:
    size_t ch_, k_, stride_, pad_;
    Param w_;
    ActFakeQuant actq_;
    Tensor xPre_;
    Tensor xq_;
    std::vector<size_t> inShape_;
    bool intBackend_ = false;
    int qBits_ = 0;
    MatrixQuantResult qProj_;
    PackedQMat qpack_;
    ConvServeScratch evalScratch_; //!< int eval forward's scratch
};

/** Batch normalization over NCHW channels with running statistics. */
class BatchNorm2d : public Module
{
  public:
    explicit BatchNorm2d(size_t channels, double momentum = 0.1,
                         double eps = 1e-5);

    Tensor forward(const Tensor& x, bool train) override;
    Tensor backward(const Tensor& gy) override;
    void ownParams(std::vector<Param*>& out) override;

    /** Running statistics (for export / folding). */
    const Tensor& runningMean() const { return runMean_; }
    const Tensor& runningVar() const { return runVar_; }

    /** Restore serialized running statistics (checkpoint/artifact
        load); sizes must match the channel count. */
    void restoreRunningStats(std::span<const float> mean,
                             std::span<const float> var);

    size_t channels() const { return ch_; }
    double eps() const { return eps_; }
    const Tensor& gamma() const { return gamma_.w; }
    const Tensor& beta() const { return beta_.w; }

    /**
     * Folded-identity mode (serve/bn_fold.hh): the layer's eval
     * affine has been fused into the preceding convolution's
     * epilogue, so eval forwards pass the input through unchanged.
     * Training forwards are a hard error while folded — the fold is
     * an inference-only rewrite of a frozen model.
     */
    void setFoldedEval(bool on) { foldedEval_ = on; }
    bool foldedEval() const { return foldedEval_; }

    /** Size @p s for the eval affine (per-channel staging). */
    void prepareServe(BnServeScratch& s);

    /** Plan-executed eval forward: the running-stat affine (or a
        pass-through copy when folded); see Linear::forwardServe. */
    void forwardServe(const TensorView& x, const TensorView& y,
                      BnServeScratch& s) const;

  private:
    size_t ch_;
    double momentum_, eps_;
    Param gamma_, beta_;
    Tensor runMean_, runVar_;
    Tensor xhat_;       //!< cached normalized input
    Tensor invStd_;     //!< cached per-channel 1/std
    std::vector<size_t> inShape_;
    bool foldedEval_ = false;
};

/** ReLU, optionally capped at 6 (ReLU6 for the MobileNet blocks). */
class ReLU : public Module
{
  public:
    explicit ReLU(double cap = 0.0) : cap_(cap) {}

    Tensor forward(const Tensor& x, bool train) override;
    Tensor backward(const Tensor& gy) override;

    /** Plan-executed eval forward: clamp x into y without touching
        the STE mask; see Linear::forwardServe. */
    void forwardServe(const TensorView& x, const TensorView& y) const;

  private:
    double cap_;
    std::vector<uint8_t> mask_;
};

/** 2-D max pooling with square window and stride == window. */
class MaxPool2d : public Module
{
  public:
    explicit MaxPool2d(size_t k) : k_(k) {}

    Tensor forward(const Tensor& x, bool train) override;
    Tensor backward(const Tensor& gy) override;

    size_t window() const { return k_; }

    /** Plan-executed eval forward (skips the argmax cache). */
    void forwardServe(const TensorView& x, const TensorView& y) const;

  private:
    size_t k_;
    std::vector<size_t> argmax_;
    std::vector<size_t> inShape_;
};

/** Global average pooling [N,C,H,W] -> [N,C]. */
class GlobalAvgPool : public Module
{
  public:
    Tensor forward(const Tensor& x, bool train) override;
    Tensor backward(const Tensor& gy) override;

    /** Plan-executed eval forward. */
    void forwardServe(const TensorView& x, const TensorView& y) const;

  private:
    std::vector<size_t> inShape_;
};

/** Flatten to [N, rest]. */
class Flatten : public Module
{
  public:
    Tensor forward(const Tensor& x, bool train) override;
    Tensor backward(const Tensor& gy) override;

  private:
    std::vector<size_t> inShape_;
};

/** Ordered container running children in sequence. */
class Sequential : public Module
{
  public:
    Sequential() = default;

    /** Append a layer; returns a reference for chaining. */
    Sequential& add(std::unique_ptr<Module> m);

    Tensor forward(const Tensor& x, bool train) override;
    Tensor backward(const Tensor& gy) override;
    std::vector<Module*> children() override;

    size_t size() const { return mods_.size(); }
    Module& at(size_t i) { return *mods_[i]; }

  private:
    std::vector<std::unique_ptr<Module>> mods_;
};

} // namespace mixq

#endif // MIXQ_NN_LAYERS_HH
