/**
 * @file
 * Integer microkernels of the inference backend: the
 * quantize-activations -> int-accumulate -> rescale pipeline that
 * executes the paper's arithmetic for real.
 *
 * The accumulate step mirrors the simulator cores bit for bit
 * (sim/gemm_core.hh): SP2 rows compute every product as two logic
 * shifts and an add — there is no multiply on the SP2 weight path in
 * this translation unit by construction — and Fixed rows run a plain
 * signed MAC. The kernel walks each row's code classes (qpack.hh):
 * the activation columns of one class are summed with plain adds and
 * the class's shift-add (or fixed multiply) applies once to the sum.
 * Integer wraparound addition is associative and commutative, so the
 * regrouped order produces accumulators bit-identical to the sim
 * cores' ascending-j order, and bit-identical across any
 * OMP_NUM_THREADS split. tests/infer_test.cc pins both properties.
 *
 * All shift/negate arithmetic runs in uint32 and is reinterpreted to
 * int32: identical bits to the sim cores' signed ops on every
 * non-overflowing input, with fully defined wraparound under
 * ASan/UBSan for the rest.
 *
 * Activations enter as integer *codes* — the
 * nearbyint(clamp(x) * scale) that ActFakeQuant::quantizeOnly rounds
 * to before dequantizing — laid out transposed, [k x P] with the
 * reduction dimension outer. P (batch for Linear/RNN steps, OH*OW for
 * conv) is then the contiguous inner loop, so the shift amounts are
 * loop-invariant per weight and the kernel vectorizes over the
 * activation lanes. Codes are carried as int32, or as int16
 * *halfwords* on the fast path (qgemm16): when
 * maxAbs * cols <= INT16_MAX (halfwordSafe) no class sum can leave
 * int16, the packed lanes halve the load traffic and double the
 * vector width, and widening the exact class sum to int32 for the
 * apply step reproduces the int32 path bit for bit.
 */

#ifndef MIXQ_INFER_QKERNELS_HH
#define MIXQ_INFER_QKERNELS_HH

#include <cstdint>
#include <cstddef>

#include "infer/qpack.hh"

namespace mixq {

class ActFakeQuant;

/**
 * Frozen snapshot of one ActFakeQuant's quantization transfer
 * function, precomputed with the exact float32 scale/clip values
 * quantizeOnly uses — integer codes times invScale reproduce the
 * fake-quantized floats bit for bit.
 */
struct ActQuantParams
{
    float lo = 0.0f;       //!< clip low (0 unsigned, -alpha signed)
    float hi = 0.0f;       //!< clip high (alpha)
    float scale = 0.0f;    //!< float(levels / alpha)
    float invScale = 0.0f; //!< float(alpha / levels)
    int32_t maxAbs = 0;    //!< largest |code| the clip range admits
};

/**
 * Snapshot @p aq for the integer pipeline. Panics unless the
 * quantizer is enabled and calibrated — an uncalibrated quantizer has
 * no clip range, and quantizeOnly's silent pass-through has no
 * integer analogue.
 */
ActQuantParams actQuantParams(const ActFakeQuant& aq);

/** q[i] = round-to-nearest-even integer code of x[i] under @p p. */
void quantizeActsInt(const float* x, int32_t* q, size_t n,
                     const ActQuantParams& p);
void quantizeActsInt(const float* x, int16_t* q, size_t n,
                     const ActQuantParams& p);

/**
 * True when every possible class sum over @p cols codes fits int16,
 * i.e. the halfword pipeline (int16 codes + qgemm16) is exact.
 */
bool halfwordSafe(const ActQuantParams& p, size_t cols);

/** Transpose a [rows x cols] int32 matrix into dst [cols x rows]. */
void transposeInt32(const int32_t* src, int32_t* dst, size_t rows,
                    size_t cols);

/**
 * Fused quantize + transpose: x [n x k] floats straight into the
 * transposed code layout qT [k x n], one pass, no intermediate
 * buffer. Both code widths; the int16 overload requires
 * halfwordSafe (codes themselves always fit int16, the bound is
 * about downstream class sums).
 */
void quantizeTransposeActs(const float* x, size_t n, size_t k,
                           const ActQuantParams& p, int32_t* qT);
void quantizeTransposeActs(const float* x, size_t n, size_t k,
                           const ActQuantParams& p, int16_t* qT);

/**
 * im2col over an integer-code image: input [C, H, W] codes to
 * columns [C*kh*kw, OH*OW] — the transposed-activation layout qgemm
 * consumes directly. Identical index arithmetic to the float im2col
 * (nn/gemm.hh); zero padding emits code 0, which is exactly the
 * quantized code of input 0 for both signed and unsigned ranges.
 * Both code widths.
 */
void im2colInt(const int32_t* img, size_t c, size_t h, size_t w,
               size_t kh, size_t kw, size_t stride, size_t pad,
               int32_t* cols);
void im2colInt(const int16_t* img, size_t c, size_t h, size_t w,
               size_t kh, size_t kw, size_t stride, size_t pad,
               int16_t* cols);

/**
 * acc[r][p] = sum_j w[r][j] (x) actsT[j][p] over the whole reduction
 * dimension, int32 accumulators, [rows x P] row-major. SP2 rows use
 * the shift-add path (accumulators are in the codec's 2^K1-scaled
 * units), Fixed rows the MAC path. Parallelizes over output rows
 * unless already inside an OpenMP region or the product is too small
 * to pay for the fork; row results are independent, so the split
 * never changes a bit.
 */
void qgemm(const PackedQMat& w, const int32_t* actsT, size_t p,
           int32_t* acc);

/**
 * Halfword fast path of qgemm: identical contract and bit-identical
 * accumulators, activations carried as int16 codes. Caller must
 * check halfwordSafe(params, w.cols()) — class sums overflowing
 * int16 would silently wrap.
 */
void qgemm16(const PackedQMat& w, const int16_t* actsT, size_t p,
             int32_t* acc);

/** One output row of qgemm (overwrites accRow[0..p)). */
void qgemmRow(const PackedQMat& w, size_t r, const int32_t* actsT,
              size_t p, int32_t* accRow);

/** One output row of qgemm16 (overwrites accRow[0..p)). */
void qgemmRow16(const PackedQMat& w, size_t r, const int16_t* actsT,
                size_t p, int32_t* accRow);

/**
 * Rescale Linear-shaped accumulators [rows x P] into floats
 * y [P x rows]: y[q][r] = float(acc[r][q] * rowDequant(r) *
 * actInvScale) + bias[r] (bias optional). The per-row factor is
 * carried in double so the only float roundings are the ones the
 * fake-quant float path also pays at its output. @p fScratch must
 * hold w.rows() doubles (the factors are staged there, so the call
 * allocates nothing).
 */
void rescaleLinear(const PackedQMat& w, const int32_t* acc, size_t p,
                   float actInvScale, const float* bias, float* y,
                   double* fScratch);

/**
 * Rescale conv-shaped accumulators [rows x P] into channel-major
 * floats y [rows x P] (rows = output channels, P = OH*OW).
 */
void rescaleConv(const PackedQMat& w, const int32_t* acc, size_t p,
                 float actInvScale, const float* bias, float* y);

} // namespace mixq

#endif // MIXQ_INFER_QKERNELS_HH
