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
 * to before dequantizing — as k activation *rows* of P contiguous
 * lanes, one row per reduction index. P is then the inner loop, so
 * the shift amounts are loop-invariant per weight and the kernel
 * vectorizes over the activation lanes. Linear/RNN steps lay the
 * rows out transposed, [k x P] with P = batch (row j at j * P). A
 * convolution never copies its input into im2col columns: each item
 * keeps one zero-padded, stride-phased code image (ConvCodeLayout)
 * in which every im2col row is already a contiguous span, found
 * through a per-layer row-offset table (qgemmConv). Both forms run
 * the same tile body. Codes are carried as int32, or as int16
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
#include <vector>

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

/**
 * Scattering quantize: q[dst[i]] = code of x[i] for i < n — writes
 * each input element's code straight into its slot of a phased conv
 * code image (ConvCodeLayout::dst). Both code widths.
 */
void quantizeActsScatter(const float* x, size_t n,
                         const ActQuantParams& p, const uint32_t* dst,
                         int32_t* q);
void quantizeActsScatter(const float* x, size_t n,
                         const ActQuantParams& p, const uint32_t* dst,
                         int16_t* q);

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
 * Where one item's codes live for an int convolution: a zero-padded
 * image split into s x s stride phases (s = stride, p = pad). Phase
 * (a, b) holds padded[s*y + a][s*x + b] for every channel, as
 * Hph x Wph planes with Hph = ceil((H + 2p) / s) and
 * Wph = ceil((W + 2p) / s). The im2col row (ch, ki, kj) is then one
 * contiguous span of the image, starting at rowOff[(ch*k + ki)*k +
 * kj] = ((phase(ki % s, kj % s) * C + ch) * Hph + ki / s) * Wph +
 * kj / s, and output (oy, ox) reads lane q = oy * Wph + ox of it.
 * The kernel runs `lanes` lanes: (oh - 1) * Wph + ow rounded up to a
 * multiple of 16, so no row ends in a narrow tile. Lanes with
 * ox >= ow, or past the last output, are computed and dropped by the
 * rescale. The image ends in a tail of at most 15 zero codes that
 * only those rounding lanes read; every other lane reads inside its
 * own (phase, channel) plane. So a lane sums only codes of the item
 * or zeros: exact for the kept lanes, and within halfwordSafe's
 * bound for the dropped ones.
 *
 * Slots that no input element maps to (the padding border, the
 * phase tails and the image tail) must hold code 0: the caller
 * zeroes the image once when it sizes it, and quantizeActsScatter
 * through dst never writes them.
 */
struct ConvCodeLayout
{
    size_t oh = 0, ow = 0;        //!< output spatial size
    size_t rowStride = 0;         //!< Wph: lane of (oy, ox) is oy*Wph+ox
    size_t lanes = 0;             //!< kernel lanes, a multiple of 16
    size_t size = 0;              //!< codes per item, tail included
    std::vector<uint32_t> rowOff; //!< [C*k*k] im2col row starts
    std::vector<uint32_t> dst;    //!< [C*H*W] slot of each input code

    /** Lay out a [c, h, w] input for a k x k kernel. */
    void build(size_t c, size_t h, size_t w, size_t k, size_t stride,
               size_t pad);

    size_t bytes() const
    {
        return (rowOff.size() + dst.size()) * sizeof(uint32_t);
    }
};

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

/**
 * Conv form of qgemm: activation row j is the span of @p p lanes at
 * img + rowOff[j] (one item's ConvCodeLayout image), accumulators
 * [rows x p]. Serial — conv layers call it once per item inside
 * their own item-parallel region. The int16 overload has qgemm16's
 * halfwordSafe precondition.
 */
void qgemmConv(const PackedQMat& w, const int32_t* img,
               const uint32_t* rowOff, size_t p, int32_t* acc);
void qgemmConv(const PackedQMat& w, const int16_t* img,
               const uint32_t* rowOff, size_t p, int32_t* acc);

/** Output row @p r of qgemmConv (overwrites accRow[0..p)). */
void qgemmConvRow(const PackedQMat& w, size_t r, const int32_t* img,
                  const uint32_t* rowOff, size_t p, int32_t* accRow);
void qgemmConvRow(const PackedQMat& w, size_t r, const int16_t* img,
                  const uint32_t* rowOff, size_t p, int32_t* accRow);

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
 * Rescale qgemmConv accumulators [rows x L.lanes] into channel-major
 * floats y [rows x OH*OW] (rows = output channels), dropping the
 * lanes past each output row.
 */
void rescaleConv(const PackedQMat& w, const int32_t* acc,
                 const ConvCodeLayout& L, float actInvScale,
                 const float* bias, float* y);

} // namespace mixq

#endif // MIXQ_INFER_QKERNELS_HH
