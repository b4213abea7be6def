#include "infer/qkernels.hh"

#include <algorithm>
#include <cmath>
#include <vector>

#include "nn/gemm.hh"
#include "nn/gemm_backend.hh"
#include "quant/act_quant.hh"
#include "util/logging.hh"

namespace mixq {

ActQuantParams
actQuantParams(const ActFakeQuant& aq)
{
    MIXQ_ASSERT(aq.enabled() && aq.calibrated(),
                "int backend needs an enabled, calibrated activation "
                "quantizer (run a calibration forward pass first)");
    // Same double-to-float conversion sequence as quantizeOnly, so
    // code * invScale reproduces the fake-quantized float exactly.
    double levels = aq.isSigned()
                        ? double((1 << (aq.bits() - 1)) - 1)
                        : double((1 << aq.bits()) - 1);
    ActQuantParams p;
    p.hi = float(aq.alpha());
    p.lo = aq.isSigned() ? -p.hi : 0.0f;
    p.scale = float(levels / aq.alpha());
    p.invScale = float(aq.alpha() / levels);
    p.maxAbs = int32_t(levels);
    return p;
}

bool
halfwordSafe(const ActQuantParams& p, size_t cols)
{
    MIXQ_ASSERT(p.maxAbs > 0, "halfwordSafe: empty code range");
    return size_t(p.maxAbs) * cols <= size_t(INT16_MAX);
}

void
quantizeActsInt(const float* x, int32_t* q, size_t n,
                const ActQuantParams& p)
{
    const float lo = p.lo, hi = p.hi, scale = p.scale;
    #pragma omp simd
    for (size_t i = 0; i < n; ++i) {
        float c = std::clamp(x[i], lo, hi);
        q[i] = int32_t(std::nearbyint(c * scale));
    }
}


void
transposeInt32(const int32_t* src, int32_t* dst, size_t rows,
               size_t cols)
{
    for (size_t i = 0; i < rows; ++i)
        for (size_t j = 0; j < cols; ++j)
            dst[j * rows + i] = src[i * cols + j];
}

namespace {

template <typename T>
void
quantizeTransposeActsT(const float* x, size_t n, size_t k,
                       const ActQuantParams& p, T* qT)
{
    const float lo = p.lo, hi = p.hi, scale = p.scale;
    for (size_t i = 0; i < n; ++i) {
        const float* xi = x + i * k;
        for (size_t j = 0; j < k; ++j) {
            float c = std::clamp(xi[j], lo, hi);
            qT[j * n + i] = T(int32_t(std::nearbyint(c * scale)));
        }
    }
}

template <typename T>
void
quantizeActsScatterT(const float* x, size_t n, const ActQuantParams& p,
                     const uint32_t* dst, T* q)
{
    const float lo = p.lo, hi = p.hi, scale = p.scale;
    #pragma omp simd
    for (size_t i = 0; i < n; ++i) {
        float c = std::clamp(x[i], lo, hi);
        q[dst[i]] = T(int32_t(std::nearbyint(c * scale)));
    }
}

} // namespace

void
quantizeTransposeActs(const float* x, size_t n, size_t k,
                      const ActQuantParams& p, int32_t* qT)
{
    quantizeTransposeActsT(x, n, k, p, qT);
}

void
quantizeTransposeActs(const float* x, size_t n, size_t k,
                      const ActQuantParams& p, int16_t* qT)
{
    quantizeTransposeActsT(x, n, k, p, qT);
}

void
quantizeActsScatter(const float* x, size_t n, const ActQuantParams& p,
                    const uint32_t* dst, int32_t* q)
{
    quantizeActsScatterT(x, n, p, dst, q);
}

void
quantizeActsScatter(const float* x, size_t n, const ActQuantParams& p,
                    const uint32_t* dst, int16_t* q)
{
    quantizeActsScatterT(x, n, p, dst, q);
}

void
ConvCodeLayout::build(size_t c, size_t h, size_t w, size_t k,
                      size_t stride, size_t pad)
{
    const size_t s = stride;
    oh = convOut(h, k, s, pad);
    ow = convOut(w, k, s, pad);
    const size_t hph = (h + 2 * pad + s - 1) / s;
    rowStride = (w + 2 * pad + s - 1) / s;
    // Reads of lanes < used stay inside their plane; the rounding
    // lanes run on into the next plane or the zero tail.
    const size_t used = (oh - 1) * rowStride + ow;
    lanes = (used + 15) / 16 * 16;
    size = s * s * c * hph * rowStride + (lanes - used);
    MIXQ_ASSERT(size <= UINT32_MAX,
                "ConvCodeLayout: code image exceeds 32-bit offsets");
    // Slot of padded pixel (py, px) of channel ch.
    auto slot = [&](size_t ch, size_t py, size_t px) {
        size_t phase = (py % s) * s + px % s;
        return uint32_t(((phase * c + ch) * hph + py / s) * rowStride +
                        px / s);
    };
    rowOff.resize(c * k * k);
    for (size_t ch = 0, j = 0; ch < c; ++ch)
        for (size_t ki = 0; ki < k; ++ki)
            for (size_t kj = 0; kj < k; ++kj, ++j)
                rowOff[j] = slot(ch, ki, kj);
    dst.resize(c * h * w);
    for (size_t ch = 0, i = 0; ch < c; ++ch)
        for (size_t y = 0; y < h; ++y)
            for (size_t x = 0; x < w; ++x, ++i)
                dst[i] = slot(ch, y + pad, x + pad);
}

namespace {

/** Linear/RNN activation rows: row j starts at j * lda. */
struct StridedRows
{
    size_t lda;
    size_t operator()(uint32_t j) const { return size_t(j) * lda; }
};

/** Conv activation rows: row j starts at rowOff[j] of a phased code
    image (ConvCodeLayout). */
struct OffsetRows
{
    const uint32_t* rowOff;
    size_t operator()(uint32_t j) const { return rowOff[j]; }
};

/**
 * One register-resident lane tile of the class traversal: P
 * activation lanes of one output row. P is a compile-time width so
 * the class sum and the row accumulator never leave registers — the
 * column loop is then one vector load + one vector add per code.
 * @p row maps a reduction index to the start of its activation row
 * (StridedRows or OffsetRows); @p acts is already advanced to the
 * tile's first lane.
 */
template <size_t P, typename Rows>
void
qgemmRowTile(std::span<const QCodeClass> classes, const uint32_t* idx,
             bool sp2, const int32_t* acts, Rows row, int32_t* accRow)
{
    int32_t acc[P] = {};
    for (const QCodeClass& c : classes) {
        // Two interleaved partial sums keep both load ports busy;
        // wrap-around integer addition is commutative, so merging
        // them preserves bit-exactness. The simd pragmas pin
        // vectorization to the P contiguous lanes (one vector load +
        // add per column); without them the auto-vectorizer targets
        // the column loop and emits per-lane gathers, an order of
        // magnitude slower.
        int32_t sum[P] = {}, sumB[P] = {};
        uint32_t t = c.begin;
        for (; t + 2 <= c.end; t += 2) {
            const int32_t* a0 = acts + row(idx[t]);
            const int32_t* a1 = acts + row(idx[t + 1]);
            #pragma omp simd
            for (size_t q = 0; q < P; ++q) {
                sum[q] = int32_t(uint32_t(sum[q]) + uint32_t(a0[q]));
                sumB[q] =
                    int32_t(uint32_t(sumB[q]) + uint32_t(a1[q]));
            }
        }
        if (t < c.end) {
            const int32_t* a0 = acts + row(idx[t]);
            #pragma omp simd
            for (size_t q = 0; q < P; ++q)
                sum[q] = int32_t(uint32_t(sum[q]) + uint32_t(a0[q]));
        }
        #pragma omp simd
        for (size_t q = 0; q < P; ++q)
            sum[q] = int32_t(uint32_t(sum[q]) + uint32_t(sumB[q]));
        if (sp2) {
            uint32_t sh1 = uint32_t(c.s1);
            uint32_t sh2 = uint32_t(c.s2);
            for (size_t q = 0; q < P; ++q) {
                uint32_t u = uint32_t(sum[q]);
                uint32_t v =
                    ((u << sh1) & c.m1) + ((u << sh2) & c.m2);
                acc[q] = int32_t(uint32_t(acc[q]) +
                                 ((v ^ c.neg) - c.neg));
            }
        } else {
            uint32_t uw = uint32_t(c.fixedMag);
            for (size_t q = 0; q < P; ++q)
                acc[q] = int32_t(uint32_t(acc[q]) +
                                 uw * uint32_t(sum[q]));
        }
    }
    for (size_t q = 0; q < P; ++q)
        accRow[q] = acc[q];
}

/**
 * Halfword lane tile: the int32 tile's traversal with the class
 * sums carried in int16 — half the load traffic, twice the lanes per
 * vector op. The caller guarantees (halfwordSafe) that no class sum
 * can overflow int16; the exact sum then widens to int32 for the
 * apply step, bit-identical to the int32 tile. The int16 adds go
 * through int promotion and truncate back, which is wraparound-
 * defined and never wraps under the caller's bound.
 */
template <size_t P, typename Rows>
void
qgemmRowTile(std::span<const QCodeClass> classes, const uint32_t* idx,
             bool sp2, const int16_t* acts, Rows row, int32_t* accRow)
{
    int32_t acc[P] = {};
    for (const QCodeClass& c : classes) {
        int16_t sum[P] = {}, sumB[P] = {};
        uint32_t t = c.begin;
        for (; t + 2 <= c.end; t += 2) {
            const int16_t* a0 = acts + row(idx[t]);
            const int16_t* a1 = acts + row(idx[t + 1]);
            #pragma omp simd
            for (size_t q = 0; q < P; ++q) {
                sum[q] = int16_t(sum[q] + a0[q]);
                sumB[q] = int16_t(sumB[q] + a1[q]);
            }
        }
        if (t < c.end) {
            const int16_t* a0 = acts + row(idx[t]);
            #pragma omp simd
            for (size_t q = 0; q < P; ++q)
                sum[q] = int16_t(sum[q] + a0[q]);
        }
        // Widen the exact int16 class sum in its own pass: mixing
        // the short->word conversion into the shift/mask apply loop
        // defeats the vectorizer ("relevant stmt not supported"),
        // while a lone conversion loop and the int32-only apply
        // loops below each vectorize at full width.
        int32_t wide[P];
        #pragma omp simd
        for (size_t q = 0; q < P; ++q)
            wide[q] = int32_t(int16_t(sum[q] + sumB[q]));
        if (sp2) {
            uint32_t sh1 = uint32_t(c.s1);
            uint32_t sh2 = uint32_t(c.s2);
            #pragma omp simd
            for (size_t q = 0; q < P; ++q) {
                uint32_t u = uint32_t(wide[q]);
                uint32_t v =
                    ((u << sh1) & c.m1) + ((u << sh2) & c.m2);
                acc[q] = int32_t(uint32_t(acc[q]) +
                                 ((v ^ c.neg) - c.neg));
            }
        } else {
            uint32_t uw = uint32_t(c.fixedMag);
            #pragma omp simd
            for (size_t q = 0; q < P; ++q)
                acc[q] = int32_t(uint32_t(acc[q]) +
                                 uw * uint32_t(wide[q]));
        }
    }
    for (size_t q = 0; q < P; ++q)
        accRow[q] = acc[q];
}

/**
 * Weight-stationary class traversal of output row @p r (see
 * qpack.hh): sum the activation rows of one code class with plain
 * adds, then apply that class's code ONCE to the sum — two masked
 * shifts and a sign flip for SP2 classes (Sp2Code::apply's value, no
 * multiply), one signed multiply for Fixed classes (the DSP
 * datapath). Integer addition is associative, so the regrouped,
 * tiled traversal is bit-exact against the sim cores' per-code order
 * for every lane split.
 */
template <typename T, typename Rows>
void
qgemmRowT(const PackedQMat& w, size_t r, const T* acts, Rows row,
          size_t p, int32_t* accRow)
{
    auto classes = w.rowClasses(r);
    const uint32_t* idx = w.colIdx().data();
    bool sp2 = w.rowScheme(r) == QuantScheme::Sp2;
    size_t q0 = 0;
    while (p - q0 >= 32) {
        qgemmRowTile<32>(classes, idx, sp2, acts + q0, row,
                         accRow + q0);
        q0 += 32;
    }
    if (p - q0 >= 16) {
        qgemmRowTile<16>(classes, idx, sp2, acts + q0, row,
                         accRow + q0);
        q0 += 16;
    }
    if (p - q0 >= 8) {
        qgemmRowTile<8>(classes, idx, sp2, acts + q0, row, accRow + q0);
        q0 += 8;
    }
    if (p - q0 >= 4) {
        qgemmRowTile<4>(classes, idx, sp2, acts + q0, row, accRow + q0);
        q0 += 4;
    }
    if (p - q0 >= 2) {
        qgemmRowTile<2>(classes, idx, sp2, acts + q0, row, accRow + q0);
        q0 += 2;
    }
    if (p - q0 >= 1)
        qgemmRowTile<1>(classes, idx, sp2, acts + q0, row, accRow + q0);
}

/**
 * Work below which the row-parallel qgemm / rescaleLinear regions run
 * serially: forking the team costs microseconds, more than the whole
 * product of a small layer (MiniResNet's 16->4 head is 64 MACs per
 * item). The regions split disjoint output rows / columns, so the
 * choice never changes a bit.
 */
constexpr size_t kQgemmParallelMacs = size_t(1) << 15;
constexpr size_t kRescaleParallelElems = size_t(1) << 13;

template <typename T>
void
qgemmT(const PackedQMat& w, const T* actsT, size_t p, int32_t* acc)
{
    MIXQ_ASSERT(w.packed(), "qgemm: weight matrix not packed");
    long rows = long(w.rows());
    bool fork = w.rows() * w.cols() * p >= kQgemmParallelMacs;
    #pragma omp parallel for schedule(static) \
        if (fork && !inOmpParallel())
    for (long r = 0; r < rows; ++r)
        qgemmRowT(w, size_t(r), actsT, StridedRows{p}, p,
                  acc + size_t(r) * p);
}

template <typename T>
void
qgemmConvT(const PackedQMat& w, const T* img, const uint32_t* rowOff,
           size_t p, int32_t* acc)
{
    MIXQ_ASSERT(w.packed(), "qgemmConv: weight matrix not packed");
    for (size_t r = 0; r < w.rows(); ++r)
        qgemmRowT(w, r, img, OffsetRows{rowOff}, p, acc + r * p);
}

} // namespace

void
qgemm(const PackedQMat& w, const int32_t* actsT, size_t p,
      int32_t* acc)
{
    qgemmT(w, actsT, p, acc);
}

void
qgemm16(const PackedQMat& w, const int16_t* actsT, size_t p,
        int32_t* acc)
{
    qgemmT(w, actsT, p, acc);
}

void
qgemmConv(const PackedQMat& w, const int32_t* img,
          const uint32_t* rowOff, size_t p, int32_t* acc)
{
    qgemmConvT(w, img, rowOff, p, acc);
}

void
qgemmConv(const PackedQMat& w, const int16_t* img,
          const uint32_t* rowOff, size_t p, int32_t* acc)
{
    qgemmConvT(w, img, rowOff, p, acc);
}

void
qgemmConvRow(const PackedQMat& w, size_t r, const int32_t* img,
             const uint32_t* rowOff, size_t p, int32_t* accRow)
{
    qgemmRowT(w, r, img, OffsetRows{rowOff}, p, accRow);
}

void
qgemmConvRow(const PackedQMat& w, size_t r, const int16_t* img,
             const uint32_t* rowOff, size_t p, int32_t* accRow)
{
    qgemmRowT(w, r, img, OffsetRows{rowOff}, p, accRow);
}

void
rescaleLinear(const PackedQMat& w, const int32_t* acc, size_t p,
              float actInvScale, const float* bias, float* y,
              double* fScratch)
{
    size_t rows = w.rows();
    double* f = fScratch;
    for (size_t r = 0; r < rows; ++r)
        f[r] = w.rowDequant(r) * double(actInvScale);
    #pragma omp parallel for schedule(static) \
        if (rows * p >= kRescaleParallelElems && !inOmpParallel())
    for (long q = 0; q < long(p); ++q) {
        float* yq = y + size_t(q) * rows;
        for (size_t r = 0; r < rows; ++r) {
            float v = float(double(acc[r * p + size_t(q)]) * f[r]);
            yq[r] = bias ? v + bias[r] : v;
        }
    }
}

void
rescaleConv(const PackedQMat& w, const int32_t* acc,
            const ConvCodeLayout& L, float actInvScale,
            const float* bias, float* y)
{
    const size_t ohow = L.oh * L.ow;
    for (size_t r = 0; r < w.rows(); ++r) {
        double f = w.rowDequant(r) * double(actInvScale);
        float b = bias ? bias[r] : 0.0f;
        for (size_t oy = 0; oy < L.oh; ++oy) {
            const int32_t* ar = acc + r * L.lanes + oy * L.rowStride;
            float* yr = y + r * ohow + oy * L.ow;
            #pragma omp simd
            for (size_t ox = 0; ox < L.ow; ++ox)
                yr[ox] = float(double(ar[ox]) * f) + b;
        }
    }
}

} // namespace mixq
