/**
 * @file
 * Packed integer weight panels for the deployable inference backend.
 *
 * A PackedQMat is the inference-side mirror of the float PackedMat
 * plan (nn/gemm_backend.hh): one weight matrix, hard-projected by the
 * quantizer, bit-packed once into its hardware encoding and reused
 * across every forward call until the Param's version bumps. Rows
 * keep the per-row scheme/alpha assignment of the MatrixQuantResult
 * that projected them:
 *
 *  - SP2 rows encode as Sp2Code (sign, j1, j2) triples — the LUT
 *    datapath form of Table I, two shifts and an add per product;
 *  - Fixed rows encode as sign-magnitude int8 levels — the DSP
 *    datapath form, one integer multiply per product.
 *
 * Two representations are kept per matrix:
 *
 *  - the *canonical codes* (sp2Codes()/fixedCodes()): the compact
 *    deploy form, byte-comparable across packs of the same weights
 *    (tests/infer_mt_test.cc pins pack -> run -> repack idempotence)
 *    and the form the sim cores (sim/gemm_core.hh) consume directly;
 *  - the *execution panels* (shift1/shift2/mask1/mask2/signMask):
 *    the SP2 codes expanded to structure-of-arrays int32 lanes so a
 *    per-code shift-add traversal is branch-free over the activation
 *    dimension. A j = -1 zero term expands to an all-zero mask,
 *    never a conditional.
 *
 * On top of those, the pack builds the *code-class panels* the
 * microkernel actually runs on: an n-bit row holds at most
 * 2 * (2^(n-1) - 1) distinct non-zero codes, so each row's columns
 * are grouped by code value at pack time (rowClasses()/colIdx()).
 * The kernel then sums the activation columns of one class with
 * plain adds and applies the class's shift-add (or fixed multiply)
 * ONCE per class instead of once per weight — the weight-stationary
 * LUT-sharing form of the datapath. Zero codes appear in no class
 * and cost nothing at run time. Integer addition is associative, so
 * the regrouped traversal stays bit-exact against the sim cores'
 * per-code order.
 *
 * Plan lifecycle follows the PackedMat contract: ensure() repacks
 * only when the source pointer, shape, version, or bit width changed;
 * concurrent reads are safe, ensure() must run on the orchestrating
 * thread before any parallel region.
 *
 * A pack can also be built straight from canonical codes with
 * loadFromCodes() — the deploy-artifact path (serial/deploy.hh),
 * where no float weights exist in the process. Such a pack is
 * *locked*: ensure() only validates the shape and never re-reads the
 * (absent) float source, so the layers' int forwards run unchanged on
 * top of it.
 */

#ifndef MIXQ_INFER_QPACK_HH
#define MIXQ_INFER_QPACK_HH

#include <cstdint>
#include <span>
#include <vector>

#include "quant/quantizer.hh"
#include "quant/sp2_codec.hh"

namespace mixq {

/**
 * One code class of a packed row: every column of the row that
 * carries the same non-zero code. SP2 classes apply two masked
 * shifts and a sign flip to the class's activation sum; Fixed
 * classes apply one signed multiply (the DSP datapath). begin/end
 * index into PackedQMat::colIdx().
 */
struct QCodeClass
{
    int32_t s1 = 0;      //!< first term shift (0 when absent)
    int32_t s2 = 0;      //!< second term shift (0 when absent)
    uint32_t m1 = 0;     //!< first term mask (~0u when present)
    uint32_t m2 = 0;     //!< second term mask (~0u when present)
    uint32_t neg = 0;    //!< sign mask (~0u for negative codes)
    int32_t fixedMag = 0; //!< signed level for Fixed classes
    uint32_t begin = 0;  //!< first column-index slot
    uint32_t end = 0;    //!< one past the last column-index slot
};

/** One weight matrix packed into its integer inference encoding. */
class PackedQMat
{
  public:
    PackedQMat() = default;

    /**
     * Pack (or reuse) the hard-projected weight matrix @p src
     * [rows x cols, row-major]. @p rowScheme / @p rowAlpha come from
     * the MatrixQuantResult of the projection that produced src and
     * must resolve every row to QuantScheme::Sp2 or QuantScheme::Fixed
     * (Mixed is a per-matrix policy, never a per-row encoding; Pow2
     * has no packed form). Repacks only when src, shape, @p version,
     * or @p bits differ from the current pack — O(1) otherwise.
     * Values off the row's quantization grid panic inside the codec:
     * packing un-projected weights is a caller bug, not a rounding
     * concern.
     */
    void ensure(const float* src, size_t rows, size_t cols,
                uint64_t version, std::span<const QuantScheme> rowScheme,
                std::span<const float> rowAlpha, int bits);

    /**
     * Build the pack directly from canonical codes (the deploy
     * artifact's payload): SP2 rows read @p sp2, Fixed rows read
     * @p fixed, both [rows x cols] row-major with the other scheme's
     * slots ignored. The execution and code-class panels are derived
     * from the codes exactly as repacking from floats would derive
     * them, so a loadFromCodes() of codes saved from an ensure()-built
     * pack reproduces that pack byte for byte. The result is locked:
     * later ensure() calls only validate the shape (there is no float
     * source to watch for staleness).
     */
    void loadFromCodes(size_t rows, size_t cols, int bits,
                       std::span<const QuantScheme> rowScheme,
                       std::span<const float> rowAlpha,
                       std::span<const Sp2Code> sp2,
                       std::span<const int8_t> fixed);

    bool packed() const { return packed_; }
    /** True for packs adopted from a deploy artifact. */
    bool locked() const { return locked_; }
    size_t rows() const { return rows_; }
    size_t cols() const { return cols_; }
    int bits() const { return bits_; }
    /** log2 of the SP2 denominator (K1 of the codec). */
    int denomLog2() const { return denomLog2_; }
    /** Times the source was actually packed (reuse observability). */
    uint64_t packCount() const { return packCount_; }

    /**
     * Total bytes of the pack's owned storage (canonical codes,
     * execution panels, code classes, column indices). The serving
     * memory report sums this over a model's panels to price the
     * shared immutable state replicas reuse.
     */
    size_t byteSize() const;

    QuantScheme rowScheme(size_t r) const { return scheme_[r]; }
    float rowAlpha(size_t r) const { return alpha_[r]; }
    /** Number of SP2-encoded rows. */
    size_t numSp2() const { return numSp2_; }

    /**
     * Dequantization factor of one accumulator row: the integer
     * accumulator times this factor is the real-valued partial
     * product sum (before the activation scale). alpha / 2^K1 for
     * SP2 rows, alpha / (2^(bits-1) - 1) for Fixed rows.
     */
    double rowDequant(size_t r) const;

    /**
     * Canonical SP2 codes, [rows x cols] row-major; Fixed rows hold
     * all-zero codes. This is the span the sim's GemmSp2Core consumes.
     */
    std::span<const Sp2Code> sp2Codes() const { return sp2_; }

    /**
     * Canonical fixed-point levels, [rows x cols] row-major; SP2 rows
     * hold zeros. This is the span GemmFixedCore consumes.
     */
    std::span<const int8_t> fixedCodes() const { return fixed_; }

    // Execution panels ([rows x cols] int32 lanes; see file comment).
    std::span<const int32_t> shift1() const { return s1_; }
    std::span<const int32_t> shift2() const { return s2_; }
    /** 0 when the term is absent (j = -1), ~0u otherwise. */
    std::span<const int32_t> mask1() const { return m1_; }
    std::span<const int32_t> mask2() const { return m2_; }
    /** 0 for positive codes, ~0u for negative (two's-complement flip). */
    std::span<const int32_t> signMask() const { return neg_; }

    // Code-class panels (see file comment) — what qgemm traverses.
    /** Classes of row @p r, in first-appearance column order. */
    std::span<const QCodeClass> rowClasses(size_t r) const
    {
        return {classes_.data() + classOfs_[r],
                classOfs_[r + 1] - classOfs_[r]};
    }
    /** All classes, row-major (byte-comparable across packs). */
    std::span<const QCodeClass> codeClasses() const { return classes_; }
    /** Column indices, grouped per class per row. */
    std::span<const uint32_t> colIdx() const { return colIdx_; }

  private:
    void repack(const float* src,
                std::span<const QuantScheme> rowScheme,
                std::span<const float> rowAlpha);

    /** Derive the SoA and code-class panels from the canonical codes
        (sp2_/fixed_/scheme_ must already be in place). */
    void buildPanels();

    const float* src_ = nullptr;
    size_t rows_ = 0, cols_ = 0;
    uint64_t version_ = 0;
    int bits_ = 0;
    int denomLog2_ = 0;
    bool packed_ = false;
    bool locked_ = false;
    uint64_t packCount_ = 0;
    size_t numSp2_ = 0;

    std::vector<QuantScheme> scheme_; //!< per-row scheme
    std::vector<float> alpha_;        //!< per-row scale
    std::vector<Sp2Code> sp2_;        //!< canonical SP2 codes
    std::vector<int8_t> fixed_;       //!< canonical fixed levels
    std::vector<int32_t> s1_, s2_, m1_, m2_, neg_; //!< SoA panels
    std::vector<QCodeClass> classes_; //!< row-major code classes
    std::vector<size_t> classOfs_;    //!< [rows+1] class offsets
    std::vector<uint32_t> colIdx_;    //!< class-grouped column indices
};

} // namespace mixq

#endif // MIXQ_INFER_QPACK_HH
