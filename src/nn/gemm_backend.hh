/**
 * @file
 * GEMM backend dispatch layer: naive reference kernels and
 * cache-blocked (MC/KC/NC tiled, MR x NR register-tiled) kernels
 * behind a runtime shape-based selector.
 *
 * The public entry points in gemm.hh (`gemm`, `gemmAcc`, `gemmBT`,
 * `gemmBTAcc`, `gemmATAcc`) keep their signatures and route through
 * this layer, so the float-compute consumers — nn/layers (conv and
 * linear, forward and backward) and nn/rnn (cell gates) — pick the
 * tuned path up transparently. The simulator's integer cores
 * (sim/gemm_core) model datapath semantics and deliberately stay
 * off this dispatcher.
 *
 * Dispatch rules (see chooseGemmKernel):
 *   - problems with m*n*k <= kGemmBlockThreshold run the naive
 *     kernel: packing overhead dominates below that size;
 *   - row-skinny problems (m < kGemmMR) run the naive kernel: with
 *     one or two output rows its row-broadcast saxpy wins, while a
 *     mostly-padded register tile wastes its FLOPs (column-skinny
 *     problems measure faster blocked, so n has no such rule);
 *   - everything else runs the blocked kernel.
 * `setGemmKernel` (or the MIXQ_GEMM_KERNEL environment variable,
 * read once at startup: "naive", "blocked", "auto") overrides the
 * heuristic globally, which the tests and benches use to pin a path.
 *
 * Pre-packed weight plans (PackedMat): the blocked kernels normally
 * repack both operands on every call, which wastes work when one
 * operand is a weight matrix reused across calls — every Linear/Conv
 * batch, and every timestep of an LSTM/GRU sequence. This mirrors
 * the paper's weight-stationary accelerator (Fig. 3), where
 * quantized weights are packed once into on-chip buffers and
 * activations stream past them. A PackedMat packs one operand of
 * C = op(A) * op(B) into the panel layout once (the pack absorbs
 * the transpose, exactly like the per-call path) and the
 * gemmPacked{A,B}[Acc] entry points reuse it.
 *
 * Plan lifecycle and invalidation contract:
 *   - the consumer (a layer) owns the PackedMat and calls
 *     ensureA()/ensureB() before use with the source pointer, the
 *     logical op() shape, and a version number;
 *   - ensure*() repacks only when the source pointer, shape,
 *     transpose flag, or version changed — otherwise it is O(1);
 *   - every code path that rewrites a Param's weights must bump
 *     Param::version via Param::noteUpdated() (optimizer steps,
 *     quantizer projections, test-side perturbation). A mutation
 *     without a bump leaves plans silently stale — that is the
 *     contract, enforced by the packed-vs-naive equivalence tests.
 *
 * The packed entry points use a *relaxed* dispatch
 * (activePackedGemmKernel): sub-threshold volumes are serviced by
 * the naive kernel reading the plan's source matrix directly (the
 * plan keeps the pointer), so small problems keep the row-saxpy fast
 * path — but the per-call skinny-m rule is dropped, because with the
 * pack already paid the padded microkernel beats the naive
 * scalar-reduction BT dot kernel by ~20x on skinny-m weight shapes
 * (m=4, n=1024, k=256). Packed results therefore match the *blocked*
 * kernel bit for bit wherever the packed dispatch is blocked, and
 * the naive kernel bit for bit below the volume threshold
 * (tests/gemm_test.cc pins this contract).
 */

#ifndef MIXQ_NN_GEMM_BACKEND_HH
#define MIXQ_NN_GEMM_BACKEND_HH

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

namespace mixq {

namespace detail {
/** Open OmpSerialScope count on this thread. */
inline thread_local unsigned ompSerialDepth = 0;
} // namespace detail

/**
 * True when the caller already executes inside an OpenMP parallel
 * region, or inside an OmpSerialScope. The deterministic-parallel
 * passes (quantizer fits, the fused ADMM penalty walk, SGD blocks,
 * the loss rows, the serve kernels) use this as their `if` clause so
 * they never nest parallel regions — the chunk specs stay fixed
 * either way, only the execution goes serial.
 */
inline bool
inOmpParallel()
{
#ifdef _OPENMP
    return detail::ompSerialDepth != 0 || omp_in_parallel() != 0;
#else
    return false;
#endif
}

/**
 * While alive, inOmpParallel() reads true on the constructing
 * thread, so every kernel guarded by it runs serially there. The
 * serving executor opens one per item lane: a lane is already one
 * member of a busy team, or a single item that should not wake one.
 */
class OmpSerialScope
{
  public:
    OmpSerialScope() { ++detail::ompSerialDepth; }
    ~OmpSerialScope() { --detail::ompSerialDepth; }
    OmpSerialScope(const OmpSerialScope&) = delete;
    OmpSerialScope& operator=(const OmpSerialScope&) = delete;
};

/** Which kernel family services a GEMM call. */
enum class GemmKernel {
    Auto,    ///< pick per call from the problem shape (default)
    Naive,   ///< seed triple-loop kernels, OpenMP over output rows
    Blocked, ///< packed cache-blocked kernels with register tiling
};

/** Register-tile rows of the blocked microkernel. */
constexpr size_t kGemmMR = 6;
/** Register-tile columns of the blocked microkernel. */
constexpr size_t kGemmNR = 16;
/** Problems at or below this m*n*k volume stay on the naive path. */
constexpr size_t kGemmBlockThreshold = 16384;

/**
 * Pick the kernel for an m x n x k problem under the rules above.
 * Only consulted when the forced kernel is GemmKernel::Auto.
 */
GemmKernel chooseGemmKernel(size_t m, size_t n, size_t k);

/**
 * Force every subsequent GEMM call onto one kernel family
 * (GemmKernel::Auto restores shape-based dispatch). Not thread-safe
 * against concurrent GEMM calls; intended for test/bench setup.
 */
void setGemmKernel(GemmKernel kernel);

/** Currently forced kernel (GemmKernel::Auto unless overridden). */
GemmKernel forcedGemmKernel();

/** Kernel that will actually service an m x n x k call right now. */
GemmKernel activeGemmKernel(size_t m, size_t n, size_t k);

/**
 * Kernel that services an m x n x k call through a *pre-packed* plan
 * (gemmPackedA/gemmPackedB). Pre-packed plans already paid the pack,
 * so the per-call skinny-m rule does not apply: the padded
 * microkernel beats the naive BT dot kernel by an order of magnitude
 * even at m < kGemmMR once packing is free. Only sub-threshold
 * volumes (and a forced kernel) fall back to naive.
 */
GemmKernel activePackedGemmKernel(size_t m, size_t n, size_t k);

// ------------------------------------------------------------------
// Naive reference kernels (the seed's triple loops, kept both as the
// small-problem fast path and as the ground truth the blocked
// kernels are tested against).
// ------------------------------------------------------------------

/** C[MxN] += A[MxK] * B[KxN], naive row-saxpy kernel. */
void gemmNaiveAcc(const float* a, const float* b, float* c,
                  size_t m, size_t n, size_t k);

/** C[MxN] += A[MxK] * B[NxK]^T, naive dot-product kernel. */
void gemmNaiveBTAcc(const float* a, const float* b, float* c,
                    size_t m, size_t n, size_t k);

/** C[MxN] += A[KxM]^T * B[KxN], naive row-saxpy kernel. */
void gemmNaiveATAcc(const float* a, const float* b, float* c,
                    size_t m, size_t n, size_t k);

// ------------------------------------------------------------------
// Cache-blocked kernels. All three share one driver that packs
// KC x NC panels of B and MC x KC blocks of A into contiguous,
// zero-padded buffers (the packing step absorbs either transpose),
// then runs an MR x NR register-tiled microkernel over the panels.
// ------------------------------------------------------------------

/** C[MxN] += A[MxK] * B[KxN], cache-blocked kernel. */
void gemmBlockedAcc(const float* a, const float* b, float* c,
                    size_t m, size_t n, size_t k);

/** C[MxN] += A[MxK] * B[NxK]^T, cache-blocked kernel. */
void gemmBlockedBTAcc(const float* a, const float* b, float* c,
                      size_t m, size_t n, size_t k);

/** C[MxN] += A[KxM]^T * B[KxN], cache-blocked kernel. */
void gemmBlockedATAcc(const float* a, const float* b, float* c,
                      size_t m, size_t n, size_t k);

// ------------------------------------------------------------------
// Pre-packed weight plans. A PackedMat holds one operand of
// C = op(A) * op(B) in the blocked kernels' panel layout, packed
// once and reused across calls (see the file comment for the
// lifecycle and invalidation contract).
// ------------------------------------------------------------------

class PackedMat;

/** C[MxN] += A[MxK] * packedB, A row-major, plan holds op(B) [KxN]. */
void gemmPackedBAcc(const float* a, const PackedMat& pb, float* c,
                    size_t m, size_t n, size_t k);

/** C[MxN] = A[MxK] * packedB (overwrite). */
void gemmPackedB(const float* a, const PackedMat& pb, float* c,
                 size_t m, size_t n, size_t k);

/** C[MxN] += packedA * B[KxN], B row-major, plan holds op(A) [MxK]. */
void gemmPackedAAcc(const PackedMat& pa, const float* b, float* c,
                    size_t m, size_t n, size_t k);

/** C[MxN] = packedA * B[KxN] (overwrite). */
void gemmPackedA(const PackedMat& pa, const float* b, float* c,
                 size_t m, size_t n, size_t k);

// ------------------------------------------------------------------
// Deterministic batch partitioning and tree-shaped gradient merge.
// The training layers parallelize over the batch dimension and give
// every worker chunk a private partial weight gradient. Both the
// chunk boundaries and the merge order are pure functions of the
// problem shape — never of the thread count — so the floating-point
// accumulation order, and therefore every gradient bit, is identical
// for any OMP_NUM_THREADS. tests/rnn_mt_test.cc pins that guarantee.
// ------------------------------------------------------------------

/**
 * Contiguous partition of @p rows batch rows for parallel workers:
 * returns chunk boundaries 0 = b[0] < b[1] < ... < b[count] = rows.
 * Every chunk has at least @p minRows rows — floor division plus
 * remainder spread, never a skinny tail, so per-chunk GEMMs with
 * minRows = kGemmMR all stay on the blocked/packed path (a sub-MR
 * tail would fall onto the naive BT dot kernel, whose scalar
 * reduction is an order of magnitude slower); the one exception is
 * rows < minRows, which yields a single chunk of all rows (and
 * rows == 0 the degenerate {0, 0}) — and there are at
 * most @p maxChunks chunks (bounding the memory spent on per-chunk
 * gradient partials). Depends only on the arguments — deliberately
 * not on omp_get_max_threads() — so the partition is reproducible
 * across thread counts.
 */
std::vector<size_t> deterministicBatchChunks(size_t rows,
                                             size_t minRows,
                                             size_t maxChunks);

/**
 * Pairwise tree reduction over @p count equally-sized partial
 * buffers of @p len floats: parts[i] += parts[i + s] for
 * s = 1, 2, 4, ... in a fixed stride-doubling order, leaving the
 * total in parts[0]. O(log count) merge depth, and the summation
 * tree is a function of count alone, so the result is bit-identical
 * no matter how many threads execute it. count == 0 is a no-op.
 */
void treeReduceParts(float* const* parts, size_t count, size_t len);

/**
 * treeReduceParts followed by dst[j] += parts[0][j] — the one-call
 * merge of per-chunk weight-gradient partials into a Param::grad.
 * Leaves parts[0] holding the tree total; count == 0 leaves dst
 * untouched.
 */
void treeReduceAcc(float* const* parts, size_t count, size_t len,
                   float* dst);

/**
 * In-place pairwise tree reduction over a span of scalar partials:
 * v[i] += v[i + s] for s = 1, 2, 4, ... (the treeReduceParts merge
 * shape applied to single values), returning the total left in v[0].
 * Used by the quantizer's fitAlpha to merge per-chunk num/den
 * accumulators in an order that depends only on the chunk count —
 * never on the thread count — so the fitted alpha is bit-identical
 * for any OMP_NUM_THREADS. Returns T{} for an empty span.
 */
template <typename T>
T
treeReduceValues(std::span<T> v)
{
    if (v.empty())
        return T{};
    for (size_t stride = 1; stride < v.size(); stride *= 2)
        for (size_t i = 0; i + stride < v.size(); i += 2 * stride)
            v[i] += v[i + stride];
    return v[0];
}

/**
 * One operand of a GEMM, packed into the blocked kernels' MR/NR
 * panel layout. Side::B plans hold op(B) [K x N] as KC x NC panels
 * of NR-wide slivers; Side::A plans hold op(A) [M x K] as KC-deep
 * blocks of MR-row panels. Packing absorbs the source transpose, so
 * one plan type serves the BT/AT weight views used by the layers.
 *
 * Not thread-safe to ensure*() concurrently; concurrent *reads*
 * (gemmPacked* from parallel workers) are safe. Call ensure*() from
 * the orchestrating thread before any parallel region.
 */
class PackedMat
{
  public:
    /** Which operand of C = op(A) * op(B) this plan packs. */
    enum class Side { A, B };

    PackedMat() = default;

    /**
     * Make the plan hold op(A) [m x k]; src is stored [m x k]
     * row-major, or [k x m] when trans is true. Repacks only when
     * src/shape/trans/version differ from the current pack.
     */
    void ensureA(const float* src, size_t m, size_t k, bool trans,
                 uint64_t version);

    /**
     * Make the plan hold op(B) [k x n]; src is stored [k x n]
     * row-major, or [n x k] when trans is true. Repacks only when
     * src/shape/trans/version differ from the current pack.
     */
    void ensureB(const float* src, size_t k, size_t n, bool trans,
                 uint64_t version);

    bool packed() const { return packed_; }
    Side side() const { return side_; }
    /** Rows of the logical op() matrix (m for A plans, k for B). */
    size_t rows() const { return rows_; }
    /** Columns of the logical op() matrix (k for A plans, n for B). */
    size_t cols() const { return cols_; }
    /** Times the source was actually packed (reuse observability). */
    uint64_t packCount() const { return packCount_; }

  private:
    friend void gemmPackedBAcc(const float*, const PackedMat&, float*,
                               size_t, size_t, size_t);
    friend void gemmPackedAAcc(const PackedMat&, const float*, float*,
                               size_t, size_t, size_t);

    void repack();

    Side side_ = Side::B;
    const float* src_ = nullptr;
    size_t rows_ = 0, cols_ = 0; //!< logical op() dims
    bool trans_ = false;
    uint64_t version_ = 0;
    bool packed_ = false;
    uint64_t packCount_ = 0;
    std::vector<float> buf_;
    std::vector<size_t> off_; //!< per cache-block offsets into buf_
};

} // namespace mixq

#endif // MIXQ_NN_GEMM_BACKEND_HH
