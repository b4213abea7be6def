/**
 * @file
 * Dense row-major float tensor used throughout the training substrate.
 * Rank is dynamic (vectors, matrices, NCHW image batches, TNC
 * sequences). Deliberately minimal: contiguous storage, shape algebra,
 * a few elementwise helpers — all heavy math lives in gemm.hh and the
 * layers.
 */

#ifndef MIXQ_NN_TENSOR_HH
#define MIXQ_NN_TENSOR_HH

#include <cstddef>
#include <span>
#include <vector>

namespace mixq {

class Rng;

/** Contiguous row-major float tensor. */
class Tensor
{
  public:
    Tensor() = default;

    /** Construct zero-filled with the given shape. */
    explicit Tensor(std::vector<size_t> shape);

    /** Build from shape and explicit data (sizes must agree). */
    Tensor(std::vector<size_t> shape, std::vector<float> data);

    /** Zero-filled tensor. */
    static Tensor zeros(std::vector<size_t> shape);

    /** Constant-filled tensor. */
    static Tensor full(std::vector<size_t> shape, float v);

    /** I.i.d. normal entries with the given standard deviation. */
    static Tensor randn(std::vector<size_t> shape, Rng& rng,
                        double stddev = 1.0);

    const std::vector<size_t>& shape() const { return shape_; }
    size_t ndim() const { return shape_.size(); }
    size_t dim(size_t i) const;
    size_t size() const { return data_.size(); }
    bool empty() const { return data_.empty(); }

    float* data() { return data_.data(); }
    const float* data() const { return data_.data(); }
    std::span<float> span() { return {data_.data(), data_.size()}; }
    std::span<const float> span() const
    {
        return {data_.data(), data_.size()};
    }

    float& operator[](size_t i) { return data_[i]; }
    float operator[](size_t i) const { return data_[i]; }

    /** 2-D access helper (matrix layout [d0, d1]). */
    float& at2(size_t i, size_t j);
    float at2(size_t i, size_t j) const;

    /** 4-D access helper (NCHW layout). */
    float& at4(size_t n, size_t c, size_t h, size_t w);
    float at4(size_t n, size_t c, size_t h, size_t w) const;

    /** Reshape in place; the element count must be preserved. */
    void reshape(std::vector<size_t> shape);

    /** Set every element to v. */
    void fill(float v);

    /** this += other (same size). */
    void add(const Tensor& other);

    /** this += s * other (same size). */
    void addScaled(const Tensor& other, float s);

    /** Multiply every element by s. */
    void scale(float s);

    /** Sum of all elements. */
    double sum() const;

  private:
    std::vector<size_t> shape_;
    std::vector<float> data_;
};

/** Product of all dims. */
size_t shapeSize(const std::vector<size_t>& shape);

/**
 * Non-owning view of externally placed tensor storage — the handle
 * the plan-execution forwards (serve/executor.hh) pass around.
 * `data` points at `shapeSize(shape)` floats the caller placed (a
 * planner-assigned offset inside the serving slab); the view never
 * allocates, frees, or reshapes.
 */
struct TensorView
{
    float* data = nullptr;
    std::vector<size_t> shape;

    size_t size() const { return shapeSize(shape); }
    size_t dim(size_t i) const { return shape[i]; }
    size_t ndim() const { return shape.size(); }
};

/** View of @p t's storage. The forwardServe calls only read their
    input view, so a const tensor may back one. */
inline TensorView
viewOf(const Tensor& t)
{
    return {const_cast<float*>(t.data()), t.shape()};
}

} // namespace mixq

#endif // MIXQ_NN_TENSOR_HH
