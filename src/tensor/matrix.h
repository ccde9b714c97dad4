/**
 * @file
 * Dense row-major matrix used as the golden representation throughout
 * the library. Sparse formats encode from / decode to this type.
 */
#ifndef DSTC_TENSOR_MATRIX_H
#define DSTC_TENSOR_MATRIX_H

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"

namespace dstc {

/** Dense row-major matrix over an arithmetic element type. */
template <typename T>
class Matrix
{
  public:
    Matrix() : rows_(0), cols_(0) {}

    Matrix(int rows, int cols, T init = T{})
        : rows_(rows), cols_(cols),
          data_(static_cast<size_t>(rows) * cols, init)
    {
        DSTC_ASSERT(rows >= 0 && cols >= 0);
    }

    int rows() const { return rows_; }
    int cols() const { return cols_; }
    size_t size() const { return data_.size(); }

    T &
    at(int r, int c)
    {
        DSTC_ASSERT(r >= 0 && r < rows_ && c >= 0 && c < cols_,
                    "r=", r, " c=", c, " dims=", rows_, "x", cols_);
        return data_[static_cast<size_t>(r) * cols_ + c];
    }

    const T &
    at(int r, int c) const
    {
        DSTC_ASSERT(r >= 0 && r < rows_ && c >= 0 && c < cols_,
                    "r=", r, " c=", c, " dims=", rows_, "x", cols_);
        return data_[static_cast<size_t>(r) * cols_ + c];
    }

    T &operator()(int r, int c) { return at(r, c); }
    const T &operator()(int r, int c) const { return at(r, c); }

    const std::vector<T> &data() const { return data_; }
    std::vector<T> &data() { return data_; }

    void
    fill(T value)
    {
        std::fill(data_.begin(), data_.end(), value);
    }

    /** Number of non-zero elements. */
    int
    nnz() const
    {
        int count = 0;
        for (const T &v : data_)
            if (v != T{})
                ++count;
        return count;
    }

    /** Fraction of zero elements in [0, 1]. */
    double
    sparsity() const
    {
        if (data_.empty())
            return 0.0;
        return 1.0 - static_cast<double>(nnz()) /
                         static_cast<double>(data_.size());
    }

    Matrix<T>
    transpose() const
    {
        Matrix<T> out(cols_, rows_);
        for (int r = 0; r < rows_; ++r)
            for (int c = 0; c < cols_; ++c)
                out.at(c, r) = at(r, c);
        return out;
    }

    bool operator==(const Matrix<T> &other) const = default;

  private:
    int rows_;
    int cols_;
    std::vector<T> data_;
};

/**
 * A random dense matrix with entries uniform in [-1, 1) and a given
 * zero fraction (uniform Bernoulli sparsity pattern).
 */
inline Matrix<float>
randomSparseMatrix(int rows, int cols, double sparsity, Rng &rng)
{
    Matrix<float> m(rows, cols);
    for (int r = 0; r < rows; ++r) {
        for (int c = 0; c < cols; ++c) {
            if (!rng.bernoulli(sparsity)) {
                float v = rng.uniformFloat(-1.0f, 1.0f);
                // A drawn value of exactly 0 would silently change the
                // pattern; nudge it away.
                m.at(r, c) = (v == 0.0f) ? 0.5f : v;
            }
        }
    }
    return m;
}

/**
 * Largest absolute element-wise difference between two matrices.
 * Non-finite cells compare by kind: a NaN against a NaN, or an
 * infinity against the same infinity, differs by 0; a NaN against
 * anything else differs by +inf, so a tolerance check cannot pass
 * over a NaN only one side produced.
 */
inline double
maxAbsDiff(const Matrix<float> &a, const Matrix<float> &b)
{
    DSTC_ASSERT(a.rows() == b.rows() && a.cols() == b.cols());
    double worst = 0.0;
    for (int r = 0; r < a.rows(); ++r) {
        for (int c = 0; c < a.cols(); ++c) {
            const float x = a.at(r, c), y = b.at(r, c);
            if (std::isnan(x) || std::isnan(y)) {
                if (std::isnan(x) != std::isnan(y))
                    return HUGE_VAL;
            } else if (x != y) {
                worst = std::max(worst,
                                 static_cast<double>(std::fabs(x - y)));
            }
        }
    }
    return worst;
}

} // namespace dstc

#endif // DSTC_TENSOR_MATRIX_H
