/**
 * @file
 * Minimal dense row-major matrix used by the neural-network library.
 *
 * The three products training needs share one register-blocked GEMM
 * kernel (matrix.cc): it holds a 4 x 4 block of C in registers,
 * broadcasts A(i, p), loads B(p, j..j+3) and walks p in ascending
 * order. Its contract is bit identity with the plain loop nest: every
 * C(i, j) starts at +0.0 and adds a * b for p = 0, 1, ... in order,
 * with a separate multiply and add (no FMA in any build). Blocking and
 * vectorizing across j reorder no element's sum, so trained weights do
 * not depend on the block shape, the vector width or the CPU. A zero
 * A(i, p) is multiplied like any other value: while every operand is
 * finite it adds +-0 to a sum that started at +0.0, which changes
 * nothing, so the kernel spends no branch on it. (0 * Inf is NaN, one
 * reason MlpClassifier::load rejects non-finite weights.)
 */

#ifndef COTTAGE_NN_MATRIX_H
#define COTTAGE_NN_MATRIX_H

#include <cstddef>
#include <vector>

namespace cottage {

/** Dense row-major matrix of doubles. */
class Matrix
{
  public:
    Matrix() = default;

    /** rows x cols, zero-initialized. */
    Matrix(std::size_t rows, std::size_t cols)
        : rows_(rows), cols_(cols), data_(rows * cols, 0.0)
    {
    }

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }
    std::size_t size() const { return data_.size(); }

    double &operator()(std::size_t r, std::size_t c)
    {
        return data_[r * cols_ + c];
    }

    double operator()(std::size_t r, std::size_t c) const
    {
        return data_[r * cols_ + c];
    }

    /** Raw row pointer (row-major layout). */
    double *row(std::size_t r) { return data_.data() + r * cols_; }
    const double *row(std::size_t r) const { return data_.data() + r * cols_; }

    double *data() { return data_.data(); }
    const double *data() const { return data_.data(); }

    /** Reset all entries to zero, keeping the shape. */
    void
    setZero()
    {
        std::fill(data_.begin(), data_.end(), 0.0);
    }

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<double> data_;
};

/** C = A (m x k) * B (k x n). C must be m x n. */
void matmul(const Matrix &a, const Matrix &b, Matrix &c);

/** C = A^T (k x m -> m x k view) * B (k x n). C must be m x n. */
void matmulTransposeA(const Matrix &a, const Matrix &b, Matrix &c);

/** C = A (m x k) * B^T (n x k -> k x n view). C must be m x n. */
void matmulTransposeB(const Matrix &a, const Matrix &b, Matrix &c);

/**
 * matmulTransposeB that packs B^T into caller-owned @p packed, which
 * must be k x n, so a training loop shapes the buffer once instead of
 * allocating one per product.
 */
void matmulTransposeB(const Matrix &a, const Matrix &b, Matrix &c,
                      Matrix &packed);

} // namespace cottage

#endif // COTTAGE_NN_MATRIX_H
