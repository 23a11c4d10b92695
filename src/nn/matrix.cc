#include "nn/matrix.h"

#include "nn/kernel_clones.h"
#include "util/logging.h"

namespace cottage {

namespace {

/** Rows and columns of C held in registers per block. */
constexpr std::size_t kBlockRows = 4;
constexpr std::size_t kBlockCols = 4;

/**
 * Operands of C (m x n) = A (m x k) * B (k x n). A(i, p) is read at
 * a[i * aRowStride + p * aColStride], so A may be a transposed view;
 * B and C are row-major with row lengths n.
 */
struct Gemm
{
    std::size_t m, n, k;
    const double *a;
    std::size_t aRowStride, aColStride;
    const double *b;
    double *c;
};

/**
 * One Rows x Cols block of C at (i0, j0): every element starts at
 * +0.0 and adds a * b for p = 0, 1, ... in order, the same sum a plain
 * loop nest forms. Vectorizing across the block's columns reorders no
 * element's additions.
 */
template <std::size_t Rows, std::size_t Cols>
[[gnu::always_inline]] inline void
gemmBlock(const Gemm &g, std::size_t i0, std::size_t j0)
{
    double acc[Rows][Cols] = {};
    const double *aCol = g.a + i0 * g.aRowStride;
    const double *bRow = g.b + j0;
    for (std::size_t p = 0; p < g.k; ++p) {
        for (std::size_t r = 0; r < Rows; ++r) {
            const double av = aCol[r * g.aRowStride];
            for (std::size_t j = 0; j < Cols; ++j)
                acc[r][j] += av * bRow[j];
        }
        aCol += g.aColStride;
        bRow += g.n;
    }
    for (std::size_t r = 0; r < Rows; ++r)
        for (std::size_t j = 0; j < Cols; ++j)
            g.c[(i0 + r) * g.n + j0 + j] = acc[r][j];
}

/**
 * Tile one band of Rows rows of C: full-width blocks, then pairs and a
 * single column for the remainder (an 11-class output layer is two
 * blocks, a pair and a column). gemm() splits the rows the same way.
 */
template <std::size_t Rows>
[[gnu::always_inline]] inline void
gemmBand(const Gemm &g, std::size_t i0)
{
    std::size_t j0 = 0;
    for (; j0 + kBlockCols <= g.n; j0 += kBlockCols)
        gemmBlock<Rows, kBlockCols>(g, i0, j0);
    for (; j0 + 2 <= g.n; j0 += 2)
        gemmBlock<Rows, 2>(g, i0, j0);
    if (j0 < g.n)
        gemmBlock<Rows, 1>(g, i0, j0);
}

COTTAGE_NN_CLONES COTTAGE_NN_SLP_ONLY void
gemm(const Gemm &g)
{
    std::size_t i0 = 0;
    for (; i0 + kBlockRows <= g.m; i0 += kBlockRows)
        gemmBand<kBlockRows>(g, i0);
    for (; i0 + 2 <= g.m; i0 += 2)
        gemmBand<2>(g, i0);
    if (i0 < g.m)
        gemmBand<1>(g, i0);
}

} // namespace

void
matmul(const Matrix &a, const Matrix &b, Matrix &c)
{
    COTTAGE_CHECK(a.cols() == b.rows());
    COTTAGE_CHECK(c.rows() == a.rows() && c.cols() == b.cols());
    gemm({a.rows(), b.cols(), a.cols(), a.data(), a.cols(), 1, b.data(),
          c.data()});
}

void
matmulTransposeA(const Matrix &a, const Matrix &b, Matrix &c)
{
    COTTAGE_CHECK(a.rows() == b.rows());
    COTTAGE_CHECK(c.rows() == a.cols() && c.cols() == b.cols());
    // A^T(i, p) = a(p, i): the broadcast scalar is read at a stride.
    gemm({a.cols(), b.cols(), a.rows(), a.data(), 1, a.cols(), b.data(),
          c.data()});
}

void
matmulTransposeB(const Matrix &a, const Matrix &b, Matrix &c,
                 Matrix &packed)
{
    COTTAGE_CHECK(a.cols() == b.cols());
    COTTAGE_CHECK(c.rows() == a.rows() && c.cols() == b.rows());
    COTTAGE_CHECK(packed.rows() == b.cols() && packed.cols() == b.rows());
    for (std::size_t j = 0; j < b.rows(); ++j) {
        const double *bRow = b.row(j);
        for (std::size_t p = 0; p < b.cols(); ++p)
            packed(p, j) = bRow[p];
    }
    matmul(a, packed, c);
}

void
matmulTransposeB(const Matrix &a, const Matrix &b, Matrix &c)
{
    Matrix packed(b.cols(), b.rows());
    matmulTransposeB(a, b, c, packed);
}

} // namespace cottage
