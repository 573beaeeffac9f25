#include "src/nn/matrix.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>

#include "src/nn/kernels.h"
#include "src/util/thread_pool.h"

namespace wayfinder {

namespace {
inline const KernelOps& Ops(const KernelOps* ops) { return ResolveKernels(ops); }
inline const KernelOps& Ops(const Parallelism& par) { return ResolveKernels(par.kernels); }
}  // namespace

Matrix::Matrix(size_t rows, size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

void Matrix::Fill(double value) {
  for (double& v : data_) {
    v = value;
  }
}

void Matrix::Resize(size_t rows, size_t cols, double fill) {
  rows_ = rows;
  cols_ = cols;
  data_.assign(rows * cols, fill);
}

bool Matrix::Reshape(size_t rows, size_t cols) {
  size_t capacity_before = data_.capacity();
  rows_ = rows;
  cols_ = cols;
  data_.resize(rows * cols);
  return data_.capacity() != capacity_before;
}

Matrix Matrix::Xavier(size_t rows, size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  double limit = std::sqrt(6.0 / static_cast<double>(rows + cols));
  for (double& v : m.data_) {
    v = rng.Uniform(-limit, limit);
  }
  return m;
}

Matrix Matrix::FromRow(const std::vector<double>& row) {
  Matrix m(1, row.size());
  m.data_ = row;
  return m;
}

namespace {

// Shared inner loop of MatMulInto / MatMulAddBiasInto over rows [r0, r1):
// one fused gemm_row kernel call per output row (4x k-unrolled inside, bias
// init fused, b rows streamed) on the dispatched backend.
void MatMulRowRange(const Matrix& a, const Matrix& b, const double* bias, Matrix& out,
                    const KernelOps& ops, size_t r0, size_t r1) {
  const size_t k_dim = a.cols();
  const size_t m_dim = b.cols();
  const double* b_base = b.Row(0);
  for (size_t i = r0; i < r1; ++i) {
    ops.gemm_row(a.Row(i), k_dim, b_base, m_dim, bias, out.Row(i), m_dim);
  }
}

size_t MatMulImpl(const Matrix& a, const Matrix& b, const double* bias, Matrix& out,
                  const Parallelism& par) {
  assert(a.cols() == b.rows());
  assert(&out != &a && &out != &b);
  size_t grew = out.Reshape(a.rows(), b.cols()) ? 1 : 0;
  const KernelOps& ops = Ops(par);
  ParallelFor(par.pool, a.rows(), RowGrain(a.cols() * b.cols()), par.max_ways,
              [&](size_t r0, size_t r1) { MatMulRowRange(a, b, bias, out, ops, r0, r1); });
  return grew;
}

}  // namespace

size_t MatMulInto(const Matrix& a, const Matrix& b, Matrix& out, const Parallelism& par) {
  return MatMulImpl(a, b, /*bias=*/nullptr, out, par);
}

size_t MatMulAddBiasInto(const Matrix& a, const Matrix& b, const Matrix& bias, Matrix& out,
                         const Parallelism& par) {
  assert(bias.rows() == 1 && bias.cols() == b.cols());
  return MatMulImpl(a, b, bias.Row(0), out, par);
}

size_t MatMulBtInto(const Matrix& a, const Matrix& b, Matrix& out, const Parallelism& par) {
  assert(a.cols() == b.cols());
  assert(&out != &a && &out != &b);
  size_t grew = out.Reshape(a.rows(), b.rows()) ? 1 : 0;
  const size_t k_dim = a.cols();
  const KernelOps& ops = Ops(par);
  ParallelFor(par.pool, a.rows(), RowGrain(k_dim * b.rows()), par.max_ways,
              [&](size_t r0, size_t r1) {
                for (size_t i = r0; i < r1; ++i) {
                  ops.dot_rows(a.Row(i), b.data().data(), k_dim, k_dim, out.Row(i), b.rows());
                }
              });
  return grew;
}

size_t MatMulAtInto(const Matrix& a, const Matrix& b, Matrix& out) {
  assert(a.rows() == b.rows());
  assert(&out != &a && &out != &b);
  size_t grew = out.Reshape(a.cols(), b.cols()) ? 1 : 0;
  std::memset(out.data().data(), 0, out.size() * sizeof(double));
  MatMulAtAccum(a, b, out);
  return grew;
}

void MatMulAtAccum(const Matrix& a, const Matrix& b, Matrix& acc, const Parallelism& par) {
  assert(a.rows() == b.rows());
  assert(acc.rows() == a.cols() && acc.cols() == b.cols());
  // One kernel call per gradient row i: acc[i] += sum over k of a[k][i] *
  // b[k], k ascending, zero a[k][i] skipped — per element the same sums as
  // one axpy per (k, i), but each row of acc is read and written once. Rows
  // are independent, so they split over the pool without changing a bit.
  if (a.rows() == 0) {
    return;
  }
  const KernelOps& ops = Ops(par);
  const double* a_base = a.data().data();
  const double* b_base = b.data().data();
  ParallelFor(par.pool, a.cols(), RowGrain(a.rows() * b.cols()), par.max_ways,
              [&](size_t i0, size_t i1) {
                for (size_t i = i0; i < i1; ++i) {
                  ops.axpy_rows(a_base + i, a.cols(), b_base, b.cols(), a.rows(), acc.Row(i),
                                b.cols());
                }
              });
}

void ColSumAccum(const Matrix& m, Matrix& acc, const KernelOps* ops) {
  assert(acc.rows() == 1 && acc.cols() == m.cols());
  const KernelOps& k_ops = Ops(ops);
  double* out = acc.Row(0);
  for (size_t i = 0; i < m.rows(); ++i) {
    k_ops.vadd(m.Row(i), out, m.cols());
  }
}

void ReluInPlace(Matrix& m, const KernelOps* ops) {
  Ops(ops).relu(m.data().data(), m.size());
}

Matrix MatMul(const Matrix& a, const Matrix& b) {
  Matrix out;
  MatMulInto(a, b, out);
  return out;
}

Matrix MatMulBt(const Matrix& a, const Matrix& b) {
  Matrix out;
  MatMulBtInto(a, b, out);
  return out;
}

Matrix MatMulAt(const Matrix& a, const Matrix& b) {
  Matrix out;
  MatMulAtInto(a, b, out);
  return out;
}

Matrix NaiveMatMul(const Matrix& a, const Matrix& b) {
  assert(a.cols() == b.rows());
  Matrix out(a.rows(), b.cols(), 0.0);
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < b.cols(); ++j) {
      double sum = 0.0;
      for (size_t k = 0; k < a.cols(); ++k) {
        sum += a.At(i, k) * b.At(k, j);
      }
      out.At(i, j) = sum;
    }
  }
  return out;
}

Matrix NaiveMatMulBt(const Matrix& a, const Matrix& b) {
  assert(a.cols() == b.cols());
  Matrix out(a.rows(), b.rows(), 0.0);
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < b.rows(); ++j) {
      double sum = 0.0;
      for (size_t k = 0; k < a.cols(); ++k) {
        sum += a.At(i, k) * b.At(j, k);
      }
      out.At(i, j) = sum;
    }
  }
  return out;
}

Matrix NaiveMatMulAt(const Matrix& a, const Matrix& b) {
  assert(a.rows() == b.rows());
  Matrix out(a.cols(), b.cols(), 0.0);
  for (size_t i = 0; i < a.cols(); ++i) {
    for (size_t j = 0; j < b.cols(); ++j) {
      double sum = 0.0;
      for (size_t k = 0; k < a.rows(); ++k) {
        sum += a.At(k, i) * b.At(k, j);
      }
      out.At(i, j) = sum;
    }
  }
  return out;
}

void AddRowInPlace(Matrix& m, const Matrix& bias) {
  assert(bias.rows() == 1 && bias.cols() == m.cols());
  for (size_t i = 0; i < m.rows(); ++i) {
    double* row = m.Row(i);
    const double* brow = bias.Row(0);
    for (size_t j = 0; j < m.cols(); ++j) {
      row[j] += brow[j];
    }
  }
}

Matrix ColSum(const Matrix& m) {
  Matrix out(1, m.cols(), 0.0);
  ColSumAccum(m, out);
  return out;
}

Matrix ConcatCols(const Matrix& a, const Matrix& b) {
  assert(a.rows() == b.rows());
  Matrix out(a.rows(), a.cols() + b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    double* orow = out.Row(i);
    std::memcpy(orow, a.Row(i), a.cols() * sizeof(double));
    std::memcpy(orow + a.cols(), b.Row(i), b.cols() * sizeof(double));
  }
  return out;
}

size_t ConcatCols3Into(const Matrix& a, const Matrix& b, const Matrix& c, Matrix& out) {
  assert(a.rows() == b.rows() && b.rows() == c.rows());
  size_t grew = out.Reshape(a.rows(), a.cols() + b.cols() + c.cols()) ? 1 : 0;
  for (size_t i = 0; i < a.rows(); ++i) {
    double* orow = out.Row(i);
    std::memcpy(orow, a.Row(i), a.cols() * sizeof(double));
    std::memcpy(orow + a.cols(), b.Row(i), b.cols() * sizeof(double));
    std::memcpy(orow + a.cols() + b.cols(), c.Row(i), c.cols() * sizeof(double));
  }
  return grew;
}

Matrix SliceCols(const Matrix& m, size_t begin, size_t end) {
  Matrix out;
  SliceColsInto(m, begin, end, out);
  return out;
}

size_t SliceColsInto(const Matrix& m, size_t begin, size_t end, Matrix& out) {
  assert(begin <= end && end <= m.cols());
  assert(&out != &m);
  size_t grew = out.Reshape(m.rows(), end - begin) ? 1 : 0;
  for (size_t i = 0; i < m.rows(); ++i) {
    std::memcpy(out.Row(i), m.Row(i) + begin, (end - begin) * sizeof(double));
  }
  return grew;
}

double RowSqDist(const Matrix& a, size_t r, const Matrix& b, size_t s) {
  assert(a.cols() == b.cols());
  return SqDist(a.Row(r), b.Row(s), a.cols());
}

double SqDist(const double* a, const double* b, size_t n) {
  // Deliberately the textbook serial sum, NOT the dispatched kernel: this is
  // the reference the naive baseline (PredictBatchNaive) builds on and the
  // tests check KernelOps::panel_nearest against, so it must stay
  // independent of the backend under test. Candidate scoring no longer
  // calls it: its Dissimilarity runs panel_nearest over the history ring,
  // which evaluates this same serial sum per history row.
  double sum = 0.0;
  for (size_t k = 0; k < n; ++k) {
    double d = a[k] - b[k];
    sum += d * d;
  }
  return sum;
}

}  // namespace wayfinder
