#include "src/nn/layers.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "src/nn/kernels.h"
#include "src/util/thread_pool.h"

namespace wayfinder {

namespace {
inline const KernelOps& Ops(const Parallelism& par) { return ResolveKernels(par.kernels); }

// Work of one std::exp in RowGrain's multiply-add units: ~4.8 ns against
// ~0.2 ns per multiply-add (docs/perf.md, "Fork-join cost").
constexpr size_t kExpMultiplyAdds = 24;
}  // namespace

DenseLayer::DenseLayer(size_t in_dim, size_t out_dim, Rng& rng) {
  weight_.value = Matrix::Xavier(in_dim, out_dim, rng);
  weight_.grad.Resize(in_dim, out_dim);
  bias_.value.Resize(1, out_dim);
  bias_.grad.Resize(1, out_dim);
}

size_t DenseLayer::ForwardInto(const Matrix& x, Matrix& y, const Parallelism& par) {
  assert(x.cols() == weight_.value.rows());
  last_input_ = &x;
  return MatMulAddBiasInto(x, weight_.value, bias_.value, y, par);
}

size_t DenseLayer::BackwardInto(const Matrix& dy, Matrix* dx, const Parallelism& par) {
  // dW += X^T dY ; db += colsum(dY) ; dX = dY W^T.
  assert(last_input_ != nullptr);
  MatMulAtAccum(*last_input_, dy, weight_.grad, par);
  ColSumAccum(dy, bias_.grad, par.kernels);
  if (dx == nullptr) {
    return 0;
  }
  return MatMulBtInto(dy, weight_.value, *dx, par);
}

Matrix DenseLayer::Forward(const Matrix& x) {
  input_copy_ = x;
  Matrix y;
  ForwardInto(input_copy_, y);
  return y;
}

Matrix DenseLayer::Backward(const Matrix& dy) {
  Matrix dx;
  BackwardInto(dy, &dx);
  return dx;
}

// wf-hot-path: workspace-arena — clamps the caller's matrix in place; the
// mask is a pointer into it, never a copy.
void ReluLayer::ForwardInPlace(Matrix& x, const Parallelism& par) {
  ReluInPlace(x, par.kernels);
  mask_source_ = &x;
}

// wf-hot-path: workspace-arena — gradient masked against the forward
// activation pointer, in place.
void ReluLayer::BackwardInPlace(Matrix& dy) {
  assert(mask_source_ != nullptr && mask_source_->size() == dy.size());
  for (size_t i = 0; i < dy.size(); ++i) {
    if (mask_source_->data()[i] <= 0.0) {
      dy.data()[i] = 0.0;
    }
  }
}

Matrix ReluLayer::Forward(const Matrix& x) {
  input_copy_ = x;
  ForwardInPlace(input_copy_);
  return input_copy_;
}

Matrix ReluLayer::Backward(const Matrix& dy) {
  Matrix dx = dy;
  BackwardInPlace(dx);
  return dx;
}

void DropoutLayer::ForwardInPlace(Matrix& x, Rng& rng, bool training) {
  active_ = training && rate_ > 0.0;
  if (!active_) {
    return;
  }
  last_mask_.Reshape(x.rows(), x.cols());
  double keep = 1.0 - rate_;
  for (size_t i = 0; i < x.size(); ++i) {
    bool kept = rng.Uniform() < keep;
    last_mask_.data()[i] = kept ? 1.0 / keep : 0.0;
    x.data()[i] *= last_mask_.data()[i];
  }
}

// wf-hot-path: workspace-arena — scales by the cached mask, in place.
void DropoutLayer::BackwardInPlace(Matrix& dy) {
  if (!active_) {
    return;
  }
  for (size_t i = 0; i < dy.size(); ++i) {
    dy.data()[i] *= last_mask_.data()[i];
  }
}

Matrix DropoutLayer::Forward(const Matrix& x, Rng& rng, bool training) {
  Matrix y = x;
  ForwardInPlace(y, rng, training);
  return y;
}

Matrix DropoutLayer::Backward(const Matrix& dy) {
  Matrix dx = dy;
  BackwardInPlace(dx);
  return dx;
}

RbfLayer::RbfLayer(size_t in_dim, size_t centroids, double gamma, Rng& rng)
    : gamma_(gamma) {
  // Centroids start as a small cloud around the origin (inputs are roughly
  // normalized); the Chamfer regularizer spreads them over the data.
  centroids_.value.Resize(centroids, in_dim);
  for (double& v : centroids_.value.data()) {
    v = rng.Normal(0.0, 0.3);
  }
  centroids_.grad.Resize(centroids, in_dim);
}

size_t RbfLayer::ForwardInto(const Matrix& z, Matrix& phi, const Parallelism& par) {
  assert(z.cols() == centroids_.value.cols());
  assert(&z != &phi);
  last_input_ = &z;
  last_phi_ = &phi;
  size_t k = centroids_.value.rows();
  size_t d = centroids_.value.cols();
  // ||z - c||^2 = ||z||^2 + ||c||^2 - 2 z·c: the cross term is a fast
  // matmul instead of K x N scalar distance loops. Rounding can push a
  // near-zero distance slightly negative, hence the max with 0.
  size_t grew = MatMulBtInto(z, centroids_.value, phi, par);
  const KernelOps& ops = Ops(par);
  if (centroid_sq_norms_.size() != k) {
    centroid_sq_norms_.resize(k);
  }
  for (size_t c = 0; c < k; ++c) {
    centroid_sq_norms_[c] = ops.sqnorm(centroids_.value.Row(c), d);
  }
  double inv = 1.0 / (2.0 * gamma_ * gamma_);
  ParallelFor(par.pool, z.rows(), RowGrain(d + k * kExpMultiplyAdds), par.max_ways,
              [&](size_t r0, size_t r1) {
                for (size_t n = r0; n < r1; ++n) {
                  double z_sq = ops.sqnorm(z.Row(n), d);
                  double* phirow = phi.Row(n);
                  for (size_t c = 0; c < k; ++c) {
                    double dist = std::max(0.0, z_sq + centroid_sq_norms_[c] - 2.0 * phirow[c]);
                    phirow[c] = std::exp(-dist * inv);
                  }
                }
              });
  return grew;
}

size_t RbfLayer::BackwardInto(const Matrix& dphi, Matrix* dz, bool accumulate,
                              const Parallelism& par) {
  // dphi/dz_n   = phi_nc * (c - z_n) / gamma^2
  // dphi/dc     = phi_nc * (z_n - c) / gamma^2
  assert(last_input_ != nullptr && last_phi_ != nullptr);
  const Matrix& z = *last_input_;
  const Matrix& phi = *last_phi_;
  const KernelOps& ops = Ops(par);
  size_t k = centroids_.value.rows();
  size_t d = centroids_.value.cols();
  size_t grew = 0;
  if (dz != nullptr && !accumulate) {
    grew = dz->Reshape(z.rows(), d) ? 1 : 0;
    dz->Fill(0.0);
  }
  const double inv = 1.0 / (gamma_ * gamma_);
  // Each dz row takes its updates in centroid order and each centroid
  // gradient row in batch order, exactly as in one combined (n, c) loop, so
  // a pass split by batch row and a pass split by centroid give its bits.
  if (dz != nullptr) {
    ParallelFor(par.pool, z.rows(), RowGrain(k * d), par.max_ways, [&](size_t n0, size_t n1) {
      for (size_t n = n0; n < n1; ++n) {
        for (size_t c = 0; c < k; ++c) {
          double scale = dphi.At(n, c) * phi.At(n, c) * inv;
          if (scale != 0.0) {  // dz += scale * (c - z)
            ops.axpy_diff(scale, centroids_.value.Row(c), z.Row(n), dz->Row(n), d);
          }
        }
      }
    });
  }
  ParallelFor(par.pool, k, RowGrain(z.rows() * d), par.max_ways, [&](size_t c0, size_t c1) {
    for (size_t c = c0; c < c1; ++c) {
      for (size_t n = 0; n < z.rows(); ++n) {
        double scale = dphi.At(n, c) * phi.At(n, c) * inv;
        if (scale != 0.0) {  // dc += scale * (z - c)
          ops.axpy_diff(scale, z.Row(n), centroids_.value.Row(c), centroids_.grad.Row(c), d);
        }
      }
    }
  });
  return grew;
}

Matrix RbfLayer::Forward(const Matrix& z) {
  input_copy_ = z;
  ForwardInto(input_copy_, phi_copy_);
  return phi_copy_;
}

Matrix RbfLayer::Backward(const Matrix& dphi) {
  Matrix dz;
  BackwardInto(dphi, &dz);
  return dz;
}

double RbfLayer::AccumulateChamferGradient(double weight, const Parallelism& par) {
  // Chamfer distance between the centroid set C and the cached batch Z:
  //   L = 1/K sum_c min_n ||c - z_n||^2  +  1/N sum_n min_c ||z_n - c||^2.
  // Gradient w.r.t. C only (prototypes chase the data distribution).
  assert(last_input_ != nullptr);
  const Matrix& z = *last_input_;
  Matrix& c = centroids_.value;
  if (z.rows() == 0) {
    return 0.0;
  }
  const KernelOps& ops = Ops(par);
  size_t k = c.rows();
  size_t n = z.rows();
  size_t d = c.cols();
  double loss = 0.0;

  // One K x N table of squared distances serves both terms. a - b == -(b - a)
  // exactly, so (c - z)^2 and (z - c)^2 are bitwise equal and term 2 reads
  // the entries term 1 reads; the argmins and the loss are those of two
  // separate distance passes.
  //
  // Term 1: every centroid is pulled toward its nearest batch point. Each
  // centroid fills its own table row and gradient row, so centroids split
  // over the pool; their loss shares are summed serially afterwards, in
  // centroid order, and term 2 runs after every term-1 update as before.
  chamfer_dist_.Reshape(k, n);
  chamfer_best_.resize(k);
  const double term1_scale = weight * 2.0 / static_cast<double>(k);
  ParallelFor(par.pool, k, RowGrain(n * d), par.max_ways, [&](size_t c0, size_t c1) {
    for (size_t ci = c0; ci < c1; ++ci) {
      double* dist = chamfer_dist_.Row(ci);
      ops.sqdist_rows(c.Row(ci), z.Row(0), d, d, dist, n);
      size_t best = 0;
      double best_dist = std::numeric_limits<double>::max();
      for (size_t ni = 0; ni < n; ++ni) {
        if (dist[ni] < best_dist) {
          best_dist = dist[ni];
          best = ni;
        }
      }
      chamfer_best_[ci] = best_dist;
      ops.axpy_diff(term1_scale, c.Row(ci), z.Row(best), centroids_.grad.Row(ci), d);
    }
  });
  for (size_t ci = 0; ci < k; ++ci) {
    loss += chamfer_best_[ci] / static_cast<double>(k);
  }
  // Term 2: every batch point pulls its nearest centroid toward itself.
  for (size_t ni = 0; ni < n; ++ni) {
    size_t best = 0;
    double best_dist = std::numeric_limits<double>::max();
    for (size_t ci = 0; ci < k; ++ci) {
      double dist = chamfer_dist_.At(ci, ni);
      if (dist < best_dist) {
        best_dist = dist;
        best = ci;
      }
    }
    loss += best_dist / static_cast<double>(n);
    double scale = weight * 2.0 / static_cast<double>(n);
    ops.axpy_diff(scale, c.Row(best), z.Row(ni), centroids_.grad.Row(best), d);
  }
  return loss;
}

}  // namespace wayfinder
