#include "src/nn/optimizer.h"

#include <algorithm>
#include <cmath>

#include "src/nn/kernels.h"
#include "src/util/thread_pool.h"

namespace wayfinder {

namespace {
// Work of one element's Adam update in RowGrain's multiply-add units: ~2.6 ns
// against ~0.2 ns per multiply-add (docs/perf.md, "Fork-join cost").
constexpr size_t kAdamMultiplyAdds = 12;
}  // namespace

Adam::Adam(std::vector<ParamBlock*> params, const AdamOptions& options)
    : params_(std::move(params)), options_(options) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  offsets_.reserve(params_.size() + 1);
  offsets_.push_back(0);
  for (ParamBlock* p : params_) {
    m_.emplace_back(p->value.rows(), p->value.cols(), 0.0);
    v_.emplace_back(p->value.rows(), p->value.cols(), 0.0);
    offsets_.push_back(offsets_.back() + p->value.size());
  }
}

void Adam::ZeroGrad() {
  for (ParamBlock* p : params_) {
    p->ZeroGrad();
  }
}

void Adam::Step(const Parallelism& par) {
  ++step_;
  const KernelOps& ops = ResolveKernels(par.kernels);
  // Optional global-norm gradient clipping for stability on small batches.
  // The norm is reduced serially over blocks *before* the parallel section,
  // so the clip factor — and therefore every update — is independent of the
  // thread split.
  bool clip = false;
  double clip_scale = 1.0;
  if (options_.grad_clip > 0.0) {
    double sq = 0.0;
    for (ParamBlock* p : params_) {
      sq += ops.sqnorm(p->grad.data().data(), p->grad.size());
    }
    double norm = std::sqrt(sq);
    if (norm > options_.grad_clip) {
      clip = true;
      clip_scale = options_.grad_clip / norm;
    }
  }
  AdamScalars scalars;
  scalars.beta1 = options_.beta1;
  scalars.beta2 = options_.beta2;
  scalars.learning_rate = options_.learning_rate;
  scalars.epsilon = options_.epsilon;
  scalars.weight_decay = options_.weight_decay;
  scalars.bias1 = 1.0 - std::pow(options_.beta1, static_cast<double>(step_));
  scalars.bias2 = 1.0 - std::pow(options_.beta2, static_cast<double>(step_));
  // The clip scaling and the update are elementwise, so one flattened range
  // over every block splits anywhere without changing a bit. Chunks are
  // whole groups of 4 elements (one AVX2 vector) of the flattened range.
  const size_t total = offsets_.back();
  ParallelFor(par.pool, (total + 3) / 4, RowGrain(4 * kAdamMultiplyAdds), par.max_ways,
              [&](size_t g0, size_t g1) {
                size_t e0 = 4 * g0;
                const size_t e1 = std::min(total, 4 * g1);
                size_t p = static_cast<size_t>(
                    std::upper_bound(offsets_.begin(), offsets_.end(), e0) - offsets_.begin() - 1);
                for (; e0 < e1; ++p) {
                  const size_t lo = e0 - offsets_[p];
                  const size_t hi = std::min(e1, offsets_[p + 1]) - offsets_[p];
                  double* grad = params_[p]->grad.data().data() + lo;
                  if (clip) {
                    ops.scal(clip_scale, grad, hi - lo);
                  }
                  ops.adam_update(params_[p]->value.data().data() + lo, grad,
                                  m_[p].data().data() + lo, v_[p].data().data() + lo, hi - lo,
                                  scalars);
                  e0 = offsets_[p] + hi;
                }
              });
}

}  // namespace wayfinder
