// Runtime-dispatched SIMD kernel backend.
//
// Every inner loop the DTM hot path runs — the streamed 4-row matmul body,
// the row-blocked dot / squared-distance / gradient-accumulation kernels, the
// RBF gradient loops, ReLU, the per-block Adam update — and the history-panel
// nearest-distance scan of candidate scoring is reached through a `KernelOps`
// vtable of raw pointer kernels. Two backends implement the table:
//
//   * portable — plain C++, compiled with the base flags, runs anywhere;
//   * avx2     — 256-bit vector implementations, compiled in a separate
//     translation unit with `-mavx2` (gated per-file in CMake so the rest of
//     the build stays portable), selected only when CPUID reports AVX2
//     support.
//
// The backend is resolved once, on first use: `WF_KERNELS=portable|avx2`
// overrides (an unknown value is ignored), otherwise CPUID picks AVX2 when
// available. Models can pin a backend per-instance via `DtmOptions::kernels`,
// which flows to the kernels through `Parallelism::kernels`.
//
// Bit-exactness contract: both backends evaluate the *same* floating-point
// expression tree. The portable kernels are written in the lane structure
// the vector units want (4-way strided accumulators, paired reduction), the
// AVX2 kernels use explicit mul/add intrinsics in that same order, and FMA
// contraction is disabled in the AVX2 translation unit (`-ffp-contract=off`)
// so the compiler cannot fuse them. Backend choice therefore changes speed,
// never results — which is what makes "identical search trajectories across
// backends" a testable invariant rather than a hope.
//
// Row blocking: the `*_rows` kernels and `panel_nearest` each replace a loop
// of one-output kernel calls with one call that computes many outputs, while
// every output keeps exactly the expression tree of the per-call loop it
// replaced (docs/perf.md, "Bit-identical blocking"). Blocking changes which
// outputs are in flight together, never how any one of them is summed.
#ifndef WAYFINDER_SRC_NN_KERNELS_H_
#define WAYFINDER_SRC_NN_KERNELS_H_

#include <cstddef>

namespace wayfinder {

enum class KernelBackend {
  kAuto = 0,  // WF_KERNELS env override, else AVX2 when CPUID supports it.
  kPortable,
  kAvx2,
};

// Moment floor of every backend's adam_update. Right after computing them,
// a first moment with |m| < floor is stored as +0.0 and a second moment with
// v < floor as 0 (NaN is kept). A parameter whose gradient stops (a dead ReLU
// unit) decays m by beta1 = 0.9 per step, which would reach the subnormal
// range after ~6.7k steps; every multiply, divide and store on a subnormal
// takes the slow microcode path. 1e-250 is safe on both sides:
//   * large enough: a kept moment keeps beta1 * m, m / bias1 and
//     lr * update normal (DBL_MIN ~= 2.2e-308, 58 decades below);
//   * small enough: a flushed m moved its weight by at most
//     lr * floor / (bias1 * epsilon) <= lr * 1e-241 (bias1 >= 1 - beta1 = 0.1,
//     epsilon = 1e-8), and
//     a flushed v moved the denominator sqrt(v / bias2) + epsilon by at most
//     sqrt(floor / (1 - beta2)) ~= 3e-124; both are far below half an ulp of
//     any weight or of epsilon, so flushing never changes a weight.
// Moments are never serialized, so committed state is unchanged as well.
constexpr double kAdamMomentFloor = 1e-250;

// Rows per panel of the k-major layout panel_nearest reads: panel p holds
// rows [p * kPanelLanes, (p + 1) * kPanelLanes), and element k of row r sits
// at PanelIndex(r, k, dim). One vector lane per row, so a panel kernel runs
// kPanelLanes independent textbook sums side by side.
constexpr size_t kPanelLanes = 4;

inline size_t PanelIndex(size_t row, size_t k, size_t dim) {
  return (row / kPanelLanes) * dim * kPanelLanes + k * kPanelLanes + row % kPanelLanes;
}

// Scalar constants of one Adam step, precomputed once per Step() call so the
// per-block kernel is pure elementwise math.
struct AdamScalars {
  double beta1 = 0.9;
  double beta2 = 0.999;
  double learning_rate = 1e-3;
  double epsilon = 1e-8;
  double weight_decay = 0.0;  // Decoupled (AdamW); 0 disables.
  double bias1 = 1.0;         // 1 - beta1^t
  double bias2 = 1.0;         // 1 - beta2^t
};

// The dispatched inner loops. All pointers are to dense double arrays; no
// kernel allocates or assumes alignment (loads are unaligned).
struct KernelOps {
  const char* name;  // "portable" | "avx2"

  // One full output row of the streamed matmul:
  //   out[j] = (bias ? bias[j] : 0) + sum over k-blocks-of-4 of
  //            (a[k]*b[k][j] + a[k+1]*b[k+1][j] + a[k+2]*b[k+2][j] +
  //             a[k+3]*b[k+3][j]),
  // with the <4 remainder k rows appended per-k (skipping a[k] == 0).
  // Each k-block's four products are summed first, then added to the
  // accumulator — the expression tree both backends must reproduce. Fusing
  // the whole row keeps out[] in registers instead of a load/store per
  // block. `b` is row-major with stride `b_stride` (>= m).
  void (*gemm_row)(const double* a, size_t k_dim, const double* b, size_t b_stride,
                   const double* bias, double* out, size_t m);
  // One gradient row of dW += X^T dY, in one call:
  //   for r = 0 .. rows-1 ascending, skipping a[r * a_stride] == 0:
  //     y[j] += a[r * a_stride] * x[r * x_stride + j]      (j < n)
  // — per element exactly the loop of one `y += a * x` axpy per batch row it
  // replaces (a zero coefficient, -0.0 included, leaves y untouched, so a
  // -0.0 accumulator stays -0.0). The non-zero rows are listed without
  // branches and y is held in registers across the whole batch.
  void (*axpy_rows)(const double* a, size_t a_stride, const double* x, size_t x_stride,
                    size_t rows, double* y, size_t n);
  // out[j] += a * (x[j] - y[j]) — RBF centroid/input gradient body.
  void (*axpy_diff)(double a, const double* x, const double* y, double* out, size_t n);
  // y[j] += x[j].
  void (*vadd)(const double* x, double* y, size_t n);
  // out[j] = dot(a, b + j * b_stride) over n elements, for j < m. Each dot
  // is the 4-lane strided product sum: lanes accumulate k % 4, reduced as
  // (l0 + l1) + (l2 + l3), remainder appended serially.
  void (*dot_rows)(const double* a, const double* b, size_t b_stride, size_t n, double* out,
                   size_t m);
  // out[j] = sum of (a[k] - b_j[k])^2 with b_j = b + j * b_stride, same lane
  // structure as dot_rows. a - b == -(b - a) exactly, so one table of these
  // serves both argument orders (the Chamfer term's sqdist(c, z) and
  // sqdist(z, c)).
  void (*sqdist_rows)(const double* a, const double* b, size_t b_stride, size_t n,
                      double* out, size_t m);
  // min over rows r < `rows` of the textbook serial sum of (x[k] - h_r[k])^2
  // (k ascending, one accumulator: SqDist in matrix.h), starting from
  // DBL_MAX and keeping the old minimum unless a sum is strictly smaller, so
  // NaN and +inf never win. `panels` holds the rows in the k-major panel
  // layout of kPanelLanes rows each (see PanelIndex) and must span whole
  // panels: SIMD backends load the last panel's unfilled lanes, but those
  // never reach the result. A min ignores order, so the result is bitwise
  // the min of SqDist over the rows.
  double (*panel_nearest)(const double* x, const double* panels, size_t dim, size_t rows);
  // Sum of x[j]^2, same lane structure as dot_rows.
  double (*sqnorm)(const double* x, size_t n);
  // x[j] *= a.
  void (*scal)(double a, double* x, size_t n);
  // x[j] = max(0, x[j]).
  void (*relu)(double* x, size_t n);
  // One Adam update over a parameter block; zeroes the gradient and flushes
  // moments below kAdamMomentFloor. Elementwise and independent per index,
  // so any vector width is bit-identical.
  void (*adam_update)(double* value, double* grad, double* m, double* v, size_t n,
                      const AdamScalars& k);
};

// The table for a backend. kAuto resolves the process default; kAvx2 falls
// back to portable when the CPU or build lacks AVX2.
const KernelOps& KernelsFor(KernelBackend backend);

// Process default: resolved once from WF_KERNELS / CPUID on first call.
const KernelOps& DefaultKernels();
KernelBackend DefaultKernelBackend();

// True when `backend` has a real implementation on this CPU and build.
bool KernelBackendAvailable(KernelBackend backend);

// Overrides the process default (benches and tests that compare backends in
// one process). Not thread-safe against concurrent kernel use; call at setup.
void SetDefaultKernelBackend(KernelBackend backend);

const char* KernelBackendName(KernelBackend backend);

// Defined in kernels_avx2.cc: the AVX2 table, or nullptr when that TU was
// compiled without AVX2 support.
const KernelOps* Avx2KernelOps();

// The one resolution rule for optional per-call backend pointers (e.g.
// Parallelism::kernels): an explicit table wins, nullptr means the process
// default.
inline const KernelOps& ResolveKernels(const KernelOps* ops) {
  return ops != nullptr ? *ops : DefaultKernels();
}

}  // namespace wayfinder

#endif  // WAYFINDER_SRC_NN_KERNELS_H_
