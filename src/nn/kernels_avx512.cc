// AVX-512 backend of the kernel dispatch layer (see kernels.h).
//
// This translation unit is the only one compiled with `-mavx512f` (plus
// `-mavx2 -mfma`, which the guard below requires); CMake adds the flags
// per-file together with `-ffp-contract=off` and defines WF_KERNELS_AVX512,
// so the base build stays portable and the compiler cannot contract the
// explicit mul/add intrinsics into FMAs. Selection is CPUID-guarded at
// runtime (kernels.cc) and — unlike AVX2 — strictly opt-in: CPUID
// auto-resolution never picks this table, because 512-bit execution can
// drop the frequency license on client cores (measurement in docs/perf.md).
//
// Bit-exactness is preserved per kernel class:
//
//   * elementwise kernels (gemm_row's per-j accumulation, axpy_diff, vadd,
//     scal, relu, adam_update) compute each output index from the same
//     expression tree regardless of vector width, so running them 8-wide
//     changes nothing but speed;
//   * the order-sensitive reductions and row-blocked kernels (axpy_rows,
//     dot_rows, sqdist_rows, panel_nearest, sqnorm) must reproduce the
//     canonical 4-lane structure, so this table takes them from the AVX2
//     table itself rather than carrying a copy.
#include "src/nn/kernels.h"

#if defined(WF_KERNELS_AVX512) && defined(__AVX512F__) && defined(__AVX2__)

#include <immintrin.h>

namespace wayfinder {
namespace {

// One k-block-of-4 contribution to an 8-wide j tile: the four products are
// summed first, then added to the accumulator (the portable expression tree,
// evaluated per j index — width-invariant).
static inline __m512d GemmBlock8(__m512d acc, __m512d va0, __m512d va1, __m512d va2,
                                 __m512d va3, const double* b0, const double* b1,
                                 const double* b2, const double* b3, size_t j) {
  __m512d t = _mm512_mul_pd(va0, _mm512_loadu_pd(b0 + j));
  t = _mm512_add_pd(t, _mm512_mul_pd(va1, _mm512_loadu_pd(b1 + j)));
  t = _mm512_add_pd(t, _mm512_mul_pd(va2, _mm512_loadu_pd(b2 + j)));
  t = _mm512_add_pd(t, _mm512_mul_pd(va3, _mm512_loadu_pd(b3 + j)));
  return _mm512_add_pd(acc, t);
}

void Avx512GemmRow(const double* a, size_t k_dim, const double* b, size_t b_stride,
                   const double* bias, double* out, size_t m) {
  const __m512d zero = _mm512_setzero_pd();
  size_t j = 0;
  // 16-wide j tiles: two zmm accumulators live in registers across the
  // entire k loop — no out[] load/store per k-block.
  for (; j + 16 <= m; j += 16) {
    __m512d acc0 = bias != nullptr ? _mm512_loadu_pd(bias + j) : zero;
    __m512d acc1 = bias != nullptr ? _mm512_loadu_pd(bias + j + 8) : zero;
    size_t k = 0;
    for (; k + 4 <= k_dim; k += 4) {
      const double* b0 = b + k * b_stride;
      const double* b1 = b0 + b_stride;
      const double* b2 = b1 + b_stride;
      const double* b3 = b2 + b_stride;
      const __m512d va0 = _mm512_set1_pd(a[k]);
      const __m512d va1 = _mm512_set1_pd(a[k + 1]);
      const __m512d va2 = _mm512_set1_pd(a[k + 2]);
      const __m512d va3 = _mm512_set1_pd(a[k + 3]);
      acc0 = GemmBlock8(acc0, va0, va1, va2, va3, b0, b1, b2, b3, j);
      acc1 = GemmBlock8(acc1, va0, va1, va2, va3, b0, b1, b2, b3, j + 8);
    }
    for (; k < k_dim; ++k) {
      const double ak = a[k];
      if (ak == 0.0) {
        continue;
      }
      const __m512d vak = _mm512_set1_pd(ak);
      const double* brow = b + k * b_stride;
      acc0 = _mm512_add_pd(acc0, _mm512_mul_pd(vak, _mm512_loadu_pd(brow + j)));
      acc1 = _mm512_add_pd(acc1, _mm512_mul_pd(vak, _mm512_loadu_pd(brow + j + 8)));
    }
    _mm512_storeu_pd(out + j, acc0);
    _mm512_storeu_pd(out + j + 8, acc1);
  }
  // 8-wide tiles.
  for (; j + 8 <= m; j += 8) {
    __m512d acc = bias != nullptr ? _mm512_loadu_pd(bias + j) : zero;
    size_t k = 0;
    for (; k + 4 <= k_dim; k += 4) {
      const double* b0 = b + k * b_stride;
      acc = GemmBlock8(acc, _mm512_set1_pd(a[k]), _mm512_set1_pd(a[k + 1]),
                       _mm512_set1_pd(a[k + 2]), _mm512_set1_pd(a[k + 3]), b0,
                       b0 + b_stride, b0 + 2 * b_stride, b0 + 3 * b_stride, j);
    }
    for (; k < k_dim; ++k) {
      const double ak = a[k];
      if (ak == 0.0) {
        continue;
      }
      acc = _mm512_add_pd(
          acc, _mm512_mul_pd(_mm512_set1_pd(ak), _mm512_loadu_pd(b + k * b_stride + j)));
    }
    _mm512_storeu_pd(out + j, acc);
  }
  // Scalar tail, same expression tree.
  for (; j < m; ++j) {
    double s = bias != nullptr ? bias[j] : 0.0;
    size_t k = 0;
    for (; k + 4 <= k_dim; k += 4) {
      const double* b0 = b + k * b_stride;
      const double* b1 = b0 + b_stride;
      const double* b2 = b1 + b_stride;
      const double* b3 = b2 + b_stride;
      s += a[k] * b0[j] + a[k + 1] * b1[j] + a[k + 2] * b2[j] + a[k + 3] * b3[j];
    }
    for (; k < k_dim; ++k) {
      const double ak = a[k];
      if (ak == 0.0) {
        continue;
      }
      s += ak * (b + k * b_stride)[j];
    }
    out[j] = s;
  }
}

void Avx512AxpyDiff(double a, const double* x, const double* y, double* out, size_t n) {
  const __m512d va = _mm512_set1_pd(a);
  size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    __m512d d = _mm512_sub_pd(_mm512_loadu_pd(x + j), _mm512_loadu_pd(y + j));
    __m512d t = _mm512_mul_pd(va, d);
    _mm512_storeu_pd(out + j, _mm512_add_pd(_mm512_loadu_pd(out + j), t));
  }
  for (; j < n; ++j) {
    out[j] += a * (x[j] - y[j]);
  }
}

void Avx512Vadd(const double* x, double* y, size_t n) {
  size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    _mm512_storeu_pd(y + j,
                     _mm512_add_pd(_mm512_loadu_pd(y + j), _mm512_loadu_pd(x + j)));
  }
  for (; j < n; ++j) {
    y[j] += x[j];
  }
}

void Avx512Scal(double a, double* x, size_t n) {
  const __m512d va = _mm512_set1_pd(a);
  size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    _mm512_storeu_pd(x + j, _mm512_mul_pd(va, _mm512_loadu_pd(x + j)));
  }
  for (; j < n; ++j) {
    x[j] *= a;
  }
}

void Avx512Relu(double* x, size_t n) {
  const __m512d zero = _mm512_setzero_pd();
  size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    // max(0, x) with 0 as the first operand: NaN and -0.0 propagate exactly
    // like the portable `if (x < 0) x = 0`.
    _mm512_storeu_pd(x + j, _mm512_max_pd(zero, _mm512_loadu_pd(x + j)));
  }
  for (; j < n; ++j) {
    if (x[j] < 0.0) {
      x[j] = 0.0;
    }
  }
}

void Avx512AdamUpdate(double* value, double* grad, double* m, double* v, size_t n,
                      const AdamScalars& k) {
  const __m512d beta1 = _mm512_set1_pd(k.beta1);
  const __m512d beta2 = _mm512_set1_pd(k.beta2);
  const __m512d one_minus_beta1 = _mm512_set1_pd(1.0 - k.beta1);
  const __m512d one_minus_beta2 = _mm512_set1_pd(1.0 - k.beta2);
  const __m512d bias1 = _mm512_set1_pd(k.bias1);
  const __m512d bias2 = _mm512_set1_pd(k.bias2);
  const __m512d eps = _mm512_set1_pd(k.epsilon);
  const __m512d lr = _mm512_set1_pd(k.learning_rate);
  const __m512d wd = _mm512_set1_pd(k.weight_decay);
  const __m512d zero = _mm512_setzero_pd();
  const __m512d moment_floor = _mm512_set1_pd(kAdamMomentFloor);
  const bool use_wd = k.weight_decay > 0.0;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m512d g = _mm512_loadu_pd(grad + i);
    __m512d vm = _mm512_add_pd(_mm512_mul_pd(beta1, _mm512_loadu_pd(m + i)),
                               _mm512_mul_pd(one_minus_beta1, g));
    // (1 - beta2) * g * g is left-associative in the portable kernel.
    __m512d g2 = _mm512_mul_pd(_mm512_mul_pd(one_minus_beta2, g), g);
    __m512d vv = _mm512_add_pd(_mm512_mul_pd(beta2, _mm512_loadu_pd(v + i)), g2);
    // Keep m where !(|m| < floor), NaN included, else +0.0: the portable
    // predicate (NLT_UQ is true on unordered lanes; maskz writes +0.0).
    __mmask8 keep_m = _mm512_cmp_pd_mask(_mm512_abs_pd(vm), moment_floor, _CMP_NLT_UQ);
    vm = _mm512_maskz_mov_pd(keep_m, vm);
    vv = _mm512_maskz_mov_pd(_mm512_cmp_pd_mask(vv, moment_floor, _CMP_NLT_UQ), vv);
    _mm512_storeu_pd(m + i, vm);
    _mm512_storeu_pd(v + i, vv);
    __m512d m_hat = _mm512_div_pd(vm, bias1);
    __m512d v_hat = _mm512_div_pd(vv, bias2);
    __m512d update = _mm512_div_pd(m_hat, _mm512_add_pd(_mm512_sqrt_pd(v_hat), eps));
    __m512d val = _mm512_loadu_pd(value + i);
    if (use_wd) {
      update = _mm512_add_pd(update, _mm512_mul_pd(wd, val));
    }
    _mm512_storeu_pd(value + i, _mm512_sub_pd(val, _mm512_mul_pd(lr, update)));
    _mm512_storeu_pd(grad + i, zero);
  }
  // The remainder (fewer than 8 elements) runs the portable kernel itself:
  // same expression tree, same flush predicate, written once.
  if (i < n) {
    KernelsFor(KernelBackend::kPortable)
        .adam_update(value + i, grad + i, m + i, v + i, n - i, k);
  }
}

}  // namespace

// The AVX2 table with its elementwise kernels swapped for the 512-bit ones.
// CMake compiles this translation unit only where it also compiles the AVX2
// one, so the AVX2 table always exists here.
const KernelOps* Avx512KernelOps() {
  static const KernelOps table = [] {
    KernelOps ops = *Avx2KernelOps();
    ops.name = "avx512";
    ops.gemm_row = Avx512GemmRow;
    ops.axpy_diff = Avx512AxpyDiff;
    ops.vadd = Avx512Vadd;
    ops.scal = Avx512Scal;
    ops.relu = Avx512Relu;
    ops.adam_update = Avx512AdamUpdate;
    return ops;
  }();
  return &table;
}

}  // namespace wayfinder

#else  // !(WF_KERNELS_AVX512 && __AVX512F__ && __AVX2__)

namespace wayfinder {

const KernelOps* Avx512KernelOps() { return nullptr; }

}  // namespace wayfinder

#endif
