// AVX2 backend of the kernel dispatch layer (see kernels.h).
//
// This translation unit is the only one compiled with `-mavx2`; CMake adds
// the flag per-file (plus `-ffp-contract=off`) and defines WF_KERNELS_AVX2,
// so the base build stays portable and the compiler cannot contract the
// explicit mul/add intrinsics into FMAs. Every kernel evaluates the exact
// expression tree of its portable twin in kernels.cc — vector
// lanes are the 4-way strided accumulators, reduced as (l0 + l1) + (l2 + l3)
// — so AVX2 results are bit-identical to portable ones. Selection is still
// guarded by CPUID at runtime (kernels.cc), so a binary carrying this TU
// runs unchanged on pre-AVX2 hardware.
#include "src/nn/kernels.h"
#include "src/nn/kernels_internal.h"

#if defined(WF_KERNELS_AVX2) && defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>
#include <limits>

namespace wayfinder {
namespace {

inline double ReduceLanes(__m256d acc) {
  double lanes[4];
  _mm256_storeu_pd(lanes, acc);
  return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

// All-ones in lanes [0, valid), zero above: the filled lanes of a panel.
inline __m256d LaneMask(size_t valid) {
  const __m256i lane = _mm256_set_epi64x(3, 2, 1, 0);
  return _mm256_castsi256_pd(
      _mm256_cmpgt_epi64(_mm256_set1_epi64x(static_cast<long long>(valid)), lane));
}

// One k-block-of-4 contribution to a 4-wide j tile:
// acc += a0*b0 + a1*b1 + a2*b2 + a3*b3 with the four products summed first
// (the portable expression tree).
static inline __m256d GemmBlock(__m256d acc, __m256d va0, __m256d va1, __m256d va2,
                                __m256d va3, const double* b0, const double* b1,
                                const double* b2, const double* b3, size_t j) {
  __m256d t = _mm256_mul_pd(va0, _mm256_loadu_pd(b0 + j));
  t = _mm256_add_pd(t, _mm256_mul_pd(va1, _mm256_loadu_pd(b1 + j)));
  t = _mm256_add_pd(t, _mm256_mul_pd(va2, _mm256_loadu_pd(b2 + j)));
  t = _mm256_add_pd(t, _mm256_mul_pd(va3, _mm256_loadu_pd(b3 + j)));
  return _mm256_add_pd(acc, t);
}

void Avx2GemmRow(const double* a, size_t k_dim, const double* b, size_t b_stride,
                 const double* bias, double* out, size_t m) {
  const __m256d zero = _mm256_setzero_pd();
  size_t j = 0;
  // 16-wide j tiles: four accumulators live in registers across the entire
  // k loop — no out[] load/store per k-block.
  for (; j + 16 <= m; j += 16) {
    __m256d acc0 = bias != nullptr ? _mm256_loadu_pd(bias + j) : zero;
    __m256d acc1 = bias != nullptr ? _mm256_loadu_pd(bias + j + 4) : zero;
    __m256d acc2 = bias != nullptr ? _mm256_loadu_pd(bias + j + 8) : zero;
    __m256d acc3 = bias != nullptr ? _mm256_loadu_pd(bias + j + 12) : zero;
    size_t k = 0;
    for (; k + 4 <= k_dim; k += 4) {
      const double* b0 = b + k * b_stride;
      const double* b1 = b0 + b_stride;
      const double* b2 = b1 + b_stride;
      const double* b3 = b2 + b_stride;
      const __m256d va0 = _mm256_set1_pd(a[k]);
      const __m256d va1 = _mm256_set1_pd(a[k + 1]);
      const __m256d va2 = _mm256_set1_pd(a[k + 2]);
      const __m256d va3 = _mm256_set1_pd(a[k + 3]);
      acc0 = GemmBlock(acc0, va0, va1, va2, va3, b0, b1, b2, b3, j);
      acc1 = GemmBlock(acc1, va0, va1, va2, va3, b0, b1, b2, b3, j + 4);
      acc2 = GemmBlock(acc2, va0, va1, va2, va3, b0, b1, b2, b3, j + 8);
      acc3 = GemmBlock(acc3, va0, va1, va2, va3, b0, b1, b2, b3, j + 12);
    }
    for (; k < k_dim; ++k) {
      const double ak = a[k];
      if (ak == 0.0) {
        continue;
      }
      const __m256d vak = _mm256_set1_pd(ak);
      const double* brow = b + k * b_stride;
      acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(vak, _mm256_loadu_pd(brow + j)));
      acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(vak, _mm256_loadu_pd(brow + j + 4)));
      acc2 = _mm256_add_pd(acc2, _mm256_mul_pd(vak, _mm256_loadu_pd(brow + j + 8)));
      acc3 = _mm256_add_pd(acc3, _mm256_mul_pd(vak, _mm256_loadu_pd(brow + j + 12)));
    }
    _mm256_storeu_pd(out + j, acc0);
    _mm256_storeu_pd(out + j + 4, acc1);
    _mm256_storeu_pd(out + j + 8, acc2);
    _mm256_storeu_pd(out + j + 12, acc3);
  }
  // 4-wide tiles.
  for (; j + 4 <= m; j += 4) {
    __m256d acc = bias != nullptr ? _mm256_loadu_pd(bias + j) : zero;
    size_t k = 0;
    for (; k + 4 <= k_dim; k += 4) {
      const double* b0 = b + k * b_stride;
      acc = GemmBlock(acc, _mm256_set1_pd(a[k]), _mm256_set1_pd(a[k + 1]),
                      _mm256_set1_pd(a[k + 2]), _mm256_set1_pd(a[k + 3]), b0,
                      b0 + b_stride, b0 + 2 * b_stride, b0 + 3 * b_stride, j);
    }
    for (; k < k_dim; ++k) {
      const double ak = a[k];
      if (ak == 0.0) {
        continue;
      }
      acc = _mm256_add_pd(
          acc, _mm256_mul_pd(_mm256_set1_pd(ak), _mm256_loadu_pd(b + k * b_stride + j)));
    }
    _mm256_storeu_pd(out + j, acc);
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

// One 4*T-wide j tile of axpy_rows: the tile of y stays in T registers while
// every listed batch row is added in ascending order. Eight tiles keep eight
// independent add chains in flight, enough to cover the add latency.
template <size_t T>
inline void AxpyRowsTile(const size_t* rows, const double* coefs, size_t count,
                         const double* x, size_t x_stride, double* y) {
  __m256d acc[T];
  for (size_t t = 0; t < T; ++t) {
    acc[t] = _mm256_loadu_pd(y + 4 * t);
  }
  for (size_t i = 0; i < count; ++i) {
    const __m256d va = _mm256_set1_pd(coefs[i]);
    const double* xrow = x + rows[i] * x_stride;
    for (size_t t = 0; t < T; ++t) {
      acc[t] = _mm256_add_pd(acc[t], _mm256_mul_pd(va, _mm256_loadu_pd(xrow + 4 * t)));
    }
  }
  for (size_t t = 0; t < T; ++t) {
    _mm256_storeu_pd(y + 4 * t, acc[t]);
  }
}

void Avx2AxpyRows(const double* a, size_t a_stride, const double* x, size_t x_stride,
                  size_t rows, double* y, size_t n) {
  size_t nz_rows[kAxpyRowsChunk];
  double nz_coefs[kAxpyRowsChunk];
  for (size_t r0 = 0; r0 < rows; r0 += kAxpyRowsChunk) {
    const size_t r1 = std::min(rows, r0 + kAxpyRowsChunk);
    const size_t count = ListNonZeroRows(a, a_stride, r0, r1, nz_rows, nz_coefs);
    size_t j = 0;
    for (; j + 32 <= n; j += 32) {
      AxpyRowsTile<8>(nz_rows, nz_coefs, count, x + j, x_stride, y + j);
    }
    for (; j + 16 <= n; j += 16) {
      AxpyRowsTile<4>(nz_rows, nz_coefs, count, x + j, x_stride, y + j);
    }
    for (; j + 4 <= n; j += 4) {
      AxpyRowsTile<1>(nz_rows, nz_coefs, count, x + j, x_stride, y + j);
    }
    for (; j < n; ++j) {
      double s = y[j];
      for (size_t i = 0; i < count; ++i) {
        s += nz_coefs[i] * x[nz_rows[i] * x_stride + j];
      }
      y[j] = s;
    }
  }
}

void Avx2AxpyDiff(double a, const double* x, const double* y, double* out, size_t n) {
  const __m256d va = _mm256_set1_pd(a);
  size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    __m256d d = _mm256_sub_pd(_mm256_loadu_pd(x + j), _mm256_loadu_pd(y + j));
    __m256d t = _mm256_mul_pd(va, d);
    _mm256_storeu_pd(out + j, _mm256_add_pd(_mm256_loadu_pd(out + j), t));
  }
  for (; j < n; ++j) {
    out[j] += a * (x[j] - y[j]);
  }
}

void Avx2Vadd(const double* x, double* y, size_t n) {
  size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    _mm256_storeu_pd(y + j, _mm256_add_pd(_mm256_loadu_pd(y + j), _mm256_loadu_pd(x + j)));
  }
  for (; j < n; ++j) {
    y[j] += x[j];
  }
}

// The per-k term of the row reductions: a * b for dot_rows, (a - b)^2 for
// sqdist_rows (the portable operand order, so NaN payloads match too).
template <bool kSqDist>
inline __m256d RowTerm(__m256d a, __m256d b) {
  if (kSqDist) {
    const __m256d d = _mm256_sub_pd(a, b);
    return _mm256_mul_pd(d, d);
  }
  return _mm256_mul_pd(a, b);
}

template <bool kSqDist>
inline double RowTerm(double a, double b) {
  if (kSqDist) {
    const double d = a - b;
    return d * d;
  }
  return a * b;
}

// One row's 4-lane strided sum, reduced as (l0 + l1) + (l2 + l3), remainder
// appended serially: the tree of one portable dot / sqdist call.
template <bool kSqDist>
double RowReduce(const double* a, const double* b, size_t n) {
  __m256d acc = _mm256_setzero_pd();
  size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    acc = _mm256_add_pd(acc, RowTerm<kSqDist>(_mm256_loadu_pd(a + k), _mm256_loadu_pd(b + k)));
  }
  double sum = ReduceLanes(acc);
  for (; k < n; ++k) {
    sum += RowTerm<kSqDist>(a[k], b[k]);
  }
  return sum;
}

// Four rows' lane accumulators reduced at once: lane j of the result is
// (r_j[0] + r_j[1]) + (r_j[2] + r_j[3]), each add in ReduceLanes' order.
inline __m256d ReduceLanes4x4(__m256d r0, __m256d r1, __m256d r2, __m256d r3) {
  const __m256d p01 = _mm256_add_pd(_mm256_unpacklo_pd(r0, r1), _mm256_unpackhi_pd(r0, r1));
  const __m256d p23 = _mm256_add_pd(_mm256_unpacklo_pd(r2, r3), _mm256_unpackhi_pd(r2, r3));
  return _mm256_add_pd(_mm256_permute2f128_pd(p01, p23, 0x20),
                       _mm256_permute2f128_pd(p01, p23, 0x31));
}

// R rows (a multiple of 4) of b against one a: R lane accumulators share each
// load of a, then every group of four is reduced together and its serial
// remainder runs with one row per vector lane.
template <bool kSqDist, size_t R>
void RowBlock(const double* a, const double* b, size_t b_stride, size_t n, double* out) {
  __m256d acc[R];
  for (size_t r = 0; r < R; ++r) {
    acc[r] = _mm256_setzero_pd();
  }
  size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    const __m256d va = _mm256_loadu_pd(a + k);
    for (size_t r = 0; r < R; ++r) {
      acc[r] = _mm256_add_pd(acc[r],
                             RowTerm<kSqDist>(va, _mm256_loadu_pd(b + r * b_stride + k)));
    }
  }
  for (size_t g = 0; g < R; g += 4) {
    __m256d sum = ReduceLanes4x4(acc[g], acc[g + 1], acc[g + 2], acc[g + 3]);
    const double* bg = b + g * b_stride;
    for (size_t kr = k; kr < n; ++kr) {
      const __m256d vb = _mm256_set_pd(bg[3 * b_stride + kr], bg[2 * b_stride + kr],
                                       bg[b_stride + kr], bg[kr]);
      sum = _mm256_add_pd(sum, RowTerm<kSqDist>(_mm256_set1_pd(a[kr]), vb));
    }
    _mm256_storeu_pd(out + g, sum);
  }
}

template <bool kSqDist>
void Avx2RowReductions(const double* a, const double* b, size_t b_stride, size_t n,
                       double* out, size_t m) {
  size_t j = 0;
  for (; j + 8 <= m; j += 8) {
    RowBlock<kSqDist, 8>(a, b + j * b_stride, b_stride, n, out + j);
  }
  for (; j + 4 <= m; j += 4) {
    RowBlock<kSqDist, 4>(a, b + j * b_stride, b_stride, n, out + j);
  }
  for (; j < m; ++j) {
    out[j] = RowReduce<kSqDist>(a, b + j * b_stride, n);
  }
}

// P panels of history rows side by side, one row per vector lane: each lane
// runs SqDist's textbook chain (sum += d * d, k ascending) for its own row.
// _mm256_min_pd(sum, best) keeps best unless sum < best — std::min(best,
// sum) — so NaN and +inf never win, and lanes at or past `rows` are forced
// to DBL_MAX before they meet the minimum.
template <size_t P>
__m256d PanelBlock(const double* x, const double* panels, size_t dim, size_t first_row,
                   size_t rows, __m256d best) {
  const size_t panel_size = dim * kPanelLanes;
  __m256d acc[P];
  for (size_t p = 0; p < P; ++p) {
    acc[p] = _mm256_setzero_pd();
  }
  for (size_t k = 0; k < dim; ++k) {
    const __m256d vx = _mm256_set1_pd(x[k]);
    const double* h = panels + k * kPanelLanes;
    for (size_t p = 0; p < P; ++p) {
      const __m256d d = _mm256_sub_pd(vx, _mm256_loadu_pd(h + p * panel_size));
      acc[p] = _mm256_add_pd(acc[p], _mm256_mul_pd(d, d));
    }
  }
  const __m256d dbl_max = _mm256_set1_pd(std::numeric_limits<double>::max());
  for (size_t p = 0; p < P; ++p) {
    const size_t row0 = first_row + p * kPanelLanes;
    if (row0 + kPanelLanes > rows) {
      acc[p] = _mm256_blendv_pd(dbl_max, acc[p], LaneMask(rows - row0));
    }
    best = _mm256_min_pd(acc[p], best);
  }
  return best;
}

// Four panels (16 rows) in flight keep four independent add chains busy.
double Avx2PanelNearest(const double* x, const double* panels, size_t dim, size_t rows) {
  const size_t panel_count = (rows + kPanelLanes - 1) / kPanelLanes;
  __m256d best = _mm256_set1_pd(std::numeric_limits<double>::max());
  size_t p = 0;
  for (; p + 4 <= panel_count; p += 4) {
    best = PanelBlock<4>(x, panels + p * dim * kPanelLanes, dim, p * kPanelLanes, rows, best);
  }
  for (; p < panel_count; ++p) {
    best = PanelBlock<1>(x, panels + p * dim * kPanelLanes, dim, p * kPanelLanes, rows, best);
  }
  double lanes[4];
  _mm256_storeu_pd(lanes, best);
  double nearest = std::numeric_limits<double>::max();
  for (double lane : lanes) {
    nearest = std::min(nearest, lane);
  }
  return nearest;
}

double Avx2SqNorm(const double* x, size_t n) {
  __m256d acc = _mm256_setzero_pd();
  size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    __m256d v = _mm256_loadu_pd(x + k);
    acc = _mm256_add_pd(acc, _mm256_mul_pd(v, v));
  }
  double sum = ReduceLanes(acc);
  for (; k < n; ++k) {
    sum += x[k] * x[k];
  }
  return sum;
}

void Avx2Scal(double a, double* x, size_t n) {
  const __m256d va = _mm256_set1_pd(a);
  size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    _mm256_storeu_pd(x + j, _mm256_mul_pd(va, _mm256_loadu_pd(x + j)));
  }
  for (; j < n; ++j) {
    x[j] *= a;
  }
}

void Avx2Relu(double* x, size_t n) {
  const __m256d zero = _mm256_setzero_pd();
  size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    // max(0, x) with 0 as the first operand: NaN and -0.0 propagate exactly
    // like the portable `if (x < 0) x = 0`.
    _mm256_storeu_pd(x + j, _mm256_max_pd(zero, _mm256_loadu_pd(x + j)));
  }
  for (; j < n; ++j) {
    if (x[j] < 0.0) {
      x[j] = 0.0;
    }
  }
}

void Avx2AdamUpdate(double* value, double* grad, double* m, double* v, size_t n,
                    const AdamScalars& k) {
  const __m256d beta1 = _mm256_set1_pd(k.beta1);
  const __m256d beta2 = _mm256_set1_pd(k.beta2);
  const __m256d one_minus_beta1 = _mm256_set1_pd(1.0 - k.beta1);
  const __m256d one_minus_beta2 = _mm256_set1_pd(1.0 - k.beta2);
  const __m256d bias1 = _mm256_set1_pd(k.bias1);
  const __m256d bias2 = _mm256_set1_pd(k.bias2);
  const __m256d eps = _mm256_set1_pd(k.epsilon);
  const __m256d lr = _mm256_set1_pd(k.learning_rate);
  const __m256d wd = _mm256_set1_pd(k.weight_decay);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d moment_floor = _mm256_set1_pd(kAdamMomentFloor);
  const __m256d sign_bit = _mm256_set1_pd(-0.0);
  const bool use_wd = k.weight_decay > 0.0;
  const bool unit_bias1 = k.bias1 == 1.0;  // The portable kernel's shortcut.
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d g = _mm256_loadu_pd(grad + i);
    __m256d vm = _mm256_add_pd(_mm256_mul_pd(beta1, _mm256_loadu_pd(m + i)),
                               _mm256_mul_pd(one_minus_beta1, g));
    // (1 - beta2) * g * g is left-associative in the portable kernel.
    __m256d g2 = _mm256_mul_pd(_mm256_mul_pd(one_minus_beta2, g), g);
    __m256d vv = _mm256_add_pd(_mm256_mul_pd(beta2, _mm256_loadu_pd(v + i)), g2);
    // Keep m where !(|m| < floor), NaN included, else +0.0: the portable
    // predicate. NLT_UQ is true on unordered lanes, and AND with an all-zero
    // mask yields +0.0 (so -0.0 flushes to +0.0 as well).
    __m256d abs_m = _mm256_andnot_pd(sign_bit, vm);
    vm = _mm256_and_pd(vm, _mm256_cmp_pd(abs_m, moment_floor, _CMP_NLT_UQ));
    vv = _mm256_and_pd(vv, _mm256_cmp_pd(vv, moment_floor, _CMP_NLT_UQ));
    _mm256_storeu_pd(m + i, vm);
    _mm256_storeu_pd(v + i, vv);
    __m256d m_hat = unit_bias1 ? vm : _mm256_div_pd(vm, bias1);
    __m256d v_hat = _mm256_div_pd(vv, bias2);
    __m256d update = _mm256_div_pd(m_hat, _mm256_add_pd(_mm256_sqrt_pd(v_hat), eps));
    __m256d val = _mm256_loadu_pd(value + i);
    if (use_wd) {
      update = _mm256_add_pd(update, _mm256_mul_pd(wd, val));
    }
    _mm256_storeu_pd(value + i, _mm256_sub_pd(val, _mm256_mul_pd(lr, update)));
    _mm256_storeu_pd(grad + i, zero);
  }
  // The remainder (fewer than 4 elements) runs the portable kernel itself:
  // same expression tree, same flush predicate, written once.
  if (i < n) {
    KernelsFor(KernelBackend::kPortable)
        .adam_update(value + i, grad + i, m + i, v + i, n - i, k);
  }
}

constexpr KernelOps kAvx2Ops = {
    "avx2",     Avx2GemmRow, Avx2AxpyRows, Avx2AxpyDiff, Avx2Vadd, Avx2RowReductions<false>,
    Avx2RowReductions<true>, Avx2PanelNearest, Avx2SqNorm, Avx2Scal, Avx2Relu,
    Avx2AdamUpdate,
};

}  // namespace

const KernelOps* Avx2KernelOps() { return &kAvx2Ops; }

}  // namespace wayfinder

#else  // !(WF_KERNELS_AVX2 && __AVX2__)

namespace wayfinder {

const KernelOps* Avx2KernelOps() { return nullptr; }

}  // namespace wayfinder

#endif
