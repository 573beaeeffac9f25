// Tests for the runtime-dispatched SIMD kernel backend (src/nn/kernels.h):
// the WF_KERNELS override, primitive-level and matrix-level equivalence
// between the portable and AVX2 backends, the row-blocked kernels against the
// per-call loops they replaced (every tile and remainder, special values), the
// Adam moment floor's edge
// cases, bit-identical threaded Adam, a weight pin past the subnormal onset,
// and the end-to-end invariant the design buys — a fixed-seed DeepTune search
// trajectory is unchanged by the backend choice.
//
// The backends are built to be *bit-identical* (same expression trees, same
// lane-structured reductions, FMA contraction off), so these tests assert
// exact equality — stronger than the 1e-12 the design requires. On hardware
// without AVX2 the avx2 table falls back to portable and everything here
// passes trivially.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "src/configspace/linux_space.h"
#include "src/core/deeptune.h"
#include "src/core/dtm.h"
#include "src/core/dtm_trunk.h"
#include "src/nn/kernels.h"
#include "src/nn/layers.h"
#include "src/nn/matrix.h"
#include "src/nn/optimizer.h"
#include "src/platform/session.h"
#include "src/simos/testbench.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace wayfinder {
namespace {

std::vector<double> RandomArray(Rng& rng, size_t n) {
  std::vector<double> v(n);
  for (double& x : v) {
    x = rng.Normal();
  }
  return v;
}

Matrix RandomMatrix(Rng& rng, size_t rows, size_t cols) {
  Matrix m(rows, cols);
  for (double& v : m.data()) {
    v = rng.Normal();
  }
  return m;
}

TEST(KernelBackend, DispatchResolvesToARealBackend) {
  KernelBackend backend = DefaultKernelBackend();
  EXPECT_TRUE(backend == KernelBackend::kPortable || backend == KernelBackend::kAvx2);
  EXPECT_STREQ(KernelsFor(KernelBackend::kPortable).name, "portable");
  if (KernelBackendAvailable(KernelBackend::kAvx2)) {
    EXPECT_STREQ(KernelsFor(KernelBackend::kAvx2).name, "avx2");
  } else {
    // Unavailable backends fall back to portable instead of crashing.
    EXPECT_STREQ(KernelsFor(KernelBackend::kAvx2).name, "portable");
  }
}

// The WF_KERNELS override: `portable` and `avx2` pick their table (avx2
// coerced to portable where it is unavailable); anything else, including the
// retired `avx512`, is ignored in favour of CPUID, so a stale value in a
// user's environment degrades instead of breaking the run.
TEST(KernelBackend, EnvOverrideResolvesOrFallsBackToCpuid) {
  const KernelBackend cpuid = KernelBackendAvailable(KernelBackend::kAvx2)
                                  ? KernelBackend::kAvx2
                                  : KernelBackend::kPortable;
  const KernelBackend saved_default = DefaultKernelBackend();
  const char* saved_env = std::getenv("WF_KERNELS");
  const std::string saved_value = saved_env != nullptr ? saved_env : "";

  const struct {
    const char* value;
    KernelBackend want;
  } cases[] = {
      {"portable", KernelBackend::kPortable},
      {"avx2", cpuid},
      {"avx512", cpuid},
      {"sse9", cpuid},
  };
  for (const auto& c : cases) {
    ASSERT_EQ(setenv("WF_KERNELS", c.value, 1), 0);
    SetDefaultKernelBackend(KernelBackend::kAuto);
    EXPECT_EQ(DefaultKernelBackend(), c.want) << "WF_KERNELS=" << c.value;
    EXPECT_STREQ(DefaultKernels().name, KernelBackendName(c.want)) << "WF_KERNELS=" << c.value;
  }

  if (saved_env != nullptr) {
    setenv("WF_KERNELS", saved_value.c_str(), 1);
  } else {
    unsetenv("WF_KERNELS");
  }
  SetDefaultKernelBackend(saved_default);
}

// Every primitive of every SIMD backend, at sizes that exercise the wide
// main loops and every remainder lane. On hardware without the instruction
// set, the table falls back and the comparison passes trivially.
class KernelBackendPrimitives : public ::testing::TestWithParam<KernelBackend> {};

TEST_P(KernelBackendPrimitives, MatchPortableBitwise) {
  const KernelOps& portable = KernelsFor(KernelBackend::kPortable);
  const KernelOps& simd = KernelsFor(GetParam());
  Rng rng(71);
  for (size_t n : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 16u, 33u, 67u}) {
    std::vector<double> a = RandomArray(rng, n);
    std::vector<double> b = RandomArray(rng, n);

    // dot, sqdist and axpy as the one-row case of their row-blocked forms.
    double out_p = 0.0, out_s = 0.0;
    portable.dot_rows(a.data(), b.data(), n, n, &out_p, 1);
    simd.dot_rows(a.data(), b.data(), n, n, &out_s, 1);
    EXPECT_EQ(out_p, out_s) << n;
    portable.sqdist_rows(a.data(), b.data(), n, n, &out_p, 1);
    simd.sqdist_rows(a.data(), b.data(), n, n, &out_s, 1);
    EXPECT_EQ(out_p, out_s) << n;
    EXPECT_EQ(portable.sqnorm(a.data(), n), simd.sqnorm(a.data(), n)) << n;

    std::vector<double> y1 = b, y2 = b;
    const double coef = 1.7;
    portable.axpy_rows(&coef, 1, a.data(), n, 1, y1.data(), n);
    simd.axpy_rows(&coef, 1, a.data(), n, 1, y2.data(), n);
    EXPECT_EQ(y1, y2) << "axpy n=" << n;

    y1 = b;
    y2 = b;
    portable.axpy_diff(-0.9, a.data(), b.data(), y1.data(), n);
    simd.axpy_diff(-0.9, a.data(), b.data(), y2.data(), n);
    EXPECT_EQ(y1, y2) << "axpy_diff n=" << n;

    y1 = b;
    y2 = b;
    portable.vadd(a.data(), y1.data(), n);
    simd.vadd(a.data(), y2.data(), n);
    EXPECT_EQ(y1, y2) << "vadd n=" << n;

    y1 = a;
    y2 = a;
    portable.scal(0.37, y1.data(), n);
    simd.scal(0.37, y2.data(), n);
    EXPECT_EQ(y1, y2) << "scal n=" << n;

    y1 = a;
    y2 = a;
    portable.relu(y1.data(), n);
    simd.relu(y2.data(), n);
    EXPECT_EQ(y1, y2) << "relu n=" << n;

    // gemm_row across k remainders (including a zero a[k] to hit the skip)
    // and every j tile width (16-wide, 4-wide, scalar tail).
    for (size_t k_dim : {1u, 4u, 6u, 9u}) {
      std::vector<double> arow = RandomArray(rng, k_dim);
      if (k_dim > 4) {
        arow[k_dim - 1] = 0.0;  // Remainder-k zero skip.
      }
      std::vector<double> bmat = RandomArray(rng, k_dim * n);
      std::vector<double> bias = RandomArray(rng, n);
      std::vector<double> o1(n), o2(n);
      portable.gemm_row(arow.data(), k_dim, bmat.data(), n, bias.data(), o1.data(), n);
      simd.gemm_row(arow.data(), k_dim, bmat.data(), n, bias.data(), o2.data(), n);
      EXPECT_EQ(o1, o2) << "gemm_row k=" << k_dim << " m=" << n;
      portable.gemm_row(arow.data(), k_dim, bmat.data(), n, nullptr, o1.data(), n);
      simd.gemm_row(arow.data(), k_dim, bmat.data(), n, nullptr, o2.data(), n);
      EXPECT_EQ(o1, o2) << "gemm_row nobias k=" << k_dim << " m=" << n;
    }

    AdamScalars scalars;
    scalars.bias1 = 0.19;
    scalars.bias2 = 0.002;
    scalars.weight_decay = 1e-5;
    std::vector<double> v1 = RandomArray(rng, n);
    std::vector<double> g = RandomArray(rng, n);
    std::vector<double> m = RandomArray(rng, n);
    std::vector<double> vv = a;
    for (double& x : vv) {
      x = std::abs(x);  // Second moments are non-negative.
    }
    std::vector<double> v2 = v1, g2 = g, m2 = m, vv2 = vv;
    portable.adam_update(v1.data(), g.data(), m.data(), vv.data(), n, scalars);
    simd.adam_update(v2.data(), g2.data(), m2.data(), vv2.data(), n, scalars);
    EXPECT_EQ(v1, v2) << "adam value n=" << n;
    EXPECT_EQ(m, m2) << "adam m n=" << n;
    EXPECT_EQ(vv, vv2) << "adam v n=" << n;
    for (double x : g2) {
      EXPECT_EQ(x, 0.0);  // Gradients zeroed by the update.
    }
  }
}

uint64_t Bits(double x) {
  uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

// The moment floor (kAdamMomentFloor) at its edges: moments that land just
// above and just below it, subnormal and signed-zero moments, NaN moments
// and gradients, each with zero and non-zero gradients, spread over every
// vector lane and the scalar remainder.
TEST_P(KernelBackendPrimitives, AdamFlushesAgedMoments) {
  const KernelOps& portable = KernelsFor(KernelBackend::kPortable);
  const KernelOps& simd = KernelsFor(GetParam());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double moment_floor = kAdamMomentFloor;
  AdamScalars scalars;
  scalars.bias1 = 0.19;
  scalars.bias2 = 0.002;
  scalars.weight_decay = 1e-5;
  // With a zero gradient the new moments are beta * old, so dividing by
  // beta puts them on either side of the floor.
  const double m_above = moment_floor * (1.0 + 1e-9) / scalars.beta1;
  const double m_below = moment_floor * (1.0 - 1e-9) / scalars.beta1;
  const double v_above = moment_floor * (1.0 + 1e-9) / scalars.beta2;
  const double v_below = moment_floor * (1.0 - 1e-9) / scalars.beta2;
  const std::vector<double> m_cases = {m_above, -m_above, m_below, -m_below, 1e-310,
                                       -1e-310, 0.0,     -0.0,     nan,      0.25};
  const std::vector<double> v_cases = {v_above, v_below, 1e-310, 0.0, -0.0, nan, 0.5};
  const std::vector<double> g_cases = {0.0, -0.0, 0.3, 1e-300, nan};
  std::vector<double> m0, v0, g0;
  for (double m : m_cases) {
    for (double v : v_cases) {
      for (double g : g_cases) {
        m0.push_back(m);
        v0.push_back(v);
        g0.push_back(g);
      }
    }
  }
  Rng rng(79);
  const std::vector<double> w0 = RandomArray(rng, m0.size());
  // Full length, then lengths that end in each remainder width.
  for (size_t n : {m0.size(), m0.size() - 1, m0.size() - 3, m0.size() - 7}) {
    std::vector<double> w1 = w0, g1 = g0, m1 = m0, v1 = v0;
    std::vector<double> w2 = w0, g2 = g0, m2 = m0, v2 = v0;
    portable.adam_update(w1.data(), g1.data(), m1.data(), v1.data(), n, scalars);
    simd.adam_update(w2.data(), g2.data(), m2.data(), v2.data(), n, scalars);
    for (size_t i = 0; i < m0.size(); ++i) {
      // Bitwise, so NaN payloads and signed zeros must agree too.
      ASSERT_EQ(Bits(w1[i]), Bits(w2[i])) << "value n=" << n << " i=" << i;
      ASSERT_EQ(Bits(g1[i]), Bits(g2[i])) << "grad n=" << n << " i=" << i;
      ASSERT_EQ(Bits(m1[i]), Bits(m2[i])) << "m n=" << n << " i=" << i;
      ASSERT_EQ(Bits(v1[i]), Bits(v2[i])) << "v n=" << n << " i=" << i;
      if (i >= n) {
        continue;  // Past the block: untouched.
      }
      EXPECT_NE(std::fpclassify(m2[i]), FP_SUBNORMAL) << "m n=" << n << " i=" << i;
      EXPECT_NE(std::fpclassify(v2[i]), FP_SUBNORMAL) << "v n=" << n << " i=" << i;
      // NaN in a moment or gradient stays NaN in that moment and the weight.
      if (std::isnan(m0[i]) || std::isnan(g0[i])) {
        EXPECT_TRUE(std::isnan(m2[i]) && std::isnan(w2[i])) << i;
      }
      if (std::isnan(v0[i]) || std::isnan(g0[i])) {
        EXPECT_TRUE(std::isnan(v2[i]) && std::isnan(w2[i])) << i;
      }
      if (g0[i] == 0.0) {
        // Zero gradient: the floor alone decides. Flushed moments are +0.0.
        if (std::fabs(m0[i]) == m_above) {
          EXPECT_EQ(m2[i], scalars.beta1 * m0[i]) << i;
        } else if (!std::isnan(m0[i]) && std::fabs(m0[i]) < 1e-200) {
          EXPECT_EQ(Bits(m2[i]), Bits(0.0)) << i;
        }
        if (v0[i] == v_above) {
          EXPECT_EQ(v2[i], scalars.beta2 * v0[i]) << i;
        } else if (!std::isnan(v0[i]) && v0[i] < 1e-200) {
          EXPECT_EQ(Bits(v2[i]), Bits(0.0)) << i;
        }
      }
    }
  }
}

// The general Adam path, always dividing by bias1: the expression tree every
// backend's adam_update evaluates, written without the bias1 == 1 shortcut.
void RefAdamAlwaysDivides(double* value, double* grad, double* m, double* v, size_t n,
                          const AdamScalars& k) {
  for (size_t i = 0; i < n; ++i) {
    double mi = k.beta1 * m[i] + (1.0 - k.beta1) * grad[i];
    double vi = k.beta2 * v[i] + (1.0 - k.beta2) * grad[i] * grad[i];
    if (std::fabs(mi) < kAdamMomentFloor) {
      mi = 0.0;
    }
    if (vi < kAdamMomentFloor) {
      vi = 0.0;
    }
    m[i] = mi;
    v[i] = vi;
    double update = (mi / k.bias1) / (std::sqrt(vi / k.bias2) + k.epsilon);
    if (k.weight_decay > 0.0) {
      update += k.weight_decay * value[i];
    }
    value[i] -= k.learning_rate * update;
    grad[i] = 0.0;
  }
}

// Once 1 - beta1^t rounds to 1.0 the kernels skip m / bias1. x / 1.0 == x
// for every x, so the shortcut must match the dividing path bit for bit —
// signed zeros, infinities, NaN and moments on either side of the floor.
TEST(KernelBackend, AdamUnitBias1ShortcutMatchesDividingPathBitwise) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  AdamScalars scalars;
  scalars.bias1 = 1.0 - std::pow(scalars.beta1, 400.0);
  ASSERT_EQ(scalars.bias1, 1.0);
  scalars.bias2 = 1.0 - std::pow(scalars.beta2, 400.0);
  scalars.weight_decay = 1e-5;
  const double m_edge = kAdamMomentFloor / scalars.beta1;
  const std::vector<double> m_cases = {0.0,          -0.0,   inf,         -inf,  nan,
                                       m_edge * (1 + 1e-9), -m_edge * (1 - 1e-9),
                                       1e-310,       0.25,   -3.5};
  const std::vector<double> v_cases = {0.0, -0.0, inf, nan, kAdamMomentFloor / scalars.beta2,
                                       1e-310, 0.5};
  const std::vector<double> g_cases = {0.0, -0.0, 0.3, -1e-300, inf, nan};
  std::vector<double> m0, v0, g0;
  for (double m : m_cases) {
    for (double v : v_cases) {
      for (double g : g_cases) {
        m0.push_back(m);
        v0.push_back(v);
        g0.push_back(g);
      }
    }
  }
  Rng rng(83);
  const std::vector<double> w0 = RandomArray(rng, m0.size());
  std::vector<double> wr = w0, gr = g0, mr = m0, vr = v0;
  RefAdamAlwaysDivides(wr.data(), gr.data(), mr.data(), vr.data(), m0.size(), scalars);
  for (KernelBackend backend : {KernelBackend::kPortable, KernelBackend::kAvx2}) {
    const KernelOps& ops = KernelsFor(backend);
    std::vector<double> w = w0, g = g0, m = m0, v = v0;
    ops.adam_update(w.data(), g.data(), m.data(), v.data(), m0.size(), scalars);
    for (size_t i = 0; i < m0.size(); ++i) {
      ASSERT_EQ(Bits(w[i]), Bits(wr[i])) << ops.name << " value i=" << i;
      ASSERT_EQ(Bits(g[i]), Bits(gr[i])) << ops.name << " grad i=" << i;
      ASSERT_EQ(Bits(m[i]), Bits(mr[i])) << ops.name << " m i=" << i;
      ASSERT_EQ(Bits(v[i]), Bits(vr[i])) << ops.name << " v i=" << i;
    }
  }
}

// --- row-blocked kernels against the per-call loops they replace ----------
//
// Each reference below is the scalar loop of one-output kernel calls that the
// row-blocked kernel replaced. Every backend (portable included) must match
// it bit for bit, signed zeros included; NaN matches NaN of any payload.

bool SameBits(double a, double b) {
  return (std::isnan(a) && std::isnan(b)) || Bits(a) == Bits(b);
}

// Mostly normal values, with zeros of both signs, infinities, NaN and
// subnormals mixed in at a rate that leaves most outputs finite.
std::vector<double> SpecialArray(Rng& rng, size_t n) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double specials[] = {0.0, -0.0, inf, -inf, nan, 1e-310, -3e-320, 2e-308};
  std::vector<double> v(n);
  for (double& x : v) {
    const int64_t pick = rng.UniformInt(0, 63);
    x = pick < 8 ? specials[pick] : rng.Normal();
  }
  return v;
}

// One dot / sqdist call: 4-lane strided sums, (l0 + l1) + (l2 + l3), serial
// remainder.
double RefLaneSum(const double* a, const double* b, size_t n, bool sqdist) {
  auto term = [sqdist](double x, double y) {
    if (sqdist) {
      double d = x - y;
      return d * d;
    }
    return x * y;
  };
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    s0 += term(a[k], b[k]);
    s1 += term(a[k + 1], b[k + 1]);
    s2 += term(a[k + 2], b[k + 2]);
    s3 += term(a[k + 3], b[k + 3]);
  }
  double sum = (s0 + s1) + (s2 + s3);
  for (; k < n; ++k) {
    sum += term(a[k], b[k]);
  }
  return sum;
}

const size_t kRowCounts[] = {0, 1, 3, 4, 15, 16, 17, 64, 65};

TEST_P(KernelBackendPrimitives, RowReductionsMatchPerCallLoop) {
  Rng rng(83);
  for (const KernelOps* ops : {&KernelsFor(KernelBackend::kPortable), &KernelsFor(GetParam())}) {
    for (size_t n : {0u, 1u, 2u, 3u, 4u, 5u, 8u, 33u, 263u}) {
      for (size_t m : kRowCounts) {
        for (bool special : {false, true}) {
          std::vector<double> a = special ? SpecialArray(rng, n) : RandomArray(rng, n);
          // Stride n + 2: rows of b are not packed.
          const size_t stride = n + 2;
          std::vector<double> b =
              special ? SpecialArray(rng, m * stride) : RandomArray(rng, m * stride);
          std::vector<double> dots(m), dists(m);
          ops->dot_rows(a.data(), b.data(), stride, n, dots.data(), m);
          ops->sqdist_rows(a.data(), b.data(), stride, n, dists.data(), m);
          for (size_t j = 0; j < m; ++j) {
            const double* bj = b.data() + j * stride;
            ASSERT_TRUE(SameBits(dots[j], RefLaneSum(a.data(), bj, n, false)))
                << ops->name << " dot n=" << n << " m=" << m << " j=" << j;
            ASSERT_TRUE(SameBits(dists[j], RefLaneSum(a.data(), bj, n, true)))
                << ops->name << " sqdist n=" << n << " m=" << m << " j=" << j;
            // One table serves both argument orders: (a - b)^2 == (b - a)^2.
            ASSERT_TRUE(SameBits(dists[j], RefLaneSum(bj, a.data(), n, true)))
                << ops->name << " sqdist swapped n=" << n << " j=" << j;
          }
        }
      }
    }
  }
}

TEST_P(KernelBackendPrimitives, AxpyRowsMatchesPerCallLoop) {
  Rng rng(89);
  for (const KernelOps* ops : {&KernelsFor(KernelBackend::kPortable), &KernelsFor(GetParam())}) {
    // 65 and 129 batch rows also cross the non-zero list's chunk boundary.
    for (size_t batch : {0u, 1u, 31u, 32u, 33u, 65u, 129u}) {
      for (size_t n : kRowCounts) {
        for (bool special : {false, true}) {
          // One column of a (stride 3) against the batch-major rows of x.
          const size_t a_stride = 3;
          std::vector<double> a = RandomArray(rng, batch * a_stride);
          for (size_t r = 0; r < batch; ++r) {
            const int64_t pick = rng.UniformInt(0, 3);
            if (pick == 0) {
              a[r * a_stride] = 0.0;  // Sparse activations: skipped rows.
            } else if (pick == 1) {
              a[r * a_stride] = -0.0;
            }
          }
          if (special && batch > 0) {
            a[(batch / 2) * a_stride] = std::numeric_limits<double>::quiet_NaN();
            a[(batch - 1) * a_stride] = 1e-310;
          }
          std::vector<double> x =
              special ? SpecialArray(rng, batch * n) : RandomArray(rng, batch * n);
          // Accumulators start as -0.0 in every third slot: a zero
          // coefficient must leave them -0.0 (0 * x added would make +0.0).
          std::vector<double> y = special ? SpecialArray(rng, n) : RandomArray(rng, n);
          for (size_t j = 0; j < n; j += 3) {
            y[j] = -0.0;
          }
          std::vector<double> want = y;
          for (size_t r = 0; r < batch; ++r) {
            const double c = a[r * a_stride];
            if (c == 0.0) {
              continue;
            }
            for (size_t j = 0; j < n; ++j) {
              want[j] += c * x[r * n + j];
            }
          }
          ops->axpy_rows(a.data(), a_stride, x.data(), n, batch, y.data(), n);
          for (size_t j = 0; j < n; ++j) {
            ASSERT_TRUE(SameBits(y[j], want[j]))
                << ops->name << " batch=" << batch << " n=" << n << " j=" << j;
          }
        }
      }
    }
  }
  // All coefficients zero: every accumulator is left exactly as it was.
  for (const KernelOps* ops : {&KernelsFor(KernelBackend::kPortable), &KernelsFor(GetParam())}) {
    const std::vector<double> zeros = {0.0, -0.0, 0.0, -0.0};
    const std::vector<double> x(4 * 17, std::numeric_limits<double>::infinity());
    std::vector<double> y(17, -0.0);
    ops->axpy_rows(zeros.data(), 1, x.data(), 17, zeros.size(), y.data(), 17);
    for (double v : y) {
      EXPECT_EQ(Bits(v), Bits(-0.0)) << ops->name;
    }
  }
}

TEST_P(KernelBackendPrimitives, PanelNearestIsMinOfTextbookSqDist) {
  Rng rng(97);
  for (const KernelOps* ops : {&KernelsFor(KernelBackend::kPortable), &KernelsFor(GetParam())}) {
    for (size_t dim : {1u, 3u, 4u, 263u}) {
      for (size_t rows : {0u, 1u, 3u, 4u, 5u, 15u, 16u, 17u, 64u, 65u, 127u, 128u}) {
        for (bool special : {false, true}) {
          std::vector<double> x = special ? SpecialArray(rng, dim) : RandomArray(rng, dim);
          // Allocate two spare panels and fill every slot with x itself, so
          // an unfilled lane that leaked into the min would win at 0.
          const size_t panels = rows / kPanelLanes + 2;
          std::vector<double> panel(panels * kPanelLanes * dim);
          for (size_t r = 0; r < panels * kPanelLanes; ++r) {
            for (size_t k = 0; k < dim; ++k) {
              panel[PanelIndex(r, k, dim)] = x[k];
            }
          }
          double want = std::numeric_limits<double>::max();
          for (size_t r = 0; r < rows; ++r) {
            std::vector<double> h = special ? SpecialArray(rng, dim) : RandomArray(rng, dim);
            for (size_t k = 0; k < dim; ++k) {
              panel[PanelIndex(r, k, dim)] = h[k];
            }
            want = std::min(want, SqDist(x.data(), h.data(), dim));
          }
          const double got = ops->panel_nearest(x.data(), panel.data(), dim, rows);
          ASSERT_EQ(Bits(got), Bits(want))
              << ops->name << " dim=" << dim << " rows=" << rows << " special=" << special;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllSimdBackends, KernelBackendPrimitives,
                         ::testing::Values(KernelBackend::kAvx2),
                         [](const ::testing::TestParamInfo<KernelBackend>& info) {
                           return std::string(KernelBackendName(info.param));
                         });

// The matrix kernels routed through each backend agree within 1e-12 (the
// design tolerance) — and in fact exactly.
class KernelBackendMatrix : public ::testing::TestWithParam<KernelBackend> {};

TEST_P(KernelBackendMatrix, MatchAcrossBackends) {
  Rng rng(73);
  Parallelism portable{nullptr, 1, &KernelsFor(KernelBackend::kPortable)};
  Parallelism simd{nullptr, 1, &KernelsFor(GetParam())};
  // Odd sizes exercise the unroll remainders.
  for (size_t n : {1u, 5u, 17u}) {
    for (size_t k : {3u, 8u, 37u}) {
      for (size_t m : {1u, 6u, 23u}) {
        Matrix a = RandomMatrix(rng, n, k);
        Matrix b = RandomMatrix(rng, k, m);
        Matrix bias = RandomMatrix(rng, 1, m);
        Matrix out_p, out_s;
        MatMulAddBiasInto(a, b, bias, out_p, portable);
        MatMulAddBiasInto(a, b, bias, out_s, simd);
        ASSERT_EQ(out_p.size(), out_s.size());
        for (size_t i = 0; i < out_p.size(); ++i) {
          EXPECT_NEAR(out_p.data()[i], out_s.data()[i], 1e-12);
          EXPECT_EQ(out_p.data()[i], out_s.data()[i]) << n << "x" << k << "x" << m;
        }

        Matrix bt = RandomMatrix(rng, m, k);
        Matrix bt_p, bt_s;
        MatMulBtInto(a, bt, bt_p, portable);
        MatMulBtInto(a, bt, bt_s, simd);
        for (size_t i = 0; i < bt_p.size(); ++i) {
          EXPECT_EQ(bt_p.data()[i], bt_s.data()[i]);
        }

        Matrix c = RandomMatrix(rng, n, m);
        Matrix acc_p(k, m, 0.25), acc_s(k, m, 0.25);
        MatMulAtAccum(a, c, acc_p, portable);
        MatMulAtAccum(a, c, acc_s, simd);
        for (size_t i = 0; i < acc_p.size(); ++i) {
          EXPECT_EQ(acc_p.data()[i], acc_s.data()[i]);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllSimdBackends, KernelBackendMatrix,
                         ::testing::Values(KernelBackend::kAvx2),
                         [](const ::testing::TestParamInfo<KernelBackend>& info) {
                           return std::string(KernelBackendName(info.param));
                         });

// Adam's per-block thread split must not change a single bit — the clip norm
// is computed before the parallel section and per-block math is serial.
TEST(KernelBackend, AdamThreadedBitIdenticalToSerial) {
  auto make_params = [](Rng& rng, std::vector<ParamBlock>& blocks) {
    std::vector<ParamBlock*> out;
    for (auto& b : blocks) {
      b.value = RandomMatrix(rng, 9, 7);
      b.grad = RandomMatrix(rng, 9, 7);
      out.push_back(&b);
    }
    return out;
  };
  Rng rng_a(77);
  Rng rng_b(77);
  std::vector<ParamBlock> blocks_a(6), blocks_b(6);
  std::vector<ParamBlock*> params_a = make_params(rng_a, blocks_a);
  std::vector<ParamBlock*> params_b = make_params(rng_b, blocks_b);
  AdamOptions options;
  options.weight_decay = 1e-5;
  Adam serial(params_a, options);
  Adam threaded(params_b, options);
  ThreadPool pool(3);
  for (int step = 0; step < 5; ++step) {
    for (size_t p = 0; p < blocks_a.size(); ++p) {
      Rng grad_rng(100 + static_cast<uint64_t>(step));
      blocks_a[p].grad = RandomMatrix(grad_rng, 9, 7);
      Rng grad_rng2(100 + static_cast<uint64_t>(step));
      blocks_b[p].grad = RandomMatrix(grad_rng2, 9, 7);
    }
    serial.Step();
    threaded.Step(Parallelism{&pool, 4});
    for (size_t p = 0; p < blocks_a.size(); ++p) {
      for (size_t i = 0; i < blocks_a[p].value.size(); ++i) {
        ASSERT_EQ(blocks_a[p].value.data()[i], blocks_b[p].value.data()[i])
            << "step " << step << " block " << p << " element " << i;
      }
    }
  }
}

void TrainAndCompareModels(DeepTuneModel& a, DeepTuneModel& b) {
  Rng rng(5);
  size_t dim = a.input_dim();
  for (size_t i = 0; i < 48; ++i) {
    std::vector<double> x(dim);
    for (double& v : x) {
      v = rng.Uniform();
    }
    bool crashed = rng.Bernoulli(0.25);
    double objective = rng.Normal(0.0, 1.0);
    a.AddSample(x, crashed, objective);
    b.AddSample(x, crashed, objective);
  }
  a.Update();
  b.Update();
  Rng pool_rng(9);
  Matrix pool(64, dim);
  for (double& v : pool.data()) {
    v = pool_rng.Uniform();
  }
  auto pred_a = a.PredictBatch(pool);
  auto pred_b = b.PredictBatch(pool);
  ASSERT_EQ(pred_a.size(), pred_b.size());
  for (size_t i = 0; i < pred_a.size(); ++i) {
    EXPECT_EQ(pred_a[i].crash_prob, pred_b[i].crash_prob) << i;
    EXPECT_EQ(pred_a[i].objective, pred_b[i].objective) << i;
    EXPECT_EQ(pred_a[i].sigma, pred_b[i].sigma) << i;
  }
}

// Training (gather + forward/backward + losses + Chamfer + Adam) computes
// identical weights on either backend.
TEST(KernelBackend, DtmTrainingUnchangedByBackend) {
  DtmOptions portable_options;
  portable_options.kernels = KernelBackend::kPortable;
  DtmOptions simd_options;
  simd_options.kernels = KernelBackend::kAvx2;
  DeepTuneModel portable(31, portable_options);
  DeepTuneModel simd(31, simd_options);
  TrainAndCompareModels(portable, simd);
}

// And identical weights at any thread count (full Update, not just inference).
TEST(KernelBackend, DtmTrainingBitIdenticalWhenThreaded) {
  DtmOptions serial_options;
  serial_options.threads = 0;  // The default is the shared pool's width.
  DtmOptions threaded_options;
  threaded_options.threads = 4;
  DeepTuneModel serial(27, serial_options);
  DeepTuneModel threaded(27, threaded_options);
  TrainAndCompareModels(serial, threaded);
}

// FNV-1a over the bit patterns of every trainable weight, in Params() order.
uint64_t WeightFnv(DtmTrunk& trunk) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (ParamBlock* block : trunk.Params()) {
    for (double w : block->value.data()) {
      const uint64_t bits = Bits(w);
      for (int byte = 0; byte < 8; ++byte) {
        hash ^= (bits >> (8 * byte)) & 0xffu;
        hash *= 0x100000001b3ULL;
      }
    }
  }
  return hash;
}

// A small trunk trained for 280 updates x 32 steps = 8960 Adam steps, with
// three input columns that are always zero. First moments whose gradient
// stops (dead ReLU units) decay by beta1 = 0.9 per step and cross DBL_MIN
// near step 7k, so the last ~2k steps run in the regime where Adam's
// moments would be subnormal without the kernels' moment floor.
uint64_t AgedTrunkWeightFnv(KernelBackend backend, size_t threads) {
  DtmOptions options;
  options.hidden1 = 16;
  options.hidden2 = 8;
  options.rbf_centroids = 4;
  options.batch_size = 8;
  options.kernels = backend;
  options.threads = threads;
  const size_t dim = 16;
  DtmTrunk trunk(dim, 1, options);
  Rng rng(7);
  for (int i = 0; i < 48; ++i) {
    std::vector<double> x(dim, 0.0);
    for (size_t j = 3; j < dim; ++j) {
      x[j] = rng.Uniform();
    }
    bool crashed = rng.Bernoulli(0.3);
    double objective = rng.Normal(100.0, 10.0);
    trunk.AddSample(x, crashed, &objective);
  }
  for (int update = 0; update < 280; ++update) {
    trunk.Update();
  }
  return WeightFnv(trunk);
}

// Long-horizon weight pin past the subnormal onset: the hash was captured
// before the Adam kernels gained their moment floor, so it proves the
// flush never changes a weight, on any backend and at any thread count
// (2 and 4 ways split the flattened Adam range at different edges).
TEST(KernelBackend, AgedTrunkWeightsPinnedPastSubnormalOnset) {
  constexpr uint64_t kPinnedWeightFnv = 0xcbd1f2aeea0cb34eULL;
  for (KernelBackend backend : {KernelBackend::kPortable, KernelBackend::kAvx2}) {
    for (size_t threads : {size_t{0}, size_t{2}, size_t{4}}) {
      EXPECT_EQ(AgedTrunkWeightFnv(backend, threads), kPinnedWeightFnv)
          << KernelsFor(backend).name << " threads=" << threads;
    }
  }
}

// The end-to-end invariant (acceptance criterion): a fixed-seed 60-iteration
// DeepTune session proposes the exact same configuration sequence and finds
// the same best, whichever kernel backend the model runs on.
TEST(KernelBackend, SixtyIterationTrajectoryUnchangedByBackend) {
  ConfigSpace space = BuildLinuxSearchSpace();
  SessionOptions options;
  options.max_iterations = 60;
  options.sample_options = SampleOptions::FavorRuntime();
  options.seed = 0x60d;

  DeepTuneOptions portable_options;
  portable_options.model.kernels = KernelBackend::kPortable;
  Testbench bench_portable(&space, AppId::kRedis);
  DeepTuneSearcher portable(&space, portable_options);
  SessionResult portable_result = RunSearch(&bench_portable, &portable, options);

  DeepTuneOptions simd_options;
  simd_options.model.kernels = KernelBackend::kAvx2;
  Testbench bench_simd(&space, AppId::kRedis);
  DeepTuneSearcher simd(&space, simd_options);
  SessionResult simd_result = RunSearch(&bench_simd, &simd, options);

  ASSERT_EQ(portable_result.history.size(), simd_result.history.size());
  for (size_t i = 0; i < portable_result.history.size(); ++i) {
    EXPECT_EQ(portable_result.history[i].config.Hash(), simd_result.history[i].config.Hash())
        << "trajectories diverged at iteration " << i;
    if (portable_result.history[i].HasObjective()) {
      EXPECT_EQ(portable_result.history[i].objective, simd_result.history[i].objective) << i;
    }
  }
  EXPECT_EQ(portable_result.best_index, simd_result.best_index);
}

}  // namespace
}  // namespace wayfinder
