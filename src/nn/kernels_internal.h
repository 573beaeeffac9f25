// Helpers shared by the kernel backends' translation units (kernels.cc,
// kernels_avx2.cc); not part of the KernelOps interface.
#ifndef WAYFINDER_SRC_NN_KERNELS_INTERNAL_H_
#define WAYFINDER_SRC_NN_KERNELS_INTERNAL_H_

#include <cstddef>

namespace wayfinder {

// axpy_rows' non-zero list, shared by every backend: writes the rows r in
// [r0, r1) whose coefficient a[r * a_stride] is non-zero (NaN counts as
// non-zero, -0.0 as zero) to rows[] and their coefficients to coefs[], in
// ascending order, and returns how many there are. Branch-free: every row is
// written and the count advances by the comparison, because a branch on
// sparse activations mispredicts. Both arrays need r1 - r0 slots.
inline size_t ListNonZeroRows(const double* a, size_t a_stride, size_t r0, size_t r1,
                              size_t* rows, double* coefs) {
  size_t count = 0;
  for (size_t r = r0; r < r1; ++r) {
    const double c = a[r * a_stride];
    rows[count] = r;
    coefs[count] = c;
    count += static_cast<size_t>(c != 0.0);
  }
  return count;
}

// Batch rows per ListNonZeroRows call in axpy_rows (stack-buffer size).
constexpr size_t kAxpyRowsChunk = 64;

}  // namespace wayfinder

#endif  // WAYFINDER_SRC_NN_KERNELS_INTERNAL_H_
