// The compiled variants behind num::matmul, exposed so tests and the
// microbench can call each one directly.
//
// Every variant computes each output element exactly as the scalar loop
// does — c = 0, then c = c + a[i][k] * b[k][j] for k ascending, one
// rounded multiply and one rounded add per step (no FMA; the library is
// built with -ffp-contract=off) — so every variant's output is
// bit-identical to matmul_scalar on every shape. The SIMD variants differ
// only in how many (row, column) accumulators they keep in registers while
// walking k: a block of rows shares each loaded vector of B.
#pragma once

#include <span>

#include "numeric/tensor.hpp"

namespace lserve::num::detail {

using MatmulFn = void (*)(ConstMatView, ConstMatView, MatView) noexcept;

/// The reference loop: one axpy of a B row into a C row per (i, k).
void matmul_scalar(ConstMatView a, ConstMatView b, MatView c) noexcept;

#if defined(__x86_64__) && defined(__GNUC__)
#define LSERVE_MATMUL_X86 1
/// 3 rows x 4 ymm vectors (32 columns) of accumulators per block.
void matmul_avx2(ConstMatView a, ConstMatView b, MatView c) noexcept;
/// 4 rows x 4 zmm vectors (64 columns) of accumulators per block.
void matmul_avx512(ConstMatView a, ConstMatView b, MatView c) noexcept;
#endif

/// One compiled variant and whether this CPU can run it.
struct MatmulVariant {
  const char* name;
  MatmulFn fn;
  bool supported;
};

/// Every compiled variant, fastest first, ending with the scalar loop.
/// num::matmul runs the first supported one.
std::span<const MatmulVariant> matmul_variants() noexcept;

}  // namespace lserve::num::detail
