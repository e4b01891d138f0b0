#include <algorithm>
#include <cassert>

#include "numeric/math.hpp"
#include "numeric/matmul_kernels.hpp"

#ifdef LSERVE_MATMUL_X86
#include <immintrin.h>
#endif

namespace lserve::num {
namespace detail {

void matmul_scalar(ConstMatView a, ConstMatView b, MatView c) noexcept {
  for (std::size_t i = 0; i < c.rows; ++i) {
    float* ci = c.row(i);
    std::fill(ci, ci + c.cols, 0.0f);
  }
  // ikj loop order: streams over B rows, accumulates into C rows.
  for (std::size_t i = 0; i < a.rows; ++i) {
    const float* ai = a.row(i);
    float* ci = c.row(i);
    for (std::size_t k = 0; k < a.cols; ++k) {
      axpy(ai[k], b.row(k), ci, b.cols);
    }
  }
}

#ifdef LSERVE_MATMUL_X86
namespace {

// The k walk reads B with a stride of a whole row, which the hardware
// prefetchers follow poorly; fetching the strip a few rows ahead hides
// that latency (about 20% on the 128-row prefill shape, GCC 12 on an
// AVX-512 Xeon).
constexpr std::size_t kPrefetchRows = 8;

template <std::size_t kFloats>
inline void prefetch_row(const float* p) noexcept {
  for (std::size_t f = 0; f < kFloats; f += 16) {
    _mm_prefetch(reinterpret_cast<const char*>(p + f), _MM_HINT_T0);
  }
}

// A register block is MR rows x NV vectors of C. It walks k once, loading
// each B vector once for all MR rows; every accumulator lane sees the
// same mul-then-add sequence the scalar axpy loop performs.

struct Avx2 {
  static constexpr std::size_t kWidth = 8;
  static constexpr std::size_t kRows = 3;
  static constexpr std::size_t kVecs = 4;

  template <std::size_t MR, std::size_t NV>
  __attribute__((target("avx2"))) static void block(
      const float* a, std::size_t lda, const float* b, std::size_t ldb,
      float* c, std::size_t ldc, std::size_t depth) noexcept {
    __m256 acc[MR][NV];
    for (std::size_t r = 0; r < MR; ++r) {
      for (std::size_t v = 0; v < NV; ++v) acc[r][v] = _mm256_setzero_ps();
    }
    for (std::size_t k = 0; k < depth; ++k) {
      const float* bk = b + k * ldb;
      if (k + kPrefetchRows < depth) {
        prefetch_row<NV * kWidth>(bk + kPrefetchRows * ldb);
      }
      __m256 bv[NV];
      for (std::size_t v = 0; v < NV; ++v) {
        bv[v] = _mm256_loadu_ps(bk + v * kWidth);
      }
      for (std::size_t r = 0; r < MR; ++r) {
        const __m256 ar = _mm256_set1_ps(a[r * lda + k]);
        for (std::size_t v = 0; v < NV; ++v) {
          acc[r][v] = _mm256_add_ps(acc[r][v], _mm256_mul_ps(ar, bv[v]));
        }
      }
    }
    for (std::size_t r = 0; r < MR; ++r) {
      for (std::size_t v = 0; v < NV; ++v) {
        _mm256_storeu_ps(c + r * ldc + v * kWidth, acc[r][v]);
      }
    }
  }
};

struct Avx512 {
  static constexpr std::size_t kWidth = 16;
  static constexpr std::size_t kRows = 4;
  static constexpr std::size_t kVecs = 4;

  template <std::size_t MR, std::size_t NV>
  __attribute__((target("avx512f"))) static void block(
      const float* a, std::size_t lda, const float* b, std::size_t ldb,
      float* c, std::size_t ldc, std::size_t depth) noexcept {
    __m512 acc[MR][NV];
    for (std::size_t r = 0; r < MR; ++r) {
      for (std::size_t v = 0; v < NV; ++v) acc[r][v] = _mm512_setzero_ps();
    }
    for (std::size_t k = 0; k < depth; ++k) {
      const float* bk = b + k * ldb;
      if (k + kPrefetchRows < depth) {
        prefetch_row<NV * kWidth>(bk + kPrefetchRows * ldb);
      }
      __m512 bv[NV];
      for (std::size_t v = 0; v < NV; ++v) {
        bv[v] = _mm512_loadu_ps(bk + v * kWidth);
      }
      for (std::size_t r = 0; r < MR; ++r) {
        const __m512 ar = _mm512_set1_ps(a[r * lda + k]);
        for (std::size_t v = 0; v < NV; ++v) {
          acc[r][v] = _mm512_add_ps(acc[r][v], _mm512_mul_ps(ar, bv[v]));
        }
      }
    }
    for (std::size_t r = 0; r < MR; ++r) {
      for (std::size_t v = 0; v < NV; ++v) {
        _mm512_storeu_ps(c + r * ldc + v * kWidth, acc[r][v]);
      }
    }
  }
};

/// Rows [i0, i0 + mr) of the NV-vector column strip at j0, mr <= MR.
template <class Isa, std::size_t NV, std::size_t MR = Isa::kRows>
void row_block(std::size_t mr, ConstMatView a, ConstMatView b, MatView c,
               std::size_t i0, std::size_t j0) noexcept {
  if (mr == MR) {
    Isa::template block<MR, NV>(a.data + i0 * a.stride, a.stride,
                                b.data + j0, b.stride,
                                c.data + i0 * c.stride + j0, c.stride,
                                a.cols);
  } else if constexpr (MR > 1) {
    row_block<Isa, NV, MR - 1>(mr, a, b, c, i0, j0);
  }
}

/// Every row of the NV-vector column strip at j0. The strip of B is read
/// from memory by the first row block and from cache by the rest.
template <class Isa, std::size_t NV>
void strip(ConstMatView a, ConstMatView b, MatView c,
           std::size_t j0) noexcept {
  for (std::size_t i = 0; i < a.rows; i += Isa::kRows) {
    row_block<Isa, NV>(std::min(Isa::kRows, a.rows - i), a, b, c, i, j0);
  }
}

/// A strip of nv <= NV vectors.
template <class Isa, std::size_t NV = Isa::kVecs>
void strip_of(std::size_t nv, ConstMatView a, ConstMatView b, MatView c,
              std::size_t j0) noexcept {
  if (nv == NV) {
    strip<Isa, NV>(a, b, c, j0);
  } else if constexpr (NV > 1) {
    strip_of<Isa, NV - 1>(nv, a, b, c, j0);
  }
}

template <class Isa>
void matmul_blocked(ConstMatView a, ConstMatView b, MatView c) noexcept {
  assert(a.cols == b.rows && c.rows == a.rows && c.cols == b.cols);
  constexpr std::size_t kStrip = Isa::kWidth * Isa::kVecs;
  const std::size_t vec_cols = c.cols / Isa::kWidth * Isa::kWidth;
  for (std::size_t j = 0; j < vec_cols; j += kStrip) {
    strip_of<Isa>(std::min(kStrip, vec_cols - j) / Isa::kWidth, a, b, c, j);
  }
  // Columns past the last whole vector take the scalar loop, which does
  // the same per-element arithmetic.
  if (vec_cols < c.cols) {
    const std::size_t tail = c.cols - vec_cols;
    matmul_scalar(a, b.cols_slice(vec_cols, tail),
                  c.cols_slice(vec_cols, tail));
  }
}

}  // namespace

void matmul_avx2(ConstMatView a, ConstMatView b, MatView c) noexcept {
  matmul_blocked<Avx2>(a, b, c);
}

void matmul_avx512(ConstMatView a, ConstMatView b, MatView c) noexcept {
  matmul_blocked<Avx512>(a, b, c);
}
#endif  // LSERVE_MATMUL_X86

std::span<const MatmulVariant> matmul_variants() noexcept {
#ifdef LSERVE_MATMUL_X86
  static const MatmulVariant kVariants[] = {
      {"avx512", &matmul_avx512,
       (__builtin_cpu_init(), __builtin_cpu_supports("avx512f") != 0)},
      {"avx2", &matmul_avx2, __builtin_cpu_supports("avx2") != 0},
      {"scalar", &matmul_scalar, true},
  };
#else
  static const MatmulVariant kVariants[] = {
      {"scalar", &matmul_scalar, true},
  };
#endif
  return kVariants;
}

}  // namespace detail

void matmul(ConstMatView a, ConstMatView b, MatView c) noexcept {
  static const detail::MatmulFn kernel = [] {
    for (const detail::MatmulVariant& v : detail::matmul_variants()) {
      if (v.supported) return v.fn;
    }
    return &detail::matmul_scalar;
  }();
  kernel(a, b, c);
}

}  // namespace lserve::num
