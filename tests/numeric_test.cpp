// Unit & property tests for the numeric substrate (src/numeric).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numeric>
#include <string_view>
#include <vector>

#include "numeric/math.hpp"
#include "numeric/matmul_kernels.hpp"
#include "numeric/rng.hpp"
#include "numeric/tensor.hpp"

namespace lserve::num {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a.next_u64() == b.next_u64());
  EXPECT_LT(equal, 2);
}

TEST(Rng, SplitSeedDecorrelatesStreams) {
  EXPECT_NE(split_seed(7, 0), split_seed(7, 1));
  EXPECT_NE(split_seed(7, 0), split_seed(8, 0));
}

TEST(Rng, UniformWithinBounds) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const float x = rng.uniform(-2.0f, 3.0f);
    EXPECT_GE(x, -2.0f);
    EXPECT_LT(x, 3.0f);
  }
}

TEST(Rng, GaussianMoments) {
  Rng rng(9);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.gaussian();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(Rng, NextBelowUnbiasedSupport) {
  Rng rng(11);
  std::vector<int> counts(7, 0);
  for (int i = 0; i < 7000; ++i) ++counts[rng.next_below(7)];
  for (int c : counts) EXPECT_GT(c, 700);
}

TEST(Rng, UnitVectorHasUnitNorm) {
  Rng rng(13);
  for (std::size_t d : {2u, 16u, 128u}) {
    const auto v = rng.unit_vector(d);
    EXPECT_NEAR(l2_norm(v.data(), d), 1.0f, 1e-5f);
  }
}

TEST(Math, DotMatchesNaive) {
  Rng rng(21);
  for (std::size_t n : {1u, 3u, 4u, 7u, 64u, 129u}) {
    std::vector<float> a(n), b(n);
    rng.fill_gaussian(a, 1.0f);
    rng.fill_gaussian(b, 1.0f);
    double ref = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      ref += static_cast<double>(a[i]) * b[i];
    EXPECT_NEAR(dot(a.data(), b.data(), n), ref, 1e-3);
  }
}

TEST(Math, SoftmaxSumsToOneAndOrders) {
  std::vector<float> row{1.0f, 3.0f, 2.0f, -1.0f};
  softmax_inplace(row.data(), row.size());
  float sum = std::accumulate(row.begin(), row.end(), 0.0f);
  EXPECT_NEAR(sum, 1.0f, 1e-5f);
  EXPECT_GT(row[1], row[2]);
  EXPECT_GT(row[2], row[0]);
  EXPECT_GT(row[0], row[3]);
}

TEST(Math, SoftmaxStableForLargeInputs) {
  std::vector<float> row{1000.0f, 1001.0f, 999.0f};
  softmax_inplace(row.data(), row.size());
  EXPECT_TRUE(std::isfinite(row[0]));
  EXPECT_NEAR(row[0] + row[1] + row[2], 1.0f, 1e-5f);
}

TEST(Math, MatmulMatchesNaive) {
  Rng rng(23);
  Tensor a(5, 7), b(7, 4), c(5, 4);
  for (std::size_t i = 0; i < a.size(); ++i) a.data()[i] = rng.gaussian();
  for (std::size_t i = 0; i < b.size(); ++i) b.data()[i] = rng.gaussian();
  matmul(a.view(), b.view(), c.view());
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      double ref = 0.0;
      for (std::size_t k = 0; k < 7; ++k) {
        ref += static_cast<double>(a.at(i, k)) * b.at(k, j);
      }
      EXPECT_NEAR(c.at(i, j), ref, 1e-4);
    }
  }
}

const detail::MatmulVariant* find_matmul_variant(std::string_view name) {
  for (const detail::MatmulVariant& v : detail::matmul_variants()) {
    if (name == v.name) return &v;
  }
  return nullptr;
}

/// Every output bit of `fn` must equal the scalar loop's, on ragged shapes
/// that leave row blocks, column strips and vectors partly filled. A and B
/// are column slices of wider buffers (the layout a column-split GEMM
/// hands the kernel), and C is one too, with sentinels on both sides that
/// must survive. Some inputs are +-0 so that signed-zero products occur.
void expect_bit_identical_to_scalar(detail::MatmulFn fn) {
  Rng rng(29);
  const auto fill = [&](Tensor& t) {
    for (std::size_t i = 0; i < t.size(); ++i) {
      t.data()[i] = i % 11 == 0 ? 0.0f
                    : i % 13 == 0 ? -0.0f
                                  : rng.gaussian();
    }
  };
  const float sentinel = 7.0f;
  for (std::size_t m : {1, 2, 3, 4, 5, 6, 7, 8, 9, 17, 128}) {
    for (std::size_t n : {1, 15, 16, 17, 65, 259}) {
      for (std::size_t k : {1, 3, 512}) {
        Tensor a_wide(m, k + 2), b_wide(k, n + 3);
        fill(a_wide);
        fill(b_wide);
        const ConstMatView a = a_wide.view().cols_slice(1, k);
        const ConstMatView b = b_wide.view().cols_slice(2, n);
        Tensor want(m, n);
        detail::matmul_scalar(a, b, want.view());
        Tensor got_wide(m, n + 2, sentinel);
        fn(a, b, got_wide.view().cols_slice(1, n));
        for (std::size_t i = 0; i < m; ++i) {
          const float* got = got_wide.row(i);
          ASSERT_EQ(std::memcmp(want.row(i), got + 1, n * sizeof(float)), 0)
              << "m=" << m << " n=" << n << " k=" << k << " row " << i;
          ASSERT_EQ(got[0], sentinel);
          ASSERT_EQ(got[n + 1], sentinel);
        }
      }
    }
  }
}

TEST(Matmul, Avx512BitIdenticalToScalar) {
  const detail::MatmulVariant* v = find_matmul_variant("avx512");
  if (v == nullptr || !v->supported) {
    GTEST_SKIP() << "avx512 matmul not compiled or not supported here";
  }
  expect_bit_identical_to_scalar(v->fn);
}

TEST(Matmul, Avx2BitIdenticalToScalar) {
  const detail::MatmulVariant* v = find_matmul_variant("avx2");
  if (v == nullptr || !v->supported) {
    GTEST_SKIP() << "avx2 matmul not compiled or not supported here";
  }
  expect_bit_identical_to_scalar(v->fn);
}

TEST(Matmul, DispatchedBitIdenticalToScalar) {
  // num::matmul runs the first supported variant, and the scalar loop
  // ends the list, so there is always one.
  const auto variants = detail::matmul_variants();
  ASSERT_FALSE(variants.empty());
  EXPECT_EQ(std::string_view(variants.back().name), "scalar");
  EXPECT_TRUE(variants.back().supported);
  expect_bit_identical_to_scalar(&matmul);
}

TEST(Math, TopKReturnsSortedIndicesOfLargest) {
  std::vector<float> scores{0.1f, 5.0f, 3.0f, 5.0f, -1.0f, 4.0f};
  const auto idx = top_k_indices(scores, 3);
  ASSERT_EQ(idx.size(), 3u);
  // Top-3 values are 5.0 (idx 1), 5.0 (idx 3), 4.0 (idx 5); ascending order.
  EXPECT_EQ(idx[0], 1u);
  EXPECT_EQ(idx[1], 3u);
  EXPECT_EQ(idx[2], 5u);
}

TEST(Math, TopKClampsToSize) {
  std::vector<float> scores{1.0f, 2.0f};
  EXPECT_EQ(top_k_indices(scores, 10).size(), 2u);
  EXPECT_TRUE(top_k_indices(scores, 0).empty());
}

class OnlineSoftmaxParam : public ::testing::TestWithParam<std::size_t> {};

TEST_P(OnlineSoftmaxParam, MatchesBatchSoftmax) {
  const std::size_t n = GetParam();
  const std::size_t d = 8;
  Rng rng(31 + n);
  std::vector<float> scores(n);
  Tensor values(n, d);
  rng.fill_gaussian(scores, 3.0f);
  for (std::size_t i = 0; i < values.size(); ++i)
    values.data()[i] = rng.gaussian();

  OnlineSoftmax acc(d);
  for (std::size_t i = 0; i < n; ++i) acc.fold_one(scores[i], values.row(i));
  std::vector<float> out(d);
  acc.finish(out.data());

  std::vector<float> probs = scores;
  softmax_inplace(probs.data(), n);
  std::vector<float> ref(d, 0.0f);
  for (std::size_t i = 0; i < n; ++i)
    axpy(probs[i], values.row(i), ref.data(), d);

  for (std::size_t c = 0; c < d; ++c) EXPECT_NEAR(out[c], ref[c], 1e-4f);
}

INSTANTIATE_TEST_SUITE_P(Sizes, OnlineSoftmaxParam,
                         ::testing::Values(1, 2, 3, 17, 64, 255));

TEST(OnlineSoftmax, FoldOrderInvariance) {
  const std::size_t d = 4;
  Rng rng(37);
  std::vector<float> scores(20);
  Tensor values(20, d);
  rng.fill_gaussian(scores, 5.0f);
  for (std::size_t i = 0; i < values.size(); ++i)
    values.data()[i] = rng.gaussian();

  OnlineSoftmax fwd(d), rev(d);
  for (std::size_t i = 0; i < 20; ++i)
    fwd.fold_one(scores[i], values.row(i));
  for (std::size_t i = 20; i > 0; --i)
    rev.fold_one(scores[i - 1], values.row(i - 1));
  std::vector<float> a(d), b(d);
  fwd.finish(a.data());
  rev.finish(b.data());
  for (std::size_t c = 0; c < d; ++c) EXPECT_NEAR(a[c], b[c], 1e-4f);
  EXPECT_NEAR(fwd.log_sum_exp(), rev.log_sum_exp(), 1e-4f);
}

TEST(OnlineSoftmax, EmptyYieldsZeros) {
  OnlineSoftmax acc(3);
  std::vector<float> out(3, 42.0f);
  acc.finish(out.data());
  for (float x : out) EXPECT_EQ(x, 0.0f);
  EXPECT_TRUE(std::isinf(acc.log_sum_exp()));
}

TEST(OnlineSoftmax, ResetClearsState) {
  OnlineSoftmax acc(2);
  const float v[2] = {1.0f, 2.0f};
  acc.fold_one(0.5f, v);
  acc.reset();
  std::vector<float> out(2, 9.0f);
  acc.finish(out.data());
  EXPECT_EQ(out[0], 0.0f);
  EXPECT_EQ(out[1], 0.0f);
}

TEST(Tensor, ViewsShareStorage) {
  Tensor t(3, 4);
  t.at(1, 2) = 7.0f;
  MatView v = t.view();
  EXPECT_EQ(v.at(1, 2), 7.0f);
  v.at(1, 2) = 8.0f;
  EXPECT_EQ(t.at(1, 2), 8.0f);
}

TEST(Tensor, ColsSliceSelectsHead) {
  Tensor t(2, 6);
  for (std::size_t r = 0; r < 2; ++r)
    for (std::size_t c = 0; c < 6; ++c)
      t.at(r, c) = static_cast<float>(10 * r + c);
  const MatView head1 = t.view().cols_slice(3, 3);
  EXPECT_EQ(head1.at(0, 0), 3.0f);
  EXPECT_EQ(head1.at(1, 2), 15.0f);
  EXPECT_EQ(head1.stride, 6u);
}

TEST(Tensor, RowsSliceBounds) {
  Tensor t(5, 2, 1.5f);
  const MatView mid = t.view().rows_slice(1, 3);
  EXPECT_EQ(mid.rows, 3u);
  EXPECT_EQ(mid.at(0, 0), 1.5f);
}

TEST(Math, CosineSimilarityProperties) {
  std::vector<float> a{1.0f, 0.0f};
  std::vector<float> b{0.0f, 1.0f};
  std::vector<float> zero{0.0f, 0.0f};
  EXPECT_NEAR(cosine_similarity(a.data(), a.data(), 2), 1.0f, 1e-6f);
  EXPECT_NEAR(cosine_similarity(a.data(), b.data(), 2), 0.0f, 1e-6f);
  EXPECT_EQ(cosine_similarity(a.data(), zero.data(), 2), 0.0f);
}

}  // namespace
}  // namespace lserve::num
