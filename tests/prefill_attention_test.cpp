// Tests for the unified block-sparse prefill kernel and streaming prefill
// (src/attn/block_sparse_prefill, src/attn/streaming_attention).
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>
#include <vector>

#include "attn/block_sparse_prefill.hpp"
#include "numeric/math.hpp"
#include "attn/dense_attention.hpp"
#include "attn/streaming_attention.hpp"
#include "numeric/rng.hpp"

namespace lserve::attn {
namespace {

struct Qkv {
  num::Tensor q, k, v;
};

Qkv random_qkv(std::size_t n, std::size_t d, std::uint64_t seed) {
  Qkv x{num::Tensor(n, d), num::Tensor(n, d), num::Tensor(n, d)};
  num::Rng rng(seed);
  for (auto* t : {&x.q, &x.k, &x.v}) {
    for (std::size_t i = 0; i < t->size(); ++i) {
      t->data()[i] = rng.gaussian();
    }
  }
  return x;
}

float max_abs_diff(const num::Tensor& a, const num::Tensor& b) {
  float m = 0.0f;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::abs(a.data()[i] - b.data()[i]));
  }
  return m;
}

class CausalEquivalence
    : public ::testing::TestWithParam<
          std::tuple<std::size_t, std::size_t, std::size_t, std::size_t>> {};

// With the full causal mask, the block-sparse kernel must reproduce dense
// attention for every tiling — the "unified" claim of §3.1.
TEST_P(CausalEquivalence, BlockSparseEqualsDenseReference) {
  const auto [n, d, tq, tk] = GetParam();
  const Qkv x = random_qkv(n, d, 42 + n);
  const float scale = 1.0f / std::sqrt(static_cast<float>(d));

  num::Tensor ref(n, d), out(n, d);
  dense_prefill_reference(x.q.view(), x.k.view(), x.v.view(), scale,
                          ref.view());
  BlockMask mask = BlockMask::causal(n, tq, tk);
  mask.finalize();
  block_sparse_prefill(x.q.view(), x.k.view(), x.v.view(), mask, {tq, tk},
                       scale, out.view());
  EXPECT_LT(max_abs_diff(ref, out), 2e-4f);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CausalEquivalence,
    ::testing::Values(std::make_tuple(64, 16, 16, 16),
                      std::make_tuple(100, 32, 16, 16),
                      std::make_tuple(128, 16, 32, 16),
                      std::make_tuple(77, 16, 16, 32),
                      std::make_tuple(96, 8, 64, 32),
                      std::make_tuple(33, 16, 8, 8)));

TEST(BlockSparsePrefill, BranchyMatchesIteratorKernel) {
  const std::size_t n = 96, d = 16;
  const Qkv x = random_qkv(n, d, 7);
  const float scale = 1.0f / std::sqrt(static_cast<float>(d));
  BlockMask mask = BlockMask::streaming(n, 16, 16, 1, 2);
  mask.finalize();
  num::Tensor a(n, d), b(n, d);
  block_sparse_prefill(x.q.view(), x.k.view(), x.v.view(), mask, {16, 16},
                       scale, a.view());
  block_sparse_prefill_branchy(x.q.view(), x.k.view(), x.v.view(), mask,
                               {16, 16}, scale, b.view());
  EXPECT_LT(max_abs_diff(a, b), 1e-6f);
}

TEST(StreamingPrefill, MatchesTokenReferenceWhenBlockAligned) {
  // sink = 1 block (16 tokens), local = 2 blocks (32 tokens): with TQ=TK=16
  // and the reference's local window aligned to blocks, outputs agree on
  // rows whose Λ window is block-aligned. We use exact block multiples and
  // compare the block kernel against itself via the mask reference instead:
  // the streaming kernel must equal dense attention restricted to the
  // streaming mask (token-granular within kept blocks is plain causal).
  const std::size_t n = 128, d = 16;
  const Qkv x = random_qkv(n, d, 11);
  const float scale = 1.0f / std::sqrt(static_cast<float>(d));

  BlockMask mask = BlockMask::streaming(n, 16, 16, 1, 2);
  mask.finalize();
  num::Tensor out(n, d);
  block_sparse_prefill(x.q.view(), x.k.view(), x.v.view(), mask, {16, 16},
                       scale, out.view());

  // Reference: per row, softmax over keys in kept blocks only.
  num::Tensor ref(n, d);
  std::vector<float> scores;
  std::vector<std::size_t> cols;
  for (std::size_t i = 0; i < n; ++i) {
    scores.clear();
    cols.clear();
    const std::size_t qb = i / 16;
    for (std::size_t j = 0; j <= i; ++j) {
      if (!mask.kept(qb, j / 16)) continue;
      cols.push_back(j);
      scores.push_back(scale * num::dot(x.q.row(i), x.k.row(j), d));
    }
    num::softmax_inplace(scores.data(), scores.size());
    float* oi = ref.row(i);
    std::fill(oi, oi + d, 0.0f);
    for (std::size_t t = 0; t < cols.size(); ++t) {
      num::axpy(scores[t], x.v.row(cols[t]), oi, d);
    }
  }
  EXPECT_LT(max_abs_diff(ref, out), 2e-4f);
}

TEST(StreamingPrefill, EarlyRowsEqualDense) {
  // Rows inside sink+local coverage see full history: identical to dense.
  const std::size_t n = 64, d = 8;
  const Qkv x = random_qkv(n, d, 13);
  const float scale = 1.0f / std::sqrt(static_cast<float>(d));
  num::Tensor dense(n, d), stream(n, d);
  dense_prefill_reference(x.q.view(), x.k.view(), x.v.view(), scale,
                          dense.view());
  BlockMask mask = BlockMask::streaming(n, 16, 16, 1, 3);
  mask.finalize();
  block_sparse_prefill(x.q.view(), x.k.view(), x.v.view(), mask, {16, 16},
                       scale, stream.view());
  // First 4 blocks of rows (sink 1 + local 3 covers diag <= 3): all rows.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < d; ++c) {
      EXPECT_NEAR(stream.at(i, c), dense.at(i, c), 2e-4f) << "row " << i;
    }
  }
}

TEST(BlockSparsePrefill, SkippedBlocksReduceAttentionMass) {
  // Sanity: a mask missing a high-score block must change the output.
  const std::size_t n = 64, d = 8;
  const Qkv x = random_qkv(n, d, 17);
  const float scale = 1.0f;
  BlockMask full = BlockMask::causal(n, 16, 16);
  full.finalize();
  BlockMask pruned = BlockMask::causal(n, 16, 16);
  pruned.set(3, 1, false);  // drop a mid-context block for the last rows
  pruned.finalize();
  num::Tensor a(n, d), b(n, d);
  block_sparse_prefill(x.q.view(), x.k.view(), x.v.view(), full, {16, 16},
                       scale, a.view());
  block_sparse_prefill(x.q.view(), x.k.view(), x.v.view(), pruned, {16, 16},
                       scale, b.view());
  EXPECT_GT(max_abs_diff(a, b), 1e-4f);
  // Rows outside q-block 3 are untouched.
  for (std::size_t i = 0; i < 48; ++i) {
    for (std::size_t c = 0; c < d; ++c) {
      EXPECT_FLOAT_EQ(a.at(i, c), b.at(i, c));
    }
  }
}

}  // namespace
}  // namespace lserve::attn
