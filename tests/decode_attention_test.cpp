// Tests for the unified sparse decode kernel (src/attn/decode_attention)
// and the fused per-layer dispatch (src/attn/fused_attention).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "attn/decode_attention.hpp"
#include "attn/dense_attention.hpp"
#include "attn/fused_attention.hpp"
#include "numeric/math.hpp"
#include "numeric/rng.hpp"

namespace lserve::attn {
namespace {

kv::PageConfig cfg(num::KvDtype dtype = num::KvDtype::kFp16) {
  kv::PageConfig c;
  c.page_size = 8;
  c.logical_page_size = 4;
  c.head_dim = 16;
  c.dtype = dtype;
  return c;
}

struct Fixture {
  kv::PageAllocator alloc;
  kv::HeadCache head;
  std::vector<std::vector<float>> keys, values;

  explicit Fixture(std::size_t n, num::KvDtype dtype = num::KvDtype::kFp16,
                   std::uint64_t seed = 5)
      : alloc(cfg(dtype), n / 8 + 2) {
    num::Rng rng(seed);
    for (std::size_t t = 0; t < n; ++t) {
      std::vector<float> k(16), v(16);
      rng.fill_gaussian(k, 1.0f);
      rng.fill_gaussian(v, 1.0f);
      head.append(alloc, k.data(), v.data());
      keys.push_back(k);
      values.push_back(v);
    }
  }

  /// Naive softmax attention over an arbitrary token subset.
  std::vector<float> reference(const std::vector<float>& q,
                               const std::vector<std::size_t>& tokens,
                               float scale) const {
    std::vector<float> scores;
    for (std::size_t t : tokens) {
      scores.push_back(scale * num::dot(q.data(), keys[t].data(), 16));
    }
    num::softmax_inplace(scores.data(), scores.size());
    std::vector<float> out(16, 0.0f);
    for (std::size_t i = 0; i < tokens.size(); ++i) {
      num::axpy(scores[i], values[tokens[i]].data(), out.data(), 16);
    }
    return out;
  }
};

TEST(SparseDecode, FullTableMatchesDensePagedDecode) {
  Fixture fix(45);
  num::Rng rng(9);
  std::vector<float> q(16);
  rng.fill_gaussian(q, 1.0f);
  const float scale = 0.25f;

  std::vector<float> dense(16), sparse(16);
  float lse_dense = 0.0f, lse_sparse = 0.0f;
  dense_paged_decode(fix.alloc, fix.head, q.data(), 16, scale, dense.data(),
                     &lse_dense);
  const auto table = kv::full_page_table(fix.head.view(fix.alloc));
  sparse_paged_decode(fix.alloc, table, fix.head.tokens(), q.data(), 16,
                      scale, sparse.data(), &lse_sparse);
  for (std::size_t c = 0; c < 16; ++c) {
    EXPECT_NEAR(dense[c], sparse[c], 1e-5f);
  }
  EXPECT_NEAR(lse_dense, lse_sparse, 1e-5f);
}

TEST(SparseDecode, FullTableMatchesNaiveReference) {
  Fixture fix(37);
  num::Rng rng(10);
  std::vector<float> q(16);
  rng.fill_gaussian(q, 1.0f);
  const float scale = 0.25f;
  std::vector<std::size_t> all(37);
  for (std::size_t t = 0; t < 37; ++t) all[t] = t;
  const auto ref = fix.reference(q, all, scale);

  std::vector<float> out(16);
  sparse_paged_decode(fix.alloc, kv::full_page_table(fix.head.view(fix.alloc)),
                      37, q.data(), 16, scale, out.data());
  for (std::size_t c = 0; c < 16; ++c) EXPECT_NEAR(out[c], ref[c], 1e-4f);
}

TEST(SparseDecode, PrunedTableAttendsOnlySelectedPages) {
  Fixture fix(32);  // 4 full pages
  num::Rng rng(11);
  std::vector<float> q(16);
  rng.fill_gaussian(q, 1.0f);
  const float scale = 0.25f;

  const auto view = fix.head.view(fix.alloc);
  const kv::SelectedPageTable table{{view.pages[0], 0}, {view.pages[2], 2}};
  std::vector<std::size_t> tokens;
  for (std::size_t t = 0; t < 8; ++t) tokens.push_back(t);
  for (std::size_t t = 16; t < 24; ++t) tokens.push_back(t);
  const auto ref = fix.reference(q, tokens, scale);

  std::vector<float> out(16);
  DecodeWorkStats stats;
  sparse_paged_decode(fix.alloc, table, 32, q.data(), 16, scale, out.data(),
                      nullptr, &stats);
  for (std::size_t c = 0; c < 16; ++c) EXPECT_NEAR(out[c], ref[c], 1e-4f);
  EXPECT_EQ(stats.pages_visited, 2u);
  EXPECT_EQ(stats.tokens_visited, 16u);
}

TEST(SparseDecode, PartialTailBlockHandled) {
  Fixture fix(19);  // pages of 8: 8 + 8 + 3
  num::Rng rng(12);
  std::vector<float> q(16);
  rng.fill_gaussian(q, 1.0f);
  const auto view = fix.head.view(fix.alloc);
  const kv::SelectedPageTable table{{view.pages[2], 2}};
  std::vector<float> out(16);
  DecodeWorkStats stats;
  sparse_paged_decode(fix.alloc, table, 19, q.data(), 16, 0.25f, out.data(),
                      nullptr, &stats);
  EXPECT_EQ(stats.tokens_visited, 3u);
  const auto ref = fix.reference(q, {16, 17, 18}, 0.25f);
  for (std::size_t c = 0; c < 16; ++c) EXPECT_NEAR(out[c], ref[c], 1e-4f);
}

TEST(SparseDecode, EmptyTableYieldsZeros) {
  Fixture fix(8);
  std::vector<float> q(16, 1.0f), out(16, 3.0f);
  float lse = 0.0f;
  sparse_paged_decode(fix.alloc, {}, 8, q.data(), 16, 0.25f, out.data(),
                      &lse);
  for (float x : out) EXPECT_EQ(x, 0.0f);
  EXPECT_TRUE(std::isinf(lse));
}

TEST(SparseDecode, QuantizedKvWithinErrorBound) {
  Fixture fp(64, num::KvDtype::kFp16, 21);
  Fixture i8(64, num::KvDtype::kInt8, 21);  // same seed -> same data
  num::Rng rng(13);
  std::vector<float> q(16);
  rng.fill_gaussian(q, 1.0f);
  std::vector<float> a(16), b(16);
  const auto ta = kv::full_page_table(fp.head.view(fp.alloc));
  const auto tb = kv::full_page_table(i8.head.view(i8.alloc));
  sparse_paged_decode(fp.alloc, ta, 64, q.data(), 16, 0.25f, a.data());
  sparse_paged_decode(i8.alloc, tb, 64, q.data(), 16, 0.25f, b.data());
  for (std::size_t c = 0; c < 16; ++c) EXPECT_NEAR(a[c], b[c], 0.05f);
}

// Fused decode: every head flavour goes through one kernel; a config with
// no sparsity must equal per-head dense decode, and the grouped walk must
// reproduce a per-head sparse_paged_decode over the same table bit for bit
// (int4 pages, group 2 and 4).
TEST(FusedDecode, AllDenseMatchesPerHeadDense) {
  struct Case {
    num::KvDtype dtype;
    std::size_t group;
  };
  for (const Case& tc : {Case{num::KvDtype::kFp16, 2},
                         Case{num::KvDtype::kInt4, 2},
                         Case{num::KvDtype::kInt4, 4}}) {
    SCOPED_TRACE(testing::Message() << "group " << tc.group << " dtype "
                                    << static_cast<int>(tc.dtype));
    const std::size_t layers = 1, kv_heads = 2, group = tc.group, d = 16;
    kv::PageAllocator dense_alloc(cfg(tc.dtype), 64);
    kv::PageAllocator stream_alloc(cfg(tc.dtype), 64);
    kv::TwoWayKvCache cache(layers, kv_heads,
                            {kv::HeadKind::kDense, kv::HeadKind::kDense},
                            {8, 16});
    num::Rng rng(31);
    for (std::size_t t = 0; t < 40; ++t) {
      for (std::size_t h = 0; h < kv_heads; ++h) {
        std::vector<float> k(d), v(d);
        rng.fill_gaussian(k, 1.0f);
        rng.fill_gaussian(v, 1.0f);
        cache.append(dense_alloc, stream_alloc, 0, h, k.data(), v.data());
      }
    }
    num::Tensor q(kv_heads * group, d);
    for (std::size_t i = 0; i < q.size(); ++i) q.data()[i] = rng.gaussian();

    FusedDecodeConfig fc;
    fc.dynamic_dense = false;
    num::Tensor out(kv_heads * group, d);
    DecodeWorkStats stats;
    fused_sparse_decode(dense_alloc, stream_alloc, cache, 0, q.view(), group,
                        nullptr, 0, fc, out.view(), &stats);

    const float scale = 1.0f / std::sqrt(static_cast<float>(d));
    DecodeWorkStats per_head_stats;
    for (std::size_t h = 0; h < kv_heads * group; ++h) {
      const kv::HeadCache& head = cache.dense_head(0, h / group);
      std::vector<float> ref(d), per_head(d);
      dense_paged_decode(dense_alloc, head, q.row(h), d, scale, ref.data());
      const auto table = kv::full_page_table(head.view(dense_alloc));
      sparse_paged_decode(dense_alloc, table, cache.tokens(), q.row(h), d,
                          scale, per_head.data(), nullptr, &per_head_stats);
      for (std::size_t c = 0; c < d; ++c) {
        EXPECT_NEAR(out.at(h, c), ref[c], 1e-5f);
        EXPECT_EQ(std::bit_cast<std::uint32_t>(out.at(h, c)),
                  std::bit_cast<std::uint32_t>(per_head[c]))
            << "head " << h << " col " << c;
      }
    }
    EXPECT_EQ(stats.pages_visited, per_head_stats.pages_visited);
    EXPECT_EQ(stats.tokens_visited, per_head_stats.tokens_visited);
    EXPECT_EQ(stats.tokens_visited, kv_heads * group * 40);
  }
}

TEST(FusedDecode, StreamingHeadUsesSinkLocalTable) {
  const std::size_t d = 16;
  kv::PageAllocator dense_alloc(cfg(), 64);
  kv::PageAllocator stream_alloc(cfg(), 64);
  kv::TwoWayKvCache cache(1, 1, {kv::HeadKind::kStreaming}, {8, 16});
  num::Rng rng(33);
  std::vector<std::vector<float>> keys, values;
  for (std::size_t t = 0; t < 64; ++t) {
    std::vector<float> k(d), v(d);
    rng.fill_gaussian(k, 1.0f);
    rng.fill_gaussian(v, 1.0f);
    cache.append(dense_alloc, stream_alloc, 0, 0, k.data(), v.data());
    cache.evict_stale(stream_alloc, 0);
    keys.push_back(k);
    values.push_back(v);
  }
  num::Tensor q(1, d);
  for (std::size_t i = 0; i < q.size(); ++i) q.data()[i] = rng.gaussian();
  FusedDecodeConfig fc;
  num::Tensor out(1, d);
  DecodeWorkStats stats;
  fused_sparse_decode(dense_alloc, stream_alloc, cache, 0, q.view(), 1,
                      nullptr, 0, fc, out.view(), &stats);
  // Sink page (block 0: tokens 0..7) + local ring (>= 16 trailing tokens).
  EXPECT_LE(stats.tokens_visited, 8u + 24u);
  EXPECT_GE(stats.tokens_visited, 8u + 16u);

  // Reference over exactly the retained tokens.
  const auto table = cache.streaming_head(0, 0).index_table();
  std::vector<std::size_t> tokens;
  for (const auto& e : table) {
    const std::size_t begin = e.block * 8;
    const std::size_t count = std::min<std::size_t>(8, 64 - begin);
    for (std::size_t s = 0; s < count; ++s) tokens.push_back(begin + s);
  }
  const float scale = 1.0f / std::sqrt(static_cast<float>(d));
  std::vector<float> scores;
  for (std::size_t t : tokens) {
    scores.push_back(scale * num::dot(q.row(0), keys[t].data(), d));
  }
  num::softmax_inplace(scores.data(), scores.size());
  std::vector<float> ref(d, 0.0f);
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    num::axpy(scores[i], values[tokens[i]].data(), ref.data(), d);
  }
  for (std::size_t c = 0; c < d; ++c) {
    EXPECT_NEAR(out.at(0, c), ref[c], 1e-4f);
  }
}

TEST(FusedDecode, DynamicSelectionBoundsVisitedTokens) {
  const std::size_t d = 16;
  kv::PageAllocator dense_alloc(cfg(), 128);
  kv::PageAllocator stream_alloc(cfg(), 16);
  kv::TwoWayKvCache cache(1, 1, {kv::HeadKind::kDense}, {8, 16});
  num::Rng rng(35);
  for (std::size_t t = 0; t < 256; ++t) {
    std::vector<float> k(d), v(d);
    rng.fill_gaussian(k, 1.0f);
    rng.fill_gaussian(v, 1.0f);
    cache.append(dense_alloc, stream_alloc, 0, 0, k.data(), v.data());
  }
  num::Tensor q(1, d);
  for (std::size_t i = 0; i < q.size(); ++i) q.data()[i] = rng.gaussian();
  FusedDecodeConfig fc;
  fc.dynamic_dense = true;
  fc.selector.token_budget = 32;  // 4 pages of 8
  num::Tensor out(1, d);
  DecodeWorkStats stats;
  fused_sparse_decode(dense_alloc, stream_alloc, cache, 0, q.view(), 1,
                      nullptr, 0, fc, out.view(), &stats);
  EXPECT_LE(stats.tokens_visited, 32u);
  EXPECT_EQ(stats.pages_visited, 4u);
}

}  // namespace
}  // namespace lserve::attn
