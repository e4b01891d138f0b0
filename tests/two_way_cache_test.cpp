// Tests for the two-way (dense / streaming) paging system
// (src/kv/two_way_cache).
#include <gtest/gtest.h>

#include <vector>

#include "kv/two_way_cache.hpp"
#include "numeric/rng.hpp"

namespace lserve::kv {
namespace {

PageConfig dense_cfg() {
  PageConfig c;
  c.page_size = 8;
  c.logical_page_size = 4;
  c.head_dim = 8;
  return c;
}

PageConfig stream_cfg() {
  PageConfig c = dense_cfg();
  c.track_kstats = false;
  c.logical_page_size = c.page_size;
  return c;
}

StreamingConfig lambda_cfg() {
  return {/*sink_tokens=*/8, /*local_tokens=*/16};
}

void append_n(StreamingHeadCache& head, PageAllocator& alloc,
              const StreamingConfig& cfg, std::size_t n) {
  std::vector<float> k(8, 1.0f), v(8, 2.0f);
  for (std::size_t t = 0; t < n; ++t) {
    head.append(alloc, cfg, k.data(), v.data());
    head.evict_stale(alloc, cfg);
  }
}

TEST(StreamingHeadCache, BoundedMemoryRegardlessOfLength) {
  PageAllocator alloc(stream_cfg(), 16);
  StreamingHeadCache head;
  const StreamingConfig cfg = lambda_cfg();
  append_n(head, alloc, cfg, 512);
  // 1 sink page (8 tokens) + local ring covering >=16 trailing tokens:
  // at most 3 local pages for page_size 8.
  EXPECT_LE(head.pages_held(), 4u);
  EXPECT_EQ(head.tokens(), 512u);
  EXPECT_EQ(alloc.pages_in_use(), head.pages_held());
}

class StreamingLengthSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(StreamingLengthSweep, PagesHeldIsConstantInLength) {
  PageAllocator alloc(stream_cfg(), 16);
  StreamingHeadCache head;
  const StreamingConfig cfg = lambda_cfg();
  append_n(head, alloc, cfg, GetParam());
  EXPECT_LE(head.pages_held(), 4u);
}

INSTANTIATE_TEST_SUITE_P(Lengths, StreamingLengthSweep,
                         ::testing::Values(32, 64, 128, 1024, 4096));

TEST(StreamingHeadCache, IndexTableContainsSinkAndLocalBlocks) {
  PageAllocator alloc(stream_cfg(), 16);
  StreamingHeadCache head;
  const StreamingConfig cfg = lambda_cfg();
  append_n(head, alloc, cfg, 100);  // blocks 0..12 (block 12 partial)
  const SelectedPageTable table = head.index_table();
  ASSERT_GE(table.size(), 2u);
  EXPECT_EQ(table.front().block, 0u);  // sink block
  // Local blocks cover the last 16 tokens: blocks 10, 11, 12 at least 11,12.
  EXPECT_EQ(table.back().block, 12u);
  // Table must be sorted with disjoint blocks.
  for (std::size_t i = 1; i < table.size(); ++i) {
    EXPECT_LT(table[i - 1].block, table[i].block);
  }
}

TEST(StreamingHeadCache, LocalWindowContentsAreRetained) {
  PageAllocator alloc(stream_cfg(), 16);
  StreamingHeadCache head;
  const StreamingConfig cfg = lambda_cfg();
  // Append tokens with identifiable values; verify the retained local pages
  // hold the most recent ones.
  for (std::size_t t = 0; t < 64; ++t) {
    std::vector<float> k(8, static_cast<float>(t));
    std::vector<float> v(8, static_cast<float>(t));
    head.append(alloc, cfg, k.data(), v.data());
  }
  const SelectedPageTable table = head.index_table();
  const PagePin last_pin = alloc.pin(table.back().page);
  const Page& last_page = last_pin.page();
  std::vector<float> out(8);
  last_page.load_value(last_page.size() - 1, out.data());
  EXPECT_FLOAT_EQ(out[0], 63.0f);
}

TEST(StreamingHeadCache, ReleaseFreesEverything) {
  PageAllocator alloc(stream_cfg(), 16);
  StreamingHeadCache head;
  append_n(head, alloc, lambda_cfg(), 200);
  EXPECT_GT(alloc.pages_in_use(), 0u);
  head.release(alloc);
  EXPECT_EQ(alloc.pages_in_use(), 0u);
  EXPECT_EQ(head.tokens(), 0u);
}

TEST(TwoWayKvCache, RoutesAppendsByHeadKind) {
  PageAllocator dense_alloc(dense_cfg(), 32);
  PageAllocator stream_alloc(stream_cfg(), 32);
  // 1 layer, 2 kv heads: head 0 dense, head 1 streaming.
  TwoWayKvCache cache(1, 2, {HeadKind::kDense, HeadKind::kStreaming},
                      lambda_cfg());
  std::vector<float> k(8, 1.0f), v(8, 2.0f);
  for (std::size_t t = 0; t < 64; ++t) {
    cache.append(dense_alloc, stream_alloc, 0, 0, k.data(), v.data());
    cache.append(dense_alloc, stream_alloc, 0, 1, k.data(), v.data());
    cache.evict_stale(stream_alloc, 0);
  }
  EXPECT_EQ(cache.tokens(), 64u);
  EXPECT_EQ(cache.dense_head(0, 0).tokens(), 64u);
  EXPECT_EQ(cache.dense_head(0, 0).num_pages(), 8u);
  EXPECT_EQ(cache.streaming_head(0, 1).tokens(), 64u);
  EXPECT_LE(cache.streaming_head(0, 1).pages_held(), 4u);
  // Memory saving: the streaming pool holds far fewer pages.
  EXPECT_LT(stream_alloc.pages_in_use(), dense_alloc.pages_in_use());
}

TEST(TwoWayKvCache, ReleaseResetsBothPools) {
  PageAllocator dense_alloc(dense_cfg(), 32);
  PageAllocator stream_alloc(stream_cfg(), 32);
  TwoWayKvCache cache(2, 2,
                      {HeadKind::kDense, HeadKind::kStreaming,
                       HeadKind::kStreaming, HeadKind::kDense},
                      lambda_cfg());
  std::vector<float> k(8, 1.0f), v(8, 2.0f);
  for (std::size_t t = 0; t < 40; ++t) {
    for (std::size_t layer = 0; layer < 2; ++layer) {
      for (std::size_t h = 0; h < 2; ++h) {
        cache.append(dense_alloc, stream_alloc, layer, h, k.data(), v.data());
      }
    }
  }
  cache.release(dense_alloc, stream_alloc);
  EXPECT_EQ(dense_alloc.pages_in_use(), 0u);
  EXPECT_EQ(stream_alloc.pages_in_use(), 0u);
  EXPECT_EQ(cache.tokens(), 0u);
}

TEST(TwoWayKvCache, KindAccessors) {
  TwoWayKvCache cache(1, 2, {HeadKind::kDense, HeadKind::kStreaming},
                      lambda_cfg());
  EXPECT_EQ(cache.kind(0, 0), HeadKind::kDense);
  EXPECT_EQ(cache.kind(0, 1), HeadKind::kStreaming);
  EXPECT_EQ(cache.layers(), 1u);
  EXPECT_EQ(cache.kv_heads(), 2u);
}

}  // namespace
}  // namespace lserve::kv
