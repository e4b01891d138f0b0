// Tests for the page pool allocator (src/kv/page_allocator).
#include <gtest/gtest.h>

#include <vector>

#include "kv/page_allocator.hpp"

namespace lserve::kv {
namespace {

PageConfig cfg() {
  PageConfig c;
  c.page_size = 8;
  c.logical_page_size = 8;
  c.head_dim = 4;
  return c;
}

TEST(PageAllocator, AllocateFreeCycle) {
  PageAllocator alloc(cfg(), 4);
  EXPECT_EQ(alloc.pages_in_use(), 0u);
  const PageId a = alloc.allocate();
  const PageId b = alloc.allocate();
  EXPECT_NE(a, b);
  EXPECT_EQ(alloc.pages_in_use(), 2u);
  alloc.release(a);
  EXPECT_EQ(alloc.pages_in_use(), 1u);
  alloc.release(b);
  EXPECT_EQ(alloc.pages_in_use(), 0u);
}

TEST(PageAllocator, OccupancyQueriesTrackAllocateAndFree) {
  PageAllocator alloc(cfg(), 4);
  const std::size_t cap = alloc.capacity();
  EXPECT_EQ(alloc.occupancy().free, cap);
  const PageId a = alloc.allocate();
  const PageId b = alloc.allocate();
  EXPECT_EQ(alloc.occupancy().free, cap - 2);
  EXPECT_EQ(alloc.occupancy().free + alloc.pages_in_use(), alloc.capacity());
  alloc.release(a);
  alloc.release(b);
  EXPECT_EQ(alloc.occupancy().free, cap);
}

TEST(PageAllocator, PagesForTokensRoundsUp) {
  PageAllocator alloc(cfg(), 2);  // page_size = 8
  EXPECT_EQ(alloc.pages_for_tokens(0), 0u);
  EXPECT_EQ(alloc.pages_for_tokens(1), 1u);
  EXPECT_EQ(alloc.pages_for_tokens(8), 1u);
  EXPECT_EQ(alloc.pages_for_tokens(9), 2u);
  EXPECT_EQ(alloc.pages_for_tokens(64), 8u);
}

TEST(PageAllocator, GrowsBeyondInitialCapacity) {
  PageAllocator alloc(cfg(), 2);
  std::vector<PageId> ids;
  for (int i = 0; i < 10; ++i) ids.push_back(alloc.allocate());
  EXPECT_EQ(alloc.pages_in_use(), 10u);
  EXPECT_GE(alloc.capacity(), 10u);
  for (PageId id : ids) alloc.release(id);
  EXPECT_EQ(alloc.pages_in_use(), 0u);
}

TEST(PageAllocator, RecycledPagesAreEmpty) {
  PageAllocator alloc(cfg(), 2);
  const PageId a = alloc.allocate();
  const float k[4] = {1, 2, 3, 4};
  const float v[4] = {5, 6, 7, 8};
  alloc.pin_mut(a).page().append(k, v);
  EXPECT_EQ(alloc.pin(a).page().size(), 1u);
  alloc.release(a);
  const PageId b = alloc.allocate();  // LIFO: same slot comes back
  EXPECT_EQ(b, a);
  EXPECT_TRUE(alloc.pin(b).page().empty());
}

TEST(PageAllocator, PeakTracking) {
  PageAllocator alloc(cfg(), 8);
  std::vector<PageId> ids;
  for (int i = 0; i < 5; ++i) ids.push_back(alloc.allocate());
  for (PageId id : ids) alloc.release(id);
  alloc.allocate();
  EXPECT_EQ(alloc.occupancy().peak_in_use, 5u);
}

TEST(PageAllocator, DeviceBytesTrackLivePagesOnly) {
  PageAllocator alloc(cfg(), 4);
  EXPECT_DOUBLE_EQ(alloc.device_bytes_in_use(), 0.0);
  const PageId a = alloc.allocate();
  const double one = alloc.device_bytes_in_use();
  EXPECT_GT(one, 0.0);
  const PageId b = alloc.allocate();
  EXPECT_DOUBLE_EQ(alloc.device_bytes_in_use(), 2 * one);
  alloc.release(a);
  EXPECT_DOUBLE_EQ(alloc.device_bytes_in_use(), one);
  alloc.release(b);
}

TEST(PageAllocator, PagesInheritPoolConfig) {
  PageAllocator alloc(cfg(), 1);
  const PageId a = alloc.allocate();
  EXPECT_EQ(alloc.pin(a).page().config().page_size, 8u);
  EXPECT_EQ(alloc.pin(a).page().config().head_dim, 4u);
  alloc.release(a);
}

}  // namespace
}  // namespace lserve::kv
