#include "kv/kv_cache.hpp"

#include <cassert>

namespace lserve::kv {

void HeadCache::append(PageAllocator& alloc, const float* key,
                       const float* value) {
  const std::size_t page_size = alloc.config().page_size;
  if (tokens_ % page_size == 0) {
    pages_.push_back(alloc.allocate());
  }
  const PageWritePin pin = alloc.pin_mut(pages_.back());
  const std::size_t slot = pin.page().append(key, value);
  assert(slot == tokens_ % page_size);
  (void)slot;
  ++tokens_;
}

void HeadCache::attach(std::vector<PageId> pages, std::size_t tokens) noexcept {
  assert(pages_.empty() && tokens_ == 0);
  pages_ = std::move(pages);
  tokens_ = tokens;
}

void HeadCache::load_key(const PageAllocator& alloc, std::size_t t,
                         float* out) const {
  assert(t < tokens_);
  const std::size_t page_size = alloc.config().page_size;
  alloc.pin(pages_[t / page_size]).page().load_key(t % page_size, out);
}

void HeadCache::load_value(const PageAllocator& alloc, std::size_t t,
                           float* out) const {
  assert(t < tokens_);
  const std::size_t page_size = alloc.config().page_size;
  alloc.pin(pages_[t / page_size]).page().load_value(t % page_size, out);
}

void HeadCache::release(PageAllocator& alloc) noexcept {
  for (PageId id : pages_) alloc.release(id);
  pages_.clear();
  tokens_ = 0;
}

}  // namespace lserve::kv
