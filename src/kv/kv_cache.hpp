// Per-sequence paged KV cache for dense (retrieval) heads.
//
// HeadCache owns the page list of one (layer, kv-head). Pages come from a
// shared PageAllocator so multiple sequences can coexist in one pool, as in
// a real serving engine.
#pragma once

#include <cstddef>
#include <vector>

#include "kv/page_allocator.hpp"
#include "kv/page_table.hpp"

namespace lserve::kv {

/// Paged KV storage of one attention (kv-)head for one sequence.
class HeadCache {
 public:
  /// Appends one token's key/value; allocates a new page on block boundary.
  void append(PageAllocator& alloc, const float* key, const float* value);

  /// Dequantizes the key / value of absolute token `t` (0-based).
  void load_key(const PageAllocator& alloc, std::size_t t, float* out) const;
  void load_value(const PageAllocator& alloc, std::size_t t, float* out) const;

  /// Prefix-cache attach: adopts `pages` as the first ceil(tokens/NP)
  /// pages of this head, already filled with `tokens` tokens. The caller
  /// owns one reference per page (shared full pages via add_ref, a private
  /// COW copy for a partial tail). Precondition: the head is empty.
  void attach(std::vector<PageId> pages, std::size_t tokens) noexcept;

  std::size_t tokens() const noexcept { return tokens_; }
  std::size_t num_pages() const noexcept { return pages_.size(); }
  const std::vector<PageId>& pages() const noexcept { return pages_; }

  PageTableView view(const PageAllocator& alloc) const noexcept {
    return {pages_, tokens_, alloc.config().page_size};
  }

  /// Frees all pages back to the allocator.
  void release(PageAllocator& alloc) noexcept;

 private:
  std::vector<PageId> pages_;
  std::size_t tokens_ = 0;
};

}  // namespace lserve::kv
