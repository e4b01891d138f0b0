#include "kv/two_way_cache.hpp"

#include <algorithm>
#include <cassert>

namespace lserve::kv {

void StreamingHeadCache::append(PageAllocator& alloc,
                                const StreamingConfig& cfg, const float* key,
                                const float* value) {
  const std::size_t page_size = alloc.config().page_size;
  const std::size_t sink_blocks = cfg.sink_blocks(page_size);
  const std::uint32_t block = static_cast<std::uint32_t>(tokens_ / page_size);

  if (tokens_ % page_size == 0) {
    const PageId id = alloc.allocate();
    if (block < sink_blocks) {
      sink_pages_.push_back(id);
    } else {
      local_pages_.push_back({block, id});
    }
  }
  const PageWritePin pin = block < sink_blocks
                               ? alloc.pin_mut(sink_pages_[block])
                               : alloc.pin_mut(local_pages_.back().page);
  pin.page().append(key, value);
  ++tokens_;
}

void StreamingHeadCache::evict_stale(PageAllocator& alloc,
                                     const StreamingConfig& cfg) {
  // Evict local pages whose entire block now precedes the local window.
  const std::size_t page_size = alloc.config().page_size;
  while (!local_pages_.empty() &&
         !cfg.retains(local_pages_.front().block, tokens_, page_size)) {
    alloc.release(local_pages_.front().page);
    local_pages_.pop_front();
  }
}

void StreamingHeadCache::attach(
    std::vector<PageId> sinks,
    const std::vector<std::pair<std::uint32_t, PageId>>& locals,
    std::size_t tokens) noexcept {
  assert(sink_pages_.empty() && local_pages_.empty() && tokens_ == 0);
  sink_pages_ = std::move(sinks);
  for (const auto& [block, page] : locals) {
    assert(local_pages_.empty() || local_pages_.back().block < block);
    local_pages_.push_back({block, page});
  }
  tokens_ = tokens;
}

PageId StreamingHeadCache::page_for_block(std::uint32_t block) const noexcept {
  if (block < sink_pages_.size()) return sink_pages_[block];
  for (const LocalPage& lp : local_pages_) {
    if (lp.block == block) return lp.page;
  }
  return kInvalidPage;
}

SelectedPageTable StreamingHeadCache::index_table() const {
  SelectedPageTable table;
  table.reserve(sink_pages_.size() + local_pages_.size());
  for (std::size_t b = 0; b < sink_pages_.size(); ++b) {
    table.push_back({sink_pages_[b], static_cast<std::uint32_t>(b)});
  }
  for (const LocalPage& lp : local_pages_) {
    // A sink block can also be the newest local block early in a sequence;
    // blocks are disjoint by construction so no dedup is needed.
    table.push_back({lp.page, lp.block});
  }
  return table;
}

void StreamingHeadCache::release(PageAllocator& alloc) noexcept {
  for (PageId id : sink_pages_) alloc.release(id);
  for (const LocalPage& lp : local_pages_) alloc.release(lp.page);
  sink_pages_.clear();
  local_pages_.clear();
  tokens_ = 0;
}

TwoWayKvCache::TwoWayKvCache(std::size_t layers, std::size_t kv_heads,
                             std::vector<HeadKind> kinds,
                             StreamingConfig streaming_cfg)
    : layers_(layers),
      kv_heads_(kv_heads),
      kinds_(std::move(kinds)),
      streaming_cfg_(streaming_cfg),
      dense_(layers * kv_heads),
      streaming_(layers * kv_heads) {
  assert(kinds_.size() == layers_ * kv_heads_);
}

void TwoWayKvCache::append(PageAllocator& dense_alloc,
                           PageAllocator& stream_alloc, std::size_t layer,
                           std::size_t h, const float* key,
                           const float* value) {
  const std::size_t idx = layer * kv_heads_ + h;
  if (kinds_[idx] == HeadKind::kDense) {
    dense_[idx].append(dense_alloc, key, value);
  } else {
    streaming_[idx].append(stream_alloc, streaming_cfg_, key, value);
  }
  // Count tokens once per model step: layer 0, head 0 is appended exactly
  // once per token in every execution path.
  if (layer == 0 && h == 0) ++tokens_seen_;
}

void TwoWayKvCache::evict_stale(PageAllocator& stream_alloc,
                                std::size_t layer) {
  for (std::size_t h = 0; h < kv_heads_; ++h) {
    const std::size_t idx = layer * kv_heads_ + h;
    if (kinds_[idx] == HeadKind::kStreaming) {
      streaming_[idx].evict_stale(stream_alloc, streaming_cfg_);
    }
  }
}

const HeadCache& TwoWayKvCache::dense_head(std::size_t layer,
                                           std::size_t h) const {
  const std::size_t idx = layer * kv_heads_ + h;
  assert(kinds_[idx] == HeadKind::kDense);
  return dense_[idx];
}

HeadCache& TwoWayKvCache::dense_head(std::size_t layer, std::size_t h) {
  const std::size_t idx = layer * kv_heads_ + h;
  assert(kinds_[idx] == HeadKind::kDense);
  return dense_[idx];
}

const StreamingHeadCache& TwoWayKvCache::streaming_head(std::size_t layer,
                                                        std::size_t h) const {
  const std::size_t idx = layer * kv_heads_ + h;
  assert(kinds_[idx] == HeadKind::kStreaming);
  return streaming_[idx];
}

StreamingHeadCache& TwoWayKvCache::streaming_head(std::size_t layer,
                                                  std::size_t h) {
  const std::size_t idx = layer * kv_heads_ + h;
  assert(kinds_[idx] == HeadKind::kStreaming);
  return streaming_[idx];
}

void TwoWayKvCache::release(PageAllocator& dense_alloc,
                            PageAllocator& stream_alloc) {
  for (std::size_t i = 0; i < kinds_.size(); ++i) {
    if (kinds_[i] == HeadKind::kDense) {
      dense_[i].release(dense_alloc);
    } else {
      streaming_[i].release(stream_alloc);
    }
  }
  tokens_seen_ = 0;
}

}  // namespace lserve::kv
