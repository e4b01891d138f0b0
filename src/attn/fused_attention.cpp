#include "attn/fused_attention.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <span>
#include <vector>

#include "numeric/math.hpp"

namespace lserve::attn {

void fused_chunked_prefill(const kv::PageAllocator& dense_alloc,
                           const kv::PageAllocator& stream_alloc,
                           const kv::TwoWayKvCache& cache, std::size_t layer,
                           num::ConstMatView q, num::ConstMatView /*k*/,
                           num::ConstMatView /*v*/, std::size_t head_dim,
                           const FusedPrefillConfig& cfg, num::MatView out) {
  const std::size_t n = q.rows;
  const std::size_t q_heads = q.cols / head_dim;
  const std::size_t kv_heads = cache.kv_heads();
  assert(q_heads % kv_heads == 0);
  const std::size_t group = q_heads / kv_heads;
  const std::size_t width = group * head_dim;
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim));
  std::vector<BlockMask> masks;
  num::Tensor chunk_keys(cfg.dynamic_dense ? n : 0, head_dim);

  for (std::size_t kvh = 0; kvh < kv_heads; ++kvh) {
    const bool streaming = cache.kind(layer, kvh) == kv::HeadKind::kStreaming;
    // Per-head token counts are authoritative: during a chunked prefill
    // the layer loop interleaves write-back and attention, so the global
    // sequence counter is ahead of the not-yet-written layers. The chunk
    // was appended before this call, so history is what precedes it.
    const std::size_t appended =
        streaming ? cache.streaming_head(layer, kvh).tokens()
                  : cache.dense_head(layer, kvh).tokens();
    assert(appended >= n);
    const std::size_t history_tokens = appended - n;
    // The table includes the chunk's own pages (and, for streaming heads,
    // stale locals whose eviction is deferred to end of chunk).
    const kv::SelectedPageTable table =
        streaming ? cache.streaming_head(layer, kvh).index_table()
                  : kv::full_page_table(
                        cache.dense_head(layer, kvh).view(dense_alloc));
    const kv::PageAllocator& alloc = streaming ? stream_alloc : dense_alloc;
    const num::ConstMatView qg = q.cols_slice(kvh * width, width);
    const num::MatView og = out.cols_slice(kvh * width, width);

    Visibility vis;
    vis.tiling = cfg.tiling;
    if (streaming) {
      vis.kind = Visibility::Kind::kStreaming;
      vis.streaming = cfg.streaming;
      vis.total_tokens = cfg.total_tokens != 0 ? cfg.total_tokens : appended;
      assert(vis.total_tokens >= appended);
    } else if (cfg.dynamic_dense) {
      // The mask scores the chunk's keys as stored, the bits the walk
      // folds.
      const kv::HeadCache& head = cache.dense_head(layer, kvh);
      for (std::size_t t = 0; t < n; ++t) {
        head.load_key(dense_alloc, history_tokens + t, chunk_keys.row(t));
      }
      masks.clear();
      for (std::size_t g = 0; g < group; ++g) {
        masks.push_back(sparse::build_dynamic_prefill_mask(
            qg.cols_slice(g * head_dim, head_dim), chunk_keys.view(),
            cfg.tiling, cfg.dynamic_cfg, scale));
      }
      vis.kind = Visibility::Kind::kBlockMask;
      vis.masks = masks;
      vis.chunk_begin = history_tokens;
    }
    // One walk per q-tile keeps the group's accumulators cache-resident.
    for (std::size_t row0 = 0; row0 < n; row0 += cfg.tiling.tile_q) {
      const std::size_t rows = std::min(cfg.tiling.tile_q, n - row0);
      paged_attention(alloc, table,
                      {qg.rows_slice(row0, rows), og.rows_slice(row0, rows),
                       history_tokens + row0, group},
                      vis, scale);
    }
  }
}

void fused_sparse_decode(const kv::PageAllocator& dense_alloc,
                         const kv::PageAllocator& stream_alloc,
                         const kv::TwoWayKvCache& cache, std::size_t layer,
                         num::ConstMatView q_heads, std::size_t group_size,
                         sparse::ReusableSelector* selector, std::size_t step,
                         const FusedDecodeConfig& cfg, num::MatView out,
                         DecodeWorkStats* stats) {
  const std::size_t head_dim = q_heads.cols;
  const std::size_t kv_heads = cache.kv_heads();
  assert(q_heads.rows == kv_heads * group_size);
  assert(q_heads.stride == head_dim && out.stride == head_dim);
  const std::size_t width = group_size * head_dim;
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim));
  const std::size_t seq_tokens = cache.tokens();
  assert(seq_tokens > 0);

  std::vector<float> group_q(head_dim);
  for (std::size_t kvh = 0; kvh < kv_heads; ++kvh) {
    kv::SelectedPageTable table;

    if (cache.kind(layer, kvh) == kv::HeadKind::kStreaming) {
      table = cache.streaming_head(layer, kvh).index_table();
    } else {
      const kv::HeadCache& head = cache.dense_head(layer, kvh);
      if (!cfg.dynamic_dense) {
        table = kv::full_page_table(head.view(dense_alloc));
      } else {
        // Selector query: mean of the group's query heads (one selection
        // per kv head, shared across its group).
        std::fill(group_q.begin(), group_q.end(), 0.0f);
        for (std::size_t g = 0; g < group_size; ++g) {
          num::axpy(1.0f / static_cast<float>(group_size),
                    q_heads.row(kvh * group_size + g), group_q.data(),
                    head_dim);
        }
        bool ran = false;
        auto recompute = [&]() {
          ran = true;
          return cfg.hierarchical
                     ? sparse::select_pages_hierarchical(
                           dense_alloc, head, group_q.data(), cfg.selector)
                     : sparse::select_pages_flat(dense_alloc, head,
                                                 group_q.data(), cfg.selector);
        };
        if (selector != nullptr) {
          const std::size_t slot = layer * kv_heads + kvh;
          table = selector->get(slot, step, recompute);
        } else {
          table = recompute();
        }
        if (stats != nullptr) {
          ++(ran ? stats->selector_runs : stats->selector_reuses);
        }
      }
    }

    const kv::PageAllocator& alloc =
        cache.kind(layer, kvh) == kv::HeadKind::kStreaming ? stream_alloc
                                                           : dense_alloc;
    // Tiered store: hint the whole selected table before the walk so the
    // prefetcher can promote cold pages while the walk reads hot ones
    // (no-op when tiering is off).
    alloc.prefetch(std::span<const kv::SelectedPage>(table));
    const std::size_t h0 = kvh * group_size;
    paged_attention(alloc, table,
                    {{q_heads.row(h0), 1, width, width},
                     {out.row(h0), 1, width, width}, seq_tokens - 1,
                     group_size},
                    {}, scale, nullptr, stats);
  }
}

}  // namespace lserve::attn
