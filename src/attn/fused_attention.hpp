// Fused per-layer attention dispatch (LServe Fig 5, §3.4/§3.6).
//
// One call processes every query head of a layer, mixing sparsity patterns
// per head exactly as the fused CUDA kernels do. Both stages run the one
// paged_attention walk once per kv head, with the whole query group's
// rows, over KV read only from the pages; what differs per head is only
// the page table and the visibility rule:
//   prefill — dense (retrieval) heads read the full table, causally or
//             under a dynamically-estimated chunk mask; streaming heads
//             read the sink+local index table under the Λ band.
//   decode  — dense heads read the full table or the page selector's
//             output; streaming heads the sink+local index table.
// GQA is handled here: query head h reads kv head h / group_size, and the
// page selector scores against the group's mean query (one selection per
// kv head, shared by its query group). Scores use 1/sqrt(head_dim).
#pragma once

#include <cstddef>

#include "attn/block_sparse_prefill.hpp"
#include "attn/decode_attention.hpp"
#include "attn/streaming_attention.hpp"
#include "kv/two_way_cache.hpp"
#include "sparse/hierarchical_selector.hpp"
#include "sparse/prefill_mask.hpp"
#include "sparse/quest_selector.hpp"
#include "sparse/reusable_selector.hpp"

namespace lserve::attn {

/// Prefill-stage policy for a layer.
struct FusedPrefillConfig {
  PrefillTiling tiling;
  StreamingBlocks streaming;          ///< Λ geometry for streaming heads.
  bool dynamic_dense = false;         ///< MInference-style mask on dense heads.
  sparse::DynamicPrefillConfig dynamic_cfg;
  /// Full sequence length being prefilled (prompt tokens), used by
  /// streaming heads to clamp the Λ diagonal in absolute coordinates so
  /// every chunk schedule makes identical tile decisions. 0 means "this
  /// chunk is the whole sequence" (history + chunk).
  std::size_t total_tokens = 0;
};

/// Decode-stage policy for a layer.
struct FusedDecodeConfig {
  bool dynamic_dense = true;          ///< page pruning on dense heads.
  bool hierarchical = true;           ///< hierarchical vs flat page scoring.
  sparse::PageSelectorConfig selector;
};

/// Fused CHUNKED prefill over all heads of one layer. Called AFTER the
/// chunk's KV write-back (TwoWayKvCache::append, with streaming eviction
/// left to the caller's evict_stale() after this call): per-head token
/// counts minus the chunk length give the history extent, and every key
/// and value, the chunk's own included, is read back from the pages, so
/// attention sees exactly the bits later readers load. The chunk's queries
/// attend to the paged history (dense heads: full page table; streaming
/// heads: sink+local index table) plus the in-chunk causal/Λ/dynamic
/// prefix; streaming Λ decisions are made in absolute coordinates against
/// cfg.total_tokens. Together these make prefill invariant to the
/// chunk/attach schedule for causal dense and streaming heads
/// (dynamic_dense masks remain chunk-local, hence schedule-dependent).
/// With an empty history this is the whole-prompt prefill.
/// q: [n x q_heads*head_dim] for the CHUNK; k/v (the chunk's rows as
/// appended) are unused, since every K/V row is read from the pages.
void fused_chunked_prefill(const kv::PageAllocator& dense_alloc,
                           const kv::PageAllocator& stream_alloc,
                           const kv::TwoWayKvCache& cache, std::size_t layer,
                           num::ConstMatView q, num::ConstMatView k,
                           num::ConstMatView v, std::size_t head_dim,
                           const FusedPrefillConfig& cfg, num::MatView out);

/// Fused decode over all heads of one layer.
/// q_heads: packed [q_heads x head_dim] current-token queries (stride
/// head_dim, so a group's rows are contiguous); out same shape.
/// `selector` may be null (then selection, if enabled, runs every step);
/// `step` is the 0-based decode step used for reuse chunking.
void fused_sparse_decode(const kv::PageAllocator& dense_alloc,
                         const kv::PageAllocator& stream_alloc,
                         const kv::TwoWayKvCache& cache, std::size_t layer,
                         num::ConstMatView q_heads, std::size_t group_size,
                         sparse::ReusableSelector* selector, std::size_t step,
                         const FusedDecodeConfig& cfg, num::MatView out,
                         DecodeWorkStats* stats = nullptr);

}  // namespace lserve::attn
