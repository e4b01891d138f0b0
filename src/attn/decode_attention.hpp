// The one paged attention walk (LServe §3.6), shared by prefill and decode.
//
// Every head flavour reads its KV through a SelectedPageTable:
//   * dense head, no pruning      — table = full page table (vLLM baseline);
//   * dense head, dynamic pruning — table = page-selector output;
//   * streaming head              — table = sink+local index table.
//
// The walk's physical iteration index follows the table in order; each
// entry's logical block index maps the step back to the actual token
// positions (the two-level physical->logical indexing). KV rows are
// dequantized on load, modelling QServe-style fused dequantization. One
// call serves every query row of a kv head's GQA group: each page is
// pinned once and each token's K/V loaded once, then folded into every row
// that sees it. The pages are the only KV source: prefill appends a chunk
// before attending, then passes a tile of its rows; decode passes the
// group's single-position rows.
#pragma once

#include <cstddef>
#include <span>

#include "attn/block_sparse_prefill.hpp"
#include "attn/streaming_attention.hpp"
#include "kv/page_allocator.hpp"
#include "kv/page_table.hpp"
#include "numeric/tensor.hpp"

namespace lserve::attn {

/// Cumulative work counters used by benches to verify iteration-count
/// claims (theoretical speedup = fewer sequential iterations).
struct DecodeWorkStats {
  std::size_t pages_visited = 0;
  std::size_t tokens_visited = 0;
  /// Attention-policy routing telemetry, filled by the serving engine per
  /// decode step (never by the kernel): steps that ran full-context dense
  /// reads vs the configured sparse-capable pipeline. Lives in this
  /// scratch so the engine's ordered post-join merge keeps the counters
  /// bit-identical across decode thread counts.
  std::size_t dense_route_steps = 0;
  std::size_t sparse_route_steps = 0;
  /// Dense-head page selections computed vs reused from the
  /// ReusableSelector cache (filled by fused_sparse_decode).
  std::size_t selector_runs = 0;
  std::size_t selector_reuses = 0;
};

/// Query rows of one kv head's group. Row i of `q` holds the group's
/// `group` queries at absolute position pos0 + i, head-minor
/// ([positions x group*head_dim]); `out` has the same shape.
struct GroupRows {
  num::ConstMatView q;
  num::MatView out;
  std::size_t pos0 = 0;
  std::size_t group = 1;
};

/// Which tokens a row sees on top of causality (token <= row position).
struct Visibility {
  enum class Kind {
    kCausal,     ///< nothing more: decode and causal dense prefill.
    kStreaming,  ///< Λ band in absolute coordinates (streaming prefill).
    kBlockMask,  ///< chunk-local block masks (dynamic dense prefill).
  };
  Kind kind = Kind::kCausal;
  PrefillTiling tiling;
  /// kStreaming: key tile kb is live for position p iff kb < sink_blocks
  /// or kb + local_blocks > diag(p), diag(p) being the k-tile of the last
  /// row of p's q-tile clamped to `total_tokens` — BlockMask::streaming's
  /// rule, so every chunk schedule makes the monolithic decisions.
  StreamingBlocks streaming;
  std::size_t total_tokens = 0;
  /// kBlockMask: one mask per group member over the chunk's own rows and
  /// keys, both indexed from `chunk_begin`; tokens before it (the cached
  /// history) are always visible.
  std::span<const BlockMask> masks;
  std::size_t chunk_begin = 0;
};

/// Attention of `rows` over the tokens listed in `table` (sorted by
/// logical block) that precede the last row's causal end: row i sees
/// token c iff c <= pos0 + i and `vis` admits it. Each row folds its
/// visible tokens in ascending position order, so splitting rows across
/// calls never changes a bit. `lse_out`, if non-null, receives one
/// log-sum-exp per row (row-major, head-minor); `stats`, if non-null,
/// counts visited pages and tokens once per row.
void paged_attention(const kv::PageAllocator& alloc,
                     const kv::SelectedPageTable& table,
                     const GroupRows& rows, const Visibility& vis,
                     float scale, float* lse_out = nullptr,
                     DecodeWorkStats* stats = nullptr);

/// Sparse decode for one head: the single-row paged_attention.
///
/// `table` lists the pages to visit (sorted by logical block);
/// `seq_tokens` is the sequence's total token count, needed to size the
/// trailing partial block. `q` has `head_dim` floats; the normalized output
/// is written to `out`. `lse_out`, if non-null, receives the score
/// log-sum-exp; `stats`, if non-null, is incremented.
void sparse_paged_decode(const kv::PageAllocator& alloc,
                         const kv::SelectedPageTable& table,
                         std::size_t seq_tokens, const float* q,
                         std::size_t head_dim, float scale, float* out,
                         float* lse_out = nullptr,
                         DecodeWorkStats* stats = nullptr);

}  // namespace lserve::attn
