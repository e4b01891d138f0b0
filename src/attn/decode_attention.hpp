// Unified sparse decode attention kernel (LServe §3.6).
//
// One kernel serves every decode-stage head flavour:
//   * dense head, no pruning      — table = full page table (vLLM baseline);
//   * dense head, dynamic pruning — table = page-selector output;
//   * streaming head              — table = sink+local index table.
//
// The kernel's physical iteration index walks the SelectedPageTable in
// order; each entry's logical block index maps the step back to the actual
// token positions (the two-level physical->logical indexing). KV rows are
// dequantized on load, modelling QServe-style fused dequantuation.
#pragma once

#include <cstddef>

#include "kv/page_allocator.hpp"
#include "kv/page_table.hpp"

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

/// Sparse decode for one head.
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
