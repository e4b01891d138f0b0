// Streaming-head attention (Λ-shaped mask: attention sinks + local window).
//
// Serving never calls a streaming kernel of its own: both stages run the
// one paged_attention walk (decode_attention.hpp) over the sink+local
// index table produced by kv::StreamingHeadCache (§3.6) — decode causally,
// prefill under the absolute-coordinate Λ visibility rule, whose geometry
// is StreamingBlocks below. That is the point of the unification. This
// header keeps the block-sparse Λ prefill and an exact token-granular
// reference as test and bench oracles.
#pragma once

#include <cstddef>

#include "attn/block_sparse_prefill.hpp"
#include "numeric/tensor.hpp"

namespace lserve::attn {

/// Λ-mask geometry in blocks.
struct StreamingBlocks {
  std::size_t sink_blocks = 1;
  std::size_t local_blocks = 2;
};

/// Streaming prefill for one head via the unified block-sparse kernel.
void streaming_prefill(num::ConstMatView q, num::ConstMatView k,
                       num::ConstMatView v, StreamingBlocks sb,
                       PrefillTiling tiling, float scale, num::MatView out);

/// Token-granular reference: row i attends to keys j <= i with
/// (j < sink_tokens) or (j + local_tokens > i). Tests compare the block
/// kernel against this with block-aligned sink/local sizes.
void streaming_prefill_reference(num::ConstMatView q, num::ConstMatView k,
                                 num::ConstMatView v, std::size_t sink_tokens,
                                 std::size_t local_tokens, float scale,
                                 num::MatView out);

/// Per-token compute of a streaming head relative to dense causal attention
/// at sequence length n (for the "nearly free" accounting): kept / causal
/// key-token pairs.
double streaming_cost_fraction(std::size_t n_tokens, std::size_t sink_tokens,
                               std::size_t local_tokens) noexcept;

}  // namespace lserve::attn
