// Streaming-head attention (Λ-shaped mask: attention sinks + local window).
//
// Serving never calls a streaming kernel of its own: both stages run the
// one paged_attention walk (decode_attention.hpp) over the sink+local
// index table produced by kv::StreamingHeadCache (§3.6) — decode causally,
// prefill under the absolute-coordinate Λ visibility rule, whose geometry
// is StreamingBlocks below. That is the point of the unification. A
// block-granular Λ prefill outside serving is block_sparse_prefill under
// BlockMask::streaming; this header keeps only the exact token-granular
// reference, which the head classifier runs as its streaming output.
#pragma once

#include <cstddef>

#include "numeric/tensor.hpp"

namespace lserve::attn {

/// Λ-mask geometry in blocks.
struct StreamingBlocks {
  std::size_t sink_blocks = 1;
  std::size_t local_blocks = 2;
};

/// Token-granular reference: row i attends to keys j <= i with
/// (j < sink_tokens) or (j + local_tokens > i). The head classifier
/// measures each head's Λ-mask distortion against dense attention with it.
void streaming_prefill_reference(num::ConstMatView q, num::ConstMatView k,
                                 num::ConstMatView v, std::size_t sink_tokens,
                                 std::size_t local_tokens, float scale,
                                 num::MatView out);

}  // namespace lserve::attn
