// Reference dense attention.
//
// These are the trusted oracles every sparse kernel is tested against; the
// dense baselines (vLLM-like) run through the engine's paged walk like
// every other policy. The prefill variant is a naive O(N^2) row-softmax
// implementation; the decode variant walks a full paged KV history.
#pragma once

#include <cstddef>

#include "kv/kv_cache.hpp"
#include "kv/page_allocator.hpp"
#include "numeric/tensor.hpp"

namespace lserve::attn {

/// Causal dense prefill for one head.
/// q, k, v are [n_tokens x head_dim]; out is [n_tokens x head_dim].
/// `scale` is typically 1/sqrt(head_dim).
void dense_prefill_reference(num::ConstMatView q, num::ConstMatView k,
                             num::ConstMatView v, float scale,
                             num::MatView out);

/// Dense decode for one head over the full paged history: the current
/// query attends to all `head.tokens()` cached tokens.
/// `out` receives head_dim floats; if `lse_out` is non-null it receives the
/// log-sum-exp of the scores (used by accuracy metrics).
void dense_paged_decode(const kv::PageAllocator& alloc,
                        const kv::HeadCache& head, const float* q,
                        std::size_t head_dim, float scale, float* out,
                        float* lse_out = nullptr);

}  // namespace lserve::attn
