#include "serve/engine.hpp"

#include <cassert>
#include <cmath>

#include "model/workload.hpp"
#include "numeric/math.hpp"
#include "numeric/rng.hpp"
#include "serve/thread_pool.hpp"

namespace lserve::serve {
namespace {

kv::PageConfig make_stream_pages(const kv::PageConfig& dense) {
  kv::PageConfig cfg = dense;
  cfg.track_kstats = false;  // streaming pages carry no selector stats.
  cfg.logical_page_size = cfg.page_size;
  return cfg;
}

}  // namespace

Engine::Engine(EngineConfig cfg)
    : cfg_([&] {
        // Normalize the page geometry against the model before anything
        // else is constructed from it.
        cfg.dense_pages.head_dim = cfg.model.head_dim;
        if (cfg.dense_pages.logical_page_size == 0 ||
            cfg.dense_pages.page_size % cfg.dense_pages.logical_page_size !=
                0) {
          cfg.dense_pages.logical_page_size = cfg.dense_pages.page_size;
        }
        return cfg;
      }()),
      tf_(cfg_.model, cfg_.seed),
      dense_alloc_(cfg_.dense_pages, cfg_.pool_pages,
                   kv::TierConfig{/*hot_pages=*/cfg_.memory.hot_pages,
                                  /*cold_bytes=*/cfg_.memory.cold_bytes}),
      stream_alloc_(make_stream_pages(cfg_.dense_pages), cfg_.pool_pages),
      policy_(cfg_.policy) {
  // Default partition: deterministic round-robin at streaming_fraction.
  // calibrate_head_kinds() or set_head_kinds() refine this.
  const std::size_t slots = cfg_.model.layers * cfg_.model.kv_heads;
  head_kinds_.assign(slots, kv::HeadKind::kDense);
  const auto target = static_cast<std::size_t>(
      std::round(cfg_.streaming_fraction * static_cast<double>(slots)));
  if (target > 0) {
    const double stride =
        static_cast<double>(slots) / static_cast<double>(target);
    for (std::size_t i = 0; i < target; ++i) {
      const auto idx = static_cast<std::size_t>(i * stride);
      head_kinds_[idx < slots ? idx : slots - 1] = kv::HeadKind::kStreaming;
    }
  }
  recount_head_slots();
  rebuild_prefix_cache();
}

void Engine::rebuild_prefix_cache() {
  prefix_cache_.reset();
  if (!cfg_.enable_prefix_cache) return;
  kv::PrefixCacheConfig pc;
  pc.layers = cfg_.model.layers;
  pc.kv_heads = cfg_.model.kv_heads;
  pc.kinds = head_kinds_;
  pc.streaming = cfg_.streaming;
  pc.max_pages = cfg_.memory.prefix_cache_pages;
  prefix_cache_ = std::make_unique<kv::PrefixCache>(
      dense_alloc_, stream_alloc_, std::move(pc), counters_->prefix);
}

void Engine::recount_head_slots() noexcept {
  dense_slots_ = 0;
  for (const kv::HeadKind k : head_kinds_) {
    if (k == kv::HeadKind::kDense) ++dense_slots_;
  }
  stream_slots_ = head_kinds_.size() - dense_slots_;
}

void Engine::set_head_kinds(std::vector<kv::HeadKind> kinds) {
  assert(kinds.size() == cfg_.model.layers * cfg_.model.kv_heads);
  head_kinds_ = std::move(kinds);
  recount_head_slots();
  // A partition change invalidates every cached page set (the tree's page
  // roles no longer match new sequences'); rebuild empty.
  rebuild_prefix_cache();
}

std::vector<float> Engine::calibrate_head_kinds() {
  // Synthetic calibration (see DESIGN.md §2): each head gets a planted
  // stream; heads whose stream carries a long-range needle suffer high
  // distortion under the Λ mask and emerge as retrieval heads. The planted
  // heterogeneity alternates by head index, mirroring the roughly-even
  // retrieval/streaming split DuoAttention finds in real models.
  const std::size_t slots = cfg_.model.layers * cfg_.model.kv_heads;
  const std::size_t d = cfg_.model.head_dim;
  const std::size_t n = cfg_.streaming.sink_tokens +
                        cfg_.streaming.local_tokens + 256;
  const float scale = 1.0f / std::sqrt(static_cast<float>(d));
  const float strength = model::salient_strength(n, d);
  // For local heads the query is a scaled copy of the current key (norm
  // ~cfg.key_scale), so the alignment strength is strength^2 / |k|.
  const float local_gain = strength * strength;
  std::vector<float> gates(slots, 0.0f);
  for (std::size_t i = 0; i < slots; ++i) {
    model::StreamConfig sc;
    sc.n_tokens = n;
    sc.head_dim = d;
    sc.seed = num::split_seed(cfg_.seed, 1000 + i);
    model::TokenStream stream = model::smooth_stream(sc);
    const bool retrieval_like = (i % 2) == 0;
    num::Tensor queries(n, d);
    if (retrieval_like) {
      // Needle in the middle of the context, outside the Λ mask of the
      // later rows: a head that needs it is a retrieval head.
      const model::Needle needle =
          model::plant_needle(stream, /*pos=*/n / 2, strength, sc.seed);
      for (std::size_t t = 0; t < n; ++t) {
        const auto q = model::probe_query(needle, strength, 0.1f,
                                          num::split_seed(sc.seed, t));
        std::copy(q.begin(), q.end(), queries.row(t));
      }
    } else {
      // Locally-supported head: queries track the recent key walk with
      // enough gain that local tokens dominate the softmax.
      for (std::size_t t = 0; t < n; ++t) {
        const float* recent = stream.keys.row(t);
        float* q = queries.row(t);
        for (std::size_t c = 0; c < d; ++c) {
          q[c] = local_gain * recent[c];
        }
      }
    }
    gates[i] = sparse::measure_head_gate(
        queries.view(), stream.keys.view(), stream.values.view(),
        cfg_.streaming.sink_tokens, cfg_.streaming.local_tokens, scale);
  }
  head_kinds_ =
      sparse::classify_by_quantile(gates, cfg_.streaming_fraction);
  recount_head_slots();
  rebuild_prefix_cache();
  return gates;
}

SequenceId Engine::create_sequence() {
  counters_->sequences_created.inc();
  // Reuse a released slot if available.
  for (std::size_t i = 0; i < sequences_.size(); ++i) {
    if (sequences_[i] == nullptr) {
      sequences_[i] = std::make_unique<Sequence>(
          cfg_.model.layers, cfg_.model.kv_heads, head_kinds_,
          cfg_.streaming, cfg_.reuse_interval);
      return i;
    }
  }
  sequences_.push_back(std::make_unique<Sequence>(
      cfg_.model.layers, cfg_.model.kv_heads, head_kinds_, cfg_.streaming,
      cfg_.reuse_interval));
  return sequences_.size() - 1;
}

void Engine::release_sequence(SequenceId id) {
  counters_->sequences_released.inc();
  assert(id < sequences_.size() && sequences_[id] != nullptr);
  const kv::PageAuditScope audit(id, "Engine::release_sequence");
  sequences_[id]->cache.release(dense_alloc_, stream_alloc_);
  sequences_[id].reset();
}

attn::FusedPrefillConfig Engine::prefill_config() const {
  attn::FusedPrefillConfig pc;
  pc.tiling = cfg_.tiling;
  pc.streaming.sink_blocks =
      (cfg_.streaming.sink_tokens + cfg_.tiling.tile_k - 1) /
      cfg_.tiling.tile_k;
  pc.streaming.local_blocks =
      std::max<std::size_t>(1, (cfg_.streaming.local_tokens +
                                cfg_.tiling.tile_k - 1) /
                                   cfg_.tiling.tile_k);
  pc.dynamic_dense = cfg_.dynamic_prefill;
  pc.dynamic_cfg = cfg_.dynamic_prefill_cfg;
  return pc;
}

attn::FusedDecodeConfig Engine::decode_config(AttentionRoute route) const {
  attn::FusedDecodeConfig dc;
  // The route's only lever: dense-head page pruning. kDense forces the
  // full page table; kSparse runs whatever the config asks for. The
  // streaming-head split is storage-level and never gated.
  dc.dynamic_dense =
      cfg_.dynamic_decode && route == AttentionRoute::kSparse;
  dc.hierarchical = cfg_.hierarchical;
  dc.selector = cfg_.selector;
  return dc;
}

void Engine::forward_prefill(Sequence& seq, num::Tensor& hidden,
                             std::size_t pos0) {
  const std::size_t n = hidden.rows();
  const std::size_t h = cfg_.model.hidden();
  const std::size_t kvd = cfg_.model.kv_dim();
  const std::size_t d = cfg_.model.head_dim;
  attn::FusedPrefillConfig pc = prefill_config();
  // Absolute Λ geometry: position + prefill_remaining is the full prompt
  // length regardless of how it is chunked or how much a prefix-cache
  // attach already covered.
  pc.total_tokens = seq.position + seq.prefill_remaining;

  num::Tensor normed(n, h);
  num::Tensor q(n, h);
  num::Tensor k(n, kvd);
  num::Tensor v(n, kvd);
  num::Tensor attn_out(n, h);

  for (std::size_t layer = 0; layer < cfg_.model.layers; ++layer) {
    tf_.rms_norm(hidden.view(), layer, normed.view());
    tf_.qkv_project(normed.view(), layer, pos0, q.view(), k.view(), v.view());

    // KV write-back first (the paper's two quantized write-back kernels).
    // Attention then reads every row, the chunk's own included, back from
    // the pages, so it sees the stored K/V whatever the chunk/attach
    // boundary. Streaming eviction waits until after attention so early
    // chunk rows can still attend the pages that were inside the Λ window
    // at the chunk boundary.
    for (std::size_t t = 0; t < n; ++t) {
      for (std::size_t kvh = 0; kvh < cfg_.model.kv_heads; ++kvh) {
        seq.cache.append(dense_alloc_, stream_alloc_, layer, kvh,
                         k.row(t) + kvh * d, v.row(t) + kvh * d);
      }
    }

    // Attention over (cached history, in-chunk prefix); with an empty
    // history this is the ordinary fused block-sparse prefill.
    attn::fused_chunked_prefill(dense_alloc_, stream_alloc_, seq.cache,
                                layer, q.view(), k.view(), v.view(), d, pc,
                                attn_out.view());

    seq.cache.evict_stale(stream_alloc_, layer);

    tf_.output_project(attn_out.view(), layer, hidden.view());
    tf_.ffn(hidden.view(), layer);
  }
  counters_->prefill_tokens.inc(n);
}

std::int32_t Engine::prefill(SequenceId id,
                             std::span<const std::int32_t> ids) {
  begin_prefill(id, ids.size());
  for (std::size_t begin = 0; begin < ids.size();) {
    const std::size_t len = prefill_chunk_len(ids.size() - begin);
    prefill_chunk(id, ids.subspan(begin, len));
    begin += len;
  }
  return finish_prefill(id);
}

std::size_t Engine::prefill_chunk_len(std::size_t remaining) const noexcept {
  return cfg_.prefill_chunk_tokens == 0
             ? remaining
             : std::min(cfg_.prefill_chunk_tokens, remaining);
}

void Engine::begin_prefill(SequenceId id, std::size_t total_tokens) {
  Sequence& seq = *sequences_[id];
  assert(seq.phase == SequencePhase::kWaiting && total_tokens > 0);
  // A prefix-cache attach may already have advanced position past the
  // reused prefix; only the uncached suffix is still owed (attach caps at
  // total_tokens - 1, so at least one token always remains).
  assert(total_tokens > seq.position);
  seq.phase = SequencePhase::kPrefilling;
  seq.prefill_remaining = total_tokens - seq.position;
}

std::size_t Engine::prefill_chunk(SequenceId id,
                                  std::span<const std::int32_t> ids) {
  Sequence& seq = *sequences_[id];
  assert(seq.phase == SequencePhase::kPrefilling);
  assert(!ids.empty() && ids.size() <= seq.prefill_remaining);
  const kv::PageAuditScope audit(id, "Engine::prefill_chunk");
  num::Tensor hidden = tf_.embed(ids);
  forward_prefill(seq, hidden, seq.position);
  seq.position += ids.size();
  seq.prefill_remaining -= ids.size();
  if (seq.prefill_remaining == 0) {
    seq.last_token = tf_.readout_argmax(hidden.row(ids.size() - 1));
  }
  return seq.prefill_remaining;
}

std::int32_t Engine::finish_prefill(SequenceId id) {
  Sequence& seq = *sequences_[id];
  assert(seq.phase == SequencePhase::kPrefilling &&
         seq.prefill_remaining == 0);
  seq.phase = SequencePhase::kDecoding;
  return seq.last_token;
}

std::int32_t Engine::decode(SequenceId id, std::int32_t token) {
  return decode_batch(std::span<const SequenceId>(&id, 1),
                      std::span<const std::int32_t>(&token, 1))[0];
}

std::vector<std::int32_t> Engine::decode_batch(
    std::span<const SequenceId> ids, std::span<const std::int32_t> tokens,
    ThreadPool* pool) {
  assert(ids.size() == tokens.size());
  const std::size_t batch = ids.size();
  std::vector<std::int32_t> next(batch, -1);
  if (batch == 0) return next;
  const std::size_t h = cfg_.model.hidden();
  const std::size_t kvd = cfg_.model.kv_dim();
  const std::size_t d = cfg_.model.head_dim;
  if (pool != nullptr && pool->size() <= 1) pool = nullptr;

  std::vector<Sequence*> seqs(batch);
  std::vector<std::size_t> positions(batch);
  std::vector<attn::FusedDecodeConfig> route_cfg(batch);
  std::vector<attn::DecodeWorkStats> work(batch);
  for (std::size_t i = 0; i < batch; ++i) {
    seqs[i] = sequences_[ids[i]].get();
    assert(seqs[i]->phase == SequencePhase::kDecoding);
    positions[i] = seqs[i]->position;
    // The step's attention spans position + 1 tokens (history plus the
    // token appended below). The route is a pure function of that length,
    // so it is identical across batch sizes and preemption replay.
    const AttentionRoute route =
        policy_ == nullptr ? AttentionRoute::kSparse
                           : policy_->route(positions[i] + 1);
    if (route == AttentionRoute::kDense) {
      ++work[i].dense_route_steps;
    } else {
      ++work[i].sparse_route_steps;
    }
    route_cfg[i] = decode_config(route);
  }

  // One stacked row per sequence: the norms, projections, FFN and readout
  // run once over the batch (num::matmul rows are independent, so each
  // row's bits are those of a batch of one). Only the KV append and the
  // ragged paged attention run per sequence.
  num::Tensor hidden = tf_.embed(tokens);
  num::Tensor normed(batch, h);
  num::Tensor q(batch, h);
  num::Tensor k(batch, kvd);
  num::Tensor v(batch, kvd);
  num::Tensor attn_out(batch, h);
  for (std::size_t layer = 0; layer < cfg_.model.layers; ++layer) {
    tf_.rms_norm(hidden.view(), layer, normed.view());
    tf_.qkv_project(normed.view(), layer, positions, q.view(), k.view(),
                    v.view(), pool);
    const auto attend = [&](std::size_t i) {
      // The audit scope is per-sequence and thread-local, so it tags pages
      // correctly whether this runs inline or on a pool worker.
      const kv::PageAuditScope audit(ids[i], "Engine::decode");
      Sequence& seq = *seqs[i];
      for (std::size_t kvh = 0; kvh < cfg_.model.kv_heads; ++kvh) {
        seq.cache.append(dense_alloc_, stream_alloc_, layer, kvh,
                         k.row(i) + kvh * d, v.row(i) + kvh * d);
      }
      seq.cache.evict_stale(stream_alloc_, layer);
      // Reinterpret the packed q row as [q_heads x d].
      const num::ConstMatView q_heads{q.row(i), cfg_.model.q_heads, d, d};
      num::MatView out_heads{attn_out.row(i), cfg_.model.q_heads, d, d};
      attn::fused_sparse_decode(dense_alloc_, stream_alloc_, seq.cache,
                                layer, q_heads, cfg_.model.group_size(),
                                &seq.selector, seq.decode_step, route_cfg[i],
                                out_heads, &work[i]);
    };
    if (pool != nullptr && batch > 1) {
      pool->parallel_for(batch, attend);
    } else {
      for (std::size_t i = 0; i < batch; ++i) attend(i);
    }
    tf_.output_project(attn_out.view(), layer, hidden.view(), pool);
    tf_.ffn(hidden.view(), layer, pool);
  }
  tf_.readout_argmax(hidden.view(), next, pool);
  for (std::size_t i = 0; i < batch; ++i) {
    seqs[i]->position += 1;
    ++seqs[i]->decode_step;
    seqs[i]->last_token = next[i];
  }
  // Count after the join, so the totals are the same at any thread count.
  Counters& c = *counters_;
  for (const auto& w : work) {
    c.pages_visited.inc(w.pages_visited);
    c.tokens_visited.inc(w.tokens_visited);
    c.decode_dense_steps.inc(w.dense_route_steps);
    c.decode_sparse_steps.inc(w.sparse_route_steps);
    c.selector_runs.inc(w.selector_runs);
    c.selector_reuses.inc(w.selector_reuses);
  }
  return next;
}

std::vector<std::int32_t> Engine::generate(
    SequenceId id, std::span<const std::int32_t> prompt,
    std::size_t n_tokens) {
  std::vector<std::int32_t> out;
  out.reserve(n_tokens);
  std::int32_t tok = prefill(id, prompt);
  out.push_back(tok);
  for (std::size_t i = 1; i < n_tokens; ++i) {
    tok = decode(id, tok);
    out.push_back(tok);
  }
  return out;
}

double Engine::kv_device_bytes() const noexcept {
  return dense_alloc_.device_bytes_in_use() +
         stream_alloc_.device_bytes_in_use();
}

std::size_t Engine::total_pages_in_use() const noexcept {
  return dense_alloc_.pages_in_use() + stream_alloc_.pages_in_use();
}

kv::PageAllocator::Occupancy Engine::pool_occupancy() const noexcept {
  const kv::PageAllocator::Occupancy dense = dense_alloc_.occupancy();
  const kv::PageAllocator::Occupancy stream = stream_alloc_.occupancy();
  kv::PageAllocator::Occupancy sum;
  sum.capacity = dense.capacity + stream.capacity;
  sum.in_use = dense.in_use + stream.in_use;
  sum.free = dense.free + stream.free;
  sum.peak_in_use = dense.peak_in_use + stream.peak_in_use;
  sum.hot_in_use = dense.hot_in_use + stream.hot_in_use;
  sum.cold_in_use = dense.cold_in_use + stream.cold_in_use;
  return sum;
}

PageDemand Engine::estimate_request_pages(
    std::size_t total_tokens) const noexcept {
  const std::size_t full = dense_alloc_.pages_for_tokens(total_tokens);
  // A streaming head holds its sink pages plus the local ring. Prefill
  // evicts only at the end of each layer's chunk (forward_prefill), so
  // mid-chunk the ring spans the window plus the whole chunk — the whole
  // prompt when prefill is monolithic — rounded up to pages, plus the page
  // being filled.
  const std::size_t chunk = prefill_chunk_len(total_tokens);
  const std::size_t stream_cap = std::min(
      stream_alloc_.pages_for_tokens(total_tokens),
      cfg_.streaming.sink_blocks(stream_alloc_.config().page_size) +
          stream_alloc_.pages_for_tokens(cfg_.streaming.local_tokens +
                                         chunk) +
          1);
  return {dense_slots_ * full, stream_slots_ * stream_cap};
}

PageDemand Engine::estimate_request_pages(
    std::size_t total_tokens, std::size_t cached_tokens) const noexcept {
  PageDemand d = estimate_request_pages(total_tokens);
  if (cached_tokens == 0) return d;
  // Only *full* blocks are shared (the tail is COW-copied, which does
  // allocate), and shared pages are already counted in pool occupancy —
  // a hit adds no new allocation for them.
  const std::size_t np = dense_alloc_.config().page_size;
  const std::size_t full_blocks = cached_tokens / np;
  const std::size_t dense_saved = dense_slots_ * full_blocks;
  d.dense_pages -= std::min(d.dense_pages, dense_saved);
  // A streaming head attaches the blocks it retains at the attach depth
  // (kv/prefix_cache.hpp), but a local block the Λ window passes before
  // `total_tokens` is dropped by the sequence while the cache keeps it,
  // and the sequence allocates a fresh page in its place. Only blocks
  // still retained at `total_tokens` save a page.
  std::size_t stream_shared = 0;
  for (std::size_t b = 0; b < full_blocks; ++b) {
    if (cfg_.streaming.retains(b, total_tokens, np)) ++stream_shared;
  }
  d.stream_pages -= std::min(d.stream_pages, stream_slots_ * stream_shared);
  return d;
}

std::size_t Engine::prefix_match_tokens(
    std::span<const std::int32_t> prompt) const {
  if (prefix_cache_ == nullptr || prompt.size() < 2) return 0;
  return prefix_cache_->match_tokens(prompt, prompt.size() - 1);
}

std::size_t Engine::attach_prefix(SequenceId id,
                                  std::span<const std::int32_t> prompt) {
  if (prefix_cache_ == nullptr || prompt.size() < 2) return 0;
  Sequence& seq = *sequences_[id];
  assert(seq.phase == SequencePhase::kWaiting && seq.position == 0);
  const kv::PageAuditScope audit(id, "Engine::attach_prefix");
  const std::size_t attached =
      prefix_cache_->attach(prompt, prompt.size() - 1, seq.cache);
  seq.position = attached;
  return attached;
}

void Engine::insert_prefix(SequenceId id,
                           std::span<const std::int32_t> tokens) {
  if (prefix_cache_ == nullptr || tokens.empty()) return;
  Sequence& seq = *sequences_[id];
  assert(tokens.size() <= seq.cache.tokens());
  const kv::PageAuditScope audit(id, "Engine::insert_prefix");
  prefix_cache_->insert(tokens, seq.cache);
}

std::size_t Engine::reclaim_prefix_pages(std::size_t target_pages) {
  if (prefix_cache_ == nullptr || target_pages == 0) return 0;
  const kv::PageAuditScope audit(kv::kAuditNoOwner,
                                 "Engine::reclaim_prefix_pages");
  return prefix_cache_->reclaim(target_pages);
}

std::size_t Engine::prefix_cache_pages_held() const {
  return prefix_cache_ == nullptr ? 0 : prefix_cache_->pages_held();
}

EngineStats Engine::stats() const noexcept {
  const Counters& c = *counters_;
  EngineStats s;
  s.prefill_tokens = c.prefill_tokens.value();
  s.decode_dense_steps = c.decode_dense_steps.value();
  s.decode_sparse_steps = c.decode_sparse_steps.value();
  s.decode_steps = s.decode_dense_steps + s.decode_sparse_steps;
  s.pages_visited = c.pages_visited.value();
  s.tokens_visited = c.tokens_visited.value();
  s.selector_runs = c.selector_runs.value();
  s.selector_reuses = c.selector_reuses.value();
  s.sequences_created = c.sequences_created.value();
  s.sequences_released = c.sequences_released.value();
  s.prefix_hits = c.prefix.hits.value();
  s.prefix_tokens_reused = c.prefix.tokens_reused.value();
  s.prefix_cow_copies = c.prefix.cow_copies.value();
  s.prefix_evictions = c.prefix.evictions.value();
  return s;
}

void Engine::expose_counters(obs::MetricsRegistry& registry) const {
  const Counters& c = *counters_;
  const char* const route =
      "Per-sequence decode steps routed dense vs. sparse by the attention "
      "policy.";
  registry.expose("lserve_decode_route_steps_total{route=\"dense\"}", route,
                  counters_, c.decode_dense_steps);
  registry.expose("lserve_decode_route_steps_total{route=\"sparse\"}", route,
                  counters_, c.decode_sparse_steps);
  registry.expose("lserve_prefix_hits_total",
                  "Admissions that attached a cached prefix from the radix "
                  "cache.",
                  counters_, c.prefix.hits);
  registry.expose("lserve_prefix_tokens_reused_total",
                  "Prompt tokens skipped at admission via the prefix cache.",
                  counters_, c.prefix.tokens_reused);
  dense_alloc_.expose_tier_counters(registry);
}

}  // namespace lserve::serve
