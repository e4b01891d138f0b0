// Tests for chunked prefill (attn::fused_chunked_prefill + engine wiring).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <vector>

#include "attn/dense_attention.hpp"
#include "attn/fused_attention.hpp"
#include "baselines/baseline_engines.hpp"
#include "numeric/rng.hpp"
#include "serve/engine.hpp"

namespace lserve {
namespace {

void fill_gaussian(num::Rng& rng, std::initializer_list<num::Tensor*> ts) {
  for (num::Tensor* t : ts) {
    for (std::size_t i = 0; i < t->size(); ++i) t->data()[i] = rng.gaussian();
  }
}

/// Prefills one layer through fused_chunked_prefill in the given chunk
/// lengths, as the engine does: each chunk's K/V is written back first,
/// then attended, then stale streaming pages are evicted. q: [n x
/// q_heads*d], k/v: [n x kinds.size()*d]; returns [n x q_heads*d].
num::Tensor prefill_in_chunks(const kv::PageConfig& pages,
                              const std::vector<kv::HeadKind>& kinds,
                              kv::StreamingConfig streaming,
                              const attn::FusedPrefillConfig& cfg,
                              const num::Tensor& q, const num::Tensor& k,
                              const num::Tensor& v,
                              const std::vector<std::size_t>& chunks) {
  const std::size_t d = pages.head_dim;
  kv::PageAllocator dense_alloc(pages, 64);
  kv::PageAllocator stream_alloc(pages, 64);
  kv::TwoWayKvCache cache(1, kinds.size(), kinds, streaming);
  num::Tensor out(q.rows(), q.cols());
  std::size_t begin = 0;
  for (const std::size_t len : chunks) {
    for (std::size_t t = begin; t < begin + len; ++t) {
      for (std::size_t h = 0; h < kinds.size(); ++h) {
        cache.append(dense_alloc, stream_alloc, 0, h, k.row(t) + h * d,
                     v.row(t) + h * d);
      }
    }
    attn::fused_chunked_prefill(
        dense_alloc, stream_alloc, cache, 0, q.view().rows_slice(begin, len),
        k.view().rows_slice(begin, len), v.view().rows_slice(begin, len), d,
        cfg, out.view().rows_slice(begin, len));
    cache.evict_stale(stream_alloc, 0);
    begin += len;
  }
  EXPECT_EQ(begin, q.rows());
  cache.release(dense_alloc, stream_alloc);
  return out;
}

kv::PageConfig page_config(std::size_t page_size, std::size_t d,
                           num::KvDtype dtype = num::KvDtype::kFp16) {
  kv::PageConfig pages;
  pages.page_size = page_size;
  pages.logical_page_size = page_size;
  pages.head_dim = d;
  pages.dtype = dtype;
  return pages;
}

TEST(ChunkedPrefillKernel, EmptyHistoryEqualsBlockSparsePrefill) {
  const std::size_t n = 64, d = 16;
  num::Rng rng(1);
  num::Tensor q(n, d), k(n, d), v(n, d), a(n, d);
  fill_gaussian(rng, {&q, &k, &v});
  attn::FusedPrefillConfig cfg;
  cfg.tiling = {16, 16};
  const num::Tensor b =
      prefill_in_chunks(page_config(16, d), {kv::HeadKind::kDense}, {},
                        cfg, q, k, v, {n});
  attn::BlockMask mask = attn::BlockMask::causal(n, 16, 16);
  mask.finalize();
  attn::block_sparse_prefill(q.view(), k.view(), v.view(), mask, {16, 16},
                             0.25f, a.view());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_FLOAT_EQ(a.data()[i], b.data()[i]);
  }
}

TEST(ChunkedPrefillKernel, HistoryPlusChunkEqualsMonolithic) {
  // Split a 48-token sequence into 32 cached + 16 chunk; the chunk rows'
  // outputs must equal the corresponding rows of a monolithic prefill.
  const std::size_t total = 48, hist = 32, d = 16;
  num::Rng rng(2);
  num::Tensor q(total, d), k(total, d), v(total, d), mono(total, d);
  fill_gaussian(rng, {&q, &k, &v});
  attn::FusedPrefillConfig cfg;
  cfg.tiling = {8, 8};
  const num::Tensor out =
      prefill_in_chunks(page_config(8, d), {kv::HeadKind::kDense}, {}, cfg,
                        q, k, v, {hist, total - hist});
  attn::dense_prefill_reference(q.view(), k.view(), v.view(), 0.25f,
                                mono.view());
  for (std::size_t r = hist; r < total; ++r) {
    for (std::size_t c = 0; c < d; ++c) {
      EXPECT_NEAR(out.at(r, c), mono.at(r, c), 1e-4f) << "row " << r;
    }
  }
}

TEST(ChunkedPrefillKernel, PartialHistoryPageHandled) {
  // 19 cached tokens: the trailing block is partial.
  const std::size_t hist = 19, chunk = 8, d = 8;
  num::Rng rng(3);
  num::Tensor q(hist + chunk, d), k(hist + chunk, d), v(hist + chunk, d);
  fill_gaussian(rng, {&q, &k, &v});
  attn::FusedPrefillConfig cfg;
  cfg.tiling = {8, 8};
  const num::Tensor out =
      prefill_in_chunks(page_config(8, d), {kv::HeadKind::kDense}, {}, cfg,
                        q, k, v, {hist, chunk});
  num::Tensor mono(hist + chunk, d);
  attn::dense_prefill_reference(q.view(), k.view(), v.view(),
                                1.0f / std::sqrt(static_cast<float>(d)),
                                mono.view());
  for (std::size_t r = hist; r < hist + chunk; ++r) {
    for (std::size_t c = 0; c < d; ++c) {
      EXPECT_NEAR(out.at(r, c), mono.at(r, c), 1e-4f);
    }
  }
}

// One dense and one streaming kv head, GQA group 2, int4 pages and a Λ
// window (sink 8 + local 16 tokens) shorter than the 61-token prompt:
// prefilling in uneven, non-tile-aligned chunks reproduces every row of
// the whole-prompt prefill bit for bit.
TEST(ChunkedPrefillKernel, UnevenChunksBitEqualWholePromptAcrossHeadKinds) {
  const std::size_t n = 61, d = 16, kv_heads = 2, group = 2;
  const std::vector<kv::HeadKind> kinds{kv::HeadKind::kDense,
                                        kv::HeadKind::kStreaming};
  const kv::StreamingConfig streaming{/*sink_tokens=*/8, /*local_tokens=*/16};
  num::Rng rng(4);
  num::Tensor q(n, kv_heads * group * d), k(n, kv_heads * d),
      v(n, kv_heads * d);
  fill_gaussian(rng, {&q, &k, &v});
  attn::FusedPrefillConfig cfg;
  // 16-row q-tiles over 8-token k-tiles: a chunk ending inside a q-tile
  // must still clamp the Λ diagonal at the prompt end, not the chunk end.
  cfg.tiling = {16, 8};
  cfg.streaming = {/*sink_blocks=*/1, /*local_blocks=*/2};
  cfg.total_tokens = n;
  const kv::PageConfig pages = page_config(8, d, num::KvDtype::kInt4);

  num::Tensor k_whole = k, v_whole = v;
  const num::Tensor whole =
      prefill_in_chunks(pages, kinds, streaming, cfg, q, k_whole, v_whole,
                        {n});
  const num::Tensor chunked = prefill_in_chunks(
      pages, kinds, streaming, cfg, q, k, v, {5, 13, 11, 9, 16, 7});
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < q.cols(); ++c) {
      EXPECT_EQ(std::bit_cast<std::uint32_t>(chunked.at(r, c)),
                std::bit_cast<std::uint32_t>(whole.at(r, c)))
          << "row " << r << " col " << c;
    }
  }
}

serve::EngineConfig dense_cfg(std::size_t chunk) {
  serve::EngineConfig cfg = baselines::vllm_config(model::tiny());
  cfg.dense_pages.page_size = 8;
  cfg.dense_pages.logical_page_size = 8;
  cfg.tiling = {8, 8};
  cfg.prefill_chunk_tokens = chunk;
  cfg.pool_pages = 256;
  return cfg;
}

class EngineChunking : public ::testing::TestWithParam<std::size_t> {};

// Chunked prefill through the whole engine must reproduce the monolithic
// engine's generation exactly (fp16 KV: cache reads are lossless).
TEST_P(EngineChunking, MatchesMonolithicGeneration) {
  std::vector<std::int32_t> ids(52);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ids[i] = static_cast<std::int32_t>((9 * i + 4) % 251);
  }
  serve::Engine mono(dense_cfg(0));
  serve::Engine chunked(dense_cfg(GetParam()));
  const auto sm = mono.create_sequence();
  const auto sc = chunked.create_sequence();
  EXPECT_EQ(mono.generate(sm, ids, 6), chunked.generate(sc, ids, 6))
      << "chunk=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(ChunkSizes, EngineChunking,
                         ::testing::Values(8, 16, 24, 52, 13));

TEST(EngineChunking, StreamingHeadsCoveringConfigStillMatches) {
  // LServe config whose Λ window and budget cover the whole prompt:
  // chunked sparse == monolithic dense.
  std::vector<std::int32_t> ids(48);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ids[i] = static_cast<std::int32_t>((7 * i + 2) % 251);
  }
  serve::EngineConfig sparse_cfg = dense_cfg(16);
  sparse_cfg.streaming_fraction = 0.5;
  sparse_cfg.streaming = {/*sink=*/64, /*local=*/512};
  sparse_cfg.dynamic_decode = true;
  sparse_cfg.selector.token_budget = 4096;
  serve::Engine mono(dense_cfg(0));
  serve::Engine sparse(sparse_cfg);
  const auto sm = mono.create_sequence();
  const auto ss = sparse.create_sequence();
  EXPECT_EQ(mono.generate(sm, ids, 6), sparse.generate(ss, ids, 6));
}

// MInference's dynamic prefill mask is chunk-local: each chunk's masks
// index its own rows and keys from the chunk start. 40-token chunks over
// 16x8 tiles start mid-tile (40, 80, 120), so absolute and chunk-local
// tile indices differ, and int4 pages make the mask score the stored
// keys. Pinned from a known-good build.
TEST(EngineChunking, DynamicPrefillUnalignedChunksMatchPinnedTokens) {
  serve::EngineConfig cfg = baselines::minference_config(model::small());
  cfg.dense_pages.dtype = num::KvDtype::kInt4;
  cfg.tiling = {/*tile_q=*/16, /*tile_k=*/8};
  cfg.prefill_chunk_tokens = 40;
  cfg.pool_pages = 512;
  serve::Engine engine(cfg);
  std::vector<std::int32_t> prompt(128);
  for (std::size_t i = 0; i < prompt.size(); ++i) {
    prompt[i] = static_cast<std::int32_t>((11 + 29 * i) % 1021);
  }
  const auto seq = engine.create_sequence();
  const std::vector<std::int32_t> pinned{609, 314, 703, 186, 271, 196,
                                         272, 369, 41,  272, 688, 1006,
                                         112, 861, 138, 186};
  EXPECT_EQ(engine.generate(seq, prompt, 16), pinned);
  engine.release_sequence(seq);
}

TEST(EngineChunking, ChunkedLServeWithRealSparsityIsWellFormed) {
  serve::EngineConfig cfg = baselines::lserve_config(model::tiny());
  cfg.dense_pages.page_size = 8;
  cfg.dense_pages.logical_page_size = 4;
  cfg.tiling = {8, 8};
  cfg.streaming = {/*sink=*/8, /*local=*/32};
  cfg.selector.token_budget = 32;
  cfg.prefill_chunk_tokens = 16;
  serve::Engine engine(cfg);
  std::vector<std::int32_t> ids(80);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ids[i] = static_cast<std::int32_t>((3 * i + 1) % 251);
  }
  const auto seq = engine.create_sequence();
  const auto out = engine.generate(seq, ids, 4);
  EXPECT_EQ(out.size(), 4u);
  for (auto t : out) {
    EXPECT_GE(t, 0);
    EXPECT_LT(t, 256);
  }
  engine.release_sequence(seq);
  EXPECT_EQ(engine.dense_allocator().pages_in_use(), 0u);
  EXPECT_EQ(engine.stream_allocator().pages_in_use(), 0u);
}

}  // namespace
}  // namespace lserve
