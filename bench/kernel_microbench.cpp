// google-benchmark microbenchmarks for the hot kernels: block-sparse
// prefill (iterator vs branchy vs dense), paged sparse decode (full vs
// pruned vs streaming tables), one fused layer of decode and one fused
// prefill chunk, every compiled matmul variant on one layer's GEMMs,
// quantized load paths, and selector scoring.
//
// These complement the table-generating benches with statistically
// rigorous per-kernel timings (use --benchmark_filter=... to narrow).
#include <benchmark/benchmark.h>

#include <string_view>
#include <utility>
#include <vector>

#include "attn/block_sparse_prefill.hpp"
#include "attn/decode_attention.hpp"
#include "attn/fused_attention.hpp"
#include "baselines/baseline_engines.hpp"
#include "eval/metrics.hpp"
#include "model/workload.hpp"
#include "numeric/matmul_kernels.hpp"
#include "numeric/quant.hpp"
#include "numeric/rng.hpp"
#include "sparse/hierarchical_selector.hpp"
#include "sparse/quest_selector.hpp"

namespace {

using namespace lserve;

struct PrefillFixture {
  num::Tensor q, k, v, out;
  PrefillFixture(std::size_t n, std::size_t d)
      : q(n, d), k(n, d), v(n, d), out(n, d) {
    num::Rng rng(7);
    for (auto* t : {&q, &k, &v}) {
      for (std::size_t i = 0; i < t->size(); ++i) {
        t->data()[i] = rng.gaussian();
      }
    }
  }
};

void BM_PrefillDenseCausal(benchmark::State& state) {
  const std::size_t n = state.range(0);
  PrefillFixture fix(n, 64);
  attn::BlockMask mask = attn::BlockMask::causal(n, 64, 64);
  mask.finalize();
  for (auto _ : state) {
    attn::block_sparse_prefill(fix.q.view(), fix.k.view(), fix.v.view(),
                               mask, {64, 64}, 0.125f, fix.out.view());
    benchmark::DoNotOptimize(fix.out.data());
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_PrefillDenseCausal)->Arg(256)->Arg(512)->Arg(1024)->Complexity();

void BM_PrefillStreamingMask(benchmark::State& state) {
  const std::size_t n = state.range(0);
  PrefillFixture fix(n, 64);
  attn::BlockMask mask = attn::BlockMask::streaming(n, 64, 64, 1, 2);
  mask.finalize();
  for (auto _ : state) {
    attn::block_sparse_prefill(fix.q.view(), fix.k.view(), fix.v.view(),
                               mask, {64, 64}, 0.125f, fix.out.view());
    benchmark::DoNotOptimize(fix.out.data());
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_PrefillStreamingMask)
    ->Arg(256)
    ->Arg(512)
    ->Arg(1024)
    ->Arg(2048)
    ->Complexity();

void BM_PrefillBranchyStreamingMask(benchmark::State& state) {
  const std::size_t n = state.range(0);
  PrefillFixture fix(n, 64);
  attn::BlockMask mask = attn::BlockMask::streaming(n, 64, 64, 1, 2);
  mask.finalize();
  for (auto _ : state) {
    attn::block_sparse_prefill_branchy(fix.q.view(), fix.k.view(),
                                       fix.v.view(), mask, {64, 64}, 0.125f,
                                       fix.out.view());
    benchmark::DoNotOptimize(fix.out.data());
  }
}
BENCHMARK(BM_PrefillBranchyStreamingMask)->Arg(1024)->Arg(2048);

struct DecodeFixture {
  kv::PageAllocator alloc;
  kv::HeadCache head;
  std::vector<float> q;
  std::vector<float> out;

  DecodeFixture(std::size_t n, num::KvDtype dtype)
      : alloc(
            [&] {
              kv::PageConfig c;
              c.page_size = 64;
              c.logical_page_size = 16;
              c.head_dim = 64;
              c.dtype = dtype;
              return c;
            }(),
            n / 64 + 2),
        q(64, 0.3f),
        out(64) {
    model::StreamConfig sc;
    sc.n_tokens = n;
    sc.head_dim = 64;
    const model::TokenStream stream = model::smooth_stream(sc);
    eval::fill_head_cache(alloc, head, stream);
  }
};

void BM_DecodeFullTable(benchmark::State& state) {
  DecodeFixture fix(state.range(0), num::KvDtype::kFp16);
  const auto table = kv::full_page_table(fix.head.view(fix.alloc));
  for (auto _ : state) {
    attn::sparse_paged_decode(fix.alloc, table, fix.head.tokens(),
                              fix.q.data(), 64, 0.125f, fix.out.data());
    benchmark::DoNotOptimize(fix.out.data());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_DecodeFullTable)
    ->Arg(4096)
    ->Arg(8192)
    ->Arg(16384)
    ->Complexity();

void BM_DecodePrunedTable(benchmark::State& state) {
  DecodeFixture fix(state.range(0), num::KvDtype::kFp16);
  sparse::PageSelectorConfig cfg;
  cfg.token_budget = 1024;
  const auto table = sparse::select_pages_hierarchical(fix.alloc, fix.head,
                                                       fix.q.data(), cfg);
  for (auto _ : state) {
    attn::sparse_paged_decode(fix.alloc, table, fix.head.tokens(),
                              fix.q.data(), 64, 0.125f, fix.out.data());
    benchmark::DoNotOptimize(fix.out.data());
  }
}
BENCHMARK(BM_DecodePrunedTable)->Arg(4096)->Arg(8192)->Arg(16384);

void BM_DecodeInt4Table(benchmark::State& state) {
  DecodeFixture fix(state.range(0), num::KvDtype::kInt4);
  const auto table = kv::full_page_table(fix.head.view(fix.alloc));
  for (auto _ : state) {
    attn::sparse_paged_decode(fix.alloc, table, fix.head.tokens(),
                              fix.q.data(), 64, 0.125f, fix.out.data());
    benchmark::DoNotOptimize(fix.out.data());
  }
}
BENCHMARK(BM_DecodeInt4Table)->Arg(4096)->Arg(8192);

/// One layer of the lserve deployment (small model: 4 kv heads, half of
/// them streaming; int4 pages of 64 tokens) holding `tokens` tokens,
/// appended and evicted one token at a time as decode does.
struct LayerFixture {
  serve::EngineConfig cfg = baselines::lserve_config(model::small());
  std::size_t d = cfg.model.head_dim;
  std::size_t kv_heads = cfg.model.kv_heads;
  kv::PageAllocator dense;
  kv::PageAllocator stream;
  kv::TwoWayKvCache cache;

  static kv::PageConfig stream_pages(kv::PageConfig pages) {
    pages.track_kstats = false;  // as the engine's streaming pool
    return pages;
  }

  explicit LayerFixture(std::size_t tokens)
      : dense(cfg.dense_pages, tokens / 64 * 2 + 8),
        stream(stream_pages(cfg.dense_pages), 64),
        cache(1, kv_heads,
              {kv::HeadKind::kDense, kv::HeadKind::kDense,
               kv::HeadKind::kStreaming, kv::HeadKind::kStreaming},
              cfg.streaming) {
    num::Rng rng(11);
    std::vector<float> k(d), v(d);
    for (std::size_t t = 0; t < tokens; ++t) {
      for (std::size_t h = 0; h < kv_heads; ++h) {
        rng.fill_gaussian(k, 1.0f);
        rng.fill_gaussian(v, 1.0f);
        cache.append(dense, stream, 0, h, k.data(), v.data());
      }
      cache.evict_stale(stream, 0);
    }
  }
};

// fused_sparse_decode over one layer: selector reuse every
// cfg.reuse_interval steps, each kv head's group folded in one page walk.
void BM_FusedDecodeLayer(benchmark::State& state) {
  LayerFixture fix(state.range(0));
  const std::size_t group = state.range(1);
  num::Tensor q(fix.kv_heads * group, fix.d), out(fix.kv_heads * group, fix.d);
  num::Rng rng(12);
  for (std::size_t i = 0; i < q.size(); ++i) q.data()[i] = rng.gaussian();
  attn::FusedDecodeConfig dc;
  dc.selector = fix.cfg.selector;
  sparse::ReusableSelector selector(fix.kv_heads, fix.cfg.reuse_interval);
  std::size_t step = 0;
  for (auto _ : state) {
    attn::fused_sparse_decode(fix.dense, fix.stream, fix.cache, 0, q.view(),
                              group, &selector, step++, dc, out.view());
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_FusedDecodeLayer)->ArgsProduct({{4096, 8192}, {2, 4}});

// One 128-row fused_chunked_prefill chunk over 2K tokens of history, as
// the engine runs it: chunk K/V written back first, then attended. The
// dynamic_dense arg puts the dense heads under MInference block masks.
void BM_FusedPrefillChunk(benchmark::State& state) {
  const std::size_t history = 2048, chunk = 128;
  LayerFixture fix(history);
  const std::size_t group = fix.cfg.model.group_size();
  num::Tensor q(chunk, fix.kv_heads * group * fix.d);
  num::Tensor k(chunk, fix.kv_heads * fix.d), v(chunk, fix.kv_heads * fix.d);
  num::Tensor out(chunk, fix.kv_heads * group * fix.d);
  num::Rng rng(13);
  for (auto* t : {&q, &k, &v}) {
    for (std::size_t i = 0; i < t->size(); ++i) t->data()[i] = rng.gaussian();
  }
  for (std::size_t t = 0; t < chunk; ++t) {
    for (std::size_t h = 0; h < fix.kv_heads; ++h) {
      fix.cache.append(fix.dense, fix.stream, 0, h, k.row(t) + h * fix.d,
                       v.row(t) + h * fix.d);
    }
  }
  attn::FusedPrefillConfig pc;
  pc.tiling = fix.cfg.tiling;
  pc.streaming = {/*sink_blocks=*/1, /*local_blocks=*/4};
  pc.total_tokens = history + chunk;
  pc.dynamic_dense = state.range(0) != 0;
  for (auto _ : state) {
    attn::fused_chunked_prefill(fix.dense, fix.stream, fix.cache, 0,
                                q.view(), k.view(), v.view(), fix.d, pc,
                                out.view());
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_FusedPrefillChunk)->ArgName("dynamic_dense")->Arg(0)->Arg(1);

// The seven GEMMs of one `small`-model layer (QKV, o-proj, FFN up/gate/
// down) through one matmul variant, at m = state.range(0) rows: 1/4/8
// are decode batches, 128 a prefill chunk. Variants this CPU lacks are
// reported as skipped.
void BM_Matmul(benchmark::State& state, const char* variant) {
  const num::detail::MatmulVariant* kernel = nullptr;
  for (const auto& v : num::detail::matmul_variants()) {
    if (std::string_view(v.name) == variant) kernel = &v;
  }
  if (kernel == nullptr || !kernel->supported) {
    state.SkipWithError("matmul variant not available on this CPU");
    return;
  }
  const model::ModelConfig m = model::small();
  const std::size_t h = m.hidden(), kv = m.kv_dim(), f = m.ffn_hidden;
  const std::size_t rows = state.range(0);
  struct Gemm {
    num::Tensor a, b, c;
  };
  std::vector<Gemm> gemms;
  num::Rng rng(14);
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {h, h}, {h, kv}, {h, kv}, {h, h}, {h, f}, {h, f}, {f, h}};
  for (const auto& [k, n] : shapes) {
    Gemm g{num::Tensor(rows, k), num::Tensor(k, n), num::Tensor(rows, n)};
    for (auto* t : {&g.a, &g.b}) {
      for (float& x : t->flat()) x = rng.gaussian();
    }
    gemms.push_back(std::move(g));
  }
  for (auto _ : state) {
    for (Gemm& g : gemms) {
      kernel->fn(g.a.view(), g.b.view(), g.c.view());
      benchmark::DoNotOptimize(g.c.data());
    }
    benchmark::ClobberMemory();
  }
}
BENCHMARK_CAPTURE(BM_Matmul, avx512, "avx512")
    ->Arg(1)
    ->Arg(4)
    ->Arg(8)
    ->Arg(128);
BENCHMARK_CAPTURE(BM_Matmul, avx2, "avx2")
    ->Arg(1)
    ->Arg(4)
    ->Arg(8)
    ->Arg(128);
BENCHMARK_CAPTURE(BM_Matmul, scalar, "scalar")
    ->Arg(1)
    ->Arg(4)
    ->Arg(8)
    ->Arg(128);

void BM_SelectorFlat(benchmark::State& state) {
  DecodeFixture fix(state.range(0), num::KvDtype::kFp16);
  sparse::PageSelectorConfig cfg;
  cfg.token_budget = 1024;
  for (auto _ : state) {
    auto table =
        sparse::select_pages_flat(fix.alloc, fix.head, fix.q.data(), cfg);
    benchmark::DoNotOptimize(table.data());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SelectorFlat)->Arg(8192)->Arg(16384)->Arg(32768)->Complexity();

void BM_SelectorHierarchical(benchmark::State& state) {
  DecodeFixture fix(state.range(0), num::KvDtype::kFp16);
  sparse::PageSelectorConfig cfg;
  cfg.token_budget = 1024;
  for (auto _ : state) {
    auto table = sparse::select_pages_hierarchical(fix.alloc, fix.head,
                                                   fix.q.data(), cfg);
    benchmark::DoNotOptimize(table.data());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SelectorHierarchical)
    ->Arg(8192)
    ->Arg(16384)
    ->Arg(32768)
    ->Complexity();

void BM_QuantizeRowInt4(benchmark::State& state) {
  num::Rng rng(9);
  std::vector<float> row(128);
  rng.fill_gaussian(row, 1.0f);
  std::vector<std::uint8_t> codes(64);
  for (auto _ : state) {
    const num::QuantParams p = num::compute_quant_params(row.data(), 128, 4);
    num::quantize_row_int4(row.data(), 128, p, codes.data());
    benchmark::DoNotOptimize(codes.data());
  }
}
BENCHMARK(BM_QuantizeRowInt4);

void BM_DequantizeRowInt4(benchmark::State& state) {
  num::Rng rng(9);
  std::vector<float> row(128), back(128);
  rng.fill_gaussian(row, 1.0f);
  const num::QuantParams p = num::compute_quant_params(row.data(), 128, 4);
  std::vector<std::uint8_t> codes(64);
  num::quantize_row_int4(row.data(), 128, p, codes.data());
  for (auto _ : state) {
    num::dequantize_row_int4(codes.data(), 128, p, back.data());
    benchmark::DoNotOptimize(back.data());
  }
}
BENCHMARK(BM_DequantizeRowInt4);

}  // namespace

BENCHMARK_MAIN();
