// Integration tests for the serving engine (src/serve/engine).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "baselines/baseline_engines.hpp"
#include "serve/engine.hpp"
#include "serve/thread_pool.hpp"

namespace lserve::serve {
namespace {

std::vector<std::int32_t> prompt_ids(std::size_t n, std::int32_t base = 3) {
  std::vector<std::int32_t> ids(n);
  for (std::size_t i = 0; i < n; ++i) {
    ids[i] = static_cast<std::int32_t>((base + 7 * i) % 251);
  }
  return ids;
}

/// Dense fp16 engine on the tiny model, small pages.
EngineConfig tiny_dense_config() {
  EngineConfig cfg = baselines::vllm_config(model::tiny());
  cfg.dense_pages.page_size = 8;
  cfg.dense_pages.logical_page_size = 8;
  cfg.tiling = {8, 8};
  cfg.pool_pages = 256;
  return cfg;
}

/// LServe-flavoured engine whose sparsity is inactive at short context:
/// budget and Λ window cover the whole sequence, so outputs must equal the
/// dense engine's exactly.
EngineConfig tiny_covering_lserve_config() {
  EngineConfig cfg = tiny_dense_config();
  cfg.streaming_fraction = 0.5;
  cfg.streaming = {/*sink_tokens=*/64, /*local_tokens=*/512};
  cfg.dynamic_decode = true;
  cfg.hierarchical = true;
  cfg.selector.token_budget = 4096;
  cfg.reuse_interval = 4;
  cfg.dense_pages.logical_page_size = 4;
  return cfg;
}

TEST(Engine, DeterministicGeneration) {
  Engine a(tiny_dense_config());
  Engine b(tiny_dense_config());
  const auto ids = prompt_ids(24);
  const auto sa = a.create_sequence();
  const auto sb = b.create_sequence();
  const auto out_a = a.generate(sa, ids, 6);
  const auto out_b = b.generate(sb, ids, 6);
  EXPECT_EQ(out_a, out_b);
}

TEST(Engine, IncrementalPrefillMatchesMonolithic) {
  // Driving begin_prefill/prefill_chunk/finish_prefill by hand — with an
  // uneven chunk schedule — must be bit-identical to prefill(), including
  // the decode steps that follow.
  Engine mono(tiny_dense_config());
  Engine inc(tiny_dense_config());
  const auto ids = prompt_ids(23);
  const auto sm = mono.create_sequence();
  const auto si = inc.create_sequence();

  const std::int32_t first_mono =
      mono.prefill(sm, std::span<const std::int32_t>(ids));

  inc.begin_prefill(si, ids.size());
  std::size_t pos = 0;
  for (const std::size_t chunk : {7u, 9u, 1u, 6u}) {
    const std::size_t left = inc.prefill_chunk(
        si, std::span<const std::int32_t>(ids.data() + pos, chunk));
    pos += chunk;
    EXPECT_EQ(left, ids.size() - pos);
  }
  const std::int32_t first_inc = inc.finish_prefill(si);

  EXPECT_EQ(first_inc, first_mono);
  std::int32_t tm = first_mono;
  std::int32_t ti = first_inc;
  for (int s = 0; s < 6; ++s) {
    tm = mono.decode(sm, tm);
    ti = inc.decode(si, ti);
    EXPECT_EQ(ti, tm) << "diverged at decode step " << s;
  }
  EXPECT_EQ(mono.stats().prefill_tokens, inc.stats().prefill_tokens);
}

TEST(Engine, EstimateRequestPagesBoundsActualUsage) {
  // The admission-control estimate must upper-bound what a request really
  // allocates, for both the dense and the streaming pool.
  Engine engine(tiny_covering_lserve_config());
  const std::size_t prompt_len = 40;
  const std::size_t new_tokens = 8;
  const PageDemand est =
      engine.estimate_request_pages(prompt_len + new_tokens);
  const auto seq = engine.create_sequence();
  engine.generate(seq, prompt_ids(prompt_len), new_tokens);
  EXPECT_LE(engine.dense_allocator().pages_in_use(), est.dense_pages);
  EXPECT_LE(engine.stream_allocator().pages_in_use(), est.stream_pages);
  EXPECT_LE(engine.total_pages_in_use(), est.total());
  EXPECT_EQ(engine.decode_step_page_bound(),
            engine.config().model.layers * engine.config().model.kv_heads);
  engine.release_sequence(seq);
  EXPECT_EQ(engine.total_pages_in_use(), 0u);
}

TEST(Engine, EstimateRequestPagesBoundsMidChunkStreamingPeak) {
  // Prefill evicts a streaming head's stale pages only at the end of each
  // layer's chunk, so mid-chunk the head holds its window plus the whole
  // chunk. The estimate must bound that peak, not only what is left once
  // the request settles, for monolithic and chunked prefill alike.
  const std::size_t prompt_len = 128;
  const std::size_t new_tokens = 4;
  for (const std::size_t chunk : {0, 64, 16}) {
    EngineConfig cfg = tiny_dense_config();
    cfg.streaming_fraction = 0.5;
    cfg.streaming = {/*sink_tokens=*/8, /*local_tokens=*/16};
    cfg.prefill_chunk_tokens = chunk;
    Engine engine(cfg);
    const PageDemand est =
        engine.estimate_request_pages(prompt_len + new_tokens);
    const auto seq = engine.create_sequence();
    engine.generate(seq, prompt_ids(prompt_len), new_tokens);
    EXPECT_LE(engine.stream_allocator().occupancy().peak_in_use,
              est.stream_pages)
        << "prefill_chunk_tokens=" << chunk;
    EXPECT_LE(engine.dense_allocator().occupancy().peak_in_use,
              est.dense_pages)
        << "prefill_chunk_tokens=" << chunk;
    engine.release_sequence(seq);
  }
}

TEST(Engine, DecodeBatchMatchesOneAtATimeAtAnyBatchAndPoolSize) {
  // decode_batch runs one forward over the batch's stacked rows, splitting
  // GEMM columns and fanning attention out over the pool. Every sequence
  // must still decode exactly as it does alone, with the same work
  // counters, at any batch size and pool size. Prompts differ in length so
  // the rows of a batch sit at different positions, and the selector,
  // streaming eviction and INT4 KV are all active.
  EngineConfig cfg = tiny_dense_config();
  cfg.dense_pages.dtype = num::KvDtype::kInt4;
  cfg.dense_pages.logical_page_size = 4;
  cfg.streaming_fraction = 0.5;
  cfg.streaming = {/*sink_tokens=*/8, /*local_tokens=*/16};
  cfg.dynamic_decode = true;
  cfg.hierarchical = true;
  cfg.selector.token_budget = 16;
  cfg.reuse_interval = 2;
  constexpr std::size_t kSeqs = 8;
  constexpr std::size_t kSteps = 6;

  struct Run {
    std::vector<std::vector<std::int32_t>> tokens;
    EngineStats stats;
  };
  // batch 0 = one decode(id, tok) call per sequence per step.
  const auto run = [&](std::size_t batch, std::size_t threads) {
    Engine engine(cfg);
    ThreadPool pool(threads);
    std::vector<SequenceId> ids;
    std::vector<std::int32_t> last;
    for (std::size_t i = 0; i < kSeqs; ++i) {
      ids.push_back(engine.create_sequence());
      last.push_back(engine.prefill(
          ids.back(),
          prompt_ids(20 + 5 * i, static_cast<std::int32_t>(i))));
    }
    Run r;
    r.tokens.resize(kSeqs);
    for (std::size_t step = 0; step < kSteps; ++step) {
      if (batch == 0) {
        for (std::size_t i = 0; i < kSeqs; ++i) {
          last[i] = engine.decode(ids[i], last[i]);
        }
      } else {
        for (std::size_t b0 = 0; b0 < kSeqs; b0 += batch) {
          const auto next = engine.decode_batch(
              std::span<const SequenceId>(ids).subspan(b0, batch),
              std::span<const std::int32_t>(last).subspan(b0, batch), &pool);
          std::copy(next.begin(), next.end(), last.begin() + b0);
        }
      }
      for (std::size_t i = 0; i < kSeqs; ++i) r.tokens[i].push_back(last[i]);
    }
    r.stats = engine.stats();
    return r;
  };

  const Run ref = run(0, 1);
  EXPECT_GT(ref.stats.selector_runs, 0u);
  for (const std::size_t batch : {1, 2, 8}) {
    for (const std::size_t threads : {1, 2, 8}) {
      const Run got = run(batch, threads);
      const std::string where = "batch=" + std::to_string(batch) +
                                " threads=" + std::to_string(threads);
      EXPECT_EQ(got.tokens, ref.tokens) << where;
      EXPECT_EQ(got.stats.decode_steps, ref.stats.decode_steps) << where;
      EXPECT_EQ(got.stats.decode_dense_steps, ref.stats.decode_dense_steps)
          << where;
      EXPECT_EQ(got.stats.decode_sparse_steps,
                ref.stats.decode_sparse_steps)
          << where;
      EXPECT_EQ(got.stats.pages_visited, ref.stats.pages_visited) << where;
      EXPECT_EQ(got.stats.tokens_visited, ref.stats.tokens_visited) << where;
      EXPECT_EQ(got.stats.selector_runs, ref.stats.selector_runs) << where;
      EXPECT_EQ(got.stats.selector_reuses, ref.stats.selector_reuses)
          << where;
    }
  }
}

TEST(Engine, SmallModelGenerateMatchesPinnedTokens) {
  // A fixed-seed `small` generate with INT4 KV, streaming eviction, page
  // pruning and chunked prefill all active. The tokens and decode work
  // counters are pinned from the scalar matmul; any kernel behind
  // num::matmul must reproduce them bit for bit, so a change here means
  // some op's rounding moved.
  EngineConfig cfg = baselines::lserve_config(model::small());
  cfg.dense_pages.page_size = 16;
  cfg.dense_pages.logical_page_size = 4;
  cfg.streaming = {/*sink_tokens=*/16, /*local_tokens=*/32};
  cfg.selector.token_budget = 64;
  cfg.prefill_chunk_tokens = 48;
  cfg.pool_pages = 512;
  Engine engine(cfg);
  std::vector<std::int32_t> prompt(128);
  for (std::size_t i = 0; i < prompt.size(); ++i) {
    prompt[i] = static_cast<std::int32_t>((5 + 37 * i) % 1021);
  }
  const auto seq = engine.create_sequence();
  const std::vector<std::int32_t> out = engine.generate(seq, prompt, 24);
  const std::vector<std::int32_t> pinned{
      559, 153, 72,  406, 346, 228, 611, 322, 496, 661, 297, 706,
      945, 35,  230, 346, 114, 107, 661, 496, 289, 690, 600, 210};
  EXPECT_EQ(out, pinned);
  const EngineStats s = engine.stats();
  EXPECT_EQ(s.pages_visited, 2928u);
  EXPECT_EQ(s.tokens_visited, 40320u);
  EXPECT_EQ(s.selector_runs, 48u);
  EXPECT_EQ(s.selector_reuses, 136u);
  engine.release_sequence(seq);
}

TEST(Engine, PrefillThenDecodeMatchesLongerPrefill) {
  // Causal consistency: decoding token t after prefilling [0, t) must give
  // the same next token as prefilling [0, t].
  Engine a(tiny_dense_config());
  Engine b(tiny_dense_config());
  const auto ids = prompt_ids(20);

  const auto sa = a.create_sequence();
  const std::int32_t via_prefill =
      a.prefill(sa, std::span<const std::int32_t>(ids));

  const auto sb = b.create_sequence();
  const std::vector<std::int32_t> shorter(ids.begin(), ids.end() - 1);
  b.prefill(sb, shorter);
  const std::int32_t via_decode = b.decode(sb, ids.back());

  EXPECT_EQ(via_prefill, via_decode);
}

TEST(Engine, CoveringSparsityMatchesDenseExactly) {
  // When budget >= context and the Λ window covers everything, LServe's
  // pathways reduce to dense attention: generated tokens must coincide.
  Engine dense(tiny_dense_config());
  Engine sparse(tiny_covering_lserve_config());
  const auto ids = prompt_ids(40);
  const auto sd = dense.create_sequence();
  const auto ss = sparse.create_sequence();
  const auto out_d = dense.generate(sd, ids, 8);
  const auto out_s = sparse.generate(ss, ids, 8);
  EXPECT_EQ(out_d, out_s);
}

TEST(Engine, DynamicDecodeBoundsVisitedTokens) {
  EngineConfig cfg = tiny_dense_config();
  cfg.dynamic_decode = true;
  cfg.selector.token_budget = 16;  // 2 pages of 8
  cfg.reuse_interval = 1;
  Engine engine(cfg);
  const auto ids = prompt_ids(64);
  const auto seq = engine.create_sequence();
  engine.generate(seq, ids, 4);
  const EngineStats& stats = engine.stats();
  EXPECT_EQ(stats.decode_steps, 3u);
  // Per decode step per layer per kv head: at most budget tokens.
  const std::size_t max_tokens = stats.decode_steps * 2 /*layers*/ *
                                 2 /*kv heads*/ * 24 /*budget + partials*/;
  EXPECT_LE(stats.tokens_visited, max_tokens);
}

TEST(Engine, ReusableSelectorReducesSelectorRuns) {
  EngineConfig cfg = tiny_covering_lserve_config();
  cfg.selector.token_budget = 16;  // force pruning
  cfg.reuse_interval = 4;
  Engine engine(cfg);
  const auto ids = prompt_ids(64);
  const auto seq = engine.create_sequence();
  engine.generate(seq, ids, 9);  // 8 decode steps
  const EngineStats& stats = engine.stats();
  EXPECT_GT(stats.selector_reuses, stats.selector_runs);
}

// Selector totals are cumulative: a released sequence's runs and reuses
// stay counted.
TEST(Engine, SelectorTotalsSurviveRelease) {
  EngineConfig cfg = tiny_covering_lserve_config();
  cfg.selector.token_budget = 16;  // force pruning
  cfg.reuse_interval = 4;
  Engine engine(cfg);
  const auto ids = prompt_ids(64);
  const auto first = engine.create_sequence();
  engine.generate(first, ids, 9);
  const EngineStats before = engine.stats();
  engine.release_sequence(first);
  const auto second = engine.create_sequence();
  engine.generate(second, ids, 2);  // one decode step: fewer than `first`.
  EXPECT_GT(engine.stats().selector_runs, before.selector_runs);
  EXPECT_GE(engine.stats().selector_reuses, before.selector_reuses);
}

TEST(Engine, ReleaseSequenceFreesAllPages) {
  Engine engine(tiny_covering_lserve_config());
  const auto ids = prompt_ids(48);
  const auto seq = engine.create_sequence();
  engine.generate(seq, ids, 4);
  EXPECT_GT(engine.dense_allocator().pages_in_use(), 0u);
  engine.release_sequence(seq);
  EXPECT_EQ(engine.dense_allocator().pages_in_use(), 0u);
  EXPECT_EQ(engine.stream_allocator().pages_in_use(), 0u);
}

TEST(Engine, SequenceSlotsAreRecycled) {
  Engine engine(tiny_dense_config());
  const auto s0 = engine.create_sequence();
  engine.release_sequence(s0);
  const auto s1 = engine.create_sequence();
  EXPECT_EQ(s0, s1);
}

TEST(Engine, QuantizedKvReducesDeviceBytes) {
  EngineConfig fp_cfg = tiny_dense_config();
  EngineConfig q_cfg = tiny_dense_config();
  q_cfg.dense_pages.dtype = num::KvDtype::kInt4;
  Engine fp(fp_cfg), q4(q_cfg);
  const auto ids = prompt_ids(64);
  const auto sf = fp.create_sequence();
  const auto sq = q4.create_sequence();
  fp.prefill(sf, std::span<const std::int32_t>(ids));
  q4.prefill(sq, std::span<const std::int32_t>(ids));
  EXPECT_LT(q4.kv_device_bytes(), 0.5 * fp.kv_device_bytes());
}

TEST(Engine, StreamingHeadsSaveMemoryAtLongContext) {
  EngineConfig dense_cfg = tiny_dense_config();
  EngineConfig duo_cfg = tiny_dense_config();
  duo_cfg.streaming_fraction = 0.5;
  duo_cfg.streaming = {/*sink=*/8, /*local=*/16};
  Engine dense(dense_cfg), duo(duo_cfg);
  const auto ids = prompt_ids(192);
  const auto sd = dense.create_sequence();
  const auto su = duo.create_sequence();
  dense.prefill(sd, std::span<const std::int32_t>(ids));
  duo.prefill(su, std::span<const std::int32_t>(ids));
  EXPECT_LT(duo.kv_device_bytes(), 0.75 * dense.kv_device_bytes());
}

TEST(Engine, CalibrationPartitionsAtConfiguredFraction) {
  EngineConfig cfg = tiny_covering_lserve_config();
  cfg.streaming = {/*sink=*/16, /*local=*/64};  // keep calibration cheap
  Engine engine(cfg);
  const auto gates = engine.calibrate_head_kinds();
  ASSERT_EQ(gates.size(), 2u * 2u);  // layers x kv_heads
  std::size_t streaming = 0;
  for (auto k : engine.head_kinds()) {
    streaming += (k == kv::HeadKind::kStreaming);
  }
  EXPECT_EQ(streaming, 2u);
}

TEST(Engine, SetHeadKindsOverridesPartition) {
  Engine engine(tiny_dense_config());
  std::vector<kv::HeadKind> kinds(4, kv::HeadKind::kStreaming);
  engine.set_head_kinds(kinds);
  for (auto k : engine.head_kinds()) {
    EXPECT_EQ(k, kv::HeadKind::kStreaming);
  }
}

TEST(BaselinePresets, DifferInTheExpectedKnobs) {
  const auto m = model::tiny();
  EXPECT_EQ(baselines::vllm_config(m).dense_pages.dtype,
            num::KvDtype::kFp16);
  EXPECT_EQ(baselines::qserve_config(m).dense_pages.dtype,
            num::KvDtype::kInt4);
  EXPECT_FALSE(baselines::vllm_config(m).dynamic_decode);
  EXPECT_TRUE(baselines::quest_config(m).dynamic_decode);
  EXPECT_FALSE(baselines::quest_config(m).hierarchical);
  EXPECT_TRUE(baselines::lserve_config(m).hierarchical);
  EXPECT_EQ(baselines::quest_config(m).dense_pages.page_size, 16u);
  EXPECT_EQ(baselines::lserve_config(m).dense_pages.page_size, 64u);
  EXPECT_EQ(baselines::lserve_config(m).dense_pages.logical_page_size, 16u);
  EXPECT_TRUE(baselines::minference_config(m).dynamic_prefill);
  EXPECT_DOUBLE_EQ(baselines::duo_attention_config(m).streaming_fraction,
                   0.5);
}

}  // namespace
}  // namespace lserve::serve
