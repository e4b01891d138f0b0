// Baseline matrix: every system preset must serve end-to-end on the shared
// substrate, and their decode-work / memory orderings must reflect their
// policies (the invariant behind every cross-system comparison in bench/).
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "baselines/baseline_engines.hpp"
#include "costmodel/pipeline_cost.hpp"
#include "serve/attention_policy.hpp"
#include "serve/engine.hpp"

namespace lserve {
namespace {

struct SystemRun {
  std::size_t tokens_visited = 0;
  double kv_bytes = 0.0;
  std::vector<std::int32_t> output;
};

/// Scales a preset down to the tiny test geometry, preserving its policy
/// RATIOS (page sizes, budgets and windows shrink together).
serve::EngineConfig scaled(serve::EngineConfig cfg) {
  const bool hierarchical =
      cfg.dense_pages.logical_page_size < cfg.dense_pages.page_size;
  cfg.dense_pages.page_size = 8;
  // Preserve the hierarchical-vs-flat distinction at g=2; finer logical
  // pages at this scale would let K_stats overhead dwarf the payload,
  // which the real NP=64/NL=16 geometry never does.
  cfg.dense_pages.logical_page_size = hierarchical ? 4 : 8;
  cfg.tiling = {8, 8};
  // Λ window clearly below the token budget so streaming heads do
  // measurably less work than budget-pruned dense heads.
  cfg.streaming = {/*sink_tokens=*/8, /*local_tokens=*/24};
  if (cfg.selector.token_budget > 0) cfg.selector.token_budget = 64;
  cfg.pool_pages = 512;
  return cfg;
}

std::map<std::string, SystemRun> run_matrix() {
  const model::ModelConfig m = model::tiny();
  const std::map<std::string, serve::EngineConfig> presets{
      {"lserve", scaled(baselines::lserve_config(m))},
      {"vllm", scaled(baselines::vllm_config(m))},
      {"qserve", scaled(baselines::qserve_config(m))},
      {"duo", scaled(baselines::duo_attention_config(m))},
      {"quest", scaled(baselines::quest_config(m))},
      {"minference", scaled(baselines::minference_config(m))},
  };
  std::vector<std::int32_t> ids(160);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ids[i] = static_cast<std::int32_t>((13 * i + 3) % 251);
  }
  std::map<std::string, SystemRun> runs;
  for (const auto& [name, cfg] : presets) {
    serve::Engine engine(cfg);
    const auto seq = engine.create_sequence();
    SystemRun run;
    run.output = engine.generate(seq, ids, 6);
    run.tokens_visited = engine.stats().tokens_visited;
    run.kv_bytes = engine.kv_device_bytes();
    runs[name] = std::move(run);
  }
  return runs;
}

TEST(BaselineMatrix, EverySystemCompletesGeneration) {
  const auto runs = run_matrix();
  ASSERT_EQ(runs.size(), 6u);
  for (const auto& [name, run] : runs) {
    EXPECT_EQ(run.output.size(), 6u) << name;
    for (auto t : run.output) {
      EXPECT_GE(t, 0) << name;
      EXPECT_LT(t, 256) << name;
    }
  }
}

TEST(BaselineMatrix, DecodeWorkOrderingReflectsPolicies) {
  const auto runs = run_matrix();
  // Dense-decode systems (vLLM, QServe, MInference) visit the full history
  // every step and therefore do the most attention work.
  EXPECT_EQ(runs.at("vllm").tokens_visited,
            runs.at("qserve").tokens_visited);
  EXPECT_EQ(runs.at("vllm").tokens_visited,
            runs.at("minference").tokens_visited);
  // Streaming heads (Duo) and page pruning (Quest) both cut decode work.
  EXPECT_LT(runs.at("duo").tokens_visited, runs.at("vllm").tokens_visited);
  EXPECT_LT(runs.at("quest").tokens_visited, runs.at("vllm").tokens_visited);
  // LServe combines both: least work of all.
  for (const char* other : {"vllm", "qserve", "duo", "quest", "minference"}) {
    EXPECT_LT(runs.at("lserve").tokens_visited,
              runs.at(other).tokens_visited)
        << other;
  }
}

TEST(BaselineMatrix, MemoryOrderingReflectsPrecisionAndEviction) {
  const auto runs = run_matrix();
  // 4-bit KV beats fp16 KV on the same retention policy.
  EXPECT_LT(runs.at("qserve").kv_bytes, runs.at("vllm").kv_bytes);
  // Streaming-head eviction beats full retention at equal precision.
  EXPECT_LT(runs.at("duo").kv_bytes, runs.at("vllm").kv_bytes);
  // Quest prunes compute, not memory (paper: "these approaches do not
  // reduce KV cache memory consumption").
  EXPECT_NEAR(runs.at("quest").kv_bytes, runs.at("vllm").kv_bytes,
              0.12 * runs.at("vllm").kv_bytes);
  // LServe holds the least KV memory of all systems.
  for (const char* other : {"vllm", "qserve", "duo", "quest", "minference"}) {
    EXPECT_LT(runs.at("lserve").kv_bytes, runs.at(other).kv_bytes) << other;
  }
}

TEST(BaselineMatrix, SameSubstrateSameWeights) {
  // All presets share the transformer: vLLM and Quest both run fp16 dense
  // causal prefill (Quest differs only in decode-time page pruning), so
  // the first generated token must agree bit for bit. QServe is excluded
  // on purpose: prefill attention reads its KV back from the int4 pages
  // (what any later reader loads), so int4 presets feel quantization
  // already at prefill and need not match fp16 token-for-token.
  const model::ModelConfig m = model::tiny();
  serve::Engine a(scaled(baselines::vllm_config(m)));
  serve::Engine b(scaled(baselines::quest_config(m)));
  std::vector<std::int32_t> ids(24);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ids[i] = static_cast<std::int32_t>((5 * i + 1) % 251);
  }
  const auto sa = a.create_sequence();
  const auto sb = b.create_sequence();
  EXPECT_EQ(a.prefill(sa, ids), b.prefill(sb, ids));
}

// Each system is described twice: as an engine preset (baselines::) and
// as a cost-model policy (cost::) for the paper-table benches. The fields
// both describe must agree, or the benches model a different system than
// the engine serves.
TEST(BaselineMatrix, EnginePresetsMatchCostPolicies) {
  const model::ModelConfig m = model::llama3_8b();
  const std::map<std::string,
                 std::pair<serve::EngineConfig, cost::ServingPolicy>>
      systems{
          {"lserve", {baselines::lserve_config(m), cost::lserve_policy()}},
          {"vllm", {baselines::vllm_config(m), cost::vllm_policy()}},
          {"qserve", {baselines::qserve_config(m), cost::qserve_policy()}},
          {"duo",
           {baselines::duo_attention_config(m),
            cost::duo_attention_policy()}},
          {"quest", {baselines::quest_config(m), cost::quest_policy()}},
          {"minference",
           {baselines::minference_config(m), cost::minference_policy()}},
      };
  for (const auto& [name, pair] : systems) {
    const cost::ServingPolicy got = serve::cost_policy_from(pair.first);
    const cost::ServingPolicy& want = pair.second;
    EXPECT_EQ(got.kv_dtype, want.kv_dtype) << name;
    EXPECT_EQ(got.page_size, want.page_size) << name;
    EXPECT_EQ(got.logical_page_size, want.logical_page_size) << name;
    EXPECT_EQ(got.streaming_fraction, want.streaming_fraction) << name;
    EXPECT_EQ(got.sink_tokens, want.sink_tokens) << name;
    EXPECT_EQ(got.local_tokens, want.local_tokens) << name;
    EXPECT_EQ(got.dynamic_decode, want.dynamic_decode) << name;
    EXPECT_EQ(got.token_budget, want.token_budget) << name;
    EXPECT_EQ(got.reuse_interval, want.reuse_interval) << name;
    EXPECT_EQ(got.dynamic_prefill, want.dynamic_prefill) << name;
  }
}

}  // namespace
}  // namespace lserve
