#include "deploy.hpp"

#include "baselines/baseline_engines.hpp"
#include "model/model_config.hpp"

namespace perfbench {

using namespace lserve;

Deployment deployment() {
  Deployment d;
  d.engine = baselines::lserve_config(model::small());
  d.engine.prefill_chunk_tokens = 128;
  // The preset's 4096-token budget exceeds every context a CPU run can
  // afford, so selection would always return the full page table.
  d.engine.selector.token_budget = 512;
  // One MemoryConfig for both layers, as lserve_serve plumbs it. The
  // prefix-cache cap is overflowed by chat's unique prompts; the hot cap
  // makes longdoc and agent spill while chat barely does. A tighter cap
  // (384) thrashes the cold store on agent (~75K demotions per run) and
  // makes its decode latency swing by a third from run to run.
  d.engine.memory.prefix_cache_pages = 1024;
  d.engine.memory.hot_pages = 640;
  d.engine.enable_prefix_cache = true;

  d.scheduler.max_batch = 8;
  // Client + event loop + scheduler + pool stay within 4 cores.
  d.scheduler.decode_threads = 2;
  d.scheduler.memory = d.engine.memory;

  d.server.port = 0;
  d.server.max_live = 64;
  return d;
}

std::string describe(const Deployment& d) {
  const serve::EngineConfig& e = d.engine;
  std::string s = "{\"preset\":\"lserve_config(small)\"";
  s += ",\"kv_dtype\":\"int4\",\"page_size\":" +
       std::to_string(e.dense_pages.page_size);
  s += ",\"logical_page_size\":" +
       std::to_string(e.dense_pages.logical_page_size);
  s += ",\"streaming_fraction\":" + std::to_string(e.streaming_fraction);
  s += ",\"sink_tokens\":" + std::to_string(e.streaming.sink_tokens);
  s += ",\"local_tokens\":" + std::to_string(e.streaming.local_tokens);
  s += ",\"selector_token_budget\":" +
       std::to_string(e.selector.token_budget);
  s += ",\"reuse_interval\":" + std::to_string(e.reuse_interval);
  s += ",\"prefill_chunk_tokens\":" + std::to_string(e.prefill_chunk_tokens);
  s += ",\"max_batch\":" + std::to_string(d.scheduler.max_batch);
  s += ",\"decode_threads\":" + std::to_string(d.scheduler.decode_threads);
  s += ",\"prefix_cache_pages\":" +
       std::to_string(e.memory.prefix_cache_pages);
  s += ",\"hot_pages\":" + std::to_string(e.memory.hot_pages);
  s += ",\"max_live\":" + std::to_string(d.server.max_live);
  s += ",\"trace_steps\":" + std::to_string(d.trace_steps) + "}";
  return s;
}

namespace {

/// A copy of `cfg` (a SchedulerConfig or ServerConfig) pointing at the
/// stack's sinks.
template <typename Config>
Config with_sinks(Config cfg, obs::MetricsRegistry& m, obs::StepTracer& t) {
  cfg.metrics = &m;
  cfg.tracer = &t;
  return cfg;
}

/// `m`, with kLatencyHistograms registered on the fine ladder.
obs::MetricsRegistry& with_fine_latency(obs::MetricsRegistry& m) {
  for (const char* name : kLatencyHistograms) {
    m.histogram(name, "Request latency (fine buckets).",
                fine_latency_buckets_seconds());
  }
  return m;
}

}  // namespace

std::vector<double> fine_latency_buckets_seconds() {
  return obs::exponential_buckets(1e-5, 1.01, 1800);
}

Stack::Stack(const Deployment& d, std::size_t trace_steps, bool fine_latency)
    : engine(d.engine),
      tracer(trace_steps),
      scheduler(engine,
                with_sinks(d.scheduler,
                           fine_latency ? with_fine_latency(metrics) : metrics,
                           tracer)),
      server(scheduler, with_sinks(d.server, metrics, tracer)) {}

}  // namespace perfbench
