// Batched decode throughput: serial vs thread-pooled Scheduler::step().
//
// LServe's decode-side wins are measured under iteration-level continuous
// batching. A decode step runs one forward over the batch's stacked rows
// (each layer's weights are read once for the whole batch) and only the
// KV append and paged attention per sequence; a pool splits the GEMMs'
// output columns and runs the per-sequence attention concurrently. This
// bench pins one engine/scheduler per (batch, threads) cell, submits
// `batch` seeded requests, and reports the median per-step latency and
// aggregate decode tokens/s. The pooled path is bit-identical to the
// serial path (see Engine::decode_batch), so this is a pure wall-clock
// comparison.
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "baselines/baseline_engines.hpp"
#include "common.hpp"
#include "serve/scheduler.hpp"

using namespace lserve;

namespace {

serve::Request make_request(std::size_t prompt_len, std::size_t new_tokens,
                            std::uint64_t salt) {
  serve::Request req;
  req.prompt.resize(prompt_len);
  for (std::size_t i = 0; i < prompt_len; ++i) {
    req.prompt[i] =
        static_cast<std::int32_t>((i * 131 + salt * 31 + 7) % 1021);
  }
  req.max_new_tokens = new_tokens;
  return req;
}

/// Median per-step decode latency (us) at one (batch, threads) point.
double step_latency_us(std::size_t batch, std::size_t threads,
                       std::size_t prompt_len, std::size_t steps) {
  serve::EngineConfig cfg = baselines::lserve_config(model::small());
  cfg.pool_pages = 4096;
  serve::Engine engine(cfg);
  serve::Scheduler sched(engine, batch, threads);
  for (std::size_t b = 0; b < batch; ++b) {
    sched.submit(make_request(prompt_len, steps + 4, b));
  }
  sched.step();  // admission + prefill + first decode, excluded from timing.
  std::vector<double> samples;
  samples.reserve(steps);
  for (std::size_t s = 0; s < steps; ++s) {
    samples.push_back(bench::time_us([&] { sched.step(); }, 1));
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  // Optional argv[1]: pooled thread count (default: hardware concurrency).
  std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  if (argc > 1) {
    const long parsed = std::strtol(argv[1], nullptr, 10);
    if (parsed > 0) hw = static_cast<std::size_t>(parsed);
  }
  const std::vector<std::size_t> batches{1, 2, 4, 8};
  const std::size_t prompt_len = 256;
  const std::size_t steps = 24;

  bench::section("Batched decode: per-step latency (us), serial vs " +
                 std::to_string(hw) + " threads (model=small)");
  bench::row("batch", {"serial", "pooled", "speedup", "ser tok/s",
                       "par tok/s"});
  for (const std::size_t batch : batches) {
    const double serial = step_latency_us(batch, 1, prompt_len, steps);
    const double pooled = step_latency_us(batch, hw, prompt_len, steps);
    const double b = static_cast<double>(batch);
    bench::row(std::to_string(batch),
               {bench::fmt(serial, 0), bench::fmt(pooled, 0),
                bench::fmt(serial / pooled, 2),
                bench::fmt(1e6 * b / serial, 0),
                bench::fmt(1e6 * b / pooled, 0)});
  }
  std::printf(
      "\nPooled step() splits GEMM columns and per-sequence attention over\n"
      "a ThreadPool; outputs, stats and completion order are bit-identical\n"
      "to serial execution.\n");
  return 0;
}
