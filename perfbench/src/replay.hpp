// Op replay: times each layer's public functions on a second Engine of the
// deployment's config, at one workload's median context. Ops run in
// round-robin repetitions, so host drift lands on all of them equally.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "serve/engine.hpp"

namespace perfbench {

struct ReplayResult {
  std::size_t context = 0;  ///< tokens prefilled (a multiple of the chunk).
  std::size_t reps = 0;
  /// (metric name, median microseconds per call), in replay order.
  std::vector<std::pair<std::string, double>> op_us;
  double kept_page_share = 0.0;   ///< selected / total pages, dense heads.
  double decode_step_us = 0.0;    ///< Engine::decode at the same context.
  double prefill_chunk_us = 0.0;  ///< Engine::prefill_chunk, last chunk.
  double decode_ops_us = 0.0;     ///< sum of replayed ops per decode step.
  double prefill_ops_us = 0.0;    ///< sum of replayed ops per chunk.
  double ffn_macs = 0.0;          ///< multiply-accumulates of one FFN row.

  double op(const std::string& name) const;
};

/// Prefills a seeded prompt of `context` tokens (rounded down to whole
/// prefill chunks, at least one) on a fresh Engine built from `cfg`, then
/// replays the decode and prefill ops `reps` times.
ReplayResult run_replay(const lserve::serve::EngineConfig& cfg,
                        std::size_t context, std::uint64_t seed,
                        std::size_t reps);

}  // namespace perfbench
