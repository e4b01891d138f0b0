// Sequence state: one in-flight request's KV caches, position counters and
// per-sequence page-selection cache.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "kv/two_way_cache.hpp"
#include "sparse/reusable_selector.hpp"

namespace lserve::serve {

using SequenceId = std::size_t;
inline constexpr SequenceId kInvalidSequence = static_cast<SequenceId>(-1);

/// Lifecycle of a live sequence: WAITING → PREFILLING → DECODING. A
/// sequence ends by release_sequence(), which destroys it; how its request
/// ended (finished, preempted and re-queued, cancelled) is the scheduler's
/// RequestStatus, not a phase.
enum class SequencePhase : std::uint8_t {
  kWaiting = 0,     ///< queued/created; no tokens fed yet.
  kPrefilling = 1,  ///< mid incremental prefill (begin_prefill() called).
  kDecoding = 2,    ///< prefill complete; generating one token per step.
};

/// Per-sequence serving state. Owned by the engine; requests reference it
/// by SequenceId.
struct Sequence {
  Sequence(std::size_t layers, std::size_t kv_heads,
           std::vector<kv::HeadKind> kinds, kv::StreamingConfig streaming,
           std::size_t reuse_interval)
      : cache(layers, kv_heads, std::move(kinds), streaming),
        selector(layers * kv_heads, reuse_interval) {}

  kv::TwoWayKvCache cache;
  sparse::ReusableSelector selector;
  SequencePhase phase = SequencePhase::kWaiting;
  std::size_t position = 0;      ///< next absolute token position.
  std::size_t decode_step = 0;   ///< decode steps taken (reuse chunking).
  std::size_t prefill_remaining = 0;  ///< prompt tokens still owed mid-prefill.
  std::int32_t last_token = -1;  ///< most recent generated token id.
};

}  // namespace lserve::serve
