#include "workloads.hpp"

#include <utility>

#include <array>

namespace perfbench {
namespace {

// Token ids stay inside the small model's vocabulary.
constexpr std::size_t kVocab = 1024;

// chat: unshared short prompts, long replies, so decode steps take most of
// the wall time (prefill costs ~3 ms per prompt token on the scheduler
// thread, a pooled decode step ~2 ms per sequence). Each caller walks a
// seeded permutation of kChatBands equal bands of both ranges, so every
// run covers the ranges evenly instead of by luck of the draw.
constexpr std::size_t kChatPromptMin = 32, kChatPromptMax = 95;
constexpr std::size_t kChatOutMin = 128, kChatOutMax = 255;
constexpr std::size_t kChatBands = 8;
// longdoc: unique 1.5-2.5K-token documents (3-5x the 512-token selector
// budget), short answers, one per caller. Caller c draws both lengths from
// band c of their ranges, so every run queues the same spread of work in
// the same order.
constexpr std::size_t kDocMin = 1536, kDocMax = 2559;
constexpr std::size_t kDocOutMin = 16, kDocOutMax = 32;
// agent: shared system prompt + session history + fresh tokens.
constexpr std::size_t kSystemTokens = 1024;
constexpr std::size_t kTurnFresh = 48;
constexpr std::size_t kTurnOutMin = 20, kTurnOutMax = 28;
constexpr std::size_t kSessionReset = 2048;

// Why each workload (README.md has the full table):
//   chat    — decode-bound (decode steps take ~70% of the wall time),
//             unshared; sparse attention and the prefix cache do almost
//             nothing (the "bypassed" side for both).
//   longdoc — prefill-bound, 3-5x the selector budget; the selector prunes
//             and the KV tier spills.
//   agent   — shared-prefix sessions; most prompt tokens come from the
//             prefix cache (the "used" side of chat's pair).
constexpr std::array<WorkloadSpec, 3> kWorkloads{{
    {WorkloadKind::kChat, "chat", 75.0, 99.5, 0, 2},
    {WorkloadKind::kLongdoc, "longdoc", 100.0, 80.0, 1, 1},
    {WorkloadKind::kAgent, "agent", 60.0, 98.0, 0, 1},
}};

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

Traffic::Traffic(const WorkloadSpec& spec, std::uint64_t seed,
                 std::size_t callers)
    : spec_(spec), callers_(callers) {
  std::uint64_t root = seed ^ (static_cast<std::uint64_t>(spec.kind) << 56);
  for (std::size_t i = 0; i < callers; ++i) {
    Caller& c = callers_[i];
    c.rng = splitmix64(root);
    c.band = i;  // longdoc
    if (spec.kind != WorkloadKind::kChat) continue;
    for (std::vector<std::size_t>* order : {&c.prompt_bands, &c.reply_bands}) {
      order->resize(kChatBands);
      for (std::size_t b = 0; b < kChatBands; ++b) (*order)[b] = b;
      for (std::size_t b = kChatBands; b > 1; --b) {
        std::swap((*order)[b - 1], (*order)[draw(c) % b]);
      }
    }
  }
  if (spec.kind == WorkloadKind::kAgent) {
    Caller shared;
    shared.rng = splitmix64(root);
    append_tokens(shared, kSystemTokens, system_prompt_);
  }
}

std::uint64_t Traffic::draw(Caller& c) { return splitmix64(c.rng); }

std::size_t Traffic::uniform(Caller& c, std::size_t lo, std::size_t hi) {
  return lo + static_cast<std::size_t>(draw(c) % (hi - lo + 1));
}

std::size_t Traffic::banded(Caller& c, std::size_t lo, std::size_t hi,
                            std::size_t band, std::size_t bands) {
  const std::size_t width = (hi - lo + 1) / bands;
  const std::size_t from = lo + band * width;
  return uniform(c, from, band + 1 == bands ? hi : from + width - 1);
}

void Traffic::append_tokens(Caller& c, std::size_t n,
                            std::vector<std::int32_t>& out) {
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(static_cast<std::int32_t>(draw(c) % kVocab));
  }
}

std::optional<RequestSpec> Traffic::next(std::size_t caller) {
  Caller& c = callers_[caller];
  if (spec_.requests_per_caller != 0 && c.sent >= spec_.requests_per_caller) {
    return std::nullopt;
  }
  ++c.sent;
  RequestSpec req;
  switch (spec_.kind) {
    case WorkloadKind::kChat: {
      const std::size_t i = (c.sent - 1) % kChatBands;
      append_tokens(c,
                    banded(c, kChatPromptMin, kChatPromptMax,
                           c.prompt_bands[i], kChatBands),
                    req.prompt);
      req.max_new_tokens =
          banded(c, kChatOutMin, kChatOutMax, c.reply_bands[i], kChatBands);
      break;
    }
    case WorkloadKind::kLongdoc: {
      const std::size_t bands = callers_.size();
      append_tokens(c, banded(c, kDocMin, kDocMax, c.band, bands), req.prompt);
      req.max_new_tokens = banded(c, kDocOutMin, kDocOutMax, c.band, bands);
      break;
    }
    case WorkloadKind::kAgent:
      // A session resets once the next turn would pass ~2K context.
      if (kSystemTokens + c.history.size() + kTurnFresh > kSessionReset) {
        c.history.clear();
      }
      req.prompt = system_prompt_;
      req.prompt.insert(req.prompt.end(), c.history.begin(), c.history.end());
      append_tokens(c, kTurnFresh, req.prompt);
      req.max_new_tokens = uniform(c, kTurnOutMin, kTurnOutMax);
      break;
  }
  return req;
}

void Traffic::completed(std::size_t caller, const RequestSpec& req,
                        std::span<const std::int32_t> output) {
  if (spec_.kind != WorkloadKind::kAgent) return;
  // The next turn carries this turn's fresh tokens and the actual reply.
  Caller& c = callers_[caller];
  c.history.assign(req.prompt.begin() + kSystemTokens, req.prompt.end());
  c.history.insert(c.history.end(), output.begin(), output.end());
}

std::vector<RequestSpec> Traffic::priming() const {
  if (spec_.kind != WorkloadKind::kAgent) return {};
  return {RequestSpec{system_prompt_, 1}};
}

}  // namespace perfbench
