// The benchmark's three traffic mixes and their seeded generators.
//
// Every workload runs as a closed loop: each caller sends its next request
// only after the previous reply has ended. The server receives only the
// generated token ids.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

namespace perfbench {

enum class WorkloadKind { kChat, kLongdoc, kAgent };

struct WorkloadSpec {
  WorkloadKind kind;
  const char* name;
  /// Fixed tail percentiles, chosen so a normal run leaves at least ten
  /// samples beyond them (stats.hpp tail rule) and so they sit inside one
  /// mode of the distribution rather than at the edge of a second mode
  /// whose share varies from run to run. 100 = the maximum, for a workload
  /// whose runs hold too few samples for any tail.
  double ttft_tail_p;
  double itl_tail_p;
  /// Requests each caller sends (0 = keep sending until the window ends).
  std::size_t requests_per_caller;
  /// Requests the correctness gate re-generates solo.
  std::size_t gate_samples;
};

/// The workload called `name`, or null.
const WorkloadSpec* find_workload(std::string_view name);

struct RequestSpec {
  std::vector<std::int32_t> prompt;
  std::size_t max_new_tokens = 0;
};

/// What a closed loop asks for its callers' requests.
class RequestSource {
 public:
  virtual ~RequestSource() = default;
  /// The caller's next request, or nothing once it has no more.
  virtual std::optional<RequestSpec> next(std::size_t caller) = 0;
  /// Reports the reply to the caller's last request.
  virtual void completed(std::size_t caller, const RequestSpec& req,
                         std::span<const std::int32_t> output) = 0;
};

/// Seeded per-caller request streams for one workload. The same seed gives
/// the same requests, given the same replies (agent turns embed them).
class Traffic final : public RequestSource {
 public:
  Traffic(const WorkloadSpec& spec, std::uint64_t seed, std::size_t callers);

  std::optional<RequestSpec> next(std::size_t caller) override;
  void completed(std::size_t caller, const RequestSpec& req,
                 std::span<const std::int32_t> output) override;

  /// Requests served once before the measured phase: agent traffic primes
  /// the shared system prompt, as a long-running agent service has it
  /// cached; the other workloads need none.
  std::vector<RequestSpec> priming() const;

 private:
  struct Caller {
    std::uint64_t rng = 0;
    std::size_t sent = 0;
    std::vector<std::int32_t> history;  ///< agent: earlier turns + replies.
    std::size_t band = 0;               ///< longdoc: length band.
    std::vector<std::size_t> prompt_bands, reply_bands;  ///< chat.
  };

  std::uint64_t draw(Caller& c);
  std::size_t uniform(Caller& c, std::size_t lo, std::size_t hi);
  /// Uniform in band `band` of `bands` equal bands of [lo, hi].
  std::size_t banded(Caller& c, std::size_t lo, std::size_t hi,
                     std::size_t band, std::size_t bands);
  void append_tokens(Caller& c, std::size_t n, std::vector<std::int32_t>& out);

  const WorkloadSpec& spec_;
  std::vector<Caller> callers_;
  std::vector<std::int32_t> system_prompt_;  ///< agent only.
};

}  // namespace perfbench
