// The load generator: one client thread driving up to `callers` SSE
// connections to POST /v1/generate in a closed loop.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "sse.hpp"
#include "workloads.hpp"

namespace perfbench {

std::uint64_t now_ns();

/// One request as the client saw it.
struct RequestRecord {
  std::size_t caller = 0;
  std::uint64_t id = 0;  ///< the benchmark's own id, shared by its spans.
  RequestSpec spec;
  std::uint64_t sent_ns = 0;
  std::uint64_t connected_ns = 0;
  std::uint64_t done_ns = 0;
  StreamRecorder stream;
  Failure failure = Failure::kNone;
};

/// A client span; spans of one request share `request`.
struct ClientSpan {
  std::uint64_t request = 0;
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// Peaks of the registry's page gauges, sampled by the client thread.
struct PagePeaks {
  double pages = 0.0;
  double hot = 0.0;
  double cold = 0.0;
};

struct LoadOptions {
  std::size_t callers = 4;
  double seconds = 10.0;  ///< callers send new requests only before this.
  bool trace = false;     ///< record client spans.
};

struct PhaseResult {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;  ///< the last reply ended.
  std::vector<RequestRecord> requests;
  std::vector<ClientSpan> spans;
  PagePeaks peaks;
};

/// Runs the closed loop against 127.0.0.1:`port` until every caller is
/// idle past the send window. Sends are serialised until acknowledged, so
/// callers that are idle together reach the scheduler in caller order.
/// `metrics` (may be null) supplies the page
/// gauges to sample. A request that sees no byte for 120 s fails as
/// truncated, so a hung server cannot hang the benchmark.
PhaseResult run_closed_loop(std::uint16_t port, RequestSource& source,
                            const LoadOptions& opt,
                            const lserve::obs::MetricsRegistry* metrics);

/// One request, start to end (warm-up and priming).
RequestRecord run_one(std::uint16_t port, const RequestSpec& spec);

/// Chrome trace-event JSON of client spans.
std::string spans_to_chrome_json(const std::vector<ClientSpan>& spans);

}  // namespace perfbench
