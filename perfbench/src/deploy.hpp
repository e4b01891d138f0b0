// The one deployment every workload is served with, and the serving stack
// built from it: Engine -> Scheduler -> HttpServer on loopback, with a
// metrics registry and step tracer wired the way lserve_serve wires them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "obs/step_tracer.hpp"
#include "serve/engine.hpp"
#include "serve/scheduler.hpp"

namespace perfbench {

struct Deployment {
  lserve::serve::EngineConfig engine;
  lserve::serve::SchedulerConfig scheduler;  ///< sinks unset.
  lserve::net::ServerConfig server;          ///< sinks unset.
  std::size_t trace_steps = 256;             ///< lserve_serve's default ring.
};

/// lserve_config(small) with the benchmark's scaled selector budget and
/// memory caps (README.md explains each value).
Deployment deployment();

/// One-line JSON summary of the deployment, for the run record.
std::string describe(const Deployment& d);

/// The bucket ladder the traced run gives the scheduler's request-latency
/// histograms: 10 us to ~590 s at x1.01 per bucket, so a median read off
/// the buckets sits within ~0.5% of the true value (the default ladder's
/// x1.585 buckets leave ~25%).
std::vector<double> fine_latency_buckets_seconds();

/// The scheduler's request-latency histograms the traced run reads.
inline constexpr const char* kLatencyHistograms[] = {
    "lserve_request_ttft_seconds",
    "lserve_request_tpot_seconds",
    "lserve_request_queue_wait_seconds",
};

/// The serving stack. Members are declared in dependency order, so the
/// server (which references the scheduler, which references the engine and
/// sinks) is destroyed first.
class Stack {
 public:
  /// `trace_steps` sizes the tracer ring (the traced run keeps every step).
  /// `fine_latency` registers kLatencyHistograms with the fine ladder
  /// before the scheduler registers them with the default one (the
  /// registry returns the first registration).
  Stack(const Deployment& d, std::size_t trace_steps, bool fine_latency);
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  /// Starts serving on an ephemeral loopback port and returns it.
  std::uint16_t start() { return server.start(); }
  /// Stops serving; afterwards Engine stats may be read.
  void stop() { server.stop(); }

  lserve::serve::Engine engine;
  lserve::obs::MetricsRegistry metrics;
  lserve::obs::StepTracer tracer;
  lserve::serve::Scheduler scheduler;
  lserve::net::HttpServer server;
};

}  // namespace perfbench
