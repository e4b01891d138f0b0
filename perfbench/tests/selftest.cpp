// Self-tests of the benchmark harness: the tail-percentile rule, ITL
// extraction from an SSE byte stream split across reads, failure
// accounting, and the resolution of the net overheads read off the
// latency histograms. Exits non-zero if any check failed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "deploy.hpp"
#include "obs/metrics.hpp"
#include "sse.hpp"
#include "stats.hpp"

namespace {

int g_failures = 0;

#define CHECK(cond)                                                     \
  do {                                                                  \
    if (!(cond)) {                                                      \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,       \
                   __LINE__, #cond);                                    \
      ++g_failures;                                                     \
    }                                                                   \
  } while (0)

using namespace perfbench;

const char* const kHead =
    "HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\n"
    "Cache-Control: no-store\r\nConnection: close\r\n\r\n";

std::string token_frame(int index, int token) {
  return "event: token\ndata: {\"index\":" + std::to_string(index) +
         ",\"token\":" + std::to_string(token) + "}\n\n";
}

std::string done_frame(const char* status, int tokens) {
  return std::string("event: done\ndata: {\"status\":\"") + status +
         "\",\"request_id\":7,\"tokens\":" + std::to_string(tokens) +
         ",\"preemptions\":0}\n\n";
}

void test_tail_rule() {
  // Fewer than 11 samples: no tail at all.
  for (std::size_t n = 0; n <= 10; ++n) {
    CHECK(!highest_tail_percentile(n).has_value());
    CHECK(!tail_rule_met(n, 50.0));
  }
  // 11 samples: the tail is the smallest value, ten beyond it.
  CHECK(highest_tail_percentile(11).has_value());
  const double p11 = *highest_tail_percentile(11);
  CHECK(samples_beyond(11, p11) == 10);
  CHECK(tail_rule_met(11, p11));
  // The highest percentile leaves exactly ten beyond; any higher, fewer.
  for (std::size_t n : {11u, 25u, 40u, 100u, 1000u, 2401u}) {
    const double p = *highest_tail_percentile(n);
    CHECK(samples_beyond(n, p) == kTailBeyond);
    CHECK(samples_beyond(n, std::nextafter(p, 101.0) + 1e-6) < kTailBeyond);
  }
  CHECK(tail_rule_met(100, 90.0));
  CHECK(!tail_rule_met(100, 91.0));
  CHECK(tail_rule_met(1000, 99.0));
  // Nearest-rank values.
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  CHECK(percentile(v, 50) == 50.0);
  CHECK(percentile(v, 90) == 90.0);
  CHECK(percentile(v, 100) == 100.0);
  CHECK(percentile({}, 50) == 0.0);
}

void test_itl_split_frames() {
  // Three token frames and the done frame, cut at awkward offsets: inside
  // the head, inside "event: token", between the two newlines, and inside
  // the data. A frame completes at the read that delivers its "\n\n".
  const std::string stream = std::string(kHead) + token_frame(0, 11) +
                             token_frame(1, 22) + token_frame(2, 33) +
                             done_frame("FINISHED", 3);
  const std::size_t f0 = std::string(kHead).size();
  const std::size_t f1 = f0 + token_frame(0, 11).size();
  const std::size_t f2 = f1 + token_frame(1, 22).size();
  const std::vector<std::size_t> cuts = {
      20,          // mid head
      f0 + 9,      // mid "event: token"
      f1 - 1,      // between the frame's two newlines
      f1 + 25,     // mid data of frame 1
      f2 + 3,      // frame 1 done, frame 2 just begun
      stream.size()};
  // Arrival time of each read, in ns.
  const std::vector<std::uint64_t> at = {1000,    1001000, 2001000,
                                         3001000, 7001000, 8501000};
  StreamRecorder r;
  std::size_t prev = 0;
  for (std::size_t i = 0; i < cuts.size(); ++i) {
    r.feed(std::string_view(stream).substr(prev, cuts[i] - prev), at[i]);
    prev = cuts[i];
  }
  CHECK(r.http_status() == 200);
  CHECK(r.saw_done());
  CHECK(r.status() == "FINISHED");
  CHECK((r.tokens() == std::vector<std::int32_t>{11, 22, 33}));
  // Frame 0's second newline arrives in read 4, frame 1 completes in
  // read 5 and frame 2 in read 6.
  CHECK((r.token_ns() ==
         std::vector<std::uint64_t>{3001000, 7001000, 8501000}));
  std::vector<double> ttft, itl;
  add_latency_samples(r, 1000, false, ttft, itl);
  CHECK(ttft.size() == 1 && std::fabs(ttft[0] - 3.0) < 1e-9);
  CHECK(itl.size() == 2);
  CHECK(std::fabs(itl[0] - 4.0) < 1e-9 && std::fabs(itl[1] - 1.5) < 1e-9);
  CHECK(classify(r, 3) == Failure::kNone);

  // Byte-at-a-time delivery yields the same tokens.
  StreamRecorder b;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    b.feed(std::string_view(stream).substr(i, 1), i);
  }
  CHECK(b.tokens() == r.tokens());
  CHECK(b.saw_done());
}

void test_failure_accounting() {
  const double limit_ms = 1e12;  // any finite latency limit.
  const auto missed = [&](const StreamRecorder& r, std::size_t want) {
    const bool failed = classify(r, want) != Failure::kNone;
    std::vector<double> ttft, itl;
    add_latency_samples(r, 0, failed, ttft, itl);
    bool all_missed = !ttft.empty() && !itl.empty();
    for (double x : ttft) all_missed &= !(x <= limit_ms);
    for (double x : itl) all_missed &= !(x <= limit_ms);
    return failed && all_missed;
  };

  StreamRecorder non200;
  non200.feed(
      "HTTP/1.1 503 Service Unavailable\r\nContent-Length: 10\r\n\r\n"
      "{\"error\":{}}",
      5);
  CHECK(non200.http_status() == 503);
  CHECK(classify(non200, 4) == Failure::kHttpStatus);
  CHECK(missed(non200, 4));

  StreamRecorder nothing;  // connection refused or closed before a byte.
  CHECK(classify(nothing, 4) == Failure::kHttpStatus);
  CHECK(missed(nothing, 4));

  StreamRecorder truncated;
  truncated.feed(std::string(kHead) + token_frame(0, 1) + token_frame(1, 2),
                 5);
  CHECK(truncated.tokens().size() == 2);
  CHECK(classify(truncated, 4) == Failure::kTruncated);
  CHECK(missed(truncated, 4));

  StreamRecorder cancelled;
  cancelled.feed(std::string(kHead) + token_frame(0, 1) +
                     done_frame("CANCELLED", 1),
                 5);
  CHECK(classify(cancelled, 4) == Failure::kStatus);
  CHECK(missed(cancelled, 4));

  StreamRecorder deadline;
  deadline.feed(std::string(kHead) + done_frame("DEADLINE_EXCEEDED", 0), 5);
  CHECK(classify(deadline, 4) == Failure::kStatus);
  CHECK(missed(deadline, 4));

  StreamRecorder short_finish;
  short_finish.feed(std::string(kHead) + token_frame(0, 1) +
                        done_frame("FINISHED", 1),
                    5);
  CHECK(classify(short_finish, 4) == Failure::kTokenCount);
  CHECK(missed(short_finish, 4));

  // A failed request's +inf sample lands beyond every percentile.
  std::vector<double> ttft = {1, 2, 3};
  std::vector<double> itl;
  add_latency_samples(cancelled, 0, true, ttft, itl);
  CHECK(std::isinf(percentile(ttft, 100)));
  CHECK(percentile(ttft, 50) == 2.0);
}

void test_bucket_quantile() {
  const std::vector<double> bounds = {1.0, 2.0, 4.0};
  CHECK(bucket_quantile(bounds, {0, 0, 0, 0}, 0.5) == 0.0);
  // All mass in (1, 2]: the median interpolates to the bucket's middle.
  CHECK(std::fabs(bucket_quantile(bounds, {0, 10, 0, 0}, 0.5) - 1.5) < 1e-12);
  // +Inf bucket clamps to the largest finite bound.
  CHECK(bucket_quantile(bounds, {0, 0, 0, 5}, 0.5) == 4.0);
}

/// The net overhead as the traced run reads it, for server-side latencies
/// that the client sees `extra_ms` later: the client median and the
/// registry histogram's median, both on the histogram's buckets.
double overhead_ms(const std::vector<double>& bounds,
                   const std::vector<double>& server_ms, double extra_ms) {
  lserve::obs::Histogram h(bounds);
  std::vector<double> client_ms;
  for (double ms : server_ms) {
    h.observe(ms * 1e-3);
    client_ms.push_back(ms + extra_ms);
  }
  return bucketed_p50_ms(client_ms, h.upper_bounds()) -
         bucket_quantile(h.upper_bounds(), h.bucket_counts(), 0.5) * 1e3;
}

void test_net_overhead_resolution() {
  // Log-uniform server latencies over a decode-ITL range (5-15 ms) and a
  // TTFT range (150-450 ms); the client sees each 0.3 ms later.
  for (double lo_ms : {5.0, 150.0}) {
    std::vector<double> server_ms;
    for (int i = 0; i < 1001; ++i) {
      const double u = std::fmod(i * 0.6180339887, 1.0);
      server_ms.push_back(lo_ms * std::exp(u * std::log(3.0)));
    }
    // The fine ladder the traced run registers resolves it to sub-ms.
    const double fine =
        overhead_ms(fine_latency_buckets_seconds(), server_ms, 0.3);
    CHECK(std::fabs(fine - 0.3) < 0.1);
  }
  // Four longdoc-like TTFTs, seconds apart: both medians take the same
  // rank, so the overhead is off by at most one 1% bucket, here under 1 ms
  // (a mean-of-the-middle-two client median would be off by ~2 s).
  const double doc = overhead_ms(fine_latency_buckets_seconds(),
                                 {3500.0, 7500.0, 12000.0, 17000.0}, 0.3);
  CHECK(std::fabs(doc - 0.3) < 1.0);
}

}  // namespace

int main() {
  test_tail_rule();
  test_itl_split_frames();
  test_failure_accounting();
  test_bucket_quantile();
  test_net_overhead_resolution();
  if (g_failures != 0) {
    std::fprintf(stderr, "perfbench selftest: %d check(s) failed\n",
                 g_failures);
    return 1;
  }
  std::printf("perfbench selftest: all checks passed\n");
  return 0;
}
