// perfbench — the repo benchmark program.
//
//   perfbench --workload chat|longdoc|agent --seed N --seconds S --trace 0|1
//             [--out-dir DIR] [--commit SHA] [--source-digest HEX]
//
// Serves one workload through Engine -> Scheduler -> HttpServer over
// loopback, from one client thread (this one), and prints a run record
// followed by one JSON result line. --trace 0 reports the end-to-end
// metrics; --trace 1 serves the same traffic twice (untraced, then with a
// full step-trace ring and client spans), replays each layer's public ops,
// and reports the per-layer metrics. See README.md.
#include <sys/resource.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "client.hpp"
#include "deploy.hpp"
#include "replay.hpp"
#include "stats.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_FLAGS
#define PERFBENCH_FLAGS "unknown"
#endif

namespace perfbench {
namespace {

using namespace lserve;

constexpr std::size_t kCallers = 4;
constexpr std::size_t kSetups = 5;
constexpr std::size_t kProbeSteps = 50;
constexpr std::size_t kTracedRing = 1 << 15;
constexpr std::size_t kReplayReps = 7;
/// A decode_batch span shorter than this ran no forward (empty batch).
constexpr double kEmptyDecodeMs = 0.02;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string out_dir = ".";
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "perfbench: %s\n", msg.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") a.seconds = std::strtod(v, nullptr);
    else if (k == "--trace") a.trace = std::atoi(v);
    else if (k == "--out-dir") a.out_dir = v;
    else if (k == "--commit") a.commit = v;
    else if (k == "--source-digest") a.source_digest = v;
    else die("unknown argument " + k);
  }
  if (argc % 2 != 1) die("arguments come in --key value pairs");
  if (find_workload(a.workload) == nullptr) die("unknown --workload");
  if (!(a.seconds > 0.0 && a.seconds <= 600.0)) die("bad --seconds");
  if (a.trace != 0 && a.trace != 1) die("--trace must be 0 or 1");
  return a;
}

double seconds_between(std::uint64_t a, std::uint64_t b) {
  return static_cast<double>(b - a) * 1e-9;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t c = line.find(':');
      return c == std::string::npos ? line : line.substr(c + 2);
    }
  }
  return "unknown";
}

std::string utc_now() {
  const std::time_t t = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&t, &tm);
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

std::string json_str(const std::string& s) {
  std::string o = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) o += c;
  }
  return o + "\"";
}

/// A JSON number; a missed latency (+inf) prints as the largest double.
std::string num(double v) {
  if (!std::isfinite(v)) v = v < 0 ? -DBL_MAX : DBL_MAX;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Host-speed diagnostic: ms per Engine::decode step over kProbeSteps
/// steps of one fixed 64-token sequence, single-threaded.
double host_probe(serve::Engine& eng) {
  std::vector<std::int32_t> prompt(64);
  for (std::size_t i = 0; i < prompt.size(); ++i) {
    prompt[i] = static_cast<std::int32_t>((i * 37 + 11) % 1024);
  }
  const serve::SequenceId id = eng.create_sequence();
  std::int32_t tok = eng.prefill(id, prompt);
  const std::uint64_t t0 = now_ns();
  for (std::size_t i = 0; i < kProbeSteps; ++i) tok = eng.decode(id, tok);
  const double ms = seconds_between(t0, now_ns()) * 1e3 /
                    static_cast<double>(kProbeSteps);
  eng.release_sequence(id);
  return ms;
}

RequestSpec warmup_request() {
  RequestSpec w;
  for (std::int32_t i = 0; i < 16; ++i) w.prompt.push_back(1000 - i);
  w.max_new_tokens = 4;
  return w;
}

/// Registry values read around a phase (atomics: safe while serving).
struct Snapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::vector<std::uint64_t>> hists;
  std::map<std::string, std::vector<double>> bounds;  ///< each hist's ladder.
};

const char* const kCounters[] = {
    "lserve_prefix_tokens_reused_total",
    "lserve_sse_backpressure_stalls_total",
    "lserve_preemptions_total",
    "lserve_admission_deferrals_total",
    "lserve_requests_submitted_total",
    "lserve_decode_route_steps_total{route=\"dense\"}",
    "lserve_decode_route_steps_total{route=\"sparse\"}",
};
Snapshot snapshot(const obs::MetricsRegistry& m) {
  Snapshot s;
  for (const char* c : kCounters) {
    const obs::Counter* p = m.find_counter(c);
    s.counters[c] = p == nullptr ? 0 : p->value();
  }
  for (const char* h : kLatencyHistograms) {
    const obs::Histogram* p = m.find_histogram(h);
    if (p == nullptr) continue;
    s.hists[h] = p->bucket_counts();
    s.bounds[h] = p->upper_bounds();
  }
  return s;
}

/// Everything one measured phase yields.
struct Phase {
  PhaseResult load;
  Snapshot before, after;
  serve::EngineStats engine;
  kv::TierStats tier;
  std::vector<obs::StepTrace> steps;
  std::uint64_t steps_committed = 0;
  std::size_t trace_capacity = 0;
  double peak_rss_mb = 0.0;
  std::string steps_json;  ///< Chrome trace of the ring (traced runs).

  std::uint64_t delta(const char* c) const {
    return after.counters.at(c) - before.counters.at(c);
  }
  double hist_p50_ms(const char* h) const {
    std::vector<std::uint64_t> d = after.hists.at(h);
    const std::vector<std::uint64_t>& b = before.hists.at(h);
    for (std::size_t i = 0; i < d.size() && i < b.size(); ++i) d[i] -= b[i];
    return bucket_quantile(after.bounds.at(h), d, 0.5) * 1e3;
  }
  /// Client median minus the registry histogram's median, both read off
  /// that histogram's buckets.
  double overhead_ms(const std::vector<double>& client_ms, const char* h) const {
    return bucketed_p50_ms(client_ms, after.bounds.at(h)) - hist_p50_ms(h);
  }
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux.
}

/// Serves one measured phase on a started stack, then stops it.
Phase measure(Stack& stack, std::uint16_t port, const WorkloadSpec& spec,
              std::uint64_t seed, double seconds, bool trace) {
  Traffic traffic(spec, seed, kCallers);
  for (const RequestSpec& p : traffic.priming()) {
    if (run_one(port, p).failure != Failure::kNone) die("priming failed");
  }
  Phase ph;
  ph.before = snapshot(stack.metrics);
  LoadOptions opt;
  opt.callers = kCallers;
  opt.seconds = seconds;
  opt.trace = trace;
  ph.load = run_closed_loop(port, traffic, opt, &stack.metrics);
  ph.peak_rss_mb = peak_rss_mb();
  ph.after = snapshot(stack.metrics);
  stack.stop();
  // Only now, with the scheduler thread joined, are Engine stats stable.
  ph.engine = stack.engine.stats();
  ph.tier = stack.engine.tier_stats();
  ph.steps = stack.tracer.snapshot();
  ph.steps_committed = stack.tracer.committed();
  ph.trace_capacity = stack.tracer.capacity();
  if (trace) ph.steps_json = stack.tracer.export_chrome_json();
  return ph;
}

/// Builds a stack, starts it and serves the warm-up request; returns the
/// seconds that took. The traced stack keeps every step and reads request
/// latencies on a fine bucket ladder.
double set_up(std::unique_ptr<Stack>& stack, std::uint16_t& port,
              const Deployment& dep, bool traced) {
  const std::uint64_t t0 = now_ns();
  stack = std::make_unique<Stack>(
      dep, traced ? kTracedRing : dep.trace_steps, traced);
  port = stack->start();
  if (run_one(port, warmup_request()).failure != Failure::kNone) {
    die("warm-up request failed");
  }
  return seconds_between(t0, now_ns());
}

struct Latency {
  std::vector<double> ttft_ms, itl_ms;
  std::size_t finished_tokens = 0;
  std::size_t failed = 0;
  std::size_t prompt_tokens = 0;
};

Latency latency(const PhaseResult& p) {
  Latency l;
  for (const RequestRecord& r : p.requests) {
    const bool failed = r.failure != Failure::kNone;
    add_latency_samples(r.stream, r.sent_ns, failed, l.ttft_ms, l.itl_ms);
    l.failed += failed ? 1 : 0;
    if (!failed) l.finished_tokens += r.stream.tokens().size();
    l.prompt_tokens += r.spec.prompt.size();
  }
  return l;
}

double output_tok_s(const PhaseResult& p, const Latency& l) {
  return static_cast<double>(l.finished_tokens) /
         seconds_between(p.start_ns, p.end_ns);
}

/// The correctness gate: re-generates a seeded sample of finished requests
/// solo and marks each mismatch kWrongOutput. Returns {checked, mismatches}.
std::pair<std::size_t, std::size_t> gate(serve::Engine& eng, PhaseResult& p,
                                         std::size_t samples,
                                         std::uint64_t seed) {
  std::vector<std::size_t> ok;
  for (std::size_t i = 0; i < p.requests.size(); ++i) {
    if (p.requests[i].failure == Failure::kNone) ok.push_back(i);
  }
  std::uint64_t x = seed * 0x2545f4914f6cdd1dULL + 0x9e3779b97f4a7c15ULL;
  std::size_t checked = 0, bad = 0;
  for (std::size_t k = 0; k < samples && !ok.empty(); ++k) {
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    const std::size_t pick = static_cast<std::size_t>(x % ok.size());
    RequestRecord& r = p.requests[ok[pick]];
    ok.erase(ok.begin() + static_cast<std::ptrdiff_t>(pick));
    const serve::SequenceId id = eng.create_sequence();
    const std::vector<std::int32_t> solo =
        eng.generate(id, r.spec.prompt, r.spec.max_new_tokens);
    eng.release_sequence(id);
    ++checked;
    if (solo != r.stream.tokens()) {
      r.failure = Failure::kWrongOutput;
      ++bad;
    }
  }
  return {checked, bad};
}

/// FNV-1a over each caller's first reply, in caller order: the same seed
/// gives the same digest unless a change alters numerics.
std::string output_digest(const PhaseResult& p) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t c = 0; c < kCallers; ++c) {
    for (const RequestRecord& r : p.requests) {
      if (r.caller != c) continue;
      for (std::int32_t t : r.stream.tokens()) {
        h = (h ^ static_cast<std::uint64_t>(static_cast<std::uint32_t>(t))) *
            0x100000001b3ULL;
      }
      break;
    }
  }
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

/// JSON lines, one per request of a phase: send time, failure and every
/// token frame's arrival (ns, steady clock) — enough to recompute any
/// latency statistic offline.
std::string requests_jsonl(const PhaseResult& p) {
  std::string s;
  for (const RequestRecord& r : p.requests) {
    s += "{\"id\":" + std::to_string(r.id) + ",\"caller\":" +
         std::to_string(r.caller) + ",\"prompt\":" +
         std::to_string(r.spec.prompt.size()) + ",\"sent_ns\":" +
         std::to_string(r.sent_ns) + ",\"done_ns\":" +
         std::to_string(r.done_ns) + ",\"failure\":\"" +
         to_string(r.failure) + "\",\"token_ns\":[";
    for (std::size_t i = 0; i < r.stream.token_ns().size(); ++i) {
      if (i > 0) s += ',';
      s += std::to_string(r.stream.token_ns()[i]);
    }
    s += "]}\n";
  }
  return s;
}

/// One metric of the result line.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Step-trace aggregates; `in` restricts to steps starting in [lo, hi].
struct StepAgg {
  std::size_t steps = 0;
  std::vector<double> envelope_ms;
  double self_ms = 0.0;
  double spans_ms[5] = {};  ///< by SpanKind.
  std::size_t decode_steps = 0;  ///< steps whose decode_batch ran a forward.
};

/// The scheduler spans the per-layer metrics read, in kSpanNames order.
enum SpanKind { kDecode, kPrefill, kDeliver, kAttach, kInsert };
const char* const kSpanNames[5] = {"decode_batch", "prefill_chunk", "deliver",
                                   "prefix_attach", "prefix_insert"};

StepAgg aggregate(const std::vector<obs::StepTrace>& steps, std::uint64_t lo,
                  std::uint64_t hi) {
  StepAgg a;
  for (const obs::StepTrace& s : steps) {
    if (s.start_ns < lo || s.start_ns > hi) continue;
    ++a.steps;
    a.envelope_ms.push_back(static_cast<double>(s.dur_ns) * 1e-6);
    // Self time: the envelope minus the union of its spans.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
    for (const obs::TraceSpan& sp : s.spans) {
      iv.emplace_back(sp.start_ns, sp.start_ns + sp.dur_ns);
      for (std::size_t k = 0; k < 5; ++k) {
        if (std::strcmp(sp.name, kSpanNames[k]) == 0) {
          const double ms = static_cast<double>(sp.dur_ns) * 1e-6;
          a.spans_ms[k] += ms;
          if (k == kDecode && ms >= kEmptyDecodeMs) ++a.decode_steps;
        }
      }
    }
    std::sort(iv.begin(), iv.end());
    std::uint64_t covered = 0, end = 0;
    for (const auto& [b, e] : iv) {
      const std::uint64_t from = std::max(b, end);
      if (e > from) covered += e - from;
      end = std::max(end, e);
    }
    a.self_ms += static_cast<double>(s.dur_ns - std::min(covered, s.dur_ns)) * 1e-6;
  }
  return a;
}

double ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

std::vector<Metric> per_layer(const Phase& ph, const Latency& lat,
                              double e2e_tok_s, const ReplayResult& rp) {
  const PhaseResult& p = ph.load;
  const double wall_ms = seconds_between(p.start_ns, p.end_ns) * 1e3;
  const StepAgg in = aggregate(ph.steps, p.start_ns, p.end_ns);
  const StepAgg all = aggregate(ph.steps, 0, ~0ULL);
  const serve::EngineStats& es = ph.engine;
  const double steps = static_cast<double>(in.steps);
  const double submitted = static_cast<double>(
      ph.after.counters.at("lserve_requests_submitted_total"));
  const double decode_tokens = static_cast<double>(
      ph.delta("lserve_decode_route_steps_total{route=\"dense\"}") +
      ph.delta("lserve_decode_route_steps_total{route=\"sparse\"}"));
  const double prefetch = static_cast<double>(ph.tier.prefetch_promotions);
  const double pin = static_cast<double>(ph.tier.pin_promotions);
  const double tok_s = output_tok_s(p, lat);

  std::vector<Metric> m = {
      {"net.ttft_overhead_ms",
       ph.overhead_ms(lat.ttft_ms, "lserve_request_ttft_seconds"), "ms"},
      {"net.itl_overhead_ms",
       ph.overhead_ms(lat.itl_ms, "lserve_request_tpot_seconds"), "ms"},
      {"net.sse_stalls",
       static_cast<double>(ph.delta("lserve_sse_backpressure_stalls_total")), "count"},
      {"sched.step_ms_p50", median(in.envelope_ms), "ms"},
      {"sched.self_ms_per_step", ratio(in.self_ms, steps), "ms"},
      {"sched.deliver_ms_per_step", ratio(in.spans_ms[kDeliver], steps), "ms"},
      {"sched.decode_batch_size_mean",
       ratio(decode_tokens, static_cast<double>(in.decode_steps)), "seqs"},
      {"sched.queue_wait_ms_p50",
       ph.hist_p50_ms("lserve_request_queue_wait_seconds"), "ms"},
      {"sched.preemptions",
       static_cast<double>(ph.delta("lserve_preemptions_total")), "count"},
      {"sched.deferrals",
       static_cast<double>(ph.delta("lserve_admission_deferrals_total")), "count"},
      {"engine.prefill_us_per_token",
       ratio(all.spans_ms[kPrefill] * 1e3, static_cast<double>(es.prefill_tokens)), "us"},
      {"engine.decode_ms_per_seq",
       ratio(all.spans_ms[kDecode], static_cast<double>(es.decode_steps)), "ms"},
      {"engine.prefill_busy_share", ratio(in.spans_ms[kPrefill], wall_ms), "share"},
      {"engine.decode_busy_share", ratio(in.spans_ms[kDecode], wall_ms), "share"},
      {"kv.prefix_reuse_share",
       ratio(static_cast<double>(ph.delta("lserve_prefix_tokens_reused_total")),
             static_cast<double>(lat.prompt_tokens)), "share"},
      {"kv.prefix_attach_ms_per_req", ratio(all.spans_ms[kAttach], submitted), "ms"},
      {"kv.prefix_insert_ms_per_req", ratio(all.spans_ms[kInsert], submitted), "ms"},
      {"kv.prefix_evictions", static_cast<double>(es.prefix_evictions), "count"},
      {"kv.cow_copies", static_cast<double>(es.prefix_cow_copies), "count"},
      {"kv.pages_peak", p.peaks.pages, "pages"},
      {"kv.hot_pages_peak", p.peaks.hot, "pages"},
      {"kv.cold_pages_peak", p.peaks.cold, "pages"},
      {"kv.demotions", static_cast<double>(ph.tier.demotions), "count"},
      {"kv.pin_promotions", pin, "count"},
      {"kv.prefetch_promotions", prefetch, "count"},
      {"kv.prefetch_hit_share", ratio(prefetch, prefetch + pin), "share"},
      {"sparse.select_us", rp.op("sparse.select_us"), "us"},
      {"sparse.kept_page_share", rp.kept_page_share, "share"},
      {"attn.pages_per_step",
       ratio(static_cast<double>(es.pages_visited), static_cast<double>(es.decode_steps)),
       "pages"},
      {"attn.tokens_per_step",
       ratio(static_cast<double>(es.tokens_visited), static_cast<double>(es.decode_steps)),
       "tokens"},
      {"attn.decode_dense_us", rp.op("attn.decode_dense_us"), "us"},
      {"attn.decode_streaming_us", rp.op("attn.decode_streaming_us"), "us"},
      {"attn.decode_layer_us", rp.op("attn.decode_layer_us"), "us"},
      {"attn.prefill_chunk_us", rp.op("attn.prefill_chunk_us"), "us"},
      {"model.norm_us", rp.op("model.norm_us"), "us"},
      {"model.qkv_us", rp.op("model.qkv_us"), "us"},
      {"model.oproj_us", rp.op("model.oproj_us"), "us"},
      {"model.ffn_us", rp.op("model.ffn_us"), "us"},
      {"model.readout_us", rp.op("model.readout_us"), "us"},
      {"model.prefill_norm_us", rp.op("model.prefill_norm_us"), "us"},
      {"model.prefill_qkv_us", rp.op("model.prefill_qkv_us"), "us"},
      {"model.prefill_oproj_us", rp.op("model.prefill_oproj_us"), "us"},
      {"model.prefill_ffn_us", rp.op("model.prefill_ffn_us"), "us"},
      {"model.decode_coverage", ratio(rp.decode_ops_us, rp.decode_step_us), "share"},
      {"model.prefill_coverage", ratio(rp.prefill_ops_us, rp.prefill_chunk_us), "share"},
      {"engine.replay_decode_ms", rp.decode_step_us * 1e-3, "ms"},
      {"engine.replay_prefill_chunk_ms", rp.prefill_chunk_us * 1e-3, "ms"},
      {"numeric.ffn_gmac_s", ratio(rp.ffn_macs, rp.op("model.ffn_us") * 1e3), "GMAC/s"},
      {"numeric.kv_quant_us", rp.op("numeric.kv_quant_us"), "us"},
      {"obs.trace_overhead_pct", ratio(e2e_tok_s - tok_s, e2e_tok_s) * 100.0, "%"},
  };
  return m;
}

std::vector<Metric> end_to_end(const WorkloadSpec& spec, const Phase& ph,
                               const Latency& lat, double setup_s) {
  return {
      {"ttft_p50_ms", median(lat.ttft_ms), "ms"},
      {"ttft_tail_ms", percentile(lat.ttft_ms, spec.ttft_tail_p), "ms"},
      {"itl_p50_ms", median(lat.itl_ms), "ms"},
      {"itl_tail_ms", percentile(lat.itl_ms, spec.itl_tail_p), "ms"},
      {"output_tok_s", output_tok_s(ph.load, lat), "tok/s"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", ph.peak_rss_mb, "MB"},
  };
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string s = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) s += ',';
    s += json_str(ms[i].name) + ":{\"value\":" + num(ms[i].value) +
         ",\"unit\":" + json_str(ms[i].unit) + "}";
  }
  return s + "}";
}

void write_file(const std::string& path, const std::string& body) {
  std::ofstream out(path);
  out << body;
}

int run(const Args& args) {
  const WorkloadSpec& spec = *find_workload(args.workload);
  const Deployment dep = deployment();
  const bool traced = args.trace == 1;
  // Wall time of each stage of this run, for the record.
  std::vector<std::pair<const char*, double>> stages;
  std::uint64_t mark = now_ns();
  const auto stage = [&](const char* name) {
    const std::uint64_t t = now_ns();
    stages.emplace_back(name, seconds_between(mark, t));
    mark = t;
  };

  double probe_before = 0.0;
  {
    serve::Engine probe(dep.engine);
    probe_before = host_probe(probe);
  }
  stage("probe_before");

  // Set-up, kSetups times; the last stack serves the untraced phase. A
  // traced run serves it too, right before the traced phase, as the
  // reference for obs.trace_overhead_pct.
  std::unique_ptr<Stack> stack;
  std::uint16_t port = 0;
  std::vector<double> setups;
  for (std::size_t i = 0; i < kSetups; ++i) {
    stack.reset();
    setups.push_back(set_up(stack, port, dep, false));
  }
  std::sort(setups.begin(), setups.end());
  stage("setup");
  Phase e2e = measure(*stack, port, spec, args.seed, args.seconds, false);
  stack.reset();
  const double e2e_tok_s = output_tok_s(e2e.load, latency(e2e.load));
  stage("phase");

  // The traced run: same workload and seed, a ring that keeps every step,
  // client spans on.
  Phase tr;
  if (traced) {
    set_up(stack, port, dep, true);
    tr = measure(*stack, port, spec, args.seed, args.seconds, true);
    stack.reset();
    stage("traced_phase");
  }
  Phase& checked = traced ? tr : e2e;

  // Correctness gate on a fresh engine of the same config, which also takes
  // the closing host probe.
  serve::Engine fresh(dep.engine);
  const auto [gate_checked, gate_bad] =
      gate(fresh, checked.load, spec.gate_samples, args.seed);
  stage("gate");
  const double probe_after = host_probe(fresh);
  stage("probe_after");

  const Latency lat = latency(checked.load);
  const std::size_t attempted = checked.load.requests.size();
  const double failed_pct =
      attempted == 0 ? 100.0
                     : 100.0 * static_cast<double>(lat.failed) /
                           static_cast<double>(attempted);
  const bool correct = gate_bad == 0 && lat.failed == 0 && attempted > 0;

  std::vector<Metric> metrics;
  std::string extra;
  const std::string stem = args.out_dir + "/" + spec.name + "-seed" +
                           std::to_string(args.seed) + "-trace" +
                           std::to_string(args.trace);
  write_file(stem + "-requests.jsonl", requests_jsonl(checked.load));
  if (traced) {
    std::vector<std::size_t> ctx;
    for (const RequestRecord& r : tr.load.requests) ctx.push_back(r.spec.prompt.size());
    std::sort(ctx.begin(), ctx.end());
    const std::size_t median_ctx = ctx.empty() ? 128 : ctx[ctx.size() / 2];
    const ReplayResult rp = run_replay(dep.engine, median_ctx, args.seed, kReplayReps);
    stage("replay");
    metrics = per_layer(tr, lat, e2e_tok_s, rp);
    extra = ",\"replay\":{\"context\":" + std::to_string(rp.context) +
            ",\"reps\":" + std::to_string(rp.reps) + "}" +
            ",\"trace_ring\":{\"capacity\":" + std::to_string(tr.trace_capacity) +
            ",\"committed\":" + std::to_string(tr.steps_committed) + "}";
    write_file(stem + "-client.json", spans_to_chrome_json(tr.load.spans));
    write_file(stem + "-steps.json", tr.steps_json);
  } else {
    metrics = end_to_end(spec, e2e, lat, setups[setups.size() / 2]);
  }

  // The run record: environment header, deployment, workload, every
  // metric by name and unit, and the diagnostics.
  std::ostringstream rec;
  rec << "{\"record\":\"perfbench\",\"env\":{\"commit\":" << json_str(args.commit)
      << ",\"source_digest\":" << json_str(args.source_digest)
      << ",\"compiler\":" << json_str(PERFBENCH_COMPILER)
      << ",\"flags\":" << json_str(PERFBENCH_FLAGS)
      << ",\"nproc\":" << std::thread::hardware_concurrency()
      << ",\"cpu\":" << json_str(cpu_model()) << ",\"date\":" << json_str(utc_now())
      << "},\"deployment\":" << describe(dep) << ",\"workload\":{\"name\":"
      << json_str(spec.name) << ",\"seed\":" << args.seed
      << ",\"seconds\":" << num(args.seconds) << ",\"callers\":" << kCallers
      << ",\"loop\":\"closed\",\"ttft_tail_p\":" << num(spec.ttft_tail_p)
      << ",\"itl_tail_p\":" << num(spec.itl_tail_p)
      << ",\"ttft_samples\":" << lat.ttft_ms.size()
      << ",\"ttft_beyond_tail\":" << samples_beyond(lat.ttft_ms.size(), spec.ttft_tail_p)
      << ",\"ttft_tail_rule_met\":"
      << (tail_rule_met(lat.ttft_ms.size(), spec.ttft_tail_p) ? "true" : "false")
      << ",\"ttft_highest_tail_p\":"
      << num(highest_tail_percentile(lat.ttft_ms.size()).value_or(0.0))
      << ",\"itl_samples\":" << lat.itl_ms.size()
      << ",\"itl_beyond_tail\":" << samples_beyond(lat.itl_ms.size(), spec.itl_tail_p)
      << ",\"itl_tail_rule_met\":"
      << (tail_rule_met(lat.itl_ms.size(), spec.itl_tail_p) ? "true" : "false")
      << ",\"itl_highest_tail_p\":"
      << num(highest_tail_percentile(lat.itl_ms.size()).value_or(0.0))
      << ",\"prompt_tokens\":" << lat.prompt_tokens << "},\"trace\":" << args.trace
      << ",\"setup_runs_s\":[";
  for (std::size_t i = 0; i < setups.size(); ++i) {
    rec << (i > 0 ? "," : "") << num(setups[i]);
  }
  rec << "],\"failed_pct\":" << num(failed_pct)
      << ",\"gate\":{\"checked\":" << gate_checked << ",\"mismatched\":" << gate_bad
      << "},\"output_digest\":" << json_str(output_digest(checked.load))
      << ",\"host_probe_ms_per_step\":{\"before\":" << num(probe_before)
      << ",\"after\":" << num(probe_after) << "}" << extra
      << ",\"stages_s\":{";
  for (std::size_t i = 0; i < stages.size(); ++i) {
    rec << (i > 0 ? "," : "") << json_str(stages[i].first) << ":"
        << num(stages[i].second);
  }
  rec << "},\"metrics\":" << metrics_json(metrics) << "}";
  std::printf("%s\n", rec.str().c_str());

  for (const Metric& m : metrics) {
    std::printf("  %-32s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("  %-32s %14.4f %%\n", "failed_pct", failed_pct);
  std::printf("{\"correct\":%s,\"attempted\":%zu,\"failed\":%zu,\"metrics\":%s}\n",
              correct ? "true" : "false", attempted, lat.failed,
              metrics_json(metrics).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::run(perfbench::parse_args(argc, argv));
}
