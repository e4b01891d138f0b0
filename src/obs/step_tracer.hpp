// Step-level trace timeline: a bounded ring buffer of per-step phase
// spans, exportable as Chrome trace-event JSON.
//
// The scheduler builds one StepTrace per Scheduler::step() through a
// StepTraceBuilder — a plain value that accumulates RAII phase spans
// (admit, prefill_chunk, decode_batch, preempt, prefix_attach,
// prefix_insert, ...) with timestamps from the injectable obs::Clock —
// and commits it to the StepTracer at the end of the step. Building is
// lock-free on the scheduler thread; commit takes the tracer's mutex once
// per step to splice the record into the ring. GET /debug/trace snapshots
// the ring under the same mutex from the HTTP loop thread, so exporting a
// trace never blocks a decode step for more than the splice.
//
// The ring holds the most recent `capacity` steps; older steps are
// overwritten (wraparound is the normal steady-state, not an error). An
// inactive builder (null clock) makes every span a no-op, so tracing
// compiled in but not wired costs two predictable branches per phase.
//
// Export format: Chrome trace events (chrome://tracing, Perfetto), one
// complete event (ph "X") per phase span plus one per step envelope, ts
// and dur in microseconds. See docs/OBSERVABILITY.md for the schema.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/clock.hpp"
#include "serve/thread_annotations.hpp"

namespace lserve::obs {

/// One timed phase inside a step. `name` must be a string literal (the
/// builder stores the pointer, not a copy).
struct TraceSpan {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
};

/// One scheduler step: its envelope plus the phases it ran.
struct StepTrace {
  std::uint64_t step = 0;  ///< SchedulerStats::steps at the time.
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  std::vector<TraceSpan> spans;
};

/// Accumulates one step's spans on the owning thread; no locks.
class StepTraceBuilder {
 public:
  /// Inactive builder: every span() is a no-op, finish() returns an empty
  /// record. The disabled-tracing path.
  StepTraceBuilder() = default;

  /// Active builder stamping times from `clock` (not owned; must outlive
  /// the builder).
  StepTraceBuilder(const Clock* clock, std::uint64_t step);

  StepTraceBuilder(StepTraceBuilder&&) = default;
  StepTraceBuilder& operator=(StepTraceBuilder&&) = default;

  /// RAII phase span: records start at construction, duration at scope
  /// exit. Spans may nest (prefix_attach inside admit); the exporter
  /// emits them as overlapping complete events, which trace viewers
  /// render as a nested track.
  class Span {
   public:
    ~Span() {
      if (builder_ != nullptr) builder_->close(index_);
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    Span(Span&& other) noexcept
        : builder_(other.builder_), index_(other.index_) {
      other.builder_ = nullptr;
    }
    Span& operator=(Span&&) = delete;

   private:
    friend class StepTraceBuilder;
    Span(StepTraceBuilder* builder, std::size_t index) noexcept
        : builder_(builder), index_(index) {}
    StepTraceBuilder* builder_;
    std::size_t index_;
  };

  /// Opens a phase span; `name` must be a string literal.
  Span span(const char* name);

  /// Stamps the envelope duration and yields the record (the builder is
  /// spent afterwards). All spans must be closed.
  StepTrace finish();

 private:
  void close(std::size_t index) noexcept;

  const Clock* clock_ = nullptr;
  StepTrace record_;
};

/// Bounded ring of the most recent step traces.
class StepTracer {
 public:
  explicit StepTracer(std::size_t capacity = 256);

  StepTracer(const StepTracer&) = delete;
  StepTracer& operator=(const StepTracer&) = delete;

  /// Splices one finished step into the ring (scheduler thread, once per
  /// step). Empty records from inactive builders are ignored.
  void commit(StepTrace record) EXCLUDES(mu_);

  /// The retained steps, oldest first.
  std::vector<StepTrace> snapshot() const EXCLUDES(mu_);

  /// Chrome trace-event JSON of snapshot() (displayTimeUnit ms, ts/dur in
  /// microseconds). Safe from any thread.
  std::string export_chrome_json() const EXCLUDES(mu_);

  std::size_t capacity() const noexcept { return capacity_; }
  /// Total commits since construction (>= capacity means wrapped).
  std::uint64_t committed() const EXCLUDES(mu_);

 private:
  const std::size_t capacity_;

  mutable Mutex mu_;
  std::vector<StepTrace> ring_ GUARDED_BY(mu_);  ///< capacity_ slots max.
  std::size_t next_ GUARDED_BY(mu_) = 0;  ///< ring_ slot of the next commit.
  std::uint64_t committed_ GUARDED_BY(mu_) = 0;
};

}  // namespace lserve::obs
