// Metrics registry: named counters, gauges and fixed-bucket histograms
// with cheap thread-safe increment paths, plus Prometheus text-format
// exposition.
//
// Design: registration (name -> metric object) is mutex-guarded and
// expected to happen at wiring time (scheduler/server construction); the
// returned references stay valid for the registry's lifetime, and every
// hot-path operation on them — Counter::inc, Gauge::set,
// Histogram::observe — is a handful of relaxed atomic ops with no lock, so
// a decode step can record telemetry without ever contending with the
// exposition endpoint. expose_prometheus() walks the registry under the
// registration lock but reads the atomics directly, so scraping /metrics
// never blocks the scheduler thread (it may observe a torn *set* of
// metrics mid-step — individually each value is consistent — which is
// inherent to lock-free scraping and what Prometheus expects).
//
// Label support is deliberately minimal: a metric registered as
// `name{key="value"}` is one time series of the family `name`; the
// registry groups series by family for the single # HELP/# TYPE header the
// text format requires. That covers the fixed, low-cardinality label sets
// this server exports (route="dense|sparse", ...) without dragging in a
// dynamic label map on the increment path.
//
// Thread safety (machine-checked): mu_ guards the metric table; see
// docs/CONCURRENCY.md lock inventory.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "serve/thread_annotations.hpp"

namespace lserve::obs {

/// Monotone event count. inc() is one relaxed fetch_add.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept {
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-write-wins instantaneous value (occupancy, queue depth).
class Gauge {
 public:
  void set(double v) noexcept { v_.store(v, std::memory_order_relaxed); }
  double value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed-bucket histogram with Prometheus semantics: bucket upper bounds
/// are inclusive (`le`), an implicit +Inf bucket catches the tail, and
/// sum/count accompany the bucket counts. observe() is a binary search
/// over the (immutable) bounds plus three relaxed atomic adds.
class Histogram {
 public:
  /// `upper_bounds` must be strictly increasing; the +Inf bucket is
  /// implicit and must not be listed.
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double value) noexcept;

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const noexcept { return sum_.load(std::memory_order_relaxed); }
  double mean() const noexcept {
    const std::uint64_t n = count();
    return n == 0 ? 0.0 : sum() / static_cast<double>(n);
  }

  const std::vector<double>& upper_bounds() const noexcept { return bounds_; }
  /// Per-bucket (non-cumulative) counts; index bounds_.size() is +Inf.
  std::vector<std::uint64_t> bucket_counts() const;

  /// Quantile estimate (p in [0,1]) by linear interpolation inside the
  /// bucket containing the target rank — the same estimate
  /// histogram_quantile() makes server-side from the exported buckets, so
  /// a bench reporting quantile(0.95) matches what an operator reads off
  /// /metrics. Values in the +Inf bucket clamp to the largest finite
  /// bound. 0 when empty.
  double quantile(double p) const;

 private:
  std::vector<double> bounds_;
  /// bounds_.size() + 1 buckets; the last is +Inf.
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Exponential bucket ladder: `count` bounds starting at `start`, each
/// `factor` times the previous.
std::vector<double> exponential_buckets(double start, double factor,
                                        std::size_t count);

/// Default ladder for wall-clock latency histograms in seconds: 1 us to
/// ~100 s at ~1.58x per bucket (40 buckets) — fine enough that a p99 read
/// off the buckets lands within one bucket width of the true value, coarse
/// enough that a scrape stays small.
std::vector<double> default_latency_buckets_seconds();

/// Generic unit-agnostic ladder for bench summaries (bench/common.hpp):
/// 0.5 to ~3.7e9 in the samples' own unit at 1.04x per bucket, so
/// percentile estimates stay within ~2% of nearest-rank on typical
/// latency spreads.
std::vector<double> default_summary_buckets();

/// Named metric table with Prometheus text exposition.
///
/// register-or-get semantics: requesting an existing name returns the same
/// object (so independently wired components can share a series); a name
/// clash across types throws std::invalid_argument.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// `name` may carry a fixed label suffix: `family{key="value"}`.
  Counter& counter(const std::string& name, const std::string& help)
      EXCLUDES(mu_);
  Gauge& gauge(const std::string& name, const std::string& help)
      EXCLUDES(mu_);
  Histogram& histogram(const std::string& name, const std::string& help,
                       std::vector<double> upper_bounds) EXCLUDES(mu_);

  /// Exposes a counter owned and incremented by the component that sees
  /// the event (scheduler, engine, page allocator) as series `name`. The
  /// registry shares ownership, so a scrape never reads a freed counter.
  /// Re-exposing the same object is a no-op; another object under a taken
  /// name throws std::invalid_argument, as does counter() on this name.
  void expose(const std::string& name, const std::string& help,
              std::shared_ptr<const Counter> counter) EXCLUDES(mu_);
  /// Exposes `counter`, a member of the block `owner` points to; the
  /// registry keeps the whole block alive.
  template <typename Owner>
  void expose(const std::string& name, const std::string& help,
              const std::shared_ptr<Owner>& owner, const Counter& counter)
      EXCLUDES(mu_) {
    expose(name, help, std::shared_ptr<const Counter>(owner, &counter));
  }

  /// Lookup without registration; nullptr when absent or of another type.
  /// (The /healthz handler reads occupancy gauges through these, so
  /// liveness and capacity come from the same values /metrics exports.)
  const Counter* find_counter(const std::string& name) const EXCLUDES(mu_);
  const Gauge* find_gauge(const std::string& name) const EXCLUDES(mu_);
  const Histogram* find_histogram(const std::string& name) const
      EXCLUDES(mu_);

  /// Prometheus text format (version 0.0.4): one # HELP/# TYPE header per
  /// family, series in registration order.
  std::string expose_prometheus() const EXCLUDES(mu_);

  std::size_t size() const EXCLUDES(mu_);

 private:
  enum class Type { kCounter, kGauge, kHistogram };

  struct Entry {
    std::string name;    ///< full series name, label suffix included.
    std::string family;  ///< name up to the label suffix.
    std::string help;
    Type type = Type::kCounter;
    std::shared_ptr<const Counter> counter;
    Counter* own_counter = nullptr;  ///< `counter` if created by counter().
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry* find_locked(const std::string& name, Type type) REQUIRES(mu_);
  const Entry* find_locked(const std::string& name, Type type) const
      REQUIRES(mu_);

  mutable Mutex mu_;
  /// Registration order preserved — exposition is deterministic, which is
  /// what makes a golden-format test possible.
  std::vector<std::unique_ptr<Entry>> entries_ GUARDED_BY(mu_);
};

}  // namespace lserve::obs
