#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace lserve::obs {

namespace {

/// Shortest round-trip decimal for bucket bounds and gauge values: %g with
/// enough digits that 1e-6-style bounds print cleanly ("1e-06", "0.001").
std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

/// The family of a series name is everything before its label suffix.
std::string family_of(const std::string& name) {
  const std::size_t brace = name.find('{');
  return brace == std::string::npos ? name : name.substr(0, brace);
}

/// Splices the histogram's `le` label into a series name that may already
/// carry labels: name{a="b"} + le=0.5 -> name_bucket{a="b",le="0.5"}.
std::string bucket_series(const std::string& name, const std::string& le) {
  const std::size_t brace = name.find('{');
  if (brace == std::string::npos) {
    return name + "_bucket{le=\"" + le + "\"}";
  }
  std::string out = name.substr(0, brace) + "_bucket" +
                    name.substr(brace, name.size() - brace - 1);
  out += ",le=\"" + le + "\"}";
  return out;
}

/// name -> name_suffix, preserving a label suffix.
std::string suffixed_series(const std::string& name, const char* suffix) {
  const std::size_t brace = name.find('{');
  if (brace == std::string::npos) return name + suffix;
  return name.substr(0, brace) + suffix + name.substr(brace);
}

}  // namespace

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)) {
  for (std::size_t i = 1; i < bounds_.size(); ++i) {
    if (bounds_[i] <= bounds_[i - 1]) {
      throw std::invalid_argument(
          "Histogram: bucket bounds must be strictly increasing");
    }
  }
  buckets_ =
      std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

void Histogram::observe(double value) noexcept {
  // First bound >= value; bounds are inclusive upper limits (`le`).
  const std::size_t idx = static_cast<std::size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  // No atomic<double>::fetch_add until C++20 guarantees it everywhere
  // libstdc++ lowers it well; the CAS loop is portable and contention on a
  // single histogram is low (one observe per request event).
  double expected = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(expected, expected + value,
                                     std::memory_order_relaxed)) {
  }
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

double Histogram::quantile(double p) const {
  const std::vector<std::uint64_t> counts = bucket_counts();
  std::uint64_t total = 0;
  for (const std::uint64_t c : counts) total += c;
  if (total == 0) return 0.0;
  p = std::min(1.0, std::max(0.0, p));
  // Nearest-rank target, then linear interpolation inside the bucket.
  const double rank = p * static_cast<double>(total);
  double cumulative = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const double next = cumulative + static_cast<double>(counts[i]);
    if (next >= rank && counts[i] > 0) {
      if (i == bounds_.size()) {
        // +Inf bucket: clamp to the largest finite bound (or the mean for
        // a histogram with no finite buckets at all).
        return bounds_.empty() ? mean() : bounds_.back();
      }
      const double lo = i == 0 ? 0.0 : bounds_[i - 1];
      const double hi = bounds_[i];
      const double within =
          (rank - cumulative) / static_cast<double>(counts[i]);
      return lo + (hi - lo) * within;
    }
    cumulative = next;
  }
  return bounds_.empty() ? mean() : bounds_.back();
}

std::vector<double> exponential_buckets(double start, double factor,
                                        std::size_t count) {
  if (start <= 0.0 || factor <= 1.0) {
    throw std::invalid_argument(
        "exponential_buckets: start must be > 0 and factor > 1");
  }
  std::vector<double> out;
  out.reserve(count);
  double v = start;
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(v);
    v *= factor;
  }
  return out;
}

std::vector<double> default_latency_buckets_seconds() {
  // 1 us .. ~97 s in 40 steps of x1.585 (~4 buckets per decade).
  return exponential_buckets(1e-6, 1.585, 40);
}

std::vector<double> default_summary_buckets() {
  // 0.5 .. ~3.7e9 in 580 steps of x1.04 — unit-agnostic (us or ms), fine
  // enough that a bench quantile read off the buckets sits within ~2% of
  // nearest-rank (the serving benches compare medians at a 5% threshold).
  return exponential_buckets(0.5, 1.04, 580);
}

MetricsRegistry::Entry* MetricsRegistry::find_locked(const std::string& name,
                                                     Type type) {
  for (const auto& e : entries_) {
    if (e->name != name) continue;
    if (e->type != type) {
      throw std::invalid_argument("MetricsRegistry: '" + name +
                                  "' already registered with another type");
    }
    return e.get();
  }
  return nullptr;
}

const MetricsRegistry::Entry* MetricsRegistry::find_locked(
    const std::string& name, Type type) const {
  for (const auto& e : entries_) {
    if (e->name == name && e->type == type) return e.get();
  }
  return nullptr;
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  const std::string& help) {
  MutexLock lock(mu_);
  if (Entry* e = find_locked(name, Type::kCounter)) {
    if (e->own_counter == nullptr) {
      throw std::invalid_argument("MetricsRegistry: '" + name +
                                  "' is exposed by the component that "
                                  "counts it");
    }
    return *e->own_counter;
  }
  auto entry = std::make_unique<Entry>();
  entry->name = name;
  entry->family = family_of(name);
  entry->help = help;
  entry->type = Type::kCounter;
  auto counter = std::make_shared<Counter>();
  entry->own_counter = counter.get();
  entry->counter = std::move(counter);
  Counter& out = *entry->own_counter;
  entries_.push_back(std::move(entry));
  return out;
}

void MetricsRegistry::expose(const std::string& name, const std::string& help,
                             std::shared_ptr<const Counter> counter) {
  MutexLock lock(mu_);
  if (const Entry* e = find_locked(name, Type::kCounter)) {
    if (e->counter == counter) return;
    throw std::invalid_argument("MetricsRegistry: '" + name +
                                "' already names another counter");
  }
  auto entry = std::make_unique<Entry>();
  entry->name = name;
  entry->family = family_of(name);
  entry->help = help;
  entry->type = Type::kCounter;
  entry->counter = std::move(counter);
  entries_.push_back(std::move(entry));
}

Gauge& MetricsRegistry::gauge(const std::string& name,
                              const std::string& help) {
  MutexLock lock(mu_);
  if (Entry* e = find_locked(name, Type::kGauge)) return *e->gauge;
  auto entry = std::make_unique<Entry>();
  entry->name = name;
  entry->family = family_of(name);
  entry->help = help;
  entry->type = Type::kGauge;
  entry->gauge = std::make_unique<Gauge>();
  Gauge& out = *entry->gauge;
  entries_.push_back(std::move(entry));
  return out;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      const std::string& help,
                                      std::vector<double> upper_bounds) {
  MutexLock lock(mu_);
  if (Entry* e = find_locked(name, Type::kHistogram)) return *e->histogram;
  auto entry = std::make_unique<Entry>();
  entry->name = name;
  entry->family = family_of(name);
  entry->help = help;
  entry->type = Type::kHistogram;
  entry->histogram = std::make_unique<Histogram>(std::move(upper_bounds));
  Histogram& out = *entry->histogram;
  entries_.push_back(std::move(entry));
  return out;
}

const Counter* MetricsRegistry::find_counter(const std::string& name) const {
  MutexLock lock(mu_);
  const Entry* e = find_locked(name, Type::kCounter);
  return e == nullptr ? nullptr : e->counter.get();
}

const Gauge* MetricsRegistry::find_gauge(const std::string& name) const {
  MutexLock lock(mu_);
  const Entry* e = find_locked(name, Type::kGauge);
  return e == nullptr ? nullptr : e->gauge.get();
}

const Histogram* MetricsRegistry::find_histogram(
    const std::string& name) const {
  MutexLock lock(mu_);
  const Entry* e = find_locked(name, Type::kHistogram);
  return e == nullptr ? nullptr : e->histogram.get();
}

std::size_t MetricsRegistry::size() const {
  MutexLock lock(mu_);
  return entries_.size();
}

std::string MetricsRegistry::expose_prometheus() const {
  MutexLock lock(mu_);
  std::string out;
  out.reserve(entries_.size() * 96);
  std::string last_family;
  for (const auto& e : entries_) {
    // One HELP/TYPE header per family; series of one family are registered
    // consecutively in practice, and a re-header is harmless if not.
    if (e->family != last_family) {
      out += "# HELP " + e->family + " " + e->help + "\n";
      out += "# TYPE " + e->family + " ";
      switch (e->type) {
        case Type::kCounter:
          out += "counter\n";
          break;
        case Type::kGauge:
          out += "gauge\n";
          break;
        case Type::kHistogram:
          out += "histogram\n";
          break;
      }
      last_family = e->family;
    }
    switch (e->type) {
      case Type::kCounter:
        out += e->name + " " + std::to_string(e->counter->value()) + "\n";
        break;
      case Type::kGauge:
        out += e->name + " " + fmt_double(e->gauge->value()) + "\n";
        break;
      case Type::kHistogram: {
        const Histogram& h = *e->histogram;
        const std::vector<std::uint64_t> counts = h.bucket_counts();
        const std::vector<double>& bounds = h.upper_bounds();
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < bounds.size(); ++i) {
          cumulative += counts[i];
          out += bucket_series(e->name, fmt_double(bounds[i])) + " " +
                 std::to_string(cumulative) + "\n";
        }
        cumulative += counts[bounds.size()];
        out += bucket_series(e->name, "+Inf") + " " +
               std::to_string(cumulative) + "\n";
        out += suffixed_series(e->name, "_sum") + " " + fmt_double(h.sum()) +
               "\n";
        out += suffixed_series(e->name, "_count") + " " +
               std::to_string(h.count()) + "\n";
        break;
      }
    }
  }
  return out;
}

}  // namespace lserve::obs
