// Sample statistics for the benchmark: nearest-rank percentiles, the tail
// rule, and quantiles of bucket-count deltas read off obs::Histogram.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace perfbench {

/// Samples a tail percentile must leave beyond it.
inline constexpr std::size_t kTailBeyond = 10;

/// 1-based nearest rank of percentile `p` (0 < p <= 100) among n samples.
inline std::size_t nearest_rank(std::size_t n, double p) {
  const double r = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(r, 1.0)),
                                 1, n);
}

/// Nearest-rank percentile of `v`; 0 when empty.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[nearest_rank(v.size(), p) - 1];
}

/// The median (mean of the middle two for an even count); 0 when empty.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Samples strictly beyond the nearest-rank percentile `p` of n samples.
inline std::size_t samples_beyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - nearest_rank(n, p);
}

/// The highest percentile that still leaves kTailBeyond samples beyond
/// it, or nothing when there are fewer than kTailBeyond + 1 samples.
inline std::optional<double> highest_tail_percentile(std::size_t n) {
  if (n < kTailBeyond + 1) return std::nullopt;
  return 100.0 * static_cast<double>(n - kTailBeyond) /
         static_cast<double>(n);
}

/// True when the nearest-rank percentile `p` of n samples obeys the tail
/// rule (at least kTailBeyond samples beyond it).
inline bool tail_rule_met(std::size_t n, double p) {
  return n >= kTailBeyond + 1 && samples_beyond(n, p) >= kTailBeyond;
}

/// Quantile (p in [0,1]) of a histogram given its finite upper bounds and
/// per-bucket counts (the last bucket is +Inf), by linear interpolation
/// inside the bucket holding the target rank — the estimate
/// obs::Histogram::quantile makes, applied to a difference of two
/// bucket_counts() snapshots. 0 when empty.
inline double bucket_quantile(const std::vector<double>& bounds,
                              const std::vector<std::uint64_t>& counts,
                              double p) {
  std::uint64_t total = 0;
  for (std::uint64_t c : counts) total += c;
  if (total == 0) return 0.0;
  const double target = p * static_cast<double>(total);
  double seen = 0.0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    const double c = static_cast<double>(counts[b]);
    if (c > 0.0 && seen + c >= target) {
      if (b >= bounds.size()) return bounds.empty() ? 0.0 : bounds.back();
      const double lo = b == 0 ? 0.0 : bounds[b - 1];
      return lo + (bounds[b] - lo) * std::clamp((target - seen) / c, 0.0, 1.0);
    }
    seen += c;
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

/// Median of `samples_ms` bucketed on `bounds_s` (seconds) the way
/// obs::Histogram buckets them (inclusive upper bounds, +Inf last), so a
/// client-side median compares like for like with one read off a registry
/// histogram of the same ladder: same rank rule, same bucket error.
inline double bucketed_p50_ms(const std::vector<double>& samples_ms,
                              const std::vector<double>& bounds_s) {
  std::vector<std::uint64_t> counts(bounds_s.size() + 1, 0);
  for (double ms : samples_ms) {
    ++counts[static_cast<std::size_t>(
        std::lower_bound(bounds_s.begin(), bounds_s.end(), ms * 1e-3) -
        bounds_s.begin())];
  }
  return bucket_quantile(bounds_s, counts, 0.5) * 1e3;
}

}  // namespace perfbench
