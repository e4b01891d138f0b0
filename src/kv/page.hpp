// Physical KV pages.
//
// A Page stores the keys and values of up to NP consecutive tokens of one
// (layer, kv-head) in quantized form, with per-token scales/zeros inline and
// the per-logical-page K_stats block trailing the features — the layout of
// LServe's dense-head pages (Fig 5). Streaming-head pages are the same type
// with stats tracking disabled.
#pragma once

#include <cstddef>
#include <cstdint>

#include "kv/kstats.hpp"
#include "numeric/quant.hpp"

namespace lserve::kv {

/// Identifies a physical page inside a PageAllocator pool.
using PageId = std::uint32_t;
inline constexpr PageId kInvalidPage = static_cast<PageId>(-1);

/// Geometry and precision of every page in a pool.
struct PageConfig {
  std::size_t page_size = 64;          ///< NP: tokens per physical page.
  std::size_t logical_page_size = 16;  ///< NL: tokens per logical page.
  std::size_t head_dim = 64;           ///< D.
  num::KvDtype dtype = num::KvDtype::kFp16;
  bool track_kstats = true;            ///< dense-head pages carry K_stats.

  std::size_t logical_pages() const noexcept {
    return page_size / logical_page_size;
  }
  bool valid() const noexcept {
    return page_size > 0 && logical_page_size > 0 && head_dim > 0 &&
           page_size % logical_page_size == 0;
  }
};

/// One physical KV page. Storage is lazily initialized by the allocator and
/// recycled across sequences via reset().
class Page {
 public:
  Page() = default;

  /// Allocates storage for `cfg`. Called once per pool slot.
  void init(const PageConfig& cfg);

  /// Clears the fill count and stats; storage is retained for reuse.
  void reset() noexcept;

  /// Appends one token's key/value rows. Returns the in-page slot.
  /// Precondition: !full().
  std::size_t append(const float* key, const float* value) noexcept;

  /// Copy-on-write helper: makes this page hold the first `n` tokens of
  /// `src`, copying quantized payload + params verbatim (bit-identical, no
  /// requantization) and rebuilding K_stats over the copied slots.
  /// Precondition: this page is empty and has the same config as `src`.
  void copy_prefix_from(const Page& src, std::size_t n) noexcept;

  /// Dequantizes the key / value at `slot` into `out` (head_dim floats).
  void load_key(std::size_t slot, float* out) const noexcept;
  void load_value(std::size_t slot, float* out) const noexcept;

  std::size_t size() const noexcept { return count_; }
  bool full() const noexcept { return count_ == cfg_.page_size; }
  bool empty() const noexcept { return count_ == 0; }
  /// True once init() has allocated storage (pool slots start lazily).
  bool initialized() const noexcept { return initialized_; }
  const PageConfig& config() const noexcept { return cfg_; }
  const KStats& kstats() const noexcept { return stats_; }

  /// Bytes this page occupies on a real device (payload + scales/zeros +
  /// stats), used by the memory accounting in EngineStats.
  double device_bytes() const noexcept;

  /// Bytes serialize() writes: fill count + quantized payload + per-row
  /// params + K_stats. Fixed for a given config — the cold-store slot size.
  std::size_t serialized_bytes() const noexcept;
  /// Slot footprint for any page built with `cfg` (no instance needed).
  static std::size_t serialized_bytes_for(const PageConfig& cfg);
  /// Writes the page verbatim so deserialize() restores it bit-identically
  /// — quantized codes, per-row quant params, and K_stats all survive a
  /// demote/promote round trip unchanged. Precondition: initialized().
  void serialize(std::uint8_t* out) const noexcept;
  /// Restores a page previously serialize()d under the same config.
  /// Precondition: initialized() with that config.
  void deserialize(const std::uint8_t* in) noexcept;
  /// Releases heap storage on cold demotion: initialized() turns false and
  /// the slot re-inits (or deserializes) on its next use, so a stale
  /// reference held across the demotion faults loudly instead of reading
  /// silently wrong bytes.
  void drop_storage() noexcept;

 private:
  PageConfig cfg_;
  bool initialized_ = false;
  std::size_t count_ = 0;
  num::QuantizedRows keys_;
  num::QuantizedRows values_;
  KStats stats_;
};

}  // namespace lserve::kv
