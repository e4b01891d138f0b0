#include "kv/page.hpp"

#include <cassert>
#include <cstring>

namespace lserve::kv {

void Page::init(const PageConfig& cfg) {
  assert(cfg.valid());
  cfg_ = cfg;
  initialized_ = true;
  count_ = 0;
  keys_ = num::QuantizedRows(cfg.page_size, cfg.head_dim, cfg.dtype);
  values_ = num::QuantizedRows(cfg.page_size, cfg.head_dim, cfg.dtype);
  if (cfg.track_kstats) {
    stats_ = KStats(cfg.logical_pages(), cfg.head_dim);
  }
}

void Page::reset() noexcept {
  count_ = 0;
  stats_.reset();
}

std::size_t Page::append(const float* key, const float* value) noexcept {
  assert(!full());
  const std::size_t slot = count_++;
  keys_.store_row(slot, key);
  values_.store_row(slot, value);
  if (cfg_.track_kstats) {
    // Stats fold the *quantized* key so selector decisions match what the
    // sparse kernel will actually read back — derived straight from the
    // stored codes + per-row quant params, no dequantized scratch copy.
    stats_.update_quantized(slot, cfg_.logical_page_size, keys_);
  }
  return slot;
}

void Page::copy_prefix_from(const Page& src, std::size_t n) noexcept {
  assert(initialized_ && src.initialized_);
  assert(empty());
  assert(n <= src.count_);
  assert(cfg_.page_size == src.cfg_.page_size &&
         cfg_.logical_page_size == src.cfg_.logical_page_size &&
         cfg_.head_dim == src.cfg_.head_dim && cfg_.dtype == src.cfg_.dtype &&
         cfg_.track_kstats == src.cfg_.track_kstats);
  keys_.copy_rows_from(src.keys_, n);
  values_.copy_rows_from(src.values_, n);
  count_ = n;
  if (cfg_.track_kstats) {
    // Same fold as append(), replayed slot by slot over the copied codes
    // so the result matches an append-built page bit for bit.
    stats_.reset();
    for (std::size_t slot = 0; slot < n; ++slot) {
      stats_.update_quantized(slot, cfg_.logical_page_size, keys_);
    }
  }
}

void Page::load_key(std::size_t slot, float* out) const noexcept {
  assert(slot < count_);
  keys_.load_row(slot, out);
}

void Page::load_value(std::size_t slot, float* out) const noexcept {
  assert(slot < count_);
  values_.load_row(slot, out);
}

std::size_t Page::serialized_bytes() const noexcept {
  assert(initialized_);
  std::size_t n = sizeof(std::uint64_t) + keys_.serialized_bytes() +
                  values_.serialized_bytes();
  if (cfg_.track_kstats) n += stats_.serialized_bytes();
  return n;
}

std::size_t Page::serialized_bytes_for(const PageConfig& cfg) {
  Page tmp;
  tmp.init(cfg);
  return tmp.serialized_bytes();
}

void Page::serialize(std::uint8_t* out) const noexcept {
  assert(initialized_);
  const std::uint64_t count = count_;
  std::memcpy(out, &count, sizeof(count));
  out += sizeof(count);
  keys_.serialize(out);
  out += keys_.serialized_bytes();
  values_.serialize(out);
  out += values_.serialized_bytes();
  if (cfg_.track_kstats) stats_.serialize(out);
}

void Page::deserialize(const std::uint8_t* in) noexcept {
  assert(initialized_);
  std::uint64_t count = 0;
  std::memcpy(&count, in, sizeof(count));
  in += sizeof(count);
  count_ = static_cast<std::size_t>(count);
  assert(count_ <= cfg_.page_size);
  keys_.deserialize(in);
  in += keys_.serialized_bytes();
  values_.deserialize(in);
  in += values_.serialized_bytes();
  if (cfg_.track_kstats) stats_.deserialize(in);
}

void Page::drop_storage() noexcept {
  initialized_ = false;
  count_ = 0;
  keys_ = num::QuantizedRows();
  values_ = num::QuantizedRows();
  stats_ = KStats();
}

double Page::device_bytes() const noexcept {
  double b = keys_.device_bytes() + values_.device_bytes();
  if (cfg_.track_kstats) b += stats_.device_bytes();
  return b;
}

}  // namespace lserve::kv
