#include "model/transformer.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

#include "numeric/math.hpp"
#include "numeric/rng.hpp"
#include "serve/thread_pool.hpp"

namespace lserve::model {
namespace {

num::Tensor random_matrix(std::size_t rows, std::size_t cols,
                          std::uint64_t seed) {
  num::Tensor t(rows, cols);
  num::Rng rng(seed);
  // Xavier-ish scale keeps activations bounded through deep stacks.
  const float stddev = 1.0f / std::sqrt(static_cast<float>(rows));
  for (std::size_t i = 0; i < t.size(); ++i) {
    t.data()[i] = rng.gaussian(0.0f, stddev);
  }
  return t;
}

float silu(float x) noexcept { return x / (1.0f + std::exp(-x)); }

/// RMSNorm of every row of `x` into `out`, scaled by `gain`.
void row_norm(num::ConstMatView x, const std::vector<float>& gain,
              num::MatView out) noexcept {
  const std::size_t d = x.cols;
  for (std::size_t i = 0; i < x.rows; ++i) {
    const float* xi = x.row(i);
    float ms = 0.0f;
    for (std::size_t c = 0; c < d; ++c) ms += xi[c] * xi[c];
    const float inv = 1.0f / std::sqrt(ms / static_cast<float>(d) + 1e-6f);
    float* oi = out.row(i);
    for (std::size_t c = 0; c < d; ++c) oi[c] = xi[c] * inv * gain[c];
  }
}

/// Tasks a GEMM's output columns are split into: one per pool thread.
std::size_t column_parts(const serve::ThreadPool* pool) noexcept {
  return pool == nullptr ? 1 : pool->size();
}

/// Columns [begin, begin + size) of a GEMM's output.
struct ColumnRange {
  std::size_t begin = 0;
  std::size_t size = 0;
};

/// Part `index` of `count` contiguous column ranges. Boundaries fall on
/// whole 16-float vectors, so every range runs the SIMD kernel's
/// full-width strips.
struct ColumnPart {
  std::size_t index = 0;
  std::size_t count = 1;

  ColumnRange of(std::size_t n) const noexcept {
    constexpr std::size_t kAlign = 16;
    const std::size_t units = (n + kAlign - 1) / kAlign;
    const std::size_t begin = std::min(n, units * index / count * kAlign);
    const std::size_t end =
        std::min(n, units * (index + 1) / count * kAlign);
    return {begin, end - begin};
  }
};

/// Runs fn(part) for every part of column_parts(pool), over the pool when
/// it has more than one thread.
template <class Fn>
void for_column_parts(serve::ThreadPool* pool, const Fn& fn) {
  const std::size_t count = column_parts(pool);
  if (count <= 1) {
    fn(ColumnPart{});
  } else {
    pool->parallel_for(count,
                       [&](std::size_t i) { fn(ColumnPart{i, count}); });
  }
}

/// c[:, r] = a * b[:, r] for the columns r of one part.
void matmul_columns(num::ConstMatView a, const num::Tensor& b, num::MatView c,
                    ColumnRange r) noexcept {
  if (r.size == 0) return;
  num::matmul(a, b.view().cols_slice(r.begin, r.size),
              c.cols_slice(r.begin, r.size));
}

}  // namespace

Transformer::Transformer(ModelConfig cfg, std::uint64_t seed)
    : cfg_(cfg), rope_(cfg.head_dim, cfg.rope_base) {
  const std::size_t h = cfg_.hidden();
  const std::size_t kv = cfg_.kv_dim();
  embedding_ = random_matrix(cfg_.vocab, h, num::split_seed(seed, 0));
  layers_.reserve(cfg_.layers);
  norm1_.resize(cfg_.layers);
  norm2_.resize(cfg_.layers);
  for (std::size_t l = 0; l < cfg_.layers; ++l) {
    LayerWeights w;
    const std::uint64_t base = num::split_seed(seed, 16 + l * 8);
    w.wq = random_matrix(h, h, base + 1);
    w.wk = random_matrix(h, kv, base + 2);
    w.wv = random_matrix(h, kv, base + 3);
    w.wo = random_matrix(h, h, base + 4);
    w.w_up = random_matrix(h, cfg_.ffn_hidden, base + 5);
    w.w_gate = random_matrix(h, cfg_.ffn_hidden, base + 6);
    w.w_down = random_matrix(cfg_.ffn_hidden, h, base + 7);
    layers_.push_back(std::move(w));
    norm1_[l].assign(h, 1.0f);
    norm2_[l].assign(h, 1.0f);
  }
}

num::Tensor Transformer::embed(std::span<const std::int32_t> ids) const {
  num::Tensor out(ids.size(), cfg_.hidden());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const auto id = static_cast<std::size_t>(ids[i]) % cfg_.vocab;
    const float* src = embedding_.row(id);
    std::copy(src, src + cfg_.hidden(), out.row(i));
  }
  return out;
}

void Transformer::rms_norm(num::ConstMatView x, std::size_t layer,
                           num::MatView out) const {
  row_norm(x, norm1_[layer], out);
}

void Transformer::qkv_project(num::ConstMatView normed, std::size_t layer,
                              std::size_t pos0, num::MatView q,
                              num::MatView k, num::MatView v) const {
  std::vector<std::size_t> positions(normed.rows);
  std::iota(positions.begin(), positions.end(), pos0);
  qkv_project(normed, layer, positions, q, k, v);
}

void Transformer::qkv_project(num::ConstMatView normed, std::size_t layer,
                              std::span<const std::size_t> positions,
                              num::MatView q, num::MatView k, num::MatView v,
                              serve::ThreadPool* pool) const {
  assert(positions.size() == normed.rows);
  const LayerWeights& w = layers_[layer];
  for_column_parts(pool, [&](ColumnPart part) {
    matmul_columns(normed, w.wq, q, part.of(q.cols));
    matmul_columns(normed, w.wk, k, part.of(k.cols));
    matmul_columns(normed, w.wv, v, part.of(v.cols));
  });
  // RoPE per head, at absolute positions.
  for (std::size_t t = 0; t < q.rows; ++t) {
    for (std::size_t h = 0; h < cfg_.q_heads; ++h) {
      rope_.apply(q.row(t) + h * cfg_.head_dim, positions[t]);
    }
    for (std::size_t h = 0; h < cfg_.kv_heads; ++h) {
      rope_.apply(k.row(t) + h * cfg_.head_dim, positions[t]);
    }
  }
}

void Transformer::output_project(num::ConstMatView attn_result,
                                 std::size_t layer, num::MatView hidden,
                                 serve::ThreadPool* pool) const {
  const LayerWeights& w = layers_[layer];
  num::Tensor proj(attn_result.rows, hidden.cols);
  for_column_parts(pool, [&](ColumnPart part) {
    const ColumnRange r = part.of(hidden.cols);
    matmul_columns(attn_result, w.wo, proj.view(), r);
    for (std::size_t i = 0; i < hidden.rows; ++i) {
      num::axpy(1.0f, proj.row(i) + r.begin, hidden.row(i) + r.begin,
                r.size);
    }
  });
}

void Transformer::ffn(num::MatView hidden, std::size_t layer,
                      serve::ThreadPool* pool) const {
  const LayerWeights& w = layers_[layer];
  const std::size_t d = hidden.cols;
  const std::size_t f = cfg_.ffn_hidden;
  num::Tensor normed(hidden.rows, d);
  row_norm(hidden, norm2_[layer], normed.view());
  num::Tensor up(hidden.rows, f);
  num::Tensor gate(hidden.rows, f);
  for_column_parts(pool, [&](ColumnPart part) {
    const ColumnRange r = part.of(f);
    matmul_columns(normed.view(), w.w_up, up.view(), r);
    matmul_columns(normed.view(), w.w_gate, gate.view(), r);
    for (std::size_t i = 0; i < hidden.rows; ++i) {
      float* ui = up.row(i);
      const float* gi = gate.row(i);
      for (std::size_t c = r.begin; c < r.begin + r.size; ++c) {
        ui[c] *= silu(gi[c]);
      }
    }
  });
  num::Tensor down(hidden.rows, d);
  for_column_parts(pool, [&](ColumnPart part) {
    const ColumnRange r = part.of(d);
    matmul_columns(up.view(), w.w_down, down.view(), r);
    for (std::size_t i = 0; i < hidden.rows; ++i) {
      num::axpy(1.0f, down.row(i) + r.begin, hidden.row(i) + r.begin,
                r.size);
    }
  });
}

std::int32_t Transformer::readout_argmax(const float* hidden_row) const {
  std::int32_t best = 0;
  readout_argmax(num::ConstMatView{hidden_row, 1, cfg_.hidden(),
                                   cfg_.hidden()},
                 std::span<std::int32_t>(&best, 1));
  return best;
}

void Transformer::readout_argmax(num::ConstMatView hidden,
                                 std::span<std::int32_t> out,
                                 serve::ThreadPool* pool) const {
  assert(out.size() == hidden.rows && hidden.cols == cfg_.hidden());
  struct Best {
    float score = -1e30f;
    std::int32_t token = 0;
  };
  // Each part scans its own token range in ascending order; merging the
  // parts in order with the same strict > keeps the lowest tied id, as one
  // full scan would.
  const std::size_t parts = column_parts(pool);
  std::vector<Best> best(parts * hidden.rows);
  for_column_parts(pool, [&](ColumnPart part) {
    const ColumnRange r = part.of(cfg_.vocab);
    Best* mine = best.data() + part.index * hidden.rows;
    for (std::size_t t = r.begin; t < r.begin + r.size; ++t) {
      const float* e = embedding_.row(t);
      for (std::size_t i = 0; i < hidden.rows; ++i) {
        const float s = num::dot(hidden.row(i), e, cfg_.hidden());
        if (s > mine[i].score) mine[i] = {s, static_cast<std::int32_t>(t)};
      }
    }
  });
  for (std::size_t i = 0; i < hidden.rows; ++i) {
    Best b = best[i];
    for (std::size_t p = 1; p < parts; ++p) {
      const Best& c = best[p * hidden.rows + i];
      if (c.score > b.score) b = c;
    }
    out[i] = b.token;
  }
}

std::vector<float> Transformer::readout_logits(const float* hidden_row) const {
  std::vector<float> logits(cfg_.vocab);
  for (std::size_t t = 0; t < cfg_.vocab; ++t) {
    logits[t] = num::dot(hidden_row, embedding_.row(t), cfg_.hidden());
  }
  return logits;
}

}  // namespace lserve::model
