#include "attn/decode_attention.hpp"

#include <algorithm>
#include <cassert>
#include <vector>

#include "numeric/math.hpp"

namespace lserve::attn {

void paged_attention(const kv::PageAllocator& alloc,
                     const kv::SelectedPageTable& table,
                     const GroupRows& rows, const Visibility& vis,
                     float scale, float* lse_out, DecodeWorkStats* stats) {
  const std::size_t d = alloc.config().head_dim;
  const std::size_t page_size = alloc.config().page_size;
  const std::size_t n = rows.q.rows;
  const std::size_t group = rows.group;
  assert(rows.q.cols == group * d && rows.out.rows == n &&
         rows.out.cols == group * d);
  const std::size_t tq = vis.tiling.tile_q;
  const std::size_t tk = vis.tiling.tile_k;
  // The last row's causal end: no row sees a token at or past it.
  const std::size_t causal_end = rows.pos0 + n;

  std::vector<num::OnlineSoftmax> acc(n * group, num::OnlineSoftmax(d));

  // Λ: a non-sink token is live for a prefix of the rows, because the
  // diagonal tile never decreases with the row position.
  std::vector<std::size_t> diag;
  if (vis.kind == Visibility::Kind::kStreaming) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t qb = (rows.pos0 + i) / tq;
      diag.push_back((std::min((qb + 1) * tq, vis.total_tokens) - 1) / tk);
    }
  }
  // One past the last row that token c's Λ band admits.
  const auto rows_end = [&](std::size_t c) {
    if (diag.empty()) return n;
    const std::size_t kb = c / tk;
    if (kb < vis.streaming.sink_blocks) return n;
    const auto end = std::partition_point(
        diag.begin(), diag.end(), [&](std::size_t dg) {
          return dg < kb + vis.streaming.local_blocks;
        });
    return static_cast<std::size_t>(end - diag.begin());
  };
  // Folds one token into rows [lo, hi); `masks` (chunk tokens under
  // kBlockMask only) drops the rows whose chunk-local tile skips key j.
  const auto fold = [&](const float* key, const float* value, std::size_t lo,
                        std::size_t hi, const BlockMask* masks,
                        std::size_t j) {
    for (std::size_t i = lo; i < hi; ++i) {
      const float* qi = rows.q.row(i);
      for (std::size_t g = 0; g < group; ++g) {
        if (masks != nullptr &&
            !masks[g].kept((rows.pos0 + i - vis.chunk_begin) / tq, j / tk)) {
          continue;
        }
        acc[i * group + g].fold_one(scale * num::dot(qi + g * d, key, d),
                                    value);
      }
    }
  };
  const BlockMask* masks = vis.kind == Visibility::Kind::kBlockMask
                               ? vis.masks.data()
                               : nullptr;
  assert(masks == nullptr || vis.masks.size() == group);

  std::vector<float> key(d);
  std::vector<float> value(d);
  std::size_t tokens = 0;
  for (const kv::SelectedPage& entry : table) {
    // Tokens live in this block: full pages hold page_size tokens, the
    // trailing block holds the remainder. For streaming-head ring pages the
    // page's own fill count is authoritative.
    const std::size_t begin =
        static_cast<std::size_t>(entry.block) * page_size;
    std::size_t count = causal_end > begin ? causal_end - begin : 0;
    if (count == 0) continue;
    const kv::PagePin pin = alloc.pin(entry.page);
    const kv::Page& page = pin.page();
    count = std::min({count, page_size, page.size()});
    tokens += count;
    for (std::size_t s = 0; s < count; ++s) {
      // Token c is causally visible from row c - pos0 on.
      const std::size_t c = begin + s;
      const std::size_t lo = c > rows.pos0 ? c - rows.pos0 : 0;
      const std::size_t hi = rows_end(c);
      if (lo >= hi) continue;
      page.load_key(s, key.data());
      page.load_value(s, value.data());
      if (masks != nullptr && c >= vis.chunk_begin) {
        fold(key.data(), value.data(), lo, hi, masks, c - vis.chunk_begin);
      } else {
        fold(key.data(), value.data(), lo, hi, nullptr, 0);
      }
    }
  }

  num::MatView out = rows.out;
  for (std::size_t r = 0; r < n * group; ++r) {
    acc[r].finish(out.row(r / group) + (r % group) * d);
    if (lse_out != nullptr) lse_out[r] = acc[r].log_sum_exp();
  }
  if (stats != nullptr) {
    stats->pages_visited += table.size() * n * group;
    stats->tokens_visited += tokens * n * group;
  }
}

void sparse_paged_decode(const kv::PageAllocator& alloc,
                         const kv::SelectedPageTable& table,
                         std::size_t seq_tokens, const float* q,
                         std::size_t head_dim, float scale, float* out,
                         float* lse_out, DecodeWorkStats* stats) {
  assert(head_dim == alloc.config().head_dim);
  const GroupRows row{{q, 1, head_dim, head_dim},
                      {out, 1, head_dim, head_dim},
                      seq_tokens == 0 ? 0 : seq_tokens - 1,
                      1};
  paged_attention(alloc, table, row, {}, scale, lse_out, stats);
}

}  // namespace lserve::attn
