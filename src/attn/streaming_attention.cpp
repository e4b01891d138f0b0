#include "attn/streaming_attention.hpp"

#include <algorithm>
#include <vector>

#include "numeric/math.hpp"

namespace lserve::attn {

void streaming_prefill_reference(num::ConstMatView q, num::ConstMatView k,
                                 num::ConstMatView v, std::size_t sink_tokens,
                                 std::size_t local_tokens, float scale,
                                 num::MatView out) {
  const std::size_t n = q.rows;
  const std::size_t d = q.cols;
  std::vector<float> scores;
  std::vector<std::size_t> cols;
  for (std::size_t i = 0; i < n; ++i) {
    scores.clear();
    cols.clear();
    for (std::size_t j = 0; j <= i; ++j) {
      const bool sink = j < sink_tokens;
      const bool local = j + local_tokens > i;
      if (!sink && !local) continue;
      cols.push_back(j);
      scores.push_back(scale * num::dot(q.row(i), k.row(j), d));
    }
    num::softmax_inplace(scores.data(), scores.size());
    float* oi = out.row(i);
    std::fill(oi, oi + d, 0.0f);
    for (std::size_t t = 0; t < cols.size(); ++t) {
      num::axpy(scores[t], v.row(cols[t]), oi, d);
    }
  }
}

}  // namespace lserve::attn
