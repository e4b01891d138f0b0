#include "replay.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>

#include "attn/fused_attention.hpp"
#include "numeric/quant.hpp"
#include "numeric/tensor.hpp"
#include "stats.hpp"

namespace perfbench {

using namespace lserve;

namespace {

double now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

num::ConstMatView cview(const num::Tensor& t) { return t.view(); }

struct Op {
  std::string name;
  std::function<void()> fn;
  std::size_t inner = 1;  ///< calls per timed sample.
  std::vector<double> samples{};
};

}  // namespace

double ReplayResult::op(const std::string& name) const {
  for (const auto& [n, us] : op_us) {
    if (n == name) return us;
  }
  return 0.0;
}

ReplayResult run_replay(const serve::EngineConfig& cfg, std::size_t context,
                        std::uint64_t seed, std::size_t reps) {
  const model::ModelConfig& m = cfg.model;
  const std::size_t chunk = cfg.prefill_chunk_tokens;
  const std::size_t h = m.hidden();
  const std::size_t kvd = m.kv_dim();
  const std::size_t d = m.head_dim;

  ReplayResult r;
  r.context = std::max<std::size_t>(1, context / chunk) * chunk;
  r.reps = reps;
  r.ffn_macs = 3.0 * static_cast<double>(h) * static_cast<double>(m.ffn_hidden);

  serve::Engine eng(cfg);
  std::vector<std::int32_t> prompt(r.context);
  std::uint64_t x = seed * 0x9e3779b97f4a7c15ULL + 1;
  for (std::int32_t& t : prompt) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    t = static_cast<std::int32_t>(x % m.vocab);
  }

  // Sequence A: the seeded prompt, prefilled chunk by chunk as the
  // scheduler does; the last chunk is the engine-side prefill reference.
  const serve::SequenceId a = eng.create_sequence();
  eng.begin_prefill(a, prompt.size());
  for (std::size_t pos = 0; pos < prompt.size(); pos += chunk) {
    const double t0 = now_us();
    eng.prefill_chunk(a, std::span<const std::int32_t>(prompt).subspan(pos, chunk));
    r.prefill_chunk_us = now_us() - t0;
  }
  const std::int32_t first = eng.finish_prefill(a);
  // Sequence B shares A's KV through the prefix cache and takes the real
  // Engine::decode steps, so A stays at exactly `context` tokens.
  eng.insert_prefix(a, prompt);
  const serve::SequenceId b = eng.create_sequence();
  const std::size_t reused = eng.attach_prefix(b, prompt);
  eng.begin_prefill(b, prompt.size() - reused);
  eng.prefill_chunk(b, std::span<const std::int32_t>(prompt).subspan(reused));
  std::int32_t next = eng.finish_prefill(b);

  const model::Transformer& tf = eng.transformer();
  const serve::Sequence& seq = eng.sequence(a);
  const kv::PageAllocator& dense = eng.dense_allocator();
  const kv::PageAllocator& stream = eng.stream_allocator();

  // Decode-row inputs at position `context`, and a prefill chunk's rows.
  const std::int32_t ids1[1] = {first};
  const num::Tensor x1 = tf.embed(ids1);
  num::Tensor normed1(1, h), q1(1, h), k1(1, kvd), v1(1, kvd), out1(1, h);
  num::Tensor oproj_hidden = x1, ffn_hidden = x1;
  tf.rms_norm(cview(x1), 0, normed1.view());
  tf.qkv_project(cview(normed1), 0, r.context, q1.view(), k1.view(), v1.view());
  const num::Tensor xc = tf.embed(
      std::span<const std::int32_t>(prompt).subspan(r.context - chunk));
  num::Tensor normedc(chunk, h), qc(chunk, h), kc(chunk, kvd), vc(chunk, kvd),
      outc(chunk, h);
  num::Tensor oproj_hc = xc, ffn_hc = xc;
  tf.rms_norm(cview(xc), 0, normedc.view());
  tf.qkv_project(cview(normedc), 0, r.context - chunk, qc.view(), kc.view(),
                 vc.view());

  // Per layer: the group-mean query of every dense head, its selection and
  // the streaming heads' index tables.
  struct DenseHead {
    std::size_t layer, kvh;
    std::vector<float> qmean;
    kv::SelectedPageTable table;
  };
  std::vector<DenseHead> dense_heads;
  std::vector<kv::SelectedPageTable> stream_tables;
  std::size_t kept = 0, total = 0;
  const std::size_t g = m.group_size();
  for (std::size_t layer = 0; layer < m.layers; ++layer) {
    num::Tensor n(1, h), q(1, h), k(1, kvd), v(1, kvd);
    tf.rms_norm(cview(x1), layer, n.view());
    tf.qkv_project(cview(n), layer, r.context, q.view(), k.view(), v.view());
    for (std::size_t kvh = 0; kvh < m.kv_heads; ++kvh) {
      if (seq.cache.kind(layer, kvh) == kv::HeadKind::kStreaming) {
        stream_tables.push_back(seq.cache.streaming_head(layer, kvh).index_table());
        continue;
      }
      DenseHead dh{layer, kvh, std::vector<float>(d, 0.0f), {}};
      for (std::size_t j = 0; j < g; ++j) {
        const float* qh = q.row(0) + (kvh * g + j) * d;
        for (std::size_t i = 0; i < d; ++i) dh.qmean[i] += qh[i] / static_cast<float>(g);
      }
      const kv::HeadCache& head = seq.cache.dense_head(layer, kvh);
      dh.table = sparse::select_pages_hierarchical(dense, head, dh.qmean.data(),
                                                   cfg.selector);
      kept += dh.table.size();
      total += head.num_pages();
      dense_heads.push_back(std::move(dh));
    }
  }
  r.kept_page_share = total == 0 ? 0.0 : static_cast<double>(kept) / static_cast<double>(total);

  attn::FusedDecodeConfig dc;
  dc.dynamic_dense = cfg.dynamic_decode;
  dc.hierarchical = cfg.hierarchical;
  dc.selector = cfg.selector;
  // Mirrors Engine's prefill config for a chunk at the end of the prompt.
  attn::FusedPrefillConfig pc;
  pc.tiling = cfg.tiling;
  pc.streaming.sink_blocks =
      (cfg.streaming.sink_tokens + cfg.tiling.tile_k - 1) / cfg.tiling.tile_k;
  pc.streaming.local_blocks = std::max<std::size_t>(
      1, (cfg.streaming.local_tokens + cfg.tiling.tile_k - 1) / cfg.tiling.tile_k);
  pc.total_tokens = r.context;
  sparse::ReusableSelector selector(m.layers * m.kv_heads, cfg.reuse_interval);
  const float scale = 1.0f / std::sqrt(static_cast<float>(d));
  std::vector<float> head_out(d);
  std::vector<std::uint8_t> codes(d);
  std::size_t step = 0, rr = 0, lc = 0;
  // Model ops walk the layers in turn, as a forward does, so no op gets
  // one layer's weights cache-resident that the engine would not.
  const auto layer = [&] { return lc++ % m.layers; };
  volatile std::int32_t sink = 0;

  const num::ConstMatView q_heads{q1.data(), m.q_heads, d, d};
  num::MatView out_heads{out1.data(), m.q_heads, d, d};
  const auto quant_row = [&](const float* row) {
    for (std::size_t kvh = 0; kvh < m.kv_heads; ++kvh) {
      const float* x_h = row + kvh * d;
      num::quantize_row_int4(x_h, d, num::compute_quant_params(x_h, d, 4),
                             codes.data());
    }
  };

  std::vector<Op> ops;
  ops.push_back({"model.norm_us", [&] { tf.rms_norm(cview(x1), layer(), normed1.view()); }});
  ops.push_back({"model.qkv_us", [&] {
                   tf.qkv_project(cview(normed1), layer(), r.context, q1.view(),
                                  k1.view(), v1.view());
                 }});
  ops.push_back({"numeric.kv_quant_us", [&] {
                   quant_row(k1.row(0));
                   quant_row(v1.row(0));
                 }});
  ops.push_back({"sparse.select_us", [&] {
                   const DenseHead& dh = dense_heads[rr++ % dense_heads.size()];
                   sink = static_cast<std::int32_t>(
                       sparse::select_pages_hierarchical(
                           dense, seq.cache.dense_head(dh.layer, dh.kvh),
                           dh.qmean.data(), cfg.selector)
                           .size());
                 }});
  ops.push_back({"attn.decode_dense_us", [&] {
                   const DenseHead& dh = dense_heads[rr++ % dense_heads.size()];
                   attn::sparse_paged_decode(dense, dh.table, seq.cache.tokens(),
                                             dh.qmean.data(), d, scale,
                                             head_out.data());
                 }});
  ops.push_back({"attn.decode_streaming_us", [&] {
                   const kv::SelectedPageTable& t =
                       stream_tables[rr++ % stream_tables.size()];
                   attn::sparse_paged_decode(stream, t, seq.cache.tokens(),
                                             q1.row(0), d, scale, head_out.data());
                 }});
  ops.push_back({"attn.decode_layer_us", [&] {
                   attn::fused_sparse_decode(dense, stream, seq.cache,
                                             step % m.layers, q_heads, g,
                                             &selector, step / m.layers, dc,
                                             out_heads);
                   ++step;
                 }});
  ops.push_back({"model.oproj_us", [&] {
                   tf.output_project(cview(out1), layer(), oproj_hidden.view());
                 }});
  ops.push_back({"model.ffn_us", [&] { tf.ffn(ffn_hidden.view(), layer()); }});
  ops.push_back({"model.readout_us", [&] { sink = tf.readout_argmax(x1.row(0)); }});
  ops.push_back({"model.prefill_norm_us", [&] {
                   tf.rms_norm(cview(xc), layer(), normedc.view());
                 }});
  ops.push_back({"model.prefill_qkv_us", [&] {
                   tf.qkv_project(cview(normedc), layer(), r.context - chunk,
                                  qc.view(), kc.view(), vc.view());
                 }});
  ops.push_back({"attn.prefill_chunk_us", [&] {
                   attn::fused_chunked_prefill(dense, stream, seq.cache, step % m.layers,
                                               cview(qc), cview(kc), cview(vc),
                                               d, pc, outc.view());
                 }});
  ops.push_back({"model.prefill_oproj_us", [&] {
                   tf.output_project(cview(outc), layer(), oproj_hc.view());
                 }});
  ops.push_back({"model.prefill_ffn_us", [&] { tf.ffn(ffn_hc.view(), layer()); }});
  ops.push_back({"engine.replay_decode_us", [&] { next = eng.decode(b, next); }});

  // Calibrate: enough calls per sample to cover ~2 ms of timer-visible
  // work, and never more than one Engine::decode (it grows sequence B).
  for (Op& op : ops) {
    const double t0 = now_us();
    op.fn();
    const double once = std::max(now_us() - t0, 0.05);
    op.inner = op.name == "engine.replay_decode_us"
                   ? 1
                   : static_cast<std::size_t>(std::clamp(2000.0 / once, 1.0, 4096.0));
  }
  for (std::size_t rep = 0; rep < reps; ++rep) {
    for (Op& op : ops) {
      const double t0 = now_us();
      for (std::size_t i = 0; i < op.inner; ++i) op.fn();
      op.samples.push_back((now_us() - t0) / static_cast<double>(op.inner));
    }
  }
  for (const Op& op : ops) r.op_us.emplace_back(op.name, median(op.samples));
  (void)sink;

  const double layers = static_cast<double>(m.layers);
  r.decode_step_us = r.op("engine.replay_decode_us");
  r.decode_ops_us =
      layers * (r.op("model.norm_us") + r.op("model.qkv_us") +
                r.op("numeric.kv_quant_us") + r.op("attn.decode_layer_us") +
                r.op("model.oproj_us") + r.op("model.ffn_us")) +
      r.op("model.readout_us");
  r.prefill_ops_us =
      layers * (r.op("model.prefill_norm_us") + r.op("model.prefill_qkv_us") +
                static_cast<double>(chunk) * r.op("numeric.kv_quant_us") +
                r.op("attn.prefill_chunk_us") + r.op("model.prefill_oproj_us") +
                r.op("model.prefill_ffn_us")) +
      r.op("model.readout_us");
  eng.release_sequence(b);
  eng.release_sequence(a);
  return r;
}

}  // namespace perfbench
