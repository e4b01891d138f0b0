#include "kv/prefix_cache.hpp"

#include <algorithm>
#include <cassert>

namespace lserve::kv {

PrefixCache::PrefixCache(PageAllocator& dense, PageAllocator& stream,
                         PrefixCacheConfig cfg,
                         PrefixCacheCounters& counters)
    : dense_(dense),
      stream_(stream),
      counters_(counters),
      cfg_(std::move(cfg)),
      page_size_(dense.config().page_size),
      slots_(cfg_.layers * cfg_.kv_heads),
      root_(std::make_unique<Node>()) {
  assert(dense_.config().page_size == stream_.config().page_size);
  assert(cfg_.kinds.size() == slots_);
}

PrefixCache::~PrefixCache() { clear(); }

PrefixCache::Match PrefixCache::match_locked(
    std::span<const std::int32_t> prompt, std::size_t max_tokens) const {
  Match m;
  const std::size_t limit = std::min(prompt.size(), max_tokens);
  Node* cur = root_.get();
  while (m.matched < limit) {
    const std::size_t remaining = limit - m.matched;
    // Children may share prefixes (divergence within a block never splits
    // a node — blocks are atomic pages), so take the longest common
    // prefix over all of them, not the first hit.
    Node* best = nullptr;
    std::size_t best_len = 0;
    for (const auto& child : cur->children) {
      const std::size_t n = std::min(child->run.size(), remaining);
      std::size_t l = 0;
      while (l < n && child->run[l] == prompt[m.matched + l]) ++l;
      if (l > best_len) {
        best_len = l;
        best = child.get();
      }
    }
    if (best == nullptr) break;
    m.srcs.push_back(best);
    m.matched += best_len;
    // Descend only through an entirely-matched full block; a partial leaf
    // or a mid-block divergence ends the match (the tail tokens are
    // COW-copied out of `best` at attach).
    if (best_len < page_size_ || best_len < best->run.size()) break;
    cur = best;
  }
  return m;
}

bool PrefixCache::feasible_locked(const Match& m, std::size_t depth) const {
  if (depth == 0) return true;
  bool any_stream = false;
  for (const HeadKind k : cfg_.kinds) {
    if (k == HeadKind::kStreaming) {
      any_stream = true;
      break;
    }
  }
  if (!any_stream) return true;
  const std::size_t blocks = (depth + page_size_ - 1) / page_size_;
  assert(blocks <= m.srcs.size());
  for (std::size_t b = 0; b < blocks; ++b) {
    if (cfg_.streaming.retains(b, depth, page_size_) &&
        !m.srcs[b]->has_stream) {
      return false;
    }
  }
  return true;
}

std::size_t PrefixCache::best_depth_locked(const Match& m) const {
  if (m.matched == 0) return 0;
  if (feasible_locked(m, m.matched)) return m.matched;
  // Fall back across block boundaries: shallower depths need a smaller
  // streaming window, so a mid-history match can still reuse its sinks.
  std::size_t d = (m.matched / page_size_) * page_size_;
  while (d > 0) {
    if (d != m.matched && feasible_locked(m, d)) return d;
    d -= page_size_;
  }
  return 0;
}

std::size_t PrefixCache::attach(std::span<const std::int32_t> prompt,
                                std::size_t max_tokens,
                                TwoWayKvCache& cache) {
  MutexLock lock(mu_);
  const Match m = match_locked(prompt, max_tokens);
  const std::size_t depth = best_depth_locked(m);
  if (depth == 0) return 0;
  ++clock_;
  const std::size_t full_blocks = depth / page_size_;
  const std::size_t tail = depth % page_size_;
  const std::size_t blocks = full_blocks + (tail > 0 ? 1 : 0);
  for (std::size_t b = 0; b < blocks; ++b) m.srcs[b]->last_use = clock_;

  // COW: the depth-D tail lands mid-page, and the attaching sequence will
  // keep appending into that page, so it gets a private copy — quantized
  // payload verbatim, never requantized, keeping outputs bit-identical.
  const auto cow = [&](PageAllocator& alloc, PageId src) REQUIRES(mu_) {
    const PageId id = alloc.allocate();
    const PagePin src_pin = alloc.pin(src);
    alloc.pin_mut(id).page().copy_prefix_from(src_pin.page(), tail);
    counters_.cow_copies.inc();
    return id;
  };

  const std::size_t sinks_end = cfg_.streaming.sink_blocks(page_size_);
  for (std::size_t layer = 0; layer < cfg_.layers; ++layer) {
    for (std::size_t h = 0; h < cfg_.kv_heads; ++h) {
      const std::size_t slot = layer * cfg_.kv_heads + h;
      if (cfg_.kinds[slot] == HeadKind::kDense) {
        std::vector<PageId> pages;
        pages.reserve(blocks);
        for (std::size_t b = 0; b < full_blocks; ++b) {
          const PageId id = m.srcs[b]->pages[slot];
          dense_.add_ref(id);
          pages.push_back(id);
        }
        if (tail > 0) {
          pages.push_back(cow(dense_, m.srcs[full_blocks]->pages[slot]));
        }
        cache.dense_head(layer, h).attach(std::move(pages), depth);
      } else {
        // Install exactly the page set streaming state holds at depth:
        // sinks, plus locals still inside the Λ window — extras would
        // change the pruned index table and thus the attention output.
        std::vector<PageId> sinks;
        std::vector<std::pair<std::uint32_t, PageId>> locals;
        for (std::size_t b = 0; b < blocks; ++b) {
          if (!cfg_.streaming.retains(b, depth, page_size_)) continue;
          const bool is_tail = tail > 0 && b == full_blocks;
          PageId id = m.srcs[b]->pages[slot];
          assert(id != kInvalidPage);
          if (is_tail) {
            id = cow(stream_, id);
          } else {
            stream_.add_ref(id);
          }
          if (b < sinks_end) {
            sinks.push_back(id);
          } else {
            locals.emplace_back(static_cast<std::uint32_t>(b), id);
          }
        }
        cache.streaming_head(layer, h).attach(std::move(sinks), locals,
                                              depth);
      }
    }
  }
  cache.note_attached_tokens(depth);
  counters_.hits.inc();
  counters_.tokens_reused.inc(depth);
  return depth;
}

void PrefixCache::insert(std::span<const std::int32_t> tokens,
                         const TwoWayKvCache& cache) {
  if (tokens.empty()) return;
  MutexLock lock(mu_);
  // Strictly fewer tokens than the cache holds is the normal case: callers
  // pass only the prefill-produced prefix, and the boundary page's extra
  // decode-produced rows are simply never covered by a run (attach COWs
  // only the covered rows out of a partial page).
  assert(tokens.size() <= cache.tokens());
  ++clock_;

  // Shares the cache's pages for block `block` into `node` (dense slots
  // always; streaming slots only where the inserting sequence still
  // retains the block — deeper blocks slid out of its Λ window).
  const auto fill_node = [&](Node& node, std::size_t block) REQUIRES(mu_) {
    node.pages.assign(slots_, kInvalidPage);
    std::size_t stream_total = 0;
    std::size_t stream_present = 0;
    for (std::size_t layer = 0; layer < cfg_.layers; ++layer) {
      for (std::size_t h = 0; h < cfg_.kv_heads; ++h) {
        const std::size_t slot = layer * cfg_.kv_heads + h;
        if (cfg_.kinds[slot] == HeadKind::kDense) {
          const PageId id = cache.dense_head(layer, h).pages()[block];
          dense_.add_ref(id);
          node.pages[slot] = id;
          ++pages_held_;
        } else {
          ++stream_total;
          const PageId id = cache.streaming_head(layer, h).page_for_block(
              static_cast<std::uint32_t>(block));
          if (id != kInvalidPage) {
            stream_.add_ref(id);
            node.pages[slot] = id;
            ++pages_held_;
            ++stream_present;
          }
        }
      }
    }
    node.has_stream = stream_present == stream_total;
  };

  const auto release_pages = [&](Node& node) REQUIRES(mu_) {
    for (std::size_t slot = 0; slot < node.pages.size(); ++slot) {
      const PageId id = node.pages[slot];
      if (id == kInvalidPage) continue;
      (cfg_.kinds[slot] == HeadKind::kDense ? dense_ : stream_).release(id);
      --pages_held_;
    }
    node.pages.clear();
  };

  Node* cur = root_.get();
  std::size_t pos = 0;
  while (pos < tokens.size()) {
    const std::size_t remaining = tokens.size() - pos;
    const auto block = static_cast<std::uint32_t>(pos / page_size_);
    if (remaining >= page_size_) {
      const std::span<const std::int32_t> run =
          tokens.subspan(pos, page_size_);
      Node* hit = nullptr;
      for (const auto& child : cur->children) {
        if (child->run.size() == page_size_ &&
            std::equal(run.begin(), run.end(), child->run.begin())) {
          hit = child.get();
          break;
        }
      }
      if (hit != nullptr) {
        hit->last_use = clock_;
        // Backfill: an earlier inserter had already lost this block from
        // its streaming window, but this sequence still holds it live.
        if (!hit->has_stream) {
          bool all_present = true;
          for (std::size_t slot = 0; slot < slots_ && all_present; ++slot) {
            if (cfg_.kinds[slot] != HeadKind::kStreaming) continue;
            const auto layer = slot / cfg_.kv_heads;
            const auto h = slot % cfg_.kv_heads;
            all_present =
                cache.streaming_head(layer, h).page_for_block(block) !=
                kInvalidPage;
          }
          if (all_present) {
            for (std::size_t slot = 0; slot < slots_; ++slot) {
              if (cfg_.kinds[slot] != HeadKind::kStreaming) continue;
              const auto layer = slot / cfg_.kv_heads;
              const auto h = slot % cfg_.kv_heads;
              const PageId id =
                  cache.streaming_head(layer, h).page_for_block(block);
              stream_.add_ref(id);
              hit->pages[slot] = id;
              ++pages_held_;
            }
            hit->has_stream = true;
          }
        }
        cur = hit;
        pos += page_size_;
        continue;
      }
      auto node = std::make_unique<Node>();
      node->run.assign(run.begin(), run.end());
      node->block = block;
      node->last_use = clock_;
      node->parent = cur;
      fill_node(*node, block);
      cur->children.push_back(std::move(node));
      cur = cur->children.back().get();
      pos += page_size_;
      continue;
    }

    // Tail block: fewer than NP tokens remain.
    const std::span<const std::int32_t> run = tokens.subspan(pos, remaining);
    Node* covered = nullptr;
    Node* upgrade = nullptr;
    for (const auto& child : cur->children) {
      if (child->run.size() >= remaining &&
          std::equal(run.begin(), run.end(), child->run.begin())) {
        covered = child.get();
        break;
      }
      if (child->run.size() < page_size_ && child->run.size() < remaining &&
          std::equal(child->run.begin(), child->run.end(), run.begin())) {
        upgrade = child.get();
      }
    }
    if (covered != nullptr) {
      // The tree already holds (at least) this tail.
      covered->last_use = clock_;
    } else if (upgrade != nullptr) {
      // A shorter partial leaf is a strict prefix of ours: swap its pages
      // for this sequence's longer tail page.
      release_pages(*upgrade);
      upgrade->run.assign(run.begin(), run.end());
      upgrade->last_use = clock_;
      fill_node(*upgrade, block);
    } else {
      auto node = std::make_unique<Node>();
      node->run.assign(run.begin(), run.end());
      node->block = block;
      node->last_use = clock_;
      node->parent = cur;
      fill_node(*node, block);
      cur->children.push_back(std::move(node));
    }
    break;
  }

  if (cfg_.max_pages > 0) {
    while (pages_held_ > cfg_.max_pages) {
      Node* leaf = lru_leaf_locked(/*require_freeable=*/false,
                                   /*require_unshared=*/false);
      if (leaf == nullptr) break;
      evict_leaf_locked(leaf);
    }
  }
}

std::size_t PrefixCache::node_valid_pages_locked(const Node& node) const {
  std::size_t n = 0;
  for (const PageId id : node.pages) {
    if (id != kInvalidPage) ++n;
  }
  return n;
}

PrefixCache::Node* PrefixCache::lru_leaf_locked(bool require_freeable,
                                                bool require_unshared) const {
  Node* best = nullptr;
  std::vector<Node*> stack{root_.get()};
  while (!stack.empty()) {
    Node* cur = stack.back();
    stack.pop_back();
    for (const auto& child : cur->children) stack.push_back(child.get());
    if (cur == root_.get() || !cur->children.empty()) continue;
    if (require_freeable || require_unshared) {
      bool any_last = node_valid_pages_locked(*cur) == 0;
      bool all_last = true;
      for (std::size_t slot = 0; slot < cur->pages.size(); ++slot) {
        const PageId id = cur->pages[slot];
        if (id == kInvalidPage) continue;
        const PageAllocator& alloc =
            cfg_.kinds[slot] == HeadKind::kDense ? dense_ : stream_;
        if (alloc.ref_count(id) == 1) {
          any_last = true;
        } else {
          all_last = false;
        }
      }
      if (require_unshared && !all_last) continue;
      if (require_freeable && !any_last) continue;
    }
    if (best == nullptr || cur->last_use < best->last_use) best = cur;
  }
  return best;
}

std::size_t PrefixCache::evict_leaf_locked(Node* leaf) {
  assert(leaf != root_.get() && leaf->children.empty());
  std::size_t freed = 0;
  for (std::size_t slot = 0; slot < leaf->pages.size(); ++slot) {
    const PageId id = leaf->pages[slot];
    if (id == kInvalidPage) continue;
    PageAllocator& alloc =
        cfg_.kinds[slot] == HeadKind::kDense ? dense_ : stream_;
    if (alloc.ref_count(id) == 1) ++freed;
    alloc.release(id);
    --pages_held_;
  }
  Node* parent = leaf->parent;
  auto& siblings = parent->children;
  for (auto it = siblings.begin(); it != siblings.end(); ++it) {
    if (it->get() == leaf) {
      siblings.erase(it);
      break;
    }
  }
  counters_.evictions.inc();
  return freed;
}

std::size_t PrefixCache::reclaim(std::size_t target_pages) {
  MutexLock lock(mu_);
  std::size_t freed = 0;
  // Pass 1: nodes the cache is the last holder of everywhere — evicting
  // them costs no live sequence anything.
  while (freed < target_pages) {
    Node* leaf = lru_leaf_locked(/*require_freeable=*/true,
                                 /*require_unshared=*/true);
    if (leaf == nullptr) break;
    freed += evict_leaf_locked(leaf);
  }
  // Pass 2: partially-shared nodes that still return >= 1 page. Nodes
  // whose pages are all shared with live sequences are never evicted
  // here — that frees nothing and only destroys future hits.
  while (freed < target_pages) {
    Node* leaf = lru_leaf_locked(/*require_freeable=*/true,
                                 /*require_unshared=*/false);
    if (leaf == nullptr) break;
    freed += evict_leaf_locked(leaf);
  }
  return freed;
}

std::size_t PrefixCache::match_tokens(std::span<const std::int32_t> prompt,
                                      std::size_t max_tokens) const {
  MutexLock lock(mu_);
  const Match m = match_locked(prompt, max_tokens);
  return best_depth_locked(m);
}

void PrefixCache::clear() {
  MutexLock lock(mu_);
  while (true) {
    Node* leaf = lru_leaf_locked(/*require_freeable=*/false,
                                 /*require_unshared=*/false);
    if (leaf == nullptr) break;
    evict_leaf_locked(leaf);
  }
}

std::size_t PrefixCache::pages_held() const {
  MutexLock lock(mu_);
  return pages_held_;
}

}  // namespace lserve::kv
