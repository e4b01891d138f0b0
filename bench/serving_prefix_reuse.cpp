// Prefix-reuse bench: multi-turn chat traffic through the scheduler with
// the radix prefix cache on vs. off.
//
// The workload (bench/common.hpp chat generator) is the cache's target
// scenario: every user opens with the same system prompt, and each follow-up
// turn replays the full conversation history plus a few fresh tokens. With
// the cache on, a follow-up's history attaches straight from the radix tree
// and only the fresh suffix is prefilled; with it off, every turn re-prefills
// from token zero. Turns are chained through on_done — turn t+1 is built
// from turn t's *actual* reply and submitted from its completion callback —
// so the token streams are identical in both modes and the bench can assert
// bit-identical outputs.
//
// TTFT is measured the same way as serving_load: the scheduler stamps step
// indices, the harness maps steps to wall-clock timestamps recorded around
// step(). Reported per class: cold (first turns, nothing cached yet) and
// hit (follow-up turns, the cache's target traffic). argv[1], when given,
// receives the JSON blob (BENCH_prefix_reuse.json).
#include <cassert>
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "baselines/baseline_engines.hpp"
#include "common.hpp"
#include "serve/scheduler.hpp"

using namespace lserve;

namespace {

struct TurnKey {
  std::size_t user = 0;
  std::size_t turn = 0;
  bool operator<(const TurnKey& o) const {
    return user != o.user ? user < o.user : turn < o.turn;
  }
};

struct TurnRecord {
  double ttft_us = 0.0;
  std::size_t prompt_tokens = 0;
  std::vector<std::int32_t> output;
};

struct RunOutcome {
  std::map<TurnKey, TurnRecord> turns;
  double wall_ms = 0.0;
  serve::EngineStats eng;
};

RunOutcome run_chat(const bench::ChatWorkloadConfig& wl, bool cache_on) {
  serve::EngineConfig ec = baselines::lserve_config(model::small());
  ec.pool_pages = 4096;
  ec.enable_prefix_cache = cache_on;
  serve::Engine engine(ec);
  engine.calibrate_head_kinds();
  serve::SchedulerConfig sc;
  sc.max_batch = 8;
  sc.decode_threads = 1;
  serve::Scheduler sched(engine, sc);

  // times[k] = elapsed us after step k; per-request TTFT is
  // times[first_token_step] - times[submit_step].
  std::vector<double> times{0.0};
  RunOutcome out;

  // Chained submission: turn t+1's prompt is built from turn t's actual
  // reply inside its on_done, so both modes see identical token streams.
  struct UserState {
    std::vector<std::int32_t> prompt;
  };
  std::vector<UserState> users(wl.users);
  std::function<void(std::size_t, std::size_t)> launch =
      [&](std::size_t user, std::size_t turn) {
        serve::Request req;
        req.prompt = users[user].prompt;
        req.max_new_tokens = wl.reply_tokens;
        req.on_done = [&, user, turn](const serve::RequestResult& r) {
          TurnRecord rec;
          rec.prompt_tokens = r.prompt_tokens;
          rec.output = r.output;
          rec.ttft_us = times[r.first_token_step] - times[r.submit_step];
          out.turns[{user, turn}] = std::move(rec);
          if (turn + 1 < wl.turns_per_user) {
            users[user].prompt = bench::chat_next_prompt(
                wl, user, turn + 1, users[user].prompt, r.output);
            launch(user, turn + 1);
          }
        };
        sched.submit(std::move(req));
      };
  for (std::size_t u = 0; u < wl.users; ++u) {
    users[u].prompt = bench::chat_first_prompt(wl, u);
    launch(u, 0);
  }

  const auto t0 = std::chrono::steady_clock::now();
  bool more = true;
  while (more) {
    more = sched.step();
    times.push_back(std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - t0)
                        .count());
  }
  out.wall_ms = times.back() / 1000.0;
  out.eng = engine.stats();
  return out;
}

double mean_ttft(const RunOutcome& out, bool hit_class) {
  // Accumulated through the serving stack's histogram type (exact mean:
  // sum/count, not bucket-estimated), matching the other serving benches.
  lserve::obs::Histogram h(lserve::obs::default_summary_buckets());
  for (const auto& [key, rec] : out.turns) {
    if ((key.turn > 0) == hit_class) h.observe(rec.ttft_us);
  }
  return bench::LatencySummary::from(h).mean;
}

}  // namespace

int main(int argc, char** argv) {
  bench::ChatWorkloadConfig wl;
  wl.users = 6;
  wl.turns_per_user = 3;
  wl.system_prompt_tokens = 256;
  wl.turn_prompt_tokens = 32;
  wl.reply_tokens = 8;

  bench::section("prefix reuse: multi-turn chat, cache off vs on");
  std::printf("%zu users x %zu turns, system prompt %zu tok, +%zu tok/turn, "
              "%zu replies\n",
              wl.users, wl.turns_per_user, wl.system_prompt_tokens,
              wl.turn_prompt_tokens, wl.reply_tokens);

  RunOutcome off = run_chat(wl, /*cache_on=*/false);
  RunOutcome on = run_chat(wl, /*cache_on=*/true);

  // Bit-identical outputs are the whole point of verbatim COW + exact
  // streaming-window attach: abort loudly if the cache changed any token.
  assert(off.turns.size() == on.turns.size());
  bool identical = off.turns.size() == on.turns.size();
  for (const auto& [key, rec] : off.turns) {
    const auto it = on.turns.find(key);
    if (it == on.turns.end() || it->second.output != rec.output) {
      identical = false;
      std::fprintf(stderr, "MISMATCH user %zu turn %zu\n", key.user, key.turn);
    }
  }
  if (!identical) {
    std::fprintf(stderr, "cache-on outputs differ from cache-off; failing\n");
    return 1;
  }

  const double cold_off = mean_ttft(off, false);
  const double cold_on = mean_ttft(on, false);
  const double hit_off = mean_ttft(off, true);
  const double hit_on = mean_ttft(on, true);
  const std::size_t total = off.turns.size();
  const std::size_t followups = total - wl.users;
  const double shared_fraction =
      static_cast<double>(followups) / static_cast<double>(total);

  bench::row("", {"cache off", "cache on", "speedup"}, 26, 12);
  bench::row("cold TTFT (ms, mean)",
             {bench::fmt(cold_off / 1000.0, 2), bench::fmt(cold_on / 1000.0, 2),
              bench::fmt(cold_on > 0 ? cold_off / cold_on : 0.0, 2) + "x"},
             26, 12);
  bench::row("hit TTFT (ms, mean)",
             {bench::fmt(hit_off / 1000.0, 2), bench::fmt(hit_on / 1000.0, 2),
              bench::fmt(hit_on > 0 ? hit_off / hit_on : 0.0, 2) + "x"},
             26, 12);
  bench::row("wall (ms)",
             {bench::fmt(off.wall_ms, 0), bench::fmt(on.wall_ms, 0),
              bench::fmt(on.wall_ms > 0 ? off.wall_ms / on.wall_ms : 0.0, 2) +
                  "x"},
             26, 12);
  std::printf("\ncache-on: %zu/%zu requests hit, %zu prompt tokens served "
              "from cache, %zu COW copies, %zu evictions\n",
              on.eng.prefix_hits, total, on.eng.prefix_tokens_reused,
              on.eng.prefix_cow_copies, on.eng.prefix_evictions);
  std::printf("shared-prefix traffic: %.0f%% of requests are follow-up "
              "turns\noutputs bit-identical cache on vs off: yes\n",
              shared_fraction * 100.0);

  char json[2048];
  std::snprintf(
      json, sizeof(json),
      "{\n"
      "  \"bench\": \"serving_prefix_reuse\",\n"
      "  \"workload\": {\"users\": %zu, \"turns_per_user\": %zu,\n"
      "    \"system_prompt_tokens\": %zu, \"turn_prompt_tokens\": %zu,\n"
      "    \"reply_tokens\": %zu, \"shared_prefix_traffic\": %.2f},\n"
      "  \"cache_off\": {\"cold_ttft_us\": %.1f, \"hit_ttft_us\": %.1f,\n"
      "    \"wall_ms\": %.1f},\n"
      "  \"cache_on\": {\"cold_ttft_us\": %.1f, \"hit_ttft_us\": %.1f,\n"
      "    \"wall_ms\": %.1f, \"prefix_hits\": %zu,\n"
      "    \"prefix_tokens_reused\": %zu, \"cow_copies\": %zu,\n"
      "    \"evictions\": %zu},\n"
      "  \"hit_ttft_speedup\": %.2f,\n"
      "  \"outputs_bit_identical\": true\n"
      "}\n",
      wl.users, wl.turns_per_user, wl.system_prompt_tokens,
      wl.turn_prompt_tokens, wl.reply_tokens, shared_fraction, cold_off,
      hit_off, off.wall_ms, cold_on, hit_on, on.wall_ms,
      on.eng.prefix_hits, on.eng.prefix_tokens_reused,
      on.eng.prefix_cow_copies, on.eng.prefix_evictions,
      hit_on > 0 ? hit_off / hit_on : 0.0);
  std::printf("\n%s", json);
  if (argc > 1) {
    if (std::FILE* f = std::fopen(argv[1], "w")) {
      std::fputs(json, f);
      std::fclose(f);
    }
  }
  return 0;
}
