// Per-task runtime overhead: ns/task for spawn → run → join, the baseline
// trajectory number for the spawn/steal fast path. Two workloads:
//
//   fib        — tied recursive fib with cutoff none (every spawn
//                deferred), the paper's canonical task-overhead stressor
//                (Figure 3's fib rows are dominated by exactly this cost).
//   null       — a single generator flooding N empty tasks joined by one
//                taskwait: pure descriptor + deque + finish cost, no
//                user work and no recursion.
//   fib_inline — fib under a manual depth cut-off expressed as an if
//                clause: constructs above the bound defer, the vast
//                majority below it are INLINED. ns per construct here is
//                the undeferred-execution cost — the number the zero-alloc
//                inline path attacks. A/B toggles use_inline_fast_path
//                (everything else at the fast-path defaults).
//
// fib and null run twice on the SAME binary: once with the fast-path knobs
// on (steal-half, victim affinity, distributed parking, LIFO slot, fused
// finish — the defaults) and once with all of them off (the seed
// behaviour). The summary reports the relative overhead reduction.
//
// The binary doubles as the allocation-regression tripwire CI depends on:
// a fully-inlined run with the fast path on must report ZERO task-pool
// activity, else the process exits nonzero.
//
// Environment knobs:
//   BOTS_SPAWN_THREADS       team size                     (default 8)
//   BOTS_SPAWN_FIB           fib argument                  (default 30)
//   BOTS_SPAWN_NULL          null-task flood size          (default 1'000'000)
//   BOTS_SPAWN_INLINE_DEPTH  fib_inline deferral depth     (default 8)
//   BOTS_BENCH_REPS          repetitions, best-of          (default 5)
//
// Output: one JSON object per line (machine-readable) followed by a
// human-readable summary on stderr.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <utility>

#include "bench_common.hpp"
#include "runtime/rt.hpp"

namespace rt = bots::rt;
using bots::bench::env_unsigned;

namespace {

std::uint64_t fib_task(unsigned n) {
  if (n < 2) return n;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  rt::spawn(rt::Tiedness::tied, [&a, n] { a = fib_task(n - 1); });
  rt::spawn(rt::Tiedness::tied, [&b, n] { b = fib_task(n - 2); });
  rt::taskwait();
  return a + b;
}

/// Manual depth cut-off as an if clause: every call is still a task
/// CONSTRUCT (counted in tasks_created), but below `depth_left` levels it is
/// undeferred — the workload the inline fast path exists for.
std::uint64_t fib_if_task(unsigned n, unsigned depth_left) {
  if (n < 2) return n;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  const bool defer = depth_left > 0;
  const unsigned d = defer ? depth_left - 1 : 0;
  rt::spawn_if(defer, rt::Tiedness::tied,
               [&a, n, d] { a = fib_if_task(n - 1, d); });
  rt::spawn_if(defer, rt::Tiedness::tied,
               [&b, n, d] { b = fib_if_task(n - 2, d); });
  rt::taskwait();
  return a + b;
}

rt::SchedulerConfig make_config(unsigned threads, bool fastpath) {
  rt::SchedulerConfig cfg;
  cfg.num_threads = threads;
  cfg.cutoff = rt::CutoffPolicy::none;  // measure every spawn, no pruning
  cfg.steal_half = fastpath;
  cfg.victim_affinity = fastpath;
  cfg.distributed_parking = fastpath;
  cfg.lifo_slot = fastpath;
  cfg.fused_finish = fastpath;
  return cfg;
}

struct Result {
  double seconds = 0.0;
  std::uint64_t tasks = 0;
  [[nodiscard]] double ns_per_task() const {
    return tasks == 0 ? 0.0 : seconds * 1e9 / static_cast<double>(tasks);
  }
};

template <class Body>
Result measure_cfg(const rt::SchedulerConfig& cfg, int reps, Body&& body) {
  Result best;
  for (int r = 0; r < reps; ++r) {
    rt::Scheduler sched(cfg);
    sched.run_single([] {});  // wake the team outside the timed section
    const auto t0 = std::chrono::steady_clock::now();
    sched.run_single([&body] { body(); });
    const auto t1 = std::chrono::steady_clock::now();
    const double s = std::chrono::duration<double>(t1 - t0).count();
    if (r == 0 || s < best.seconds) {
      best.seconds = s;
      best.tasks = sched.stats().total.tasks_created;
    }
  }
  return best;
}

template <class Body>
Result measure(unsigned threads, bool fastpath, int reps, Body&& body) {
  return measure_cfg(make_config(threads, fastpath), reps,
                     std::forward<Body>(body));
}

/// Allocation-regression tripwire: a fully-inlined run on the zero-alloc
/// path must never touch the descriptor pool. Returns false (and reports on
/// stderr) when pool activity is observed.
bool zero_alloc_tripwire(unsigned threads) {
  rt::SchedulerConfig cfg;  // all defaults: inline fast path on
  cfg.num_threads = threads;
  rt::Scheduler sched(cfg);
  std::uint64_t sink = 0;
  sched.run_single([&sink] { sink = fib_if_task(24, 0); });  // all inlined
  const auto t = sched.stats().total;
  const std::uint64_t pool = t.pool_reuse + t.pool_fresh;
  if (pool != 0 || t.tasks_inlined_fast != t.tasks_created) {
    std::fprintf(stderr,
                 "zero-alloc TRIPWIRE: pool activity %llu (reuse %llu + "
                 "fresh %llu) on a fully-inlined run, inlined_fast %llu of "
                 "%llu constructs\n",
                 static_cast<unsigned long long>(pool),
                 static_cast<unsigned long long>(t.pool_reuse),
                 static_cast<unsigned long long>(t.pool_fresh),
                 static_cast<unsigned long long>(t.tasks_inlined_fast),
                 static_cast<unsigned long long>(t.tasks_created));
    return false;
  }
  std::printf(
      "{\"bench\":\"spawn_overhead_zero_alloc_tripwire\",\"threads\":%u,"
      "\"constructs\":%llu,\"pool_activity\":0,\"ok\":true}\n",
      threads, static_cast<unsigned long long>(t.tasks_created));
  return true;
}

/// `ab_key` names the dimension the on/off toggle applies to: "fastpath"
/// for the all-knobs A/B of the fib/null workloads, "inline" for the
/// fib_inline workload (which keeps every other fast-path knob at its
/// default and toggles ONLY use_inline_fast_path — labelling it "fastpath"
/// would misattribute the off row to the all-knobs-off seed configuration).
void emit(const char* workload, unsigned threads, const char* ab_key, bool on,
          const Result& res) {
  std::printf(
      "{\"bench\":\"spawn_overhead\",\"workload\":\"%s\",\"threads\":%u,"
      "\"%s\":\"%s\",\"tasks\":%llu,\"seconds\":%.6f,"
      "\"ns_per_task\":%.2f}\n",
      workload, threads, ab_key, on ? "on" : "off",
      static_cast<unsigned long long>(res.tasks), res.seconds,
      res.ns_per_task());
  std::fflush(stdout);
}

}  // namespace

int main() {
  const unsigned threads = env_unsigned("BOTS_SPAWN_THREADS", 8);
  const unsigned fib_n = env_unsigned("BOTS_SPAWN_FIB", 30);
  const unsigned null_n = env_unsigned("BOTS_SPAWN_NULL", 1'000'000);
  const unsigned inline_depth = env_unsigned("BOTS_SPAWN_INLINE_DEPTH", 8);
  const int reps = static_cast<int>(env_unsigned("BOTS_BENCH_REPS", 5));

  std::fprintf(
      stderr,
      "bench_spawn_overhead: threads=%u fib=%u null=%u inline_depth=%u "
      "reps=%d\n",
      threads, fib_n, null_n, inline_depth, reps);

  std::uint64_t sink = 0;
  const auto fib_body = [fib_n, &sink] { sink += fib_task(fib_n); };
  const auto null_body = [null_n] {
    for (unsigned i = 0; i < null_n; ++i) rt::spawn([] {});
    rt::taskwait();
  };
  const auto fib_inline_body = [fib_n, inline_depth, &sink] {
    sink += fib_if_task(fib_n, inline_depth);
  };

  const Result fib_on = measure(threads, true, reps, fib_body);
  const Result fib_off = measure(threads, false, reps, fib_body);
  const Result null_on = measure(threads, true, reps, null_body);
  const Result null_off = measure(threads, false, reps, null_body);

  // Inlined-construct cost: fast-path defaults, only the inline knob A/B'd.
  rt::SchedulerConfig inline_cfg = make_config(threads, true);
  inline_cfg.use_inline_fast_path = true;
  const Result inl_on = measure_cfg(inline_cfg, reps, fib_inline_body);
  inline_cfg.use_inline_fast_path = false;
  const Result inl_off = measure_cfg(inline_cfg, reps, fib_inline_body);

  emit("fib", threads, "fastpath", true, fib_on);
  emit("fib", threads, "fastpath", false, fib_off);
  emit("null", threads, "fastpath", true, null_on);
  emit("null", threads, "fastpath", false, null_off);
  emit("fib_inline", threads, "inline", true, inl_on);
  emit("fib_inline", threads, "inline", false, inl_off);

  const auto gain = [](const Result& on, const Result& off) {
    return off.ns_per_task() > 0.0
               ? 100.0 * (off.ns_per_task() - on.ns_per_task()) /
                     off.ns_per_task()
               : 0.0;
  };
  std::printf(
      "{\"bench\":\"spawn_overhead_summary\",\"threads\":%u,"
      "\"fib_gain_pct\":%.1f,\"null_gain_pct\":%.1f,"
      "\"fib_inline_gain_pct\":%.1f}\n",
      threads, gain(fib_on, fib_off), gain(null_on, null_off),
      gain(inl_on, inl_off));
  std::fprintf(
      stderr,
      "fib:        on %.1f ns/task, off %.1f ns/task (%.1f%% lower)\n"
      "null:       on %.1f ns/task, off %.1f ns/task (%.1f%% lower)\n"
      "fib_inline: on %.1f ns/construct, off %.1f ns/construct (%.1f%% "
      "lower)\n",
      fib_on.ns_per_task(), fib_off.ns_per_task(), gain(fib_on, fib_off),
      null_on.ns_per_task(), null_off.ns_per_task(), gain(null_on, null_off),
      inl_on.ns_per_task(), inl_off.ns_per_task(), gain(inl_on, inl_off));

  // CI fails the job on any allocation regression of the zero-alloc path.
  if (!zero_alloc_tripwire(threads)) return 1;
  return 0;
}
