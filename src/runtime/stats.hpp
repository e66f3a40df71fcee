// Per-worker scheduler counters, declared once.
//
// BOTS_RT_WORKER_COUNTERS lists every counter a worker keeps, with how it
// aggregates across workers (sum, or max for a high-water mark). Two types
// are generated from it:
//   - WorkerCounters, the live block inside each Worker. Only the owning
//     worker writes it, with a relaxed load then store (no lock-prefixed
//     RMW), and any thread may read it at any time, while a region runs too.
//   - WorkerStats, a plain snapshot of one block or an aggregate of several
//     (Scheduler::stats()).
// A snapshot taken while a region runs reads every counter whole but not the
// set at one instant: laws between counters hold only after quiescence.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "runtime/config.hpp"

namespace bots::rt {

// Notes on the less obvious counters:
//   - tasks_degraded_inline: spawns run inline because no descriptor could
//     be obtained at all (pool and heap rungs failed); also counted in
//     tasks_cutoff_inlined so `created + range_splits == deferred +
//     if_inlined + cutoff_inlined` holds.
//   - tasks_discarded: deferred tasks retired without running their body
//     because the region was cancelled; under cancellation
//     `tasks_executed + tasks_discarded == tasks_deferred`.
//   - pool_home_frees / pool_remote_frees: descriptor frees that retired to
//     a pool on / off the descriptor's birth node (the node of the worker
//     that carved it). With use_node_pools on, remote frees are zero by
//     construction (the CI locality tripwire enforces it).
//   - pool_migrations: high-water mark of descriptors freed here and waiting
//     in a stash for the batched trip back to their owner. Aggregated by
//     max: the total is the worst single-worker backlog.
//   - deps_edges / edges_resolved: every created edge is resolved exactly
//     once, so after quiescence
//     `edges_resolved == deps_edges + sum(replays x graph edge count)`.
#define BOTS_RT_WORKER_COUNTERS(X)                                           \
  X(tasks_created, sum)           /* spawn / spawn_if calls seen */          \
  X(tasks_deferred, sum)          /* enqueued onto a deque */                \
  X(tasks_if_inlined, sum)        /* spawn_if with a false condition */      \
  X(tasks_cutoff_inlined, sum)    /* inlined by the runtime cut-off */       \
  X(tasks_inlined_fast, sum)      /* undeferred, no descriptor */            \
  X(range_tasks, sum)             /* spawn_range calls */                    \
  X(range_splits, sum)            /* range halves split off for thieves */   \
  X(range_halves_redirected, sum) /* halves mailed to an idle remote node */ \
  X(tasks_executed, sum)          /* deferred tasks run here */              \
  X(tasks_stolen, sum)            /* deferred tasks taken from others */     \
  X(steal_attempts, sum)          /* steal()/steal_batch() calls */          \
  X(steal_batches, sum)           /* successful steal_batch() raids */       \
  X(steals_local_node, sum)       /* successful raids on a same-node victim */ \
  X(steals_remote_node, sum)      /* successful raids across nodes */        \
  X(remote_probes_skipped, sum)   /* remote victims skipped: hint clear */   \
  X(hungry_rounds, sum)           /* fruitless full find_work rounds */      \
  X(pinned, sum)                  /* 1 when pinned to its node's cpuset */   \
  X(taskwaits, sum)                                                          \
  X(tsc_parked, sum)              /* local claims parked by the TSC */      \
  X(parked_claimed, sum)          /* parked tasks claimed back */            \
  X(acct_flushes, sum)            /* always 0; goes at benchmark upkeep */   \
  X(env_bytes, sum)               /* captured-environment bytes (Table II) */ \
  X(pool_reuse, sum)              /* allocations served by the freelist */   \
  X(pool_fresh, sum)              /* allocations carved from a chunk */      \
  X(pool_home_frees, sum)                                                    \
  X(pool_remote_frees, sum)                                                  \
  X(pool_migrations, max)                                                    \
  X(tasks_discarded, sum)                                                    \
  X(tasks_discarded_inline, sum)  /* inline bodies skipped: cancelled */     \
  X(pool_alloc_fallbacks, sum)    /* pool rung failed, heap rung used */     \
  X(tasks_degraded_inline, sum)                                              \
  X(faults_injected, sum)         /* FaultPlan faults observed here */       \
  X(tasks_retried, sum)           /* bodies re-run after a transient fault */ \
  X(server_requests, sum)         /* request root frames run here */         \
  X(deps_declared, sum)           /* depend() clause entries */              \
  X(deps_edges, sum)              /* edges created by the dynamic tracker */ \
  X(edges_resolved, sum)          /* edges resolved at predecessor finish */ \
  X(graphs_recorded, sum)         /* graph regions recorded and frozen */    \
  X(graphs_replayed, sum)         /* frozen graphs replayed */

namespace detail {
constexpr std::uint64_t aggregate_sum(std::uint64_t a,
                                      std::uint64_t b) noexcept {
  return a + b;
}
constexpr std::uint64_t aggregate_max(std::uint64_t a,
                                      std::uint64_t b) noexcept {
  return a > b ? a : b;
}
}  // namespace detail

/// Plain snapshot of the counters.
struct WorkerStats {
#define BOTS_RT_STATS_FIELD(name, agg) std::uint64_t name = 0;
  BOTS_RT_WORKER_COUNTERS(BOTS_RT_STATS_FIELD)
#undef BOTS_RT_STATS_FIELD

  WorkerStats& operator+=(const WorkerStats& o) noexcept {
#define BOTS_RT_STATS_AGGREGATE(name, agg) \
  name = detail::aggregate_##agg(name, o.name);
    BOTS_RT_WORKER_COUNTERS(BOTS_RT_STATS_AGGREGATE)
#undef BOTS_RT_STATS_AGGREGATE
    return *this;
  }
  bool operator==(const WorkerStats&) const = default;

  /// Calls f(name, value) for every counter, in list order.
  template <class F>
  void for_each(F&& f) const {
#define BOTS_RT_STATS_VISIT(name, agg) f(#name, name);
    BOTS_RT_WORKER_COUNTERS(BOTS_RT_STATS_VISIT)
#undef BOTS_RT_STATS_VISIT
  }
};

/// A counter with one writer and any number of readers. The writer bumps it
/// with a relaxed load then store, which costs what a plain increment does.
class WorkerCounter {
 public:
  WorkerCounter& operator+=(std::uint64_t d) noexcept {
    v_.store(v_.load(std::memory_order_relaxed) + d, std::memory_order_relaxed);
    return *this;
  }
  WorkerCounter& operator++() noexcept { return *this += 1; }
  WorkerCounter& operator=(std::uint64_t x) noexcept {
    v_.store(x, std::memory_order_relaxed);
    return *this;
  }
  operator std::uint64_t() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// The live counter block of one worker, on its own cache lines.
struct alignas(cache_line_bytes) WorkerCounters {
#define BOTS_RT_COUNTERS_FIELD(name, agg) WorkerCounter name;
  BOTS_RT_WORKER_COUNTERS(BOTS_RT_COUNTERS_FIELD)
#undef BOTS_RT_COUNTERS_FIELD

  [[nodiscard]] WorkerStats snapshot() const noexcept {
    WorkerStats s;
#define BOTS_RT_COUNTERS_READ(name, agg) s.name = name;
    BOTS_RT_WORKER_COUNTERS(BOTS_RT_COUNTERS_READ)
#undef BOTS_RT_COUNTERS_READ
    return s;
  }
  void reset() noexcept {
#define BOTS_RT_COUNTERS_ZERO(name, agg) name = 0;
    BOTS_RT_WORKER_COUNTERS(BOTS_RT_COUNTERS_ZERO)
#undef BOTS_RT_COUNTERS_ZERO
  }
};

struct StatsSnapshot {
  WorkerStats total;
  std::vector<WorkerStats> per_worker;

  /// Extends this window by a later one, worker by worker.
  StatsSnapshot& operator+=(const StatsSnapshot& o) {
    if (per_worker.size() < o.per_worker.size()) {
      per_worker.resize(o.per_worker.size());
    }
    for (std::size_t i = 0; i < o.per_worker.size(); ++i) {
      per_worker[i] += o.per_worker[i];
    }
    total += o.total;
    return *this;
  }
};

}  // namespace bots::rt
