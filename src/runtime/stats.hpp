// Per-worker scheduler statistics.
//
// Counters are single-writer (only the owning worker increments them), so
// they are plain integers padded to a cache line to avoid false sharing.
// Snapshots should be taken between parallel regions.
#pragma once

#include <cstdint>
#include <vector>

#include "runtime/config.hpp"

namespace bots::rt {

struct alignas(cache_line_bytes) WorkerStats {
  std::uint64_t tasks_created = 0;        ///< spawn / spawn_if calls seen
  std::uint64_t tasks_deferred = 0;       ///< enqueued onto a deque
  std::uint64_t tasks_if_inlined = 0;     ///< spawn_if with a false condition
  std::uint64_t tasks_cutoff_inlined = 0; ///< inlined by the runtime cut-off
  std::uint64_t tasks_inlined_fast = 0;   ///< undeferred on the zero-alloc path (no descriptor)
  std::uint64_t range_tasks = 0;          ///< spawn_range calls (one descriptor per range)
  std::uint64_t range_splits = 0;         ///< range halves split off for hungry thieves
  std::uint64_t range_halves_redirected = 0; ///< split halves mailed to an idle remote node (use_hint_placement)
  std::uint64_t tasks_executed = 0;       ///< deferred tasks run by this worker
  std::uint64_t tasks_stolen = 0;         ///< deferred tasks taken from another worker
  std::uint64_t steal_attempts = 0;       ///< deque.steal()/steal_batch() calls on victims
  std::uint64_t steal_batches = 0;        ///< successful steal_batch() raids
  std::uint64_t steals_local_node = 0;    ///< successful raids on a same-node victim
  std::uint64_t steals_remote_node = 0;   ///< successful raids across the interconnect
  std::uint64_t remote_probes_skipped = 0; ///< remote victims not probed: node's has-work hint was clear
  std::uint64_t pinned = 0;               ///< 1 when this worker is pinned to its node's cpuset (verified placement)
  std::uint64_t taskwaits = 0;
  std::uint64_t tsc_parked = 0;           ///< claims parked by the Task Scheduling Constraint
  std::uint64_t parked_claimed = 0;       ///< parked tasks this worker claimed back
  std::uint64_t acct_flushes = 0;         ///< batched live-task delta flushes
  std::uint64_t env_bytes = 0;            ///< captured-environment bytes (Table II)
  std::uint64_t pool_reuse = 0;           ///< descriptor allocations served by the freelist
  std::uint64_t pool_fresh = 0;           ///< descriptor allocations that hit the chunk allocator
  /// Descriptor frees that retired to a pool on the descriptor's BIRTH node
  /// (the node of the worker that carved it): straight onto the owner's
  /// freelist when the owner frees it, else stashed in transit to the owner
  /// (use_node_pools), or — knob off — into a same-node freer's pool.
  std::uint64_t pool_home_frees = 0;
  /// Descriptor frees that landed in a pool on a node OTHER than the birth
  /// node — the cross-socket memory drift owner-return exists to remove.
  /// With use_node_pools on this is zero by construction (the CI locality
  /// tripwire enforces it); with the knob off it counts every descriptor a
  /// cross-node thief recycled into its own freelist.
  std::uint64_t pool_remote_frees = 0;
  /// High-water mark of descriptors simultaneously parked in this worker's
  /// stashes, in transit to the owner (freed here, awaiting the batched
  /// splice onto the owner's return list). Aggregated by MAX, not sum: the
  /// snapshot total reports the worst single-worker in-transit backlog.
  std::uint64_t pool_migrations = 0;

  // -- fault-tolerance counters (PR 6) --------------------------------------

  /// Deferred tasks retired WITHOUT executing their body because the region
  /// was cancelled before they were dispatched. Under cancellation the
  /// executed-side invariant becomes
  /// `tasks_executed + tasks_discarded == tasks_deferred`.
  std::uint64_t tasks_discarded = 0;
  /// Undeferred/inline dispatches skipped because the region was already
  /// cancelled (no descriptor was retired; the closure simply never ran).
  std::uint64_t tasks_discarded_inline = 0;
  /// Descriptor allocations that fell back to a plain per-descriptor heap
  /// allocation because the pool rung failed (real or injected
  /// bad_alloc).
  std::uint64_t pool_alloc_fallbacks = 0;
  /// Spawns degraded to serial inline execution because no descriptor could
  /// be obtained at all (both pool and heap rungs failed). Also counted in
  /// tasks_cutoff_inlined so the creation-side invariant
  /// `created + range_splits == deferred + if_inlined + cutoff_inlined`
  /// is undisturbed.
  std::uint64_t tasks_degraded_inline = 0;
  /// Faults this worker observed from the active FaultPlan (all sites).
  std::uint64_t faults_injected = 0;
  /// Deferred bodies re-executed after an injected transient task_body
  /// fault (OMPC-style task re-execution: the body still runs exactly once).
  std::uint64_t tasks_retried = 0;

  // -- server-mode counters (PR 7) ------------------------------------------

  /// Request root frames this worker ran (Scheduler::run_ctx_root calls by
  /// the TaskServer worker loop) — includes requests whose body was skipped
  /// because their context was already cancelled at pickup.
  std::uint64_t server_requests = 0;

  // -- dependency/taskgraph counters (PR 8) ---------------------------------

  /// depend() clauses declared at spawn_dep sites (one per in/out/inout
  /// entry, whether or not it produced an edge).
  std::uint64_t deps_declared = 0;
  /// Dependence edges created by the dynamic tracker at spawn (one pending
  /// increment each). Conservation: every created edge is resolved exactly
  /// once, so after quiescence
  /// `edges_resolved == deps_edges + Σ(replays × graph edge count)`.
  std::uint64_t deps_edges = 0;
  /// Dependence edges resolved at predecessor finish (counted by the worker
  /// that retired the predecessor — dynamic and replayed edges both).
  std::uint64_t edges_resolved = 0;
  /// Graph regions recorded + frozen by this worker (first invocation, or a
  /// re-record after invalidation by reconfigure()/team shrink).
  std::uint64_t graphs_recorded = 0;
  /// Frozen graphs replayed by this worker (each replay dispatches every
  /// node of the graph exactly once).
  std::uint64_t graphs_replayed = 0;

  WorkerStats& operator+=(const WorkerStats& o) noexcept {
    tasks_created += o.tasks_created;
    tasks_deferred += o.tasks_deferred;
    tasks_if_inlined += o.tasks_if_inlined;
    tasks_cutoff_inlined += o.tasks_cutoff_inlined;
    tasks_inlined_fast += o.tasks_inlined_fast;
    range_tasks += o.range_tasks;
    range_splits += o.range_splits;
    range_halves_redirected += o.range_halves_redirected;
    tasks_executed += o.tasks_executed;
    tasks_stolen += o.tasks_stolen;
    steal_attempts += o.steal_attempts;
    steal_batches += o.steal_batches;
    steals_local_node += o.steals_local_node;
    steals_remote_node += o.steals_remote_node;
    remote_probes_skipped += o.remote_probes_skipped;
    pinned += o.pinned;
    taskwaits += o.taskwaits;
    tsc_parked += o.tsc_parked;
    parked_claimed += o.parked_claimed;
    acct_flushes += o.acct_flushes;
    env_bytes += o.env_bytes;
    pool_reuse += o.pool_reuse;
    pool_fresh += o.pool_fresh;
    pool_home_frees += o.pool_home_frees;
    pool_remote_frees += o.pool_remote_frees;
    tasks_discarded += o.tasks_discarded;
    tasks_discarded_inline += o.tasks_discarded_inline;
    pool_alloc_fallbacks += o.pool_alloc_fallbacks;
    tasks_degraded_inline += o.tasks_degraded_inline;
    faults_injected += o.faults_injected;
    tasks_retried += o.tasks_retried;
    server_requests += o.server_requests;
    deps_declared += o.deps_declared;
    deps_edges += o.deps_edges;
    edges_resolved += o.edges_resolved;
    graphs_recorded += o.graphs_recorded;
    graphs_replayed += o.graphs_replayed;
    // High-water mark, not a flow: the aggregate is the worst per-worker
    // in-transit backlog, which is what bounds stash memory.
    pool_migrations = pool_migrations > o.pool_migrations ? pool_migrations
                                                          : o.pool_migrations;
    return *this;
  }
};

struct StatsSnapshot {
  WorkerStats total;
  std::vector<WorkerStats> per_worker;
};

}  // namespace bots::rt
