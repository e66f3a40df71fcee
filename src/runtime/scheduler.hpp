// Work-stealing task scheduler reproducing the OpenMP 3.0 tasking execution
// model that BOTS (ICPP'09) evaluates.
//
// Execution model
// ---------------
// * A Scheduler owns a persistent team of workers (the calling thread is
//   worker 0; the rest are std::jthreads parked on a condition variable
//   between parallel regions — Core Guidelines CP.41/CP.42).
// * run_single(fn) opens a parallel region where worker 0 executes fn (the
//   "single generator" pattern of the paper); everybody else goes straight
//   to the region barrier and helps by stealing.
// * run_all(fn) executes fn(worker_id) on every worker (the "multiple
//   generators" pattern); rt::barrier() is available inside for phased
//   algorithms such as SparseLU's `for` version.
// * Tasks run to completion; the only task scheduling points are spawn
//   (through the cut-off), taskwait and barriers, where the waiting worker
//   executes other ready tasks ("help first"). Suspended tasks never migrate,
//   matching the icc 11.0 behaviour reported in Section IV-C of the paper.
// * Every claim obeys the Task Scheduling Constraint: while a tied task is
//   suspended at a wait on a worker, only its descendants may begin
//   execution there — untied ones included, because a task started on top
//   of a wait cannot move off it. A wait inside an untied task constrains
//   nothing. A raid checks the constraint before it claims a task and leaves
//   a task it may not run where it is; a task the constraint refuses from
//   the worker's own queue or a mailbox is parked and re-offered later.
// * Regions end with a quiescence barrier: every explicit task created in
//   the region has completed when run_* returns (the OpenMP guarantee that
//   barriers complete all outstanding explicit tasks). A nested region and
//   a TaskServer request end the same way: when run_* or run_ctx_root
//   returns, every task created inside them, at any depth, has completed.
//
// Fast-path design (the BOTS overhead knobs this repo exists to measure)
// ----------------------------------------------------------------------
// * Quiescence from the task tree: the region barrier counts nothing per
//   task. Every live task holds a reference on its parent from spawn until
//   its descriptor is disposed, so every live task hangs by a reference
//   chain from some worker's implicit root frame (Scheduler::roots_). Once
//   every implicit task has arrived, the last arriver opens the barrier when
//   every root reads exclusive() — state word exactly ref_one: no child, no
//   reference but its own. The test is exact, and stable: only a root's own
//   implicit task adds to an exclusive root (any other charger already holds
//   a reference on it), and after arrival that task runs no body of its own.
//   Nested regions and server requests end by the same rule on a frame of
//   their own (Scheduler::run_scope): the scope's body runs on a stack frame
//   linked under w.current, and the scope ends when that frame reads
//   exclusive() — stable for the same reason, since only the body charges
//   the frame directly. Every wait — taskwait, barrier, scope join — helps
//   through one idle loop (Scheduler::help_until). taskwait waits on the
//   same per-parent words, one level down.
// * Counting cut-offs read the spawner's own queue: max_tasks defers a
//   spawn while the worker's LIFO slot and deque together hold fewer than
//   its share of the bound (Scheduler::resolve_cutoff_bound),
//   and adaptive puts its hysteresis on the same count — the per-thread
//   ready-queue throttle of the Intel/LLVM runtime. Nothing is counted per
//   spawn or finish, and the deque answers from its private copy of `top`
//   until the share is reached.
// * LIFO slot: the newest spawned task waits in a private one-entry slot
//   (Worker::slot) instead of the deque, so the hottest pop of depth-first
//   recursion costs two plain stores instead of a seq_cst-fenced deque pop.
//   find_work drains the slot before the worker steals or reports no work,
//   so a task can hide there only while its owner is between scheduling
//   points — liveness and quiescence arguments see it like any queued task.
// * Batched stealing: a raid claims the victim's oldest task only if the
//   thief may run it — the constraint is checked on the task before the
//   claiming CAS, and a refused task stays queued — and then the run of its
//   siblings behind it, up to half the victim's deque (deque.hpp explains
//   why it is one CAS *per task* but one cacheline transfer per raid). The
//   thief returns the oldest task and pushes the surplus onto its own deque,
//   where its own children land on top of it and other thieves can steal
//   it. Siblings of an allowed task are allowed too, so constrained thieves
//   batch like the rest. Flood tasks, range halves and replayed graph nodes
//   are siblings and batch in full; a recursive spawn tree queues one task
//   per level, so its raids take one subtree each instead of several that
//   the thief could only run one at a time once the first one waits. The
//   look before the CAS may read a task, and the chain above it, that is
//   claimed and finished meanwhile. Pooled descriptors stay allocated
//   while the scheduler lives; everything else a chain can pass through is
//   released only after Scheduler::await_raids has waited out the raid
//   rounds running at that moment — heap descriptors a batch at a time
//   (retire_heap), a scope frame when run_scope returns, the region's root
//   frames at its end barrier, and a TaskGraph's nodes when it re-records
//   or dies. Each round marks itself in a per-worker raid_seq, odd while
//   it runs. A worker also remembers the last victim a steal succeeded
//   from and tries it first (steals come in bursts from loaded workers).
// * Policy layer: victim selection ORDER, steal-batch sizing and the
//   range-split demand check are not decided here — steal_work probes the
//   victims its StealPolicy (steal_policy.hpp) lists, with the batch cap the
//   policy returns per victim, and RangeRunner asks the policy whether to
//   split. The hierarchical policy consults the Topology (topology.hpp) to
//   prefer same-node victims and to shrink cross-node batches, and skips
//   remote nodes whose NodeHints has-work word is clear (published by
//   enqueue/steal-surplus, cleared on observed node-wide dryness, with a
//   backoff round bounding staleness). With cfg.pin_workers each worker
//   pins itself to its node's cpuset at region entry (affinity.hpp), so
//   the topology map matches what the OS schedules; spawn_range grain is
//   retuned at runtime per spawn site by the GrainTable (grain.hpp) when
//   use_adaptive_grain is on, resetting to the seeded base at region start.
//   The scheduler core only executes decisions.
// * Generator-side cache lines: a task that keeps spawning pre-charges its
//   own state word with SpawnCharge::batch child slots in one RMW instead of
//   one RMW per spawn (settled at every taskwait, barrier, scope join and
//   body end), and the deque's push checks fullness against an
//   owner-private copy of `top`. Thieves RMW `top` on every steal, so
//   per-spawn accesses to it were per-spawn cache misses. Nor does a thief
//   RMW the parent's state word on every finish: the completions of pooled
//   tasks whose parent it is not running, and of replayed graph nodes,
//   fold into one RMW per parent (Worker::fold_parent: at most
//   Worker::fold_batch, paid before the thief runs another parent's task,
//   raids, or leaves a wait). And the generator's descriptors come back in
//   batches that carry their addresses, so its reuse prefetches the lines
//   thieves last wrote instead of missing on them one after another
//   (TaskPool::reuse).
// * Zero-alloc undeferred execution: when spawn_if's condition is false or
//   the cut-off refuses deferral, the closure runs directly on the parent's
//   frame with no descriptor at all (detail::run_inline_fast): depth is
//   tracked in Worker::inline_depth, and an inlined tied task makes its
//   parent the worker's tsc_top so the TSC stays enforced across it.
//   Children spawned inside the body are adopted by the nearest
//   descriptor-carrying ancestor, which makes every join conservative (a
//   superset wait), never weaker. Knob: use_inline_fast_path.
// * Range tasks: spawn_range (worksharing.hpp) publishes one descriptor per
//   iteration range; the executor peels grain-sized chunks and splits the
//   upper half into a sibling descriptor whenever its local queue is empty —
//   the state a steal leaves behind, so splits chase demand (a thief's first
//   check always splits). enqueue routes range tasks past the private LIFO
//   slot so a freshly published half is immediately stealable. Knob:
//   use_range_tasks (consumed by the loop-style kernels).
// * Owner-return descriptor memory (use_node_pools, every topology): each
//   descriptor is carved — and first-touched — by one worker's TaskPool and
//   records that worker as its owner. A descriptor finishing on any other
//   worker is stashed per owner (RemoteStash, an array of addresses) and
//   handed back onto the owner's lock-free return list 16 at a time, never
//   into the thief's pool; a batch's addresses travel in its first
//   descriptor, so the owner prefetches the descriptors it reuses.
//   Pools therefore stay bounded by peak live descriptors even when one
//   worker generates and others execute, and descriptor memory never
//   migrates across the interconnect (pool_home_frees / pool_remote_frees /
//   pool_migrations count it; remote frees are zero by construction with
//   the knob on).
// * Hint-aware range placement (use_hint_placement): when a range splitter
//   sits on a node whose has-work word is set (local surplus) while a
//   remote node's word is clear (provably hungry), the split-off upper half
//   is mailed to that node's RangeMailbox — consulted by find_work right
//   after the local phase — instead of enqueued on the splitter's deque, so
//   the idle node stops paying cross-node steal latency for work the busy
//   node already knows it cannot drain. An idle-path sweep of all
//   mailboxes keeps a mailed half from ever stranding.
// * TSC parking: a task the constraint refuses from the worker's own LIFO
//   slot, its own deque or a range mailbox is pushed onto the worker's
//   lock-free parked inbox (a Treiber stack); a raid never parks, since it
//   claims only allowed tasks. Idle workers drain whole inboxes with one
//   exchange(nullptr) — MPSC-style handoff — keep the first eligible task
//   and republish the rest onto their own inbox. Progress: a parked task
//   always sits in exactly one inbox except while a drainer transiently
//   holds it, and the drainer either executes it or immediately republishes
//   it; every find_work round scans all inboxes, so any worker the
//   constraint permits finds a parked task on its next idle round. Every
//   task a worker starts descends from its suspended tied top, so a worker
//   waiting inside task P, tied or untied, may claim any pending descendant
//   of P: the waited-on subtree is always claimable by the waiter itself
//   (Scheduler::tsc_allows states why waits then cannot cycle, and why a
//   raid may leave refused tasks queued).
//
// Exceptions: a DEFERRED task's exception is captured into the region and
// the first one is rethrown to the caller of run_single/run_all after the
// region completes. By default there is no cancellation — remaining tasks
// still execute (OpenMP has no cross-thread propagation to mimic); with
// cfg.cancel_on_exception the first captured exception also cancels the
// region cooperatively (below). An UNDEFERRED task — spawn_if(false), a
// cut-off-refused spawn, with or without the zero-alloc inline path — runs
// synchronously on the encountering thread, so its exception propagates
// from the spawn call itself like any function call (the OpenMP-faithful
// semantics: the construct is sequenced in the parent), after the worker's
// bookkeeping is unwound and any descriptor retired. Uncaught, it unwinds
// into the enclosing task body and from there follows the deferred rules.
//
// Cancellation (PR 6, OpenMP `cancel taskgroup` style): Region::cancel sets
// a sticky cancel word that every dispatch boundary consults — a deferred
// task dequeued after the cancel is DISCARDED (its environment destroyed
// and its descriptor retired through the normal finish path, never
// executing the body; counted in WorkerStats::tasks_discarded), undeferred
// and zero-alloc inline dispatches are skipped (tasks_discarded_inline),
// and RangeRunner stops peeling chunks at its next grain boundary. Already
// RUNNING bodies are never interrupted — they observe the cancel only at
// rt::cancellation_point() or their next spawn — so cancellation latency is
// bounded by the longest grain/body, and the quiescence barrier still sees
// every descriptor retired: all pool/accounting invariants hold on the
// cancelled path (with tasks_executed + tasks_discarded == tasks_deferred
// replacing executed == deferred). Triggers: rt::cancel_region() from any
// task body, Scheduler::cancel_current_region() from outside, a region
// deadline expiring (run_single/run_all overloads taking a
// std::chrono::milliseconds budget report RegionStatus::deadline_exceeded),
// the stall watchdog with cfg.watchdog_cancel, or the first captured task
// exception with cfg.cancel_on_exception. The monitor thread (deadline +
// watchdog) samples per-worker progress counters only.
//
// Degradation ladder: descriptor allocation falls from the pool
// rung to a plain per-descriptor heap rung
// (pool_alloc_fallbacks) to serial inline execution on the spawner's frame
// (tasks_degraded_inline) instead of aborting; a worker thread that cannot
// be spawned at construction shrinks the team and re-maps the topology
// (Scheduler::team_degraded). Fault sites for all three rungs can be
// exercised deterministically via cfg.fault_plan / RT_FAULT_PLAN
// (fault.hpp).
#pragma once

#include <atomic>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <stop_token>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "runtime/config.hpp"
#include "runtime/deque.hpp"
#include "runtime/fault.hpp"
#include "runtime/grain.hpp"
#include "runtime/region_ctx.hpp"
#include "runtime/stats.hpp"
#include "runtime/steal_policy.hpp"
#include "runtime/task.hpp"
#include "runtime/topology.hpp"
#include "runtime/trace.hpp"

namespace bots::rt {

class Scheduler;
class TaskGraph;  // taskgraph.hpp: recorded graphs, registered per tag below

// RegionStatus and the per-request RegionCtx live in region_ctx.hpp: the
// cancel word / deadline / ledger / watchdog state of PR 6 is now attachable
// per REQUEST (server mode) as well as per region. Dispatch boundaries below
// consult BOTH: the region's word (whole-region cancel, the PR 6 semantics)
// and the dispatched task's ctx word (per-request cancel, null and free in
// ordinary regions).

/// Outcome of a deadline-taking run_single/run_all overload: how the region
/// ended plus the team's cumulative statistics at region end.
struct RegionResult {
  RegionStatus status = RegionStatus::completed;
  StatsSnapshot stats;
};

/// Per-region shared state. One Region is live per Scheduler at a time.
struct Region {
  explicit Region(unsigned team) : team_size(team) {}

  std::atomic<std::uint32_t> arrived{0};     ///< barrier arrival count
  std::atomic<std::uint32_t> barrier_gen{0}; ///< barrier generation (reusable)
  std::atomic<bool> has_exception{false};
  std::exception_ptr first_exception;
  std::mutex exception_mutex;
  /// Approximate number of TSC-refused tasks currently parked (either in
  /// per-worker inboxes or the fallback overflow vector). Lets find_work
  /// skip the inbox scan with a single load in the common no-parking case.
  std::atomic<std::size_t> parked_count{0};
  /// Claimed tasks refused by the Task Scheduling Constraint, fallback path
  /// (SchedulerConfig::distributed_parking == false). They must stay
  /// globally visible: the ancestor whose taskwait depends on such a task is
  /// always allowed to run it (it is a descendant of that ancestor), so
  /// progress is guaranteed; invisible worker-private parking could deadlock
  /// instead. The default path parks on per-worker lock-free inboxes
  /// (Worker::parked_inbox) that every worker's find_work scans.
  std::mutex overflow_mutex;
  std::vector<Task*> overflow;
  const std::function<void()>* single_fn = nullptr;
  const std::function<void(unsigned)>* all_fn = nullptr;
  unsigned team_size;

  /// Sticky cancel word: 0 while the region is healthy, otherwise the
  /// RegionStatus of the FIRST cancel cause (first CAS wins). A fresh
  /// Region object is built for every run_single/run_all, so a cancel can
  /// never leak into the next region by construction.
  std::atomic<std::uint8_t> cancel_state{0};
  /// Mirror of SchedulerConfig::cancel_on_exception for this region, set by
  /// run_region before publication (store_exception consults it).
  bool cancel_on_exception = false;

  /// Request cooperative cancellation with `why` as the recorded cause.
  /// Idempotent and thread-safe; callable from any thread, including
  /// non-team threads (the monitor, an external controller).
  void cancel(RegionStatus why) noexcept {
    std::uint8_t expected = 0;
    cancel_state.compare_exchange_strong(expected,
                                         static_cast<std::uint8_t>(why),
                                         std::memory_order_relaxed);
  }
  [[nodiscard]] bool cancelled() const noexcept {
    return cancel_state.load(std::memory_order_relaxed) != 0;
  }
  [[nodiscard]] RegionStatus status() const noexcept {
    return static_cast<RegionStatus>(
        cancel_state.load(std::memory_order_relaxed));
  }

  void store_exception() noexcept;
};

/// One immutable generation of every live-swappable scheduling-decision
/// input: the steal/placement policy, the NodeHints it consults (lifetime
/// owned HERE, not by the scheduler, so a hot swap retires hints and policy
/// together), the grain-table view, and the watchdog tunables. Published by
/// the Scheduler via an RCU-style pointer swap (Scheduler::snap_) and
/// protected by per-worker epoch slots: a worker pins the current snapshot
/// at the top of every find_work round and at every range-chunk boundary
/// (Scheduler::pin_snapshot — one seq_cst load + a pointer compare in the
/// steady state, no lock anywhere), and reconfigure_live() retires the old
/// generation only after every worker's slot has advanced past it or gone
/// quiescent. Everything in here is immutable after publication except the
/// interior atomics (hint words, grain estimates) — workers on the previous
/// generation may act on stale ADVICE for at most one pin interval, which
/// is safe: no conservation law depends on which policy routed a task.
///
/// NOT in the snapshot, deliberately: Topology, the mailbox array and the
/// team itself. Worker node ids cannot change while descriptors are in
/// flight, so topology swaps stay between-regions only — reconfigure_live()
/// takes no topology parameter (the boundary is in the type system, not a
/// runtime throw; use reconfigure() between regions for those).
struct PolicySnapshot {
  /// Generation number, 1-based, strictly increasing; mirrors
  /// Scheduler::snap_version_ at publication time.
  std::uint64_t version = 0;
  /// The resolved policy kind this generation was built for (never legacy).
  StealPolicyKind kind = StealPolicyKind::last_victim;
  /// Hints consulted by `policy`; null when nothing would ever read them
  /// (non-hierarchical kind, single-node topology, or knob off). Owned by
  /// the snapshot so a swap away from hierarchical cannot leave the old
  /// policy reading freed words.
  std::unique_ptr<NodeHints> hints;
  /// The policy itself. References the Scheduler's Topology (stable for the
  /// snapshot's whole lifetime: topology swaps destroy every snapshot
  /// between regions first) and `hints` above.
  std::unique_ptr<StealPolicy> policy;
  /// Adaptive-grain view for this generation. Points at the scheduler's
  /// GrainTable — grain state is all interior atomics, so a live retune
  /// writes into the live generation (CAS/exchange in grain.hpp) rather
  /// than copying the table per snapshot.
  GrainTable* grain = nullptr;
  /// Watchdog tunables: the per-region monitor re-reads these every poll,
  /// so reconfigure_live can tighten or relax stall detection without
  /// restarting the region.
  std::uint32_t watchdog_ms = 0;
  bool watchdog_cancel = false;
};

/// Pre-charged spawn slots of the task a worker is running (Worker::charge).
/// The first spawns after a settle point charge the parent one child and
/// one reference each, so spawn-one-wait-one code (fib, a taskwait per
/// spawn) pays exactly one RMW per spawn as before. From the
/// first_batched-th spawn on, one RMW charges `batch` slots and the next
/// spawns take them for free: a generator loop touches its own state word —
/// which every thief finishing one of its children RMWs too — once per
/// batch instead of once per spawn. Unused slots go back (Task::
/// return_slots) and the count resets at every settle point: taskwait,
/// barrier, before a scope frame's join, and when the task's body ends.
struct SpawnCharge {
  static constexpr std::uint32_t batch = 16;
  static constexpr std::uint32_t first_batched = 3;
  std::uint32_t slots = 0;   ///< charged on the running task, not handed out
  std::uint32_t spawns = 0;  ///< its spawns since its last settle point
};

/// Internal per-worker state. Public members: this type is an implementation
/// detail shared between the scheduler core and the inline spawn fast path.
class Worker {
 public:
  Worker(Scheduler* s, unsigned worker_id, std::uint64_t seed)
      : id(worker_id), sched(s), rng_state(seed | 1u) {}

  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  std::uint64_t rng_next() noexcept {  // xorshift64*
    std::uint64_t x = rng_state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    rng_state = x;
    return x * 0x2545F4914F6CDD1DULL;
  }

  static constexpr unsigned no_victim = ~0u;

  unsigned id;
  Scheduler* sched;
  Region* region = nullptr;
  Task* current = nullptr;
  WorkStealingDeque deque;
  TaskPool pool;
  /// This worker's counters: written only here, readable from any thread.
  WorkerCounters stats;
  /// Event-trace ring for this worker (trace.hpp), or nullptr when tracing
  /// is knob-off — every event site checks this one pointer, so the off
  /// cost is a single predictable branch. Owned by the Scheduler's
  /// TraceCollector; wired at construction and after team shrink.
  TraceRing* ring = nullptr;
  /// Descriptors freed here but owned by another worker, one stash per
  /// owner, indexed by worker id (the own slot stays unused; see the
  /// TaskPool/RemoteStash notes in task.hpp). Used under cfg.use_node_pools;
  /// sized by the Scheduler constructor.
  std::vector<RemoteStash> returns;
  /// Descriptors currently parked across all of `returns` (drives the
  /// pool_migrations high-water stat).
  std::size_t stash_in_transit = 0;
  /// Heap descriptors (TaskStorage::heap) this worker freed but has not
  /// deleted yet, chained through Task::pool_next. A raid reads descriptors
  /// it has not claimed (WorkStealingDeque::steal_batch), so they are deleted
  /// a batch at a time, once the raids that may still reach them have ended
  /// (Scheduler::retire_heap). Pooled descriptors need none of this: their
  /// memory is never released while the scheduler lives.
  struct HeapLimbo {
    static constexpr std::uint32_t batch = 64;
    Task* retired = nullptr;
    std::uint32_t count = 0;

    HeapLimbo() = default;
    HeapLimbo(const HeapLimbo&) = delete;
    HeapLimbo& operator=(const HeapLimbo&) = delete;
    ~HeapLimbo() { delete_chain(retired); }
    static void delete_chain(Task* t) noexcept {
      while (t != nullptr) {
        Task* next = t->pool_next;
        delete t;
        t = next;
      }
    }
  };
  HeapLimbo heap_limbo;
  /// Innermost tied task suspended at a wait on this worker, or nullptr:
  /// every claim must descend from it (Scheduler::tsc_allows). Every task
  /// started here obeyed that rule, so the tied tasks suspended below it
  /// are its ancestors and it alone states the constraint.
  Task* tsc_top = nullptr;
  /// Suspend tied task `t` at a scheduling point (a taskwait, a scope's
  /// join, an inlined tied body): claims must now descend from it. Returns
  /// the previous top, which the waiter hands back to resume_tied.
  Task* suspend_tied(Task* t) noexcept {
    assert((tsc_top == nullptr || t->is_descendant_of(*tsc_top)) &&
           "a suspended tied task does not descend from the one below it");
    Task* const prev = tsc_top;
    tsc_top = t;
    parked_recheck = true;
    return prev;
  }
  void resume_tied(Task* prev) noexcept {
    tsc_top = prev;
    parked_recheck = true;  // the constraint relaxed: parked may be eligible
  }
  /// Number of zero-alloc inlined task bodies currently live on this
  /// worker's stack (SchedulerConfig::use_inline_fast_path). Such tasks
  /// have no descriptor, so Worker::current skips them; adding this to the
  /// depth computed from `current` keeps task depths — and with them the
  /// max_depth cut-off and the is_descendant_of depth walk — exact.
  std::uint32_t inline_depth = 0;
  bool throttled = false;         ///< adaptive cut-off hysteresis state
  std::uint64_t rng_state;
  /// Locality domain this worker lives on (Topology::node_of(id), cached
  /// by the Scheduler constructor and refreshed by reconfigure()).
  /// Classifies steals as local/remote and addresses the NodeHints word
  /// published on enqueue.
  unsigned node = 0;
  /// Consecutive hint-gated steal-planning rounds (hierarchical policy
  /// only): reaching HierarchicalPolicy::hint_backoff_rounds forces the
  /// next round to probe every remote node unconditionally, bounding how
  /// long a stale clear hint can hide remote work from this worker.
  std::uint32_t gated_rounds = 0;
  /// Pin generation this worker last applied (see Scheduler::apply_pinning;
  /// 0 = never pinned). Lets reconfigure() trigger a re-pin lazily at the
  /// next region entry, on the worker's own thread.
  std::uint32_t pin_seen = 0;
  /// Whether the last pin attempt stuck AND the observed placement landed
  /// inside the requested cpuset. Mirrored into stats.pinned every region.
  bool pin_applied = false;
  /// This worker thread's mask before its FIRST pin (worker threads never
  /// change OS thread). A later FAILED re-pin — e.g. reconfigure() onto a
  /// topology whose cpuset this machine lacks — falls back to it, so an
  /// "unpinned" report never hides a stale hard pin to an old cpuset.
  bool prepin_saved = false;
  std::vector<unsigned> prepin_affinity;
  /// Scratch for StealPolicy::victim_order (sized to the team by the
  /// Scheduler constructor) — one allocation per worker, none per steal.
  std::vector<unsigned> victim_buf;

  // -- spawn/steal fast-path state (region-scoped, reset on region entry) --
  /// Spawn slots of `current` (see SpawnCharge), so they always belong to
  /// the task now running here: saved and cleared when an undeferred child
  /// or a request/nested-region frame takes over `current`, restored when
  /// it returns. Deferred tasks start only at settle points, where it is
  /// already empty.
  SpawnCharge charge;
  /// Folded completions: `fold_count` finished tasks — replayed graph
  /// nodes, and pooled tasks of a parent this worker is not running (a
  /// thief's, such as a flood's siblings) — whose
  /// child+reference announcement to `fold_parent` is still owed. One RMW
  /// pays them all (Scheduler::flush_fold), on the first of: a full
  /// fold_batch; the fold of another parent's task; execute_deferred of
  /// another parent's task; the start of a raid in find_work (so also
  /// before help_one reports no work); the end of every wait (taskwait,
  /// scope join, barrier); run_ctx_root.
  static constexpr std::uint32_t fold_batch = 32;
  Task* fold_parent = nullptr;
  std::uint32_t fold_count = 0;
  /// Re-examine the own parked inbox on the next claim_parked. Eligibility
  /// of a parked task against THIS worker only changes when the worker's
  /// tsc_top changes, so between changes the own-inbox scan is skipped
  /// (other workers always scan it; fresh refusals were just checked).
  bool parked_recheck = true;
  unsigned last_victim = no_victim;  ///< steal affinity hint
  /// Newest spawned task (SchedulerConfig::lifo_slot): the next pop takes it
  /// with two plain stores instead of a fenced deque pop. Invisible to
  /// thieves only until this worker's next scheduling point — find_work
  /// drains it before it steals or reports no work.
  Task* slot = nullptr;
  /// Whether this worker's own queue — LIFO slot and deque — holds fewer
  /// than `n` tasks: the one input of the counting cut-offs, and at n = 1
  /// the range executor's split demand. Owner-only.
  bool queued_fewer_than(std::int64_t n) noexcept {
    if (slot != nullptr) --n;
    return n > 0 && deque.holds_fewer_than(n);
  }

  // -- policy snapshot pin (live reconfiguration, PR 9) ---------------------
  /// The PolicySnapshot generation this worker is currently acting on.
  /// Plain pointer: only this worker reads or writes it, and the object it
  /// names cannot be retired while snap_epoch (below) holds its version.
  /// Null between regions (region exit clears it so a retired pointer can
  /// never be revalidated by address reuse).
  PolicySnapshot* snap = nullptr;

  /// TSC-refused tasks parked by THIS worker (its own refusals plus tasks it
  /// drained from other inboxes but could not run). Pushed with a CAS loop,
  /// drained wholesale by any worker with one exchange(nullptr); chained
  /// through Task::pool_next. Padded so thieves' drains do not bounce the
  /// owner's hot state.
  alignas(cache_line_bytes) std::atomic<Task*> parked_inbox{nullptr};

  /// Odd while this worker is inside a raid round (Scheduler::steal_work):
  /// the window in which it may read descriptors it has not claimed. Own
  /// cache line: written twice per round, read only by await_raids.
  alignas(cache_line_bytes) std::atomic<std::uint64_t> raid_seq{0};

  /// Epoch slot for the RCU snapshot protocol: 0 = quiescent (between
  /// regions), otherwise the snapshot version this worker has pinned.
  /// reconfigure_live() retires a generation only once every slot is 0 or
  /// past it. Own cache line: the swapper's quiescence scan must not bounce
  /// the worker's hot state, exactly like the watchdog's progress polling.
  alignas(cache_line_bytes) std::atomic<std::uint64_t> snap_epoch{0};

  /// Monotone progress counter sampled by the stall watchdog: bumped on
  /// every deferred-task dispatch (execute or discard) and every range
  /// chunk peeled. Single-writer, like the counter block. Own cache line
  /// so the monitor's polling never bounces the worker's hot state.
  alignas(cache_line_bytes) WorkerCounter progress;
  void note_progress() noexcept { ++progress; }
};

namespace detail {
inline thread_local Worker* tls_worker = nullptr;
/// One-shot stderr warning for last_region_status() called under a live
/// region (defined in scheduler.cpp; out of line so the header accessor
/// stays tiny).
void warn_last_region_status_race() noexcept;
}

// Declared in steal_policy.hpp (Worker was incomplete there); defined here
// so the range hot loop's once-per-grain-chunk call inlines to a few loads.
inline bool StealPolicy::should_split_range(Worker& w) const noexcept {
  // Local queue dry == a steal (or this worker's own drain) just emptied
  // it: somebody is hungry. A thief's first check after stealing a lone
  // range always passes — its queue was empty, that is why it stole.
  return w.queued_fewer_than(1);
}

class Scheduler {
 public:
  explicit Scheduler(SchedulerConfig cfg = {});
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Parallel region, single generator: fn runs once on worker 0, the other
  /// workers help through work stealing until every task has completed.
  /// Applies cfg.region_deadline_ms as the deadline (0 = none); how the
  /// region ended is retrievable via last_region_status().
  void run_single(const std::function<void()>& fn);

  /// Parallel region, one implicit task per worker: fn(worker_id) runs on
  /// every worker. rt::barrier() may be used inside. Deadline semantics as
  /// run_single.
  void run_all(const std::function<void(unsigned)>& fn);

  /// Deadline-bounded region: like run_single, but the region is
  /// cooperatively cancelled once `deadline` elapses — running bodies
  /// finish, every not-yet-started task is discarded — and the outcome is
  /// reported instead of needing a separate stats() call. A zero deadline
  /// means no deadline (cfg.region_deadline_ms still applies). Exceptions
  /// from task bodies rethrow exactly as the void overload.
  RegionResult run_single(const std::function<void()>& fn,
                          std::chrono::milliseconds deadline);

  /// Deadline-bounded run_all; semantics as the run_single overload.
  RegionResult run_all(const std::function<void(unsigned)>& fn,
                       std::chrono::milliseconds deadline);

  /// Resident region for server mode (TaskServer, server.hpp): run_all
  /// semantics — fn(worker_id) on every worker — but with NO deadline and NO
  /// monitor thread, whatever cfg says: the region is meant to stay up for
  /// the server's lifetime (cfg.region_deadline_ms would kill it;
  /// cfg.watchdog_ms would report idle workers, which are the resident
  /// steady state, as stalls). Per-REQUEST deadlines and stall detection are
  /// the server's own monitor's job, over the live RegionCtx set. Returns
  /// how the region ended (cancelled = someone hard-stopped the server via
  /// cancel_current_region).
  RegionStatus run_persistent(const std::function<void(unsigned)>& fn);

  /// Run `body` as the ROOT of request context `ctx` on the CALLING worker
  /// (must be a team worker inside a region — the server worker loop). The
  /// root frame is UNTIED, so while this worker waits in the request's
  /// join it may execute any other request's tasks (no cross-request
  /// convoying); every task spawned inside inherits `ctx` and with it
  /// per-request cancellation, ledgers and fault isolation. Exceptions from
  /// the body or any descendant are captured into `ctx` (cancelling it),
  /// never rethrown and never stored into the resident region. Returns when
  /// the request's frame reads exclusive: the body and every descendant
  /// task have finished or been discarded, and no worker touches `ctx` on
  /// their behalf again, so the caller may finalize and release it.
  void run_ctx_root(RegionCtx& ctx, const std::function<void()>& body);

  /// Execute at most one ready task on the calling team worker (server
  /// worker loop idle path: help drain other requests while this worker has
  /// no root of its own to run). False when no work was found anywhere —
  /// the caller should back off briefly.
  bool help_one();

  /// How the most recent COMPLETED region ended (RegionStatus::completed
  /// before any region has run).
  ///
  /// DEPRECATED for concurrent-region use: with a TaskServer multiplexing
  /// many requests over one resident region, a scheduler-global "last
  /// status" is meaningless — query the per-request RegionHandle::status()
  /// instead. Kept for single-region callers (the BOTS kernels) and the
  /// PR 6 tests. Called while a region is LIVE (server mode), it used to
  /// silently return the stale previous status; now it returns
  /// RegionStatus::unknown and warns once per scheduler.
  [[nodiscard]] RegionStatus last_region_status() const noexcept {
    if (region_active_.load(std::memory_order_acquire)) {
      if (!status_race_warned_.exchange(true, std::memory_order_relaxed)) {
        detail::warn_last_region_status_race();
      }
      return RegionStatus::unknown;
    }
    return last_region_status_;
  }

  /// Cooperatively cancel the region currently running, if any (thread-safe,
  /// callable from outside the team — a signal handler thread, a REPL).
  /// No-op between regions: a cancel can never leak into a future region.
  void cancel_current_region() noexcept;

  /// Stalls the watchdog has declared over this scheduler's lifetime.
  [[nodiscard]] std::uint64_t stalls_detected() const noexcept {
    return stalls_detected_.load(std::memory_order_relaxed);
  }

  /// True when worker-thread spawn failed at construction and the team was
  /// shrunk (num_workers() reports the post-shrink size).
  [[nodiscard]] bool team_degraded() const noexcept { return team_degraded_; }

  /// The active fault-injection plan (inactive unless cfg.fault_plan /
  /// RT_FAULT_PLAN named a site). Tests read per-site injection counts.
  [[nodiscard]] FaultPlan& fault_plan() noexcept { return fault_; }

  [[nodiscard]] unsigned num_workers() const noexcept {
    return cfg_.num_threads;
  }
  [[nodiscard]] const SchedulerConfig& config() const noexcept { return cfg_; }

  /// The locality map this scheduler was built with (synthetic override,
  /// sysfs discovery, or the flat fallback).
  [[nodiscard]] const Topology& topology() const noexcept { return topo_; }

  /// The active steal/placement policy (one instance for the whole team,
  /// owned by the CURRENT PolicySnapshot). Between-regions introspection:
  /// a live swap may retire the referenced object — in-region code must go
  /// through the worker's pinned snapshot (Worker::snap) instead.
  [[nodiscard]] StealPolicy& policy() noexcept { return *snap_owner_->policy; }

  /// Per-node has-work hints of the CURRENT snapshot; null when the knob is
  /// off OR nothing would ever consult them (non-hierarchical policy,
  /// single-node topology) — publishing costs nothing when nobody reads.
  /// Between regions only, same lifetime caveat as policy().
  [[nodiscard]] NodeHints* node_hints() noexcept {
    return snap_owner_->hints.get();
  }

  /// The resolved policy kind the CURRENT snapshot was built for. Safe from
  /// any thread at any time: a plain atomic mirror, no snapshot pointer is
  /// dereferenced (a non-team reader holds no epoch slot, so it must never
  /// touch the object itself).
  [[nodiscard]] StealPolicyKind active_steal_policy() const noexcept {
    return static_cast<StealPolicyKind>(
        active_kind_.load(std::memory_order_relaxed));
  }

  /// Snapshot generation currently published (1-based; bumped by every
  /// install: construction, reconfigure, shrink, reconfigure_live).
  [[nodiscard]] std::uint64_t snapshot_version() const noexcept {
    return snap_version_.load(std::memory_order_acquire);
  }

  /// Whether every freed descriptor returns to its owner's pool in THIS
  /// configuration: cfg.use_node_pools with use_task_pool on, on any
  /// topology.
  [[nodiscard]] bool node_pools_active() const noexcept {
    return cfg_.use_node_pools && cfg_.use_task_pool;
  }

  /// Between-regions view of the descriptor pools of one node's workers,
  /// for tests and the locality tripwire: where every descriptor carved by
  /// those workers currently rests. After a region (workers flush their
  /// stashes before leaving) in_transit is 0 and cached + arena_free ==
  /// arena_carved — every descriptor is back in its owner's pool. Empty
  /// when node_pools_active() is false.
  struct NodePoolSnapshot {
    std::size_t arena_free = 0;    ///< on the owners' return lists
    std::size_t arena_carved = 0;  ///< ever carved by the node's workers
    std::size_t cached = 0;        ///< on the owners' private freelists
    std::size_t in_transit = 0;    ///< stashed toward the node's owners
  };
  [[nodiscard]] std::vector<NodePoolSnapshot> node_pool_snapshot() const;

  /// The mailbox node the policy would pick for a range half split by
  /// `worker` right now (introspection mirroring plan_steal_order;
  /// StealPolicy::no_node = keep it local). Between regions only — tests
  /// drive it by setting the NodeHints words directly.
  [[nodiscard]] unsigned plan_range_placement(unsigned worker);

  /// Adaptive grain state for spawn_range (see grain.hpp). Meaningful with
  /// cfg.use_adaptive_grain; always constructed so tests can seed it.
  [[nodiscard]] GrainTable& grain_table() noexcept { return grain_table_; }
  /// The global (untagged-site) controller — the PR-3 accessor.
  [[nodiscard]] GrainController& grain_controller() noexcept {
    return grain_table_.global();
  }
  /// The controller serving a tagged spawn site (the one spawn_range uses
  /// for ranges tagged with `site`).
  [[nodiscard]] GrainController& grain_controller_for(RangeSite site) noexcept {
    return grain_table_.for_site(site);
  }

  /// Swap the steal policy and/or locality topology between regions. Never
  /// valid while a region runs — including the resident server region — and
  /// that is a CHECKED error: a live region raises std::logic_error
  /// (previously a debug-only assert; a release-build reconfigure under a
  /// live region silently rebuilt structures still in use). Rebuilds the
  /// Topology, the policy and the node hints, refreshes every worker's
  /// cached node id and clears the per-worker victim/backoff hints — a
  /// last_victim or node id learned under the old configuration is
  /// meaningless (or out of range) under the new one. With pin_workers the
  /// workers re-pin themselves to the new cpusets at the next region
  /// entry. For POLICY-KIND swaps while regions run, use reconfigure_live()
  /// instead — topology stays between-regions by design (descriptor birth
  /// nodes cannot migrate live), which is why reconfigure_live takes no
  /// topology parameter.
  void reconfigure(StealPolicyKind kind, const std::string& synthetic_topology);

  /// Live-swappable tunables carried by reconfigure_live alongside the
  /// policy kind. Unset fields keep their current values.
  struct LiveTunables {
    /// Reseed the global adaptive-grain controller's base AND current
    /// estimate (GrainController::seed — writes land in the live
    /// generation's atomics; <= 0 = keep).
    std::int64_t grain_base = 0;
    /// Stall-watchdog poll threshold for regions whose monitor is armed;
    /// re-read from the snapshot every poll. ~0u = keep.
    std::uint32_t watchdog_ms = ~0u;
    /// 0 = keep, 1 = report-only, 2 = cancel-on-stall.
    std::uint32_t watchdog_cancel = 0;
  };

  /// Hot-swap the steal policy (and optionally grain/watchdog tunables)
  /// WHILE regions run — including under TaskServer load. Publishes a new
  /// PolicySnapshot generation (policy + fresh NodeHints + tunables) via an
  /// RCU-style pointer swap, then blocks until every worker has either
  /// pinned the new generation or gone quiescent, and only then retires the
  /// old one. Safe at any time from any non-team thread, and from a team
  /// worker inside a task body (the caller's own pin is advanced first).
  /// Workers re-seed their transient steal state (last_victim,
  /// gated_rounds) on first pin of the new generation — no global stop, no
  /// barrier, and no lock anywhere on the worker pin path. Swap latency is
  /// bounded by the longest running task body / grain chunk, exactly like
  /// cancellation. Conservation laws are unaffected by construction: the
  /// policy only ever decides WHERE work goes, never whether it exists.
  /// Throws std::logic_error when cfg.live_reconfigure (RT_LIVE_RECONF) is
  /// off. Fresh hint words start SET when a region is live (a probe a
  /// stale-set word costs is bounded; a stale-clear could delay finding
  /// work published just before the swap).
  void reconfigure_live(StealPolicyKind kind);
  void reconfigure_live(StealPolicyKind kind, const LiveTunables& tune);

  /// Pin the current PolicySnapshot for worker `w` and return it. Steady
  /// state (snapshot unchanged): one seq_cst load + a pointer compare.
  /// Changed: an announce-validate loop on the worker's epoch slot (store
  /// slot, re-check version — the Dekker-style handshake that makes the
  /// swapper's quiescence scan sound), then transient steal state is
  /// re-seeded. Called at the top of every find_work round, at region
  /// entry, and at every range-chunk boundary; callable only on the
  /// worker's own thread.
  PolicySnapshot* pin_snapshot(Worker& w) noexcept;

  /// Live team-wide counter totals (stats().total); safe from any thread
  /// at any time.
  [[nodiscard]] WorkerStats telemetry() const { return stats().total; }

  /// The event-trace collector (trace.hpp), or nullptr when cfg.trace is
  /// off. Rings are drained into it by each worker at region exit.
  [[nodiscard]] TraceCollector* tracer() noexcept { return tracer_.get(); }
  [[nodiscard]] const TraceCollector* tracer() const noexcept {
    return tracer_.get();
  }

  /// The victim order the policy would plan for `worker` right now
  /// (introspection for tests and bench_ablation_steal_policy; advances
  /// the worker's rng exactly like a real steal round). Only valid BETWEEN
  /// regions: it touches the worker's plain rng/affinity state, which the
  /// worker itself mutates while a region runs (asserted in debug builds).
  [[nodiscard]] std::vector<unsigned> plan_steal_order(unsigned worker);

  /// Introspection seam paired with plan_steal_order: plant a last-victim
  /// affinity hint as if `worker` had just stolen from `victim`, so tests
  /// can pin hint-dependent planning deterministically (a hint earned by a
  /// real steal rarely survives the region-end barrier — the failing raids
  /// of the idle drain clear it). Between regions only.
  void set_victim_hint(unsigned worker, unsigned victim) noexcept;

  /// Per-worker counters and their aggregate. Safe from any thread at any
  /// time; the laws between counters hold only after quiescence (between
  /// regions), since a live read sees each counter at a slightly different
  /// instant.
  [[nodiscard]] StatsSnapshot stats() const;
  /// Zero every worker's counters. Between regions only.
  void reset_stats() noexcept;

  // ---- internal API used by the spawn fast path (do not call directly) ----
  [[nodiscard]] bool should_defer(Worker& w, std::uint32_t depth) noexcept;
  /// Charge w.current one child + reference for a spawn (see SpawnCharge).
  static void charge_parent(Worker& w) noexcept {
    SpawnCharge& c = w.charge;
    if (c.slots != 0) {
      --c.slots;
      return;
    }
    if (++c.spawns < SpawnCharge::first_batched) {
      w.current->add_child_ref();
      return;
    }
    w.current->add_children_bulk(SpawnCharge::batch);
    c.slots = SpawnCharge::batch - 1;
  }
  /// Settle point of w.current: unused slots go back, the count resets.
  /// (No spawns means no slots: a leaf task's settle is one load.)
  static void settle_charge(Worker& w) noexcept {
    if (w.charge.spawns == 0) return;
    if (w.charge.slots != 0) w.current->return_slots(w.charge.slots);
    w.charge = {};
  }
  Task* alloc_task(Worker& w, TaskStorage& storage_out);
  void enqueue(Worker& w, Task& t);
  /// Publication point for a split-off range half (worksharing.hpp): with
  /// hint placement active and the policy naming an idle remote node whose
  /// mailbox is empty, the half is mailed there instead of enqueued on the
  /// splitter's deque. Accounting is identical to enqueue either way.
  void publish_range_half(Worker& w, Task& t);
  void run_undeferred(Worker& w, Task& t);
  void taskwait_from(Worker& w);
  void barrier_from(Worker& w);
  /// Run `body` as a scope on a fresh frame linked under w.current — a
  /// nested region (tied, no ctx) or a request root (untied, `ctx` planted
  /// on the frame) — and return once the frame's whole subtree has
  /// finished. Returns the body's exception instead of throwing it.
  std::exception_ptr run_scope(Worker& w, Tiedness tied, RegionCtx* ctx,
                               const std::function<void()>& body);
  /// Scope-end join of w.current, a frame whose body has ended: settle,
  /// pay the fold, suspend the frame if tied, help until it reads
  /// exclusive() — no task created under it is left.
  void join_subtree(Worker& w);

  // ---- internal API used by the dependence layer (dependency.hpp) ---------
  /// Routing half of enqueue for a dependence-released task: node-hint
  /// publish plus the slot-or-deque push ONLY. Its spawn-side ledgers
  /// (worker counters, request ledger) moved when the task was dep-spawned
  /// or bulk-charged by a replay, so a release can never double-count.
  void enqueue_released(Worker& w, Task& t);
  /// Drop the dependence tracker's descriptor pin (DepScope::wait, after
  /// the join): completes the deferred half of the pinned task's release
  /// chain into its parent.
  void release_dep_ref(Worker& w, Task& t) noexcept;
  /// Scheduler-shape epoch consulted by TaskGraph::valid_for: bumped by
  /// reconfigure() and by team-shrink degradation, so every graph recorded
  /// under the old shape re-records instead of replaying stale placement
  /// decisions. Plain integer: both writers run strictly between regions,
  /// and in-region readers see it through the region publication.
  [[nodiscard]] std::uint64_t graph_epoch() const noexcept {
    return graph_epoch_;
  }
  /// Per-tag recorded-graph registry backing rt::graph_region (defined in
  /// taskgraph.cpp). Graphs live for the scheduler's lifetime; validity is
  /// governed by graph_epoch(), not by eviction.
  [[nodiscard]] TaskGraph& find_or_create_graph(const std::string& tag);
  /// Wait out every raid round running now. A raid reads tasks it has not
  /// claimed and the parent chains above them (WorkStealingDeque::
  /// steal_batch), so memory a chain may pass through — a heap descriptor,
  /// a scope or root frame, a graph's nodes — is released only after this
  /// returns, and only once every task under it has been claimed.
  void await_raids() noexcept;

 private:
  friend struct Region;

  RegionStatus run_region(Region& r, std::chrono::milliseconds deadline,
                          bool monitored = true);
  void participate(Worker& w, Region& r);
  void worker_main(unsigned id);
  void monitor_region(std::stop_token st, Region& r,
                      std::chrono::steady_clock::time_point deadline_tp,
                      bool has_deadline);
  void dump_stall_report(Region& r);
  /// Current watchdog tunables (snapshot-backed, reconf_mutex_-guarded —
  /// the monitor holds no epoch slot). Re-read every poll so
  /// reconfigure_live retunes a live watchdog.
  [[nodiscard]] std::pair<std::uint32_t, bool> watchdog_tunables() const;
  /// cfg_'s resolved cut-off bound; under the counting cut-offs, one
  /// worker's share of it (at least 1).
  [[nodiscard]] std::uint32_t resolve_cutoff_bound() const noexcept;
  /// One fault-plan draw at `site`; counts into `w` when given. Returns
  /// true when the site should fail now.
  [[nodiscard]] bool inject(Worker* w, FaultSite site) noexcept;
  /// Drop never-started workers [built, N) after a thread-spawn failure and
  /// re-map topology/policy/pools onto the shrunken team.
  void shrink_team(unsigned built);
  /// Build and publish the next PolicySnapshot generation from cfg_/topo_
  /// (caller holds reconf_mutex_), wait for epoch quiescence, retire the
  /// previous generation. `live` seeds fresh hint words SET (swap under a
  /// running region) instead of CLEAR (construction / between regions).
  void install_snapshot_locked(bool live);
  /// Spin until every worker's epoch slot is quiescent (0) or has advanced
  /// to `version` — after which no worker can still dereference any older
  /// generation.
  void wait_quiescent(std::uint64_t version) noexcept;
  void rebuild_mailboxes();
  void dispose(Worker& w, Task& t) noexcept;
  void retire_heap(Worker& w, Task& t) noexcept;
  void flush_stash(Worker& w, unsigned owner) noexcept;
  void flush_outbound_stashes(Worker& w) noexcept;
  Task* take_mailed(Worker& w, bool scavenge);
  void apply_pinning(Worker& w) noexcept;
  void restore_caller_mask() noexcept;
  void assert_between_regions() noexcept;
  Task* find_work(Worker& w);
  Task* steal_work(Worker& w);
  /// The idle loop of every wait: run a claimed task, or back off (an
  /// empty find_work has paid the fold), until `done()` holds; then pay
  /// the fold before the waiter's body resumes.
  template <class Done>
  void help_until(Worker& w, Done done);
  void park_refused(Worker& w, Task* t);
  Task* claim_parked(Worker& w);
  [[nodiscard]] bool tsc_allows(const Worker& w, const Task& t) const noexcept;
  void execute_deferred(Worker& w, Task& t);
  void finish_task(Worker& w, Task& t);
  void release_chain(Worker& w, Task* t) noexcept;
  /// Finish-path dependence hook (top of finish_task, execute AND discard
  /// retirements): walk the task's successor list — dynamic Treiber stack
  /// or baked graph span — decrement each successor's pending count and
  /// enqueue the ones that hit zero. Discards release too, so a cancelled
  /// DAG or replay drains instead of deadlocking.
  void release_successors(Worker& w, Task& t) noexcept;
  /// Announce a finished, exclusive task to its parent through the
  /// worker's fold (see Worker::fold_parent for which tasks fold).
  void fold_completion(Worker& w, Task& parent) noexcept;
  /// Pay the fold's owed announcements in one RMW. Inline: every taskwait
  /// flushes on entry and exit, nearly always with nothing owed.
  void flush_fold(Worker& w) noexcept {
    if (w.fold_count != 0) pay_fold(w);
  }
  void pay_fold(Worker& w) noexcept;

  SchedulerConfig cfg_;
  Topology topo_;
  /// One range mailbox per node; null when hint placement could never fire
  /// (knob off, hints knob off, or single node). Existence is decoupled
  /// from the CURRENT policy kind on purpose: a live swap to hierarchical
  /// must be able to mail immediately, and a swap away must still let
  /// find_work drain halves mailed before the swap.
  std::unique_ptr<RangeMailbox[]> mailboxes_;

  // -- live reconfiguration state (PR 9) ------------------------------------
  /// Serializes snapshot installs (construction, reconfigure, shrink,
  /// reconfigure_live) and guards snap_owner_. Never taken on any worker
  /// path — workers go through snap_/snap_epoch only. Non-team readers
  /// (the monitor, dump_stall_report, between-regions accessors) take it
  /// to touch the current snapshot, since they hold no epoch slot.
  mutable std::mutex reconf_mutex_;
  /// Owner of the published snapshot (guarded by reconf_mutex_).
  std::unique_ptr<PolicySnapshot> snap_owner_;
  /// RCU-published current snapshot. Install order: snap_ first, then
  /// snap_version_ — pin_snapshot's validate relies on "version observed ⇒
  /// pointer at least that new".
  std::atomic<PolicySnapshot*> snap_{nullptr};
  std::atomic<std::uint64_t> snap_version_{0};
  /// Lock-free mirror of the current snapshot's kind for
  /// active_steal_policy().
  std::atomic<std::uint8_t> active_kind_{0};

  GrainTable grain_table_;
  std::uint32_t cutoff_bound_;  ///< resolve_cutoff_bound(), per team shape
  /// Pinning epoch: 0 = pinning disabled, otherwise bumped by reconfigure
  /// so workers re-pin at their next region entry (Worker::pin_seen).
  /// Written only between regions; workers read it inside participate,
  /// after the region-publication synchronization.
  std::uint32_t pin_generation_ = 0;
  /// Worker 0 is whichever thread enters the region: the pre-pin mask and
  /// the thread it belongs to are captured at pin time (not construction),
  /// so a different caller thread next region is re-pinned with its OWN
  /// mask saved — after the PREVIOUS caller thread got its mask back (by
  /// kernel tid, which unlike a std::thread::id can be addressed from any
  /// thread; see affinity.hpp). ~Scheduler restores the last pinned
  /// caller the same way, whatever thread destruction runs on.
  std::vector<unsigned> caller_affinity_;
  std::thread::id caller_thread_{};  ///< fast same-thread check in participate
  long caller_tid_ = -1;             ///< restore address for the saved mask
  bool caller_pinned_ = false;
  bool use_slot_ = false;  ///< cfg_.lifo_slot effective under LocalOrder::lifo
  std::vector<std::unique_ptr<Worker>> workers_;
  /// Implicit root frame of each team worker in the current region, indexed
  /// by worker id and sized to the live team (shrink_team resizes it). Kept
  /// here rather than in Worker so the hot per-worker layout is untouched.
  /// participate stores a worker's entry before its first barrier arrival
  /// RMW; the last arriver reads every entry only after its own arrival RMW,
  /// which acquires them all. Plain pointers: the next region's stores
  /// happen after run_region's teardown has observed region_done_.
  std::vector<Task*> roots_;
  std::vector<std::jthread> threads_;

  std::mutex region_mutex_;
  std::condition_variable region_cv_;
  std::uint64_t region_seq_ = 0;       // guarded by region_mutex_
  Region* region_ = nullptr;           // guarded by region_mutex_
  bool stopping_ = false;              // guarded by region_mutex_
  std::atomic<unsigned> region_done_{0};

  // -- fault-tolerance state (PR 6) ----------------------------------------
  FaultPlan fault_;  ///< parsed from cfg_.fault_plan; inactive when empty
  /// Sleep/wake channel for the per-region monitor thread (deadline +
  /// watchdog). The condition_variable_any + stop_token pairing makes the
  /// monitor's join at region end immediate rather than one poll period.
  std::mutex monitor_mutex_;
  std::condition_variable_any monitor_cv_;
  std::atomic<std::uint64_t> stalls_detected_{0};
  RegionStatus last_region_status_ = RegionStatus::completed;
  /// True while a region is published (set before region_, cleared after
  /// last_region_status_ is written): the race gate behind the
  /// last_region_status() sentinel. Release/acquire pairs with that
  /// accessor so a false read also sees the final status.
  std::atomic<bool> region_active_{false};
  mutable std::atomic<bool> status_race_warned_{false};
  bool team_degraded_ = false;

  // -- dependence/taskgraph state (PR 8) ------------------------------------
  /// Bumped whenever the scheduler's shape changes (reconfigure, team
  /// shrink). Recorded graphs stamp the epoch at freeze and refuse to
  /// replay under any other — the invalidation the regression test in
  /// dependency_test.cpp pins down.
  std::uint64_t graph_epoch_ = 1;
  std::mutex graphs_mutex_;
  std::unordered_map<std::string, std::unique_ptr<TaskGraph>> graphs_;

  // -- event tracing (PR 10) ------------------------------------------------
  /// Per-worker trace rings + drained archive; null when cfg.trace is off
  /// (Worker::ring stays null and every event site is one dead branch).
  std::unique_ptr<TraceCollector> tracer_;
};

// ---------------------------------------------------------------------------
// Free functions: the task API usable from inside kernels. All of them are
// safe to call outside a parallel region, where they degrade to immediate
// serial execution (a team of one), mirroring OpenMP constructs outside a
// parallel construct.
// ---------------------------------------------------------------------------

[[nodiscard]] inline bool in_region() noexcept {
  return detail::tls_worker != nullptr;
}

[[nodiscard]] inline unsigned worker_id() noexcept {
  Worker* w = detail::tls_worker;
  return w != nullptr ? w->id : 0u;
}

[[nodiscard]] inline unsigned team_size() noexcept {
  Worker* w = detail::tls_worker;
  return w != nullptr ? w->region->team_size : 1u;
}

namespace detail {

/// Zero-allocation undeferred execution (SchedulerConfig::use_inline_fast_path):
/// run the closure directly on the parent's frame — no Task descriptor, no
/// pool traffic, no refcount/children RMWs. Only two pieces of bookkeeping
/// remain, because correctness requires them:
///
/// * Depth: Worker::inline_depth counts live inline frames so spawns inside
///   the body still compute exact task depths (max_depth cut-off, ancestry
///   walks) even though Worker::current skips the descriptor-less task.
/// * The Task Scheduling Constraint: an inlined TIED task is tied to this
///   worker from the moment it starts, so while its body is suspended at a
///   scheduling point, claims must be restricted to its descendants. The
///   task has no descriptor to push, but its children are adopted by
///   `current` (the nearest descriptor-carrying ancestor), so pushing
///   `current` represents the constraint exactly as precisely as the graph
///   can: descendants-of-current is the tightest representable superset of
///   descendants-of-the-inlined-task. When `current` already is the
///   worker's tsc_top the push adds no constraint and is skipped, which
///   makes deep inline recursion — the cut-off hot case — cost one compare.
///
/// The body's children reattach to `current`, so a taskwait inside the body
/// waits on a superset of the inlined task's children (never fewer): join
/// semantics are conservative, data dependences are preserved. Exceptions
/// behave exactly like run_undeferred: an undeferred task is sequenced in
/// its parent, so a throw unwinds the worker's bookkeeping (inline depth,
/// suspended tied top) and propagates synchronously from the spawn call —
/// there is no descriptor to leak on this path.
template <class F>
void run_inline_fast(Worker& w, Tiedness tied, F&& f) {
  if ((w.region != nullptr && w.region->cancelled()) ||
      (w.current != nullptr && w.current->ctx() != nullptr &&
       w.current->ctx()->cancelled())) {
    // Cancelled region OR cancelled request context: an undeferred construct
    // is "not yet started" until its body runs, so it is discarded like any
    // queued sibling. Nothing to retire — this path never had a descriptor.
    ++w.stats.tasks_discarded_inline;
    if (w.current != nullptr && w.current->ctx() != nullptr) {
      w.current->ctx()->note_progress(w.id);
    }
    return;
  }
  ++w.stats.tasks_inlined_fast;
  trace_record(w.ring, TraceEvent::spawn, w.inline_depth, 0);
  // No descriptor is materialized, but the construct still *captured* this
  // many bytes on the parent's frame — count them so Table-II-style env
  // statistics do not undercount under heavy inlining (sizeof the closure
  // is exactly what init_env would have recorded for a deferred twin).
  w.stats.env_bytes += static_cast<std::uint64_t>(sizeof(std::decay_t<F>));
  Task* const prev_top = w.tsc_top;
  const bool pushed = tied == Tiedness::tied && prev_top != w.current;
  if (pushed) w.suspend_tied(w.current);
  ++w.inline_depth;
  const auto unwind = [&w, pushed, prev_top]() noexcept {
    --w.inline_depth;
    if (pushed) w.resume_tied(prev_top);
  };
  try {
    std::forward<F>(f)();
  } catch (...) {
    unwind();
    throw;  // synchronous propagation: the task is sequenced in its parent
  }
  unwind();
}

}  // namespace detail

/// Create a task. Equivalent to `#pragma omp task [untied]`.
template <class F>
void spawn(Tiedness tied, F&& f) {
  Worker* w = detail::tls_worker;
  if (w == nullptr) {  // outside a region: execute immediately
    std::forward<F>(f)();
    return;
  }
  Scheduler& s = *w->sched;
  ++w->stats.tasks_created;
  const std::uint32_t depth =
      (w->current != nullptr ? w->current->depth() + 1 : 1) + w->inline_depth;
  const bool defer = s.should_defer(*w, depth);
  if (!defer && s.config().use_inline_fast_path) {
    ++w->stats.tasks_cutoff_inlined;
    detail::run_inline_fast(*w, tied, std::forward<F>(f));
    return;
  }
  TaskStorage storage{};
  Task* t = s.alloc_task(*w, storage);
  if (t == nullptr) {
    // Bottom of the degradation ladder: no descriptor from the pool rung OR
    // the heap rung. Run serially on this frame instead of aborting —
    // counted as cutoff_inlined so the creation-side invariant is
    // undisturbed, plus tasks_degraded_inline to make the degradation
    // observable.
    ++w->stats.tasks_cutoff_inlined;
    ++w->stats.tasks_degraded_inline;
    detail::run_inline_fast(*w, tied, std::forward<F>(f));
    return;
  }
  t->init_env(std::forward<F>(f));
  w->stats.env_bytes += t->env_bytes();
  Scheduler::charge_parent(*w);
  t->set_links(w->current, depth, tied, storage);
  if (defer) {
    ++w->stats.tasks_deferred;
    trace_record(w->ring, TraceEvent::spawn, depth, 1);
    s.enqueue(*w, *t);
  } else {
    ++w->stats.tasks_cutoff_inlined;
    s.run_undeferred(*w, *t);
  }
}

template <class F>
void spawn(F&& f) {
  spawn(Tiedness::tied, std::forward<F>(f));
}

/// Create a task guarded by an `if` clause: when `condition` is false the
/// task is undeferred and executes immediately on this worker. With
/// use_inline_fast_path (the default) that costs no descriptor at all; with
/// the knob off it still allocates one and joins the task hierarchy (the
/// bookkeeping the paper says the runtime "still has to do ... to keep
/// consistency" — kept as the A/B baseline).
template <class F>
void spawn_if(bool condition, Tiedness tied, F&& f) {
  Worker* w = detail::tls_worker;
  if (w == nullptr) {
    std::forward<F>(f)();
    return;
  }
  if (condition) {
    spawn(tied, std::forward<F>(f));
    return;
  }
  Scheduler& s = *w->sched;
  ++w->stats.tasks_created;
  ++w->stats.tasks_if_inlined;
  if (s.config().use_inline_fast_path) {
    detail::run_inline_fast(*w, tied, std::forward<F>(f));
    return;
  }
  const std::uint32_t depth =
      (w->current != nullptr ? w->current->depth() + 1 : 1) + w->inline_depth;
  TaskStorage storage{};
  Task* t = s.alloc_task(*w, storage);
  if (t == nullptr) {  // degradation ladder bottom: run serially, no descriptor
    ++w->stats.tasks_degraded_inline;
    detail::run_inline_fast(*w, tied, std::forward<F>(f));
    return;
  }
  t->init_env(std::forward<F>(f));
  w->stats.env_bytes += t->env_bytes();
  Scheduler::charge_parent(*w);
  t->set_links(w->current, depth, tied, storage);
  s.run_undeferred(*w, *t);
}

template <class F>
void spawn_if(bool condition, F&& f) {
  spawn_if(condition, Tiedness::tied, std::forward<F>(f));
}

/// Wait for all child tasks of the current task. `#pragma omp taskwait`.
inline void taskwait() {
  Worker* w = detail::tls_worker;
  if (w == nullptr) return;
  w->sched->taskwait_from(*w);
}

/// Team barrier; also completes all outstanding explicit tasks (the OpenMP
/// guarantee). Only valid inside run_all regions. `#pragma omp barrier`.
inline void barrier() {
  Worker* w = detail::tls_worker;
  if (w == nullptr) return;
  w->sched->barrier_from(*w);
}

/// Cooperative cancellation probe for long task bodies (`#pragma omp
/// cancellation point taskgroup`): true when the enclosing region OR the
/// enclosing request context (server mode) has been cancelled and the body
/// should return early. Long-running loops should poll it; everything else
/// observes cancellation at its next spawn or dispatch boundary for free.
/// Outside a region: always false.
[[nodiscard]] inline bool cancellation_point() noexcept {
  Worker* w = detail::tls_worker;
  if (w == nullptr) return false;
  if (w->region != nullptr && w->region->cancelled()) return true;
  return w->current != nullptr && w->current->ctx() != nullptr &&
         w->current->ctx()->cancelled();
}

/// Cancel the enclosing cancellation scope from inside a task body (`#pragma
/// omp cancel taskgroup`): every not-yet-started task in the scope is
/// discarded; running bodies finish (or poll cancellation_point()). Inside a
/// server request the scope is THAT REQUEST's context — one client cancelling
/// itself never touches its neighbours or the resident region. In an
/// ordinary region (no ctx) the scope is the whole region, as in PR 6; the
/// deadline-taking run_* overloads report it as RegionStatus::cancelled.
/// Outside a region: no-op.
inline void cancel_region() noexcept {
  Worker* w = detail::tls_worker;
  if (w == nullptr) return;
  if (w->current != nullptr && w->current->ctx() != nullptr) {
    w->current->ctx()->cancel(RegionStatus::cancelled);
    return;
  }
  if (w->region == nullptr) return;
  w->region->cancel(RegionStatus::cancelled);
}

}  // namespace bots::rt
