// Configuration types for the bots::rt task runtime.
//
// The runtime reproduces the OpenMP 3.0 tasking execution model the BOTS
// paper (ICPP'09) evaluates: tied/untied tasks, taskwait, parallel regions
// with single/multiple task generators, and the runtime-side cut-off
// policies discussed in Section IV-B of the paper.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <string>
#include <string_view>
#include <thread>

namespace bots::rt {

/// OpenMP 3.0 task tiedness. A tied task, once started, is bound to the
/// thread that started it; scheduling new tied tasks at a task scheduling
/// point is restricted by the Task Scheduling Constraint. Untied tasks have
/// no such restrictions (paper Section IV-C).
enum class Tiedness : std::uint8_t { tied, untied };

/// Runtime-side cut-off policy (paper Section IV-B, second group:
/// "mechanisms based on the total number of tasks already created, the
/// number of tasks ready to be executed, etc. Such pruning mechanisms can be
/// easily implemented in the OpenMP runtime itself"). The two counting
/// cut-offs read the number of tasks ready to be executed in the spawning
/// worker's own queue, against that worker's share of the bound.
enum class CutoffPolicy : std::uint8_t {
  none,       ///< never inline; every spawn is deferred
  max_tasks,  ///< inline when the spawner's queue holds its share of the bound
  max_depth,  ///< inline when task depth exceeds a bound
  adaptive    ///< hysteresis on the spawner's queue (models Duran et al. [27])
};

/// Order in which a worker consumes its own deque.
/// `lifo` is depth-first (newest task first, Cilk-style work-first);
/// `fifo` is breadth-first (oldest task first).
enum class LocalOrder : std::uint8_t { lifo, fifo };

/// Victim selection policy when stealing. Retained from PR 1 as the base
/// rotation order consumed by the pluggable StealPolicy layer (see
/// StealPolicyKind below and steal_policy.hpp).
enum class VictimPolicy : std::uint8_t { random, sequential };

/// Pluggable steal/placement policy (steal_policy.hpp). `legacy` (the
/// default) derives the policy from the PR-1 knobs `victim` +
/// `victim_affinity`, so every pre-existing ablation configuration keeps
/// its meaning; the other values select a policy explicitly.
enum class StealPolicyKind : std::uint8_t {
  legacy,       ///< derive from victim + victim_affinity
  random,       ///< random rotation, no affinity memory
  sequential,   ///< (id + 1) rotation, no affinity memory
  last_victim,  ///< last successful victim first, then the base rotation
  hierarchical  ///< same-node victims before cross-node, scaled batches
};

// -- hardened environment parsing ------------------------------------------
//
// Every RT_* knob funnels through a pure `parse_*` function (unit-testable
// over malformed inputs with no environment involved) plus an env_* wrapper
// that falls back to the default and prints ONE stderr warning per variable
// when the value is unrecognisable — never UB, never silent garbage.

/// Pure parser behind RT_STEAL_POLICY. Returns false (leaving `out`
/// untouched) when `s` names no policy; "legacy" is accepted explicitly.
[[nodiscard]] inline bool steal_policy_from_string(std::string_view s,
                                                   StealPolicyKind& out) noexcept {
  if (s == "legacy") { out = StealPolicyKind::legacy; return true; }
  if (s == "random") { out = StealPolicyKind::random; return true; }
  if (s == "sequential") { out = StealPolicyKind::sequential; return true; }
  if (s == "last_victim") { out = StealPolicyKind::last_victim; return true; }
  if (s == "hierarchical") { out = StealPolicyKind::hierarchical; return true; }
  return false;
}

/// Pure boolean parser: "1"/"true"/"on" and "0"/"false"/"off".
[[nodiscard]] inline bool parse_flag(std::string_view s, bool& out) noexcept {
  if (s == "1" || s == "true" || s == "on") { out = true; return true; }
  if (s == "0" || s == "false" || s == "off") { out = false; return true; }
  return false;
}

/// Pure decimal u32 parser: digits only, rejects empty/overflow/trailing
/// junk (no locale, no exceptions — unlike std::stoul).
[[nodiscard]] inline bool parse_u32(std::string_view s,
                                    std::uint32_t& out) noexcept {
  if (s.empty() || s.size() > 10) return false;
  std::uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  if (v > 0xffffffffULL) return false;
  out = static_cast<std::uint32_t>(v);
  return true;
}

/// One stderr warning per (variable, process): repeated constructions of
/// SchedulerConfig under the same bad environment don't spam.
inline void warn_malformed_env(const char* name, const char* value) noexcept {
  static thread_local const char* last = nullptr;
  // Cheap best-effort dedup: the common spam source is one thread
  // constructing many configs in a loop; cross-thread duplicates are rare
  // and harmless.
  if (last == name) return;
  last = name;
  std::fprintf(stderr,
               "rt: warning: ignoring malformed %s='%s' (using default)\n",
               name, value);
}

/// RT_CUTOFF environment override ("none", "max_tasks", "max_depth",
/// "adaptive"); unset keeps the max_tasks default and a malformed value
/// warns once and keeps it too. Paired with RT_CUTOFF_VALUE for the bound
/// (0 = policy-specific default), it lets CI re-run whole binaries under a
/// pruning strategy — the nightly depth-first-starvation provocation leg
/// (RT_CUTOFF=max_depth RT_CUTOFF_VALUE=1) exists because of this knob.
[[nodiscard]] inline CutoffPolicy cutoff_from_env() noexcept {
  const char* v = std::getenv("RT_CUTOFF");
  if (v == nullptr) return CutoffPolicy::max_tasks;
  const std::string_view s{v};
  if (s == "none") return CutoffPolicy::none;
  if (s == "max_tasks") return CutoffPolicy::max_tasks;
  if (s == "max_depth") return CutoffPolicy::max_depth;
  if (s == "adaptive") return CutoffPolicy::adaptive;
  warn_malformed_env("RT_CUTOFF", v);
  return CutoffPolicy::max_tasks;
}

/// RT_STEAL_POLICY environment override ("random", "sequential",
/// "last_victim", "hierarchical"); unset keeps the legacy derivation and a
/// malformed value warns once and keeps it too. Lets CI and scripts re-run
/// whole test binaries under a policy without touching code.
[[nodiscard]] inline StealPolicyKind steal_policy_from_env() noexcept {
  const char* v = std::getenv("RT_STEAL_POLICY");
  if (v == nullptr) return StealPolicyKind::legacy;
  StealPolicyKind k = StealPolicyKind::legacy;
  if (!steal_policy_from_string(v, k)) warn_malformed_env("RT_STEAL_POLICY", v);
  return k;
}

/// Boolean environment knob: "1"/"true"/"on" and "0"/"false"/"off" are
/// recognized; unset keeps the fallback silently, anything else keeps the
/// fallback with one stderr warning. Used by RT_PIN_WORKERS, RT_NODE_HINTS,
/// RT_NODE_POOLS, RT_HINT_PLACEMENT and the fault-tolerance flags so CI
/// legs can flip whole test binaries without touching code.
[[nodiscard]] inline bool env_flag(const char* name, bool fallback) noexcept {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  bool out = fallback;
  if (!parse_flag(v, out)) warn_malformed_env(name, v);
  return out;
}

/// Numeric (u32) environment knob with the same malformed-value contract as
/// env_flag. Used by RT_REGION_DEADLINE_MS and RT_WATCHDOG_MS.
[[nodiscard]] inline std::uint32_t env_u32(const char* name,
                                           std::uint32_t fallback) noexcept {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  std::uint32_t out = fallback;
  if (!parse_u32(v, out)) warn_malformed_env(name, v);
  return out;
}

/// String environment knob (empty fallback when unset). Validation is the
/// consumer's job — e.g. FaultPlan::parse warns per malformed entry.
[[nodiscard]] inline std::string env_string(const char* name) {
  const char* v = std::getenv(name);
  return v == nullptr ? std::string{} : std::string{v};
}

/// Cache line size used for padding shared structures (WorkerCounters,
/// WorkerLocal slots, deque tops/bottoms, parked-task inboxes).
inline constexpr std::size_t cache_line_bytes = 64;

struct SchedulerConfig {
  /// Number of workers in the team (including the caller thread).
  unsigned num_threads = std::thread::hardware_concurrency();
  LocalOrder local_order = LocalOrder::lifo;
  VictimPolicy victim = VictimPolicy::random;
  /// Cut-off policy (Figure 4). Also settable process-wide via RT_CUTOFF.
  CutoffPolicy cutoff = cutoff_from_env();
  /// Bound for the cut-off policy. 0 selects a policy-specific default:
  /// max_tasks -> 64 * num_threads, max_depth -> 16,
  /// adaptive -> hi = 64 * num_threads (lo = hi / 2). The counting
  /// cut-offs (max_tasks, adaptive) split the bound into equal per-worker
  /// shares of queued tasks (64 each by default, at least 1).
  /// Also settable process-wide via RT_CUTOFF_VALUE.
  std::uint32_t cutoff_value = env_u32("RT_CUTOFF_VALUE", 0);
  /// Pool task descriptors in per-worker freelists instead of the global
  /// heap (paper Section III-B: "implementations that pre-allocate small
  /// memory areas associated with tasks descriptors might ... reduce the
  /// creation overheads"). Togglable so bench_ablation_taskpool can
  /// measure exactly that claim.
  bool use_task_pool = true;

  // -- spawn/steal fast-path knobs (each togglable so the ablation benches
  // -- and bench_spawn_overhead can A/B the overhaul piecewise) --------------

  /// No effect: nothing counts live tasks. Deleted with the next benchmark
  /// upkeep, which drops the perfbench lines that still name it.
  bool batch_accounting = true;
  /// No effect: nothing counts live tasks. Deleted with the next benchmark
  /// upkeep, which drops the perfbench lines that still name it.
  std::uint32_t accounting_batch = 32;

  /// Steal up to half of the victim's deque in one grab — the oldest task
  /// and the run of its siblings behind it — and keep the surplus in the
  /// thief's own deque. Off: one task per steal (the seed behaviour).
  bool steal_half = true;
  /// Upper bound on tasks taken by one batched steal.
  std::uint32_t steal_batch_max = 16;

  /// Remember the last victim a steal succeeded from and try it first next
  /// time (steals come in bursts from the same loaded worker).
  bool victim_affinity = true;

  /// Park tasks the TSC refuses from a worker's own queue or a mailbox on
  /// per-worker lock-free inboxes instead of the region-global
  /// mutex-protected overflow vector (the seed behaviour).
  bool distributed_parking = true;

  /// Keep the newest spawned task in a private one-entry slot instead of the
  /// deque (only meaningful with LocalOrder::lifo). The hottest pop of a
  /// depth-first recursion then skips the Chase-Lev seq_cst fence and the
  /// deque round trip entirely; the slot is drained at every scheduling
  /// point before the worker steals or idles, so liveness and quiescence
  /// arguments are unchanged.
  bool lifo_slot = true;

  /// Fuse the parent's unfinished-children decrement with the dying child's
  /// reference drop into one RMW at task completion — taken only when the
  /// finishing task is observably exclusive (state word exactly ref_one, a
  /// stable observation once its body is done), since announcing completion
  /// after the self-reference is already dropped would unpin the parent
  /// against a concurrent release chain. Non-exclusive finishes, and the
  /// knob turned off, use the seed ordering: announce first, then walk the
  /// release chain (two parent-cacheline RMWs). An exclusive finish of a
  /// pooled task whose parent the worker is not running (a thief's) or of
  /// a replayed graph node defers that RMW into the worker's fold, one RMW
  /// per up to 32 completions of one parent (Worker::fold_parent); off,
  /// every finish announces at once.
  bool fused_finish = true;

  /// Zero-allocation undeferred execution: when spawn_if's condition is
  /// false or the runtime cut-off refuses deferral, run the closure directly
  /// on the parent's frame with NO Task descriptor, no pool traffic and no
  /// refcount/children RMWs — only depth tracking (Worker::inline_depth) and
  /// a suspended tied top (Worker::tsc_top) that keeps the Task Scheduling
  /// Constraint sound across inlined tied tasks. The inlined task's children
  /// are adopted by the nearest enclosing task with a descriptor, so a
  /// taskwait inside the inlined body waits on a superset of its own
  /// children (never fewer). Off: undeferred tasks still allocate a
  /// descriptor and join the task graph (the seed behaviour the paper
  /// describes as bookkeeping the runtime "still has to do ... to keep
  /// consistency").
  bool use_inline_fast_path = true;

  /// Splittable range tasks: spawn_range publishes ONE descriptor for a
  /// whole iteration range; whoever executes it splits off the upper half as
  /// a sibling task whenever its local queue runs dry (which is exactly what
  /// a steal causes — the thief's first check always splits, re-exposing
  /// half for other thieves). Loop-style kernels (Alignment, SparseLU `for`,
  /// Health `for`) use this to replace one-descriptor-per-iteration
  /// generation. Off: those kernels fall back to per-iteration spawning, so
  /// bench_ablation_generators-style A/B comparisons stay possible.
  bool use_range_tasks = true;

  // -- topology-aware scheduling layer (topology.hpp / steal_policy.hpp) ----

  /// Steal/placement policy. The default (`legacy`) derives the policy
  /// from `victim` + `victim_affinity` exactly as PR 1 behaved; explicit
  /// values select one of the pluggable policies, `hierarchical` being the
  /// topology-aware one (same-node victims before crossing the
  /// interconnect, cross-node steal batches scaled down, range-split
  /// halves reached by same-node thieves first). Also settable process-wide
  /// via RT_STEAL_POLICY.
  StealPolicyKind steal_policy = steal_policy_from_env();

  /// Synthetic locality topology "NxM" (N nodes of M cores): a
  /// deterministic override of sysfs discovery for tests/CI, where policy
  /// behaviour must not depend on the host. Empty consults
  /// RT_SYNTHETIC_TOPOLOGY, then sysfs, then falls back to one flat node.
  std::string synthetic_topology{};

  /// Pin every worker thread to its topology node's cpuset at region entry
  /// (sched_setaffinity; see affinity.hpp and Scheduler::apply_pinning), so
  /// the hierarchical policy's locality reasoning matches what the OS
  /// actually schedules. Graceful no-op per worker when the node's cpuset
  /// names no CPU this machine has (synthetic topologies) or the syscall is
  /// refused; the post-pin placement is verified and recorded in
  /// WorkerStats::pinned so benchmarks can prove the map matched reality.
  /// Worker 0 is the caller thread — its pre-pin mask is restored when the
  /// Scheduler is destroyed. Also settable via RT_PIN_WORKERS=1.
  bool pin_workers = env_flag("RT_PIN_WORKERS", false);

  /// Per-node "has work" hints consulted by the hierarchical steal policy:
  /// one cache-line-padded word per node, published on enqueue and steal
  /// surplus, cleared when a fruitless steal round observes the whole home
  /// node dry. A planning round skips remote nodes whose word is clear
  /// (cutting interconnect probe traffic when a remote node is idle,
  /// counted in WorkerStats::remote_probes_skipped); a backoff forces an
  /// unconditional full probe round every few gated rounds so a stale hint
  /// delays a steal by a bounded number of rounds and can never starve the
  /// team. The words are only instantiated when something would read them
  /// — the hierarchical policy on a multi-node topology — so every other
  /// configuration pays nothing for the default-on knob. Off: every round
  /// probes every remote deque (the PR-3 behaviour). Also settable via
  /// RT_NODE_HINTS=0/1.
  bool use_node_work_hints = env_flag("RT_NODE_HINTS", true);

  /// Adaptive grain for rt::spawn_range (grain.hpp): the runtime retunes a
  /// grain estimate from observed split density vs iterations executed
  /// (dense splits grow it, starvation under a coarse schedule shrinks it)
  /// and spawn_range uses max(caller grain, estimate) — so kernels'
  /// hardcoded grain=1 becomes a runtime decision. Off: the caller's grain
  /// is used verbatim (the PR-2 behaviour).
  bool use_adaptive_grain = true;

  /// Owner-return descriptor pools (task.hpp TaskPool), on every topology:
  /// a descriptor is carved and first-touched by one worker, and when any
  /// other worker frees it, it goes back to that owner's pool — via
  /// per-owner stashes handed back onto the owner's lock-free return list
  /// 16 at a time, each batch carrying its addresses so the owner
  /// prefetches what it reuses — not into the freer's pool. Pools then
  /// stay bounded by peak live descriptors, and descriptor memory stays on
  /// its birth node (WorkerStats::pool_remote_frees is zero by
  /// construction). Off keeps
  /// the older recycle-into-the-freer's-pool behaviour, as the drift
  /// reference for bench_ablation_taskpool and the knob-off tests: a worker
  /// that mostly executes stolen tasks hoards descriptors while the
  /// generator keeps carving fresh ones. Inert with use_task_pool off.
  /// Also settable via RT_NODE_POOLS=0/1.
  bool use_node_pools = env_flag("RT_NODE_POOLS", true);

  /// Hint-aware range placement: when a spawn_range splitter sits on a node
  /// whose NodeHints word advertises local surplus while a remote node's
  /// word is clear (idle), the split-off upper half is published to a
  /// mailbox deque on the idle node (RangeMailbox in steal_policy.hpp)
  /// instead of the splitter's own deque — the idle node finds it on its
  /// next find_work round without paying cross-node steal latency, counted
  /// in WorkerStats::range_halves_redirected. Piggybacks on NodeHints:
  /// only active where the hints are (hierarchical policy, multi-node
  /// topology, use_node_work_hints on). Also settable via
  /// RT_HINT_PLACEMENT=0/1.
  bool use_hint_placement = env_flag("RT_HINT_PLACEMENT", true);

  /// Record-and-replay of dependence-tracked task graphs (taskgraph.hpp,
  /// after the Taskgraph framework, arXiv 2212.04771): the first execution
  /// of a region wrapped in rt::graph_region(tag, ...) records every
  /// dep-spawned task and every dependence edge into a frozen arena-backed
  /// TaskGraph; subsequent invocations replay it — pre-resolved dependence
  /// counters, no hash-table lookups, no descriptor allocation
  /// (reset-in-place graph-owned descriptors), workers started from the
  /// recorded root frontier. Off: every invocation runs the dynamic
  /// dependence-discovery path (identical results — the A/B identity tests
  /// assert bit-equal outputs). Also settable via RT_TASKGRAPH_REPLAY=0/1.
  bool use_taskgraph_replay = env_flag("RT_TASKGRAPH_REPLAY", true);

  /// Key grain estimates by spawn site (rt::RangeSite tags threaded through
  /// spawn_range): each tagged call site converges its own GrainController
  /// in a small fixed-size table, so a workload mixing cheap-iteration and
  /// expensive-iteration ranges (SparseLU phases vs Alignment rows) does
  /// not force one compromise estimate. Untagged sites — and every site
  /// when this is off — share the scheduler-global controller (the PR-3
  /// behaviour). Only meaningful with use_adaptive_grain.
  bool use_site_grain = true;

  // -- fault-tolerance layer (fault.hpp / scheduler cancellation) -----------

  /// First captured task exception cancels the region: every
  /// not-yet-started descendant is discarded (retired without executing its
  /// body, counted in WorkerStats::tasks_discarded) instead of running to
  /// completion before the rethrow. Mirrors OpenMP `cancel taskgroup`
  /// semantics for the exceptional path. Off: the seed behaviour — the
  /// exception is held until the region barrier and every remaining task
  /// still executes. Also settable via RT_CANCEL_ON_EXCEPTION=0/1.
  bool cancel_on_exception = env_flag("RT_CANCEL_ON_EXCEPTION", false);

  /// Default region deadline in milliseconds, applied to every
  /// run_single/run_all that doesn't pass an explicit deadline. On expiry
  /// the region is cooperatively cancelled (running bodies finish; nothing
  /// new starts) and the deadline-taking overloads report
  /// RegionStatus::deadline_exceeded. 0 = no deadline. Also settable via
  /// RT_REGION_DEADLINE_MS.
  std::uint32_t region_deadline_ms = env_u32("RT_REGION_DEADLINE_MS", 0);

  /// Stall watchdog: a monitor thread samples the sum of the team's progress
  /// counters (tasks executed or discarded, range chunks peeled) and, after
  /// `watchdog_ms` milliseconds in which that sum has not moved, dumps
  /// per-worker state, node hint words, mailbox depths and node-pool
  /// snapshots to stderr. The sum is the whole test, so a task body that
  /// runs longer than the window reads as a stall too. 0 = no watchdog.
  /// Also settable via RT_WATCHDOG_MS.
  std::uint32_t watchdog_ms = env_u32("RT_WATCHDOG_MS", 0);

  /// When the watchdog declares a stall, also cancel the region (the
  /// deadline-style cooperative cancel) instead of only reporting it. Also
  /// settable via RT_WATCHDOG_CANCEL=0/1.
  bool watchdog_cancel = env_flag("RT_WATCHDOG_CANCEL", false);

  /// Deterministic fault-injection plan (fault.hpp grammar, e.g.
  /// "seed=7,all=0.02"). Empty = no injection. Defaults to RT_FAULT_PLAN
  /// like every other knob; assigning the field overrides the environment.
  std::string fault_plan = env_string("RT_FAULT_PLAN");

  // -- live reconfiguration (PR 9) ------------------------------------------

  /// Allow Scheduler::reconfigure_live(): epoch/RCU hot-swap of the steal
  /// policy, node hints and watchdog tunables WHILE regions run (including
  /// the server's resident region). Workers pin a versioned PolicySnapshot
  /// at the top of every find_work round (one seq_cst load + a pointer
  /// compare in steady state — no lock, no barrier); the swapper installs a
  /// new snapshot, waits for per-worker epoch quiescence and retires the old
  /// one. Topology swaps stay between-regions only (worker node ids cannot
  /// change live) — that boundary is in the type system:
  /// reconfigure_live takes no topology. Off: reconfigure_live throws like
  /// the between-regions reconfigure() always has. Also settable via
  /// RT_LIVE_RECONF=0/1.
  bool live_reconfigure = env_flag("RT_LIVE_RECONF", true);

  /// Per-worker binary event tracing (trace.hpp): TSC-stamped ring buffers
  /// recording spawn/steal/park/split/mailbox/request events, drained at
  /// region boundaries and exportable as Chrome-trace/perfetto JSON
  /// (`bots_run --trace-out=f.json`). Off (the default) costs one predictable
  /// branch per event site (the worker's ring pointer stays null); compile
  /// with -DBOTS_RT_NO_TRACE to remove even that. Also settable via
  /// RT_TRACE=0/1.
  bool trace = env_flag("RT_TRACE", false);

  /// Per-worker trace ring capacity in records (rounded up to a power of
  /// two; 24 bytes/record, so the default is ~384 KiB per worker). The ring
  /// overwrites its oldest records between drains; overwritten records are
  /// counted as dropped (event totals come from the worker counters, which
  /// never wrap). Also settable via RT_TRACE_BUF=<records>.
  std::uint32_t trace_buf = env_u32("RT_TRACE_BUF", 1u << 14);

  /// Have bots_run score its runs with the scheduling-pathology analyzers
  /// (pathology.hpp) at exit and print a report (its --tripwire-pathology
  /// flag additionally fails the run when a detector fires). The analyzers
  /// read the worker counters plus the trace records, so this needs tracing
  /// on. Also settable via RT_PATHOLOGY=0/1.
  bool pathology = env_flag("RT_PATHOLOGY", false);

  /// Resolved cut-off bound (applies the documented defaults).
  [[nodiscard]] std::uint32_t resolved_cutoff_bound() const noexcept {
    if (cutoff_value != 0) return cutoff_value;
    switch (cutoff) {
      case CutoffPolicy::max_tasks:
      case CutoffPolicy::adaptive:
        return 64u * (num_threads == 0 ? 1u : num_threads);
      case CutoffPolicy::max_depth:
        return 16u;
      case CutoffPolicy::none:
        return 0u;
    }
    return 0u;
  }

  /// The steal policy actually instantiated: maps `legacy` onto the PR-1
  /// knobs (victim_affinity selects last_victim over the `victim` base
  /// rotation), passes explicit selections through.
  [[nodiscard]] StealPolicyKind resolved_steal_policy() const noexcept {
    if (steal_policy != StealPolicyKind::legacy) return steal_policy;
    if (victim_affinity) return StealPolicyKind::last_victim;
    return victim == VictimPolicy::random ? StealPolicyKind::random
                                          : StealPolicyKind::sequential;
  }
};

/// Pause hint for spin loops.
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

[[nodiscard]] constexpr const char* to_string(Tiedness t) noexcept {
  return t == Tiedness::tied ? "tied" : "untied";
}

[[nodiscard]] constexpr const char* to_string(CutoffPolicy c) noexcept {
  switch (c) {
    case CutoffPolicy::none: return "none";
    case CutoffPolicy::max_tasks: return "max_tasks";
    case CutoffPolicy::max_depth: return "max_depth";
    case CutoffPolicy::adaptive: return "adaptive";
  }
  return "?";
}

[[nodiscard]] constexpr const char* to_string(LocalOrder o) noexcept {
  return o == LocalOrder::lifo ? "lifo" : "fifo";
}

[[nodiscard]] constexpr const char* to_string(VictimPolicy v) noexcept {
  return v == VictimPolicy::random ? "random" : "sequential";
}

[[nodiscard]] constexpr const char* to_string(StealPolicyKind k) noexcept {
  switch (k) {
    case StealPolicyKind::legacy: return "legacy";
    case StealPolicyKind::random: return "random";
    case StealPolicyKind::sequential: return "sequential";
    case StealPolicyKind::last_victim: return "last_victim";
    case StealPolicyKind::hierarchical: return "hierarchical";
  }
  return "?";
}

}  // namespace bots::rt
