#include "runtime/scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <system_error>
#include <utility>

#include "runtime/affinity.hpp"
#include "runtime/dependency.hpp"
#include "runtime/steal_policy.hpp"
#include "runtime/taskgraph.hpp"  // complete type for graphs_ in ~Scheduler

namespace bots::rt {

namespace {

/// Spin backoff: a few pause hints, then yields, then short sleeps. Workers
/// inside a region are expected to find work quickly; between regions they
/// sleep on a condvar. The sleep phase matters when workers are descheduled
/// (oversubscription, noisy machines): a pure pause/yield spin — e.g. the
/// run_region teardown waiting for region_done_ — can otherwise monopolize
/// the core the straggler needs to finish.
struct Backoff {
  void pause() noexcept {
    if (spins < 64) {
      cpu_relax();
      ++spins;
    } else if (spins < 128) {
      std::this_thread::yield();
      ++spins;
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(sleep_us));
      if (sleep_us < 500) sleep_us *= 2;
    }
  }
  void reset() noexcept {
    spins = 0;
    sleep_us = 50;
  }
  int spins = 0;
  int sleep_us = 50;
};

}  // namespace

namespace detail {
void warn_last_region_status_race() noexcept {
  std::fprintf(stderr,
               "rt: warning: last_region_status() called while a region is "
               "live; returning RegionStatus::unknown — use the per-request "
               "RegionHandle::status() in server mode (warned once)\n");
}
}  // namespace detail

void Region::store_exception() noexcept {
  std::lock_guard<std::mutex> lock(exception_mutex);
  if (!first_exception) {
    first_exception = std::current_exception();
    has_exception.store(true, std::memory_order_release);
  }
  // cfg.cancel_on_exception: the first captured exception starts discarding
  // every not-yet-started descendant (OpenMP `cancel taskgroup` on error).
  // Safe for later exceptions too — cancel() is sticky/idempotent.
  if (cancel_on_exception) cancel(RegionStatus::cancelled);
}

Scheduler::Scheduler(SchedulerConfig cfg)
    : cfg_(cfg),
      topo_(Topology::detect(cfg.num_threads == 0 ? 1u : cfg.num_threads,
                             cfg.synthetic_topology)),
      grain_table_(cfg.num_threads == 0 ? 1u : cfg.num_threads,
                   cfg.use_site_grain) {
  if (cfg_.num_threads == 0) cfg_.num_threads = 1;
  cutoff_bound_ = resolve_cutoff_bound();
  fault_.parse(cfg_.fault_plan);
  use_slot_ = cfg_.lifo_slot && cfg_.local_order == LocalOrder::lifo;
  roots_.assign(cfg_.num_threads, nullptr);
  rebuild_mailboxes();
  {
    std::lock_guard<std::mutex> lock(reconf_mutex_);
    install_snapshot_locked(/*live=*/false);
  }
  if (cfg_.pin_workers) pin_generation_ = 1;
  workers_.reserve(cfg_.num_threads);
  for (unsigned i = 0; i < cfg_.num_threads; ++i) {
    workers_.push_back(std::make_unique<Worker>(
        this, i, 0x9E3779B97F4A7C15ULL * (i + 1)));
    workers_.back()->node = topo_.node_of(i);
    workers_.back()->victim_buf.resize(cfg_.num_threads);
    workers_.back()->returns.resize(cfg_.num_threads);
  }
  if (cfg_.trace) {
    tracer_ = std::make_unique<TraceCollector>(cfg_.num_threads,
                                               cfg_.trace_buf);
    for (unsigned i = 0; i < cfg_.num_threads; ++i)
      workers_[i]->ring = tracer_->ring(i);
  }
  // Worker-thread spawn is a degradation point, not a construction failure:
  // the first thread the OS (or the fault plan) refuses stops the roll-out
  // and the team shrinks to the workers that do exist — worker 0 is the
  // caller's thread and always exists, so a Scheduler is always usable.
  threads_.reserve(cfg_.num_threads - 1);
  unsigned built = 1;
  for (unsigned i = 1; i < cfg_.num_threads; ++i) {
    try {
      if (inject(workers_[i].get(), FaultSite::thread_spawn)) {
        throw std::system_error(
            std::make_error_code(std::errc::resource_unavailable_try_again),
            "rt: injected thread-spawn failure");
      }
      threads_.emplace_back([this, i] { worker_main(i); });
    } catch (const std::system_error&) {
      break;
    }
    ++built;
  }
  if (built != cfg_.num_threads) shrink_team(built);
}

void Scheduler::shrink_team(unsigned built) {
  std::fprintf(stderr,
               "rt: warning: worker thread spawn failed; shrinking team "
               "%u -> %u and re-mapping topology\n",
               cfg_.num_threads, built);
  team_degraded_ = true;
  cfg_.num_threads = built;
  // Only never-started workers die here: threads_[k] serves worker k+1 and
  // exactly `built - 1` threads were emplaced, so workers_[built..) have no
  // thread attached and nothing observes their destruction.
  workers_.resize(built);
  roots_.resize(built);  // the barrier reads one root per LIVE worker
  // Re-map locality onto the team that actually exists — node ids, hints,
  // mailboxes and the policy were all sized for the planned team.
  topo_ = Topology::detect(built, cfg_.synthetic_topology);
  {
    // Between regions by construction (shrink happens while the team is
    // being built), so quiescence is immediate: every epoch slot is 0.
    std::lock_guard<std::mutex> lock(reconf_mutex_);
    install_snapshot_locked(/*live=*/false);
  }
  for (auto& w : workers_) {
    w->node = topo_.node_of(w->id);
    w->last_victim = Worker::no_victim;
    w->gated_rounds = 0;
  }
  rebuild_mailboxes();
  if (tracer_ != nullptr) {
    // Events recorded during the aborted roll-out describe workers that no
    // longer exist; start the trace over for the team that does.
    tracer_ = std::make_unique<TraceCollector>(built, cfg_.trace_buf);
    for (auto& w : workers_) w->ring = tracer_->ring(w->id);
  }
  cutoff_bound_ = resolve_cutoff_bound();  // the counting share is per worker
  // A graph recorded for the planned team bakes that team's shape (root
  // frontier width, placement, depth decisions): invalidate every recording.
  ++graph_epoch_;
}

std::uint32_t Scheduler::resolve_cutoff_bound() const noexcept {
  const std::uint32_t bound = cfg_.resolved_cutoff_bound();
  if (cfg_.cutoff != CutoffPolicy::max_tasks &&
      cfg_.cutoff != CutoffPolicy::adaptive) {
    return bound;
  }
  // The counting cut-offs split the team-wide bound into equal per-worker
  // shares of queue; a bound below the team size still lets each worker
  // keep one task queued.
  return std::max(1u, bound / cfg_.num_threads);
}

bool Scheduler::inject(Worker* w, FaultSite site) noexcept {
  if (!fault_.site_active(site)) return false;
  if (!fault_.should_fail(site)) return false;
  if (w != nullptr) ++w->stats.faults_injected;
  return true;
}

void Scheduler::cancel_current_region() noexcept {
  std::lock_guard<std::mutex> lock(region_mutex_);
  if (region_ != nullptr) region_->cancel(RegionStatus::cancelled);
}

Scheduler::~Scheduler() {
  {
    std::lock_guard<std::mutex> lock(region_mutex_);
    stopping_ = true;
  }
  region_cv_.notify_all();
  // Hand the pinned caller thread back its pre-pin mask (directly when
  // destruction runs on that thread, by liveness-checked tid otherwise —
  // see restore_caller_mask for why the guard matters).
  restore_caller_mask();
  // std::jthread joins on destruction.
}

void Scheduler::worker_main(unsigned id) {
  Worker& w = *workers_[id];
  detail::tls_worker = &w;
  std::uint64_t seen = 0;
  for (;;) {
    Region* r = nullptr;
    {
      std::unique_lock<std::mutex> lock(region_mutex_);
      region_cv_.wait(lock, [&] { return stopping_ || region_seq_ != seen; });
      if (region_seq_ != seen) {
        seen = region_seq_;
        r = region_;
      } else {
        break;  // stopping and no new region
      }
    }
    if (r != nullptr) {
      participate(w, *r);
      region_done_.fetch_add(1, std::memory_order_release);
    }
  }
  detail::tls_worker = nullptr;
}

void Scheduler::run_single(const std::function<void()>& fn) {
  Region r(cfg_.num_threads);
  r.single_fn = &fn;
  run_region(r, std::chrono::milliseconds(cfg_.region_deadline_ms));
}

void Scheduler::run_all(const std::function<void(unsigned)>& fn) {
  Region r(cfg_.num_threads);
  r.all_fn = &fn;
  run_region(r, std::chrono::milliseconds(cfg_.region_deadline_ms));
}

RegionResult Scheduler::run_single(const std::function<void()>& fn,
                                   std::chrono::milliseconds deadline) {
  Region r(cfg_.num_threads);
  r.single_fn = &fn;
  if (deadline.count() <= 0) {
    deadline = std::chrono::milliseconds(cfg_.region_deadline_ms);
  }
  RegionResult res;
  res.status = run_region(r, deadline);
  res.stats = stats();
  return res;
}

RegionResult Scheduler::run_all(const std::function<void(unsigned)>& fn,
                                std::chrono::milliseconds deadline) {
  Region r(cfg_.num_threads);
  r.all_fn = &fn;
  if (deadline.count() <= 0) {
    deadline = std::chrono::milliseconds(cfg_.region_deadline_ms);
  }
  RegionResult res;
  res.status = run_region(r, deadline);
  res.stats = stats();
  return res;
}

RegionStatus Scheduler::run_region(Region& r, std::chrono::milliseconds deadline,
                                   bool monitored) {
  Worker* inside = detail::tls_worker;
  if (inside != nullptr) {
    // Nested region: serialize with a team of one (the OpenMP default of
    // disabled nested parallelism). The body runs on a tied frame of its own
    // and every task created inside it, at any depth, has finished before
    // run_* returns — the region guarantee, one team member wide.
    if (inside->sched != this) {
      throw std::logic_error(
          "bots::rt: a worker of one Scheduler entered a region of another");
    }
    const std::exception_ptr eptr =
        run_scope(*inside, Tiedness::tied, nullptr, [&r] {
          if (r.all_fn != nullptr) {
            (*r.all_fn)(0);
          } else if (r.single_fn != nullptr) {
            (*r.single_fn)();
          }
        });
    if (eptr) std::rethrow_exception(eptr);
    return RegionStatus::completed;
  }

  // Region-start grain reset (grain.hpp): retuned estimates drop back to
  // their seeded base so a coarse grain learned on the previous region's
  // workload cannot block this region's first splits.
  if (cfg_.use_adaptive_grain) grain_table_.on_region_start();

  r.cancel_on_exception = cfg_.cancel_on_exception;

  // Deadline + stall watchdog share one monitor thread, spawned only when
  // either is armed so unmonitored regions pay nothing. It reads atomics
  // only (per-worker progress; in a stall report, the region's parked,
  // arrival and cancel words) and is joined before the Region (a caller
  // stack object) can die or the first exception rethrows. A
  // refused monitor thread degrades to an unmonitored region — strictly
  // better than failing the region for the tool meant to watch it.
  const bool has_deadline = deadline.count() > 0;
  std::optional<std::jthread> monitor;
  if (monitored && (has_deadline || cfg_.watchdog_ms > 0)) {
    const auto deadline_tp = std::chrono::steady_clock::now() + deadline;
    try {
      monitor.emplace([this, &r, deadline_tp, has_deadline](std::stop_token st) {
        monitor_region(st, r, deadline_tp, has_deadline);
      });
    } catch (const std::system_error&) {
      std::fprintf(stderr,
                   "rt: warning: monitor thread unavailable; region runs "
                   "unmonitored\n");
    }
  }

  {
    std::lock_guard<std::mutex> lock(region_mutex_);
    region_ = &r;
    ++region_seq_;
  }
  region_active_.store(true, std::memory_order_release);
  region_cv_.notify_all();

  Worker& w0 = *workers_[0];
  detail::tls_worker = &w0;
  participate(w0, r);
  detail::tls_worker = nullptr;

  // Wait until every worker has left the region before tearing it down.
  Backoff backoff;
  while (region_done_.load(std::memory_order_acquire) != cfg_.num_threads - 1) {
    backoff.pause();
  }
  region_done_.store(0, std::memory_order_relaxed);
  if (monitor.has_value()) {
    monitor->request_stop();
    monitor_cv_.notify_all();  // wake a mid-wait monitor immediately
    monitor->join();
    monitor.reset();
  }
  {
    std::lock_guard<std::mutex> lock(region_mutex_);
    region_ = nullptr;
  }
  last_region_status_ = r.status();
  // Status written, region down: readers that see `false` (acquire in the
  // accessor) also see the final status — no silent stale answer.
  region_active_.store(false, std::memory_order_release);
  if (r.has_exception.load(std::memory_order_acquire)) {
    std::rethrow_exception(r.first_exception);
  }
  return last_region_status_;
}

RegionStatus Scheduler::run_persistent(const std::function<void(unsigned)>& fn) {
  Region r(cfg_.num_threads);
  r.all_fn = &fn;
  // Deadline 0 + monitored=false: neither cfg_.region_deadline_ms nor the
  // watchdog applies to the resident region (see the header comment) — the
  // TaskServer's own monitor watches per-request deadlines/stalls instead.
  return run_region(r, std::chrono::milliseconds(0), /*monitored=*/false);
}

void Scheduler::run_ctx_root(RegionCtx& ctx, const std::function<void()>& body) {
  Worker* wp = detail::tls_worker;
  assert(wp != nullptr && wp->region != nullptr &&
         "run_ctx_root is only valid on a team worker inside a region");
  Worker& w = *wp;
  ++w.stats.server_requests;
  // Shed or expired before it ever started: nothing was spawned under this
  // ctx yet, so skipping the body IS the discard (ledger stays 0 == 0).
  if (ctx.cancelled()) return;
  flush_fold(w);  // a request body can run long: pay owed announcements now
  trace_record(w.ring, TraceEvent::request_start, ctx.id());
  // The frame hangs under this worker's implicit task, so the region
  // barrier also covers a request still in flight when the resident
  // region's workers reach their final barrier. UNTIED, so the frame never
  // becomes tsc_top: while this worker waits in the request's join it may
  // claim any other request's tasks — no cross-request convoying through
  // the TSC. A tied wait inside the request still limits this worker to
  // that task's descendants, like any tied wait. Fault isolation: the
  // request's exception cancels the request, never the resident region, and
  // is retrievable via its handle. Not rethrown — the caller is the server
  // worker loop, which must keep serving.
  (void)run_scope(w, Tiedness::untied, &ctx, [&] {
    try {
      body();
    } catch (...) {
      ctx.store_exception();
    }
  });
  trace_record(w.ring, TraceEvent::request_end, ctx.id());
}

bool Scheduler::help_one() {
  Worker* wp = detail::tls_worker;
  if (wp == nullptr || wp->region == nullptr) return false;
  settle_charge(*wp);
  if (Task* t = find_work(*wp)) {
    execute_deferred(*wp, *t);
    return true;
  }
  return false;  // find_work paid the fold before its raid
}

void Scheduler::monitor_region(std::stop_token st, Region& r,
                               std::chrono::steady_clock::time_point deadline_tp,
                               bool has_deadline) {
  using clock = std::chrono::steady_clock;
  std::uint64_t last_sum = ~0ULL;  // first sample always counts as movement
  auto last_move = clock::now();
  std::unique_lock<std::mutex> lk(monitor_mutex_);
  while (!st.stop_requested()) {
    // Watchdog tunables come from the CURRENT PolicySnapshot, re-read every
    // poll, so reconfigure_live can tighten/relax/cancel-arm a live
    // watchdog. (The monitor only exists when something was armed at region
    // start — an entirely unmonitored region stays unmonitored.)
    const auto [wd_ms, wd_cancel] = watchdog_tunables();
    const bool has_watchdog = wd_ms > 0;
    const auto stall_after = std::chrono::milliseconds(wd_ms);
    // Poll fast enough to catch a stall within ~12% of the configured
    // window; a deadline wait always wakes exactly at the deadline.
    const auto poll = has_watchdog
                          ? std::chrono::milliseconds(std::clamp<std::uint32_t>(
                                wd_ms / 8, 1u, 50u))
                          : std::chrono::milliseconds(100);
    const auto now = clock::now();
    if (has_deadline && now >= deadline_tp) {
      r.cancel(RegionStatus::deadline_exceeded);
      has_deadline = false;  // fired; nothing further to watch on this edge
    }
    if (has_watchdog) {
      std::uint64_t sum = 0;
      for (const auto& w : workers_) {
        sum += w->progress;
      }
      if (sum != last_sum) {
        last_sum = sum;
        last_move = now;
      } else if (now - last_move >= stall_after) {
        stalls_detected_.fetch_add(1, std::memory_order_relaxed);
        dump_stall_report(r);
        if (wd_cancel) r.cancel(RegionStatus::cancelled);
        last_move = now;  // re-arm: one report per stalled window
      }
    }
    auto next = now + poll;
    if (has_deadline && deadline_tp < next) next = deadline_tp;
    monitor_cv_.wait_until(lk, st, next, [] { return false; });
  }
}

std::pair<std::uint32_t, bool> Scheduler::watchdog_tunables() const {
  std::lock_guard<std::mutex> lock(reconf_mutex_);
  return {snap_owner_->watchdog_ms, snap_owner_->watchdog_cancel};
}

void Scheduler::dump_stall_report(Region& r) {
  // Stderr, single writer (only the monitor calls this). Reads shared
  // atomics only — per-worker plain fields are the workers' property and
  // are deliberately not touched.
  std::fprintf(stderr,
               "rt: STALL: no task progress for %u ms (parked=%zu "
               "arrived=%u cancel=%s)\n",
               watchdog_tunables().first,
               r.parked_count.load(std::memory_order_relaxed),
               r.arrived.load(std::memory_order_relaxed),
               to_string(r.status()));
  for (const auto& w : workers_) {
    std::fprintf(
        stderr,
        "rt:   worker %u: node=%u progress=%llu deque=%s parked_inbox=%s\n",
        w->id, w->node,
        static_cast<unsigned long long>(w->progress),
        w->deque.empty_estimate() ? "empty" : "nonempty",
        w->parked_inbox.load(std::memory_order_relaxed) == nullptr ? "empty"
                                                                   : "nonempty");
  }
  {
    // The monitor holds no epoch slot, so the current snapshot's hints are
    // read under reconf_mutex_ (cold path: one stall report per window).
    std::lock_guard<std::mutex> lock(reconf_mutex_);
    if (snap_owner_->hints != nullptr) {
      for (unsigned n = 0; n < topo_.num_nodes(); ++n) {
        std::fprintf(stderr, "rt:   hint[node %u]=%s\n", n,
                     snap_owner_->hints->has_work(n) ? "work" : "dry");
      }
    }
  }
  if (mailboxes_ != nullptr) {
    for (unsigned n = 0; n < topo_.num_nodes(); ++n) {
      std::fprintf(stderr, "rt:   mailbox[node %u]=%zu\n", n,
                   mailboxes_[n].size());
    }
  }
}

void Scheduler::participate(Worker& w, Region& r) {
  // Pinning happens here — on the worker's own thread, before any work —
  // the first time, whenever reconfigure() bumped the generation, and for
  // worker 0 whenever a DIFFERENT caller thread enters the region (worker
  // 0 is whichever thread called run_*; a pin applied to a previous caller
  // says nothing about this one).
  if (pin_generation_ != 0 &&
      (w.pin_seen != pin_generation_ ||
       (w.id == 0 && caller_thread_ != std::this_thread::get_id()))) {
    apply_pinning(w);
  }
  w.stats.pinned = w.pin_applied ? 1u : 0u;
  w.region = &r;
  w.throttled = false;
  w.charge = {};
  assert(w.fold_count == 0 && "a folded completion outlived its region");
  w.inline_depth = 0;
  assert(w.tsc_top == nullptr && "a suspended tied task outlived its region");
  w.last_victim = Worker::no_victim;
  w.gated_rounds = 0;
  w.slot = nullptr;
  w.parked_recheck = true;
  assert(w.deque.empty_estimate() && "work leaked across regions");
  assert(w.parked_inbox.load(std::memory_order_relaxed) == nullptr &&
         "a parked task outlived its region");
  // Pin the current PolicySnapshot before the body runs: spawns from the
  // region body (before this worker's first find_work round) already route
  // hints/placement through w.snap.
  assert(w.snap == nullptr && "a pinned snapshot outlived its region");
  pin_snapshot(w);

  // The implicit task for this worker. It lives on this stack frame; the
  // region-end barrier opens only once every root is exclusive, i.e. every
  // descendant has finished and dropped its reference, before the frame
  // dies. Published before this worker's first arrival RMW (barrier_from).
  Task root;
  root.set_links(nullptr, 0, Tiedness::tied, TaskStorage::stack_frame);
  roots_[w.id] = &root;
  w.current = &root;

  try {
    if (r.all_fn != nullptr) {
      (*r.all_fn)(w.id);
    } else if (w.id == 0 && r.single_fn != nullptr) {
      (*r.single_fn)();
    }
  } catch (...) {
    r.store_exception();
  }

  barrier_from(w);  // implicit region-end barrier: full task quiescence

  // Every descriptor freed off its owner goes back before the worker
  // leaves: quiescence means no further disposals, so after this the
  // in-transit count is exactly zero and every descriptor rests in its
  // owner's pool. Each worker flushes its own stashes — the splices
  // parallelize across the team.
  flush_outbound_stashes(w);

  // Drain this worker's trace ring into the collector's archive: the worker
  // drains its OWN ring, at a point where it records nothing further this
  // region — single-threaded by construction, no synchronization needed.
  if (tracer_ != nullptr) tracer_->drain_worker(w.id);

  assert(root.unfinished_children() == 0);
  assert(w.fold_count == 0);
  w.current = nullptr;
  w.region = nullptr;
  // Quiesce the snapshot pin: slot 0 tells reconfigure_live this worker
  // holds nothing, and the null pointer guarantees the next region's first
  // pin takes the announce path even if a retired snapshot's address gets
  // reused by a later install. Release-ordered so every use of the old
  // snapshot happens-before the swapper observes quiescence and retires it.
  w.snap = nullptr;
  w.snap_epoch.store(0, std::memory_order_release);
}

bool Scheduler::should_defer(Worker& w, std::uint32_t depth) noexcept {
  switch (cfg_.cutoff) {
    case CutoffPolicy::none:
      return true;
    case CutoffPolicy::max_depth:
      return depth <= cutoff_bound_;
    case CutoffPolicy::max_tasks:
      return w.queued_fewer_than(cutoff_bound_);
    case CutoffPolicy::adaptive:
      if (w.throttled) {
        if (w.queued_fewer_than(cutoff_bound_ / 2)) w.throttled = false;
      } else if (!w.queued_fewer_than(std::int64_t{cutoff_bound_} + 1)) {
        w.throttled = true;
      }
      return !w.throttled;
  }
  return true;
}

Task* Scheduler::alloc_task(Worker& w, TaskStorage& storage_out) {
  // Degradation ladder: pooled rung -> plain per-descriptor heap rung ->
  // nullptr, which spawn/spawn_if degrade to serial inline execution. A
  // real bad_alloc and an injected descriptor_alloc/arena_carve fault take
  // the identical path, so the fault plan exercises exactly the code OOM
  // would. Counters move only AFTER an allocation succeeds — a failed rung
  // must not leave phantom pool_fresh behind, or the frees==allocs
  // invariant breaks.
  if (cfg_.use_task_pool && !inject(&w, FaultSite::descriptor_alloc)) {
    if (Task* t = w.pool.reuse()) {
      ++w.stats.pool_reuse;
      storage_out = TaskStorage::pooled;
      return t;
    }
    if (!inject(&w, FaultSite::arena_carve)) {
      try {
        // Carved — and first-touched — on this worker's own thread.
        Task* t = w.pool.carve(w.id);
        ++w.stats.pool_fresh;
        storage_out = TaskStorage::pooled;
        return t;
      } catch (const std::bad_alloc&) {
        // fall through to the heap rung
      }
    }
  }
  if (cfg_.use_task_pool) ++w.stats.pool_alloc_fallbacks;
  // Heap rung: the configured allocator when pooling is off, the graceful
  // fallback otherwise. Fallback descriptors deliberately skip pool_fresh —
  // dispose() deletes them without a matching free count, and the pool
  // balance invariant must keep holding on the degraded path.
  if (!inject(&w, FaultSite::descriptor_alloc)) {
    try {
      Task* t = new Task();
      t->set_owner(w.id);
      if (!cfg_.use_task_pool) ++w.stats.pool_fresh;
      storage_out = TaskStorage::heap;
      return t;
    } catch (const std::bad_alloc&) {
      // fall through to the inline rung
    }
  }
  return nullptr;  // bottom rung: the caller runs the task serially inline
}

void Scheduler::dispose(Worker& w, Task& t) noexcept {
  switch (t.storage()) {
    case TaskStorage::pooled: {
      const unsigned owner = t.owner();
      if (owner == w.id) {
        ++w.stats.pool_home_frees;
        w.pool.recycle(&t);
      } else if (node_pools_active()) {
        // Owner-return: stage the batched trip back to the owner's pool.
        // The descriptor still retires to its birth pool, so this never
        // counts as a remote free.
        ++w.stats.pool_home_frees;
        RemoteStash& s = w.returns[owner];
        s.push(&t);
        if (++w.stash_in_transit > w.stats.pool_migrations) {
          w.stats.pool_migrations = w.stash_in_transit;  // high-water
        }
        if (s.count >= RemoteStash::flush_batch) flush_stash(w, owner);
      } else {
        // Drift reference (knob off): recycle into THIS worker's freelist
        // wherever the descriptor was born, and count the cross-node drift
        // that causes.
        if (topo_.node_of(owner) == w.node) {
          ++w.stats.pool_home_frees;
        } else {
          ++w.stats.pool_remote_frees;
        }
        w.pool.recycle(&t);
      }
      break;
    }
    case TaskStorage::heap:
      retire_heap(w, t);
      break;
    case TaskStorage::stack_frame:
      break;  // lifetime owned by a worker stack frame
    case TaskStorage::graph:
      break;  // owned by a frozen TaskGraph; re-armed on its next release
  }
}

void Scheduler::retire_heap(Worker& w, Task& t) noexcept {
  Worker::HeapLimbo& l = w.heap_limbo;
  t.pool_next = l.retired;
  l.retired = &t;
  if (++l.count < Worker::HeapLimbo::batch) return;
  await_raids();
  Worker::HeapLimbo::delete_chain(l.retired);
  l.retired = nullptr;
  l.count = 0;
}

void Scheduler::await_raids() noexcept {
  // Pairs with the fence at the start of each raid round (steal_work). A
  // round this scan reads as not running starts after the fence, so its
  // loads of `top` and `bottom` see every claim that happened before this
  // call: it cannot reach a claimed task, nor the chain above one. A round
  // it reads as running is waited out; rounds are short and never block.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  for (const auto& v : workers_) {
    const std::uint64_t seq = v->raid_seq.load(std::memory_order_acquire);
    if ((seq & 1U) == 0) continue;
    Backoff bo;
    while (v->raid_seq.load(std::memory_order_acquire) == seq) bo.pause();
  }
}

void Scheduler::flush_stash(Worker& w, unsigned owner) noexcept {
  RemoteStash& s = w.returns[owner];
  if (s.count == 0) return;
  workers_[owner]->pool.give_back(s.items, s.count);
  w.stash_in_transit -= s.count;
  s.count = 0;
}

void Scheduler::flush_outbound_stashes(Worker& w) noexcept {
  if (w.stash_in_transit == 0) return;
  for (unsigned o = 0; o < static_cast<unsigned>(w.returns.size()); ++o) {
    flush_stash(w, o);
  }
}

void Scheduler::enqueue(Worker& w, Task& t) {
  // Per-request ledger (server mode): the task was counted into the queued
  // population of its request; execute_deferred will balance it with exactly
  // one executed or discarded. Null — and free — in ordinary regions.
  if (RegionCtx* c = t.ctx()) c->note_deferred(w.id);
  enqueue_released(w, t);
}

void Scheduler::enqueue_released(Worker& w, Task& t) {
  // Advertise this node as fed (NodeHints): remote hierarchical planners
  // consult the word before spending interconnect probes here. The steady
  // state (word already set) costs one relaxed load. Hints live in the
  // worker's PINNED snapshot (w.snap, never null in-region): a live swap
  // retires the whole generation — policy and words together — only after
  // this worker's pin moves on.
  if (NodeHints* h = w.snap->hints.get()) h->publish(w.node);
  // Range tasks never hide in the private slot: their whole point is to be
  // splittable on steal, and a slot entry is invisible to thieves until the
  // owner's next scheduling point.
  if (use_slot_ && t.range() == nullptr) {
    Task* evicted = w.slot;
    w.slot = &t;
    if (evicted != nullptr) w.deque.push(evicted);
  } else {
    w.deque.push(&t);
  }
}

void Scheduler::release_dep_ref(Worker& w, Task& t) noexcept {
  // The tracker's pin was the reference that stopped the task's finish-time
  // release chain at the task itself; dropping it now disposes the
  // descriptor and continues the chain into the parent.
  release_chain(w, &t);
}

void Scheduler::release_successors(Worker& w, Task& t) noexcept {
  DepNode* n = t.dep();
  if (n->graph != nullptr) {
    // Graph-owned node: successor indices were baked at freeze.
    n->graph->release_baked(w, *n);
    return;
  }
  // Dynamic node: close the Treiber stack so a racing generator learns this
  // predecessor is done (its push fails and it self-satisfies the edge),
  // then walk the edges we captured. Each edge resolves exactly once.
  DepEdge* e = n->succ_head.exchange(detail::dep_closed(),
                                     std::memory_order_acq_rel);
  while (e != nullptr) {
    DepEdge* next = e->next;
    ++w.stats.edges_resolved;
    Task* succ = e->succ;
    if (succ->dep()->pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      enqueue_released(w, *succ);
    }
    e = next;
  }
}

void Scheduler::publish_range_half(Worker& w, Task& t) {
  if (mailboxes_ != nullptr) {
    // Placement is the pinned snapshot's call: after a live swap away from
    // hierarchical the new policy answers no_node and halves stay local,
    // while halves mailed BEFORE the swap still drain — the mailbox array
    // is scheduler-owned and exists independently of the current policy.
    const unsigned target = w.snap->policy->place_range_half(w);
    if (target != StealPolicy::no_node && target != w.node &&
        mailboxes_[target].empty() &&
        // An injected mailbox_push failure degrades to the local deque —
        // exactly-once delivery is preserved, only the placement quality
        // drops (the half stays stealable the ordinary way).
        !inject(&w, FaultSite::mailbox_push)) {
      // Same request ledger as enqueue, same ordering (the half is counted
      // before it becomes claimable); only the landing spot moves.
      ++w.stats.range_halves_redirected;
      if (RegionCtx* c = t.ctx()) c->note_deferred(w.id);
      trace_record(w.ring, TraceEvent::mailbox, topo_.node_of(t.owner()),
                   trace_pack_nodes(target, w.node));
      mailboxes_[target].push(&t);
      // The gift IS work on that node now: set its word, both so remote
      // planners probe there and so the next split is not dumped on the
      // same node before anybody drained this one (the redirect condition
      // requires a CLEAR target word plus an empty mailbox).
      if (NodeHints* h = w.snap->hints.get()) h->publish(target);
      return;
    }
  }
  enqueue(w, t);
}

Task* Scheduler::take_mailed(Worker& w, bool scavenge) {
  if (!scavenge) return mailboxes_[w.node].pop();
  // Idle-path sweep over every node's mailbox, own node first: a half
  // mailed to a node whose workers are wedged inside long task bodies must
  // never strand — any idle worker may carry it off cross-node (ordinary
  // stealing would have paid the same interconnect trip).
  const unsigned nodes = topo_.num_nodes();
  for (unsigned dn = 0; dn < nodes; ++dn) {
    if (Task* t = mailboxes_[(w.node + dn) % nodes].pop()) return t;
  }
  return nullptr;
}

void Scheduler::execute_deferred(Worker& w, Task& t) {
  // Every deferred dispatch — execute or discard — funnels through here,
  // which makes this the single cancellation boundary for queued work and
  // the watchdog's primary progress signal. A request's stall monitor needs
  // no tick here: the executed or discarded count below moves its progress.
  w.note_progress();
  // A body of another parent may run long: pay the fold first. A sibling
  // of the folded tasks keeps folding — their parent waits for it anyway.
  if (w.fold_count != 0 && w.fold_parent != t.parent()) pay_fold(w);
  RegionCtx* ctx = t.ctx();
  if (((w.region != nullptr && w.region->cancelled()) ||
       (ctx != nullptr && ctx->cancelled())) &&
      t.range() == nullptr) {
    // Cancelled region — or, server mode, cancelled request context: retire
    // the descriptor through the normal finish path WITHOUT running the
    // body. destroy_env still runs — the captured closure was constructed
    // and its members must destruct. Range tasks are exempt: they execute
    // (RangeRunner stops at its first cancelled check) so their
    // GrainController live-range gate always closes. The discard counts in
    // BOTH ledgers: the worker's (keeps the global executed + discarded ==
    // deferred invariant) and the request's.
    ++w.stats.tasks_discarded;
    if (ctx != nullptr) ctx->note_discarded(w.id);
    t.destroy_env();
    finish_task(w, t);
    return;
  }
  Task* prev = w.current;
  // inline_depth counts descriptor-less frames stacked above `current`; a
  // claimed task is a fresh frame whose depth is fully recorded in its
  // descriptor, so the count must not leak into depths computed under it
  // (a scheduling point inside an inline body claims unrelated tasks).
  const std::uint32_t prev_inline = w.inline_depth;
  // Every caller is a settle point (taskwait, barrier, scope join,
  // help_one), so `prev` holds no spawn slots that t could be charged for.
  assert(w.charge.slots == 0 && w.charge.spawns == 0);
  w.inline_depth = 0;
  w.current = &t;
  ++w.stats.tasks_executed;
  if (ctx != nullptr) ctx->note_executed(w.id);
  const bool fail_body = inject(&w, FaultSite::task_body);
  try {
    if (fail_body) throw FaultInjected{};
    t.invoke();
  } catch (const FaultInjected&) {
    // OMPC-style task re-execution: the injected fault fired BEFORE the
    // body, so the retry runs it exactly once — suite results stay correct
    // under an all-sites fault plan while the throw/unwind path is
    // exercised for real. Never stored into the region: an injected
    // transient must not trip cancel_on_exception.
    ++w.stats.tasks_retried;
    try {
      t.invoke();
    } catch (...) {
      // Fault isolation: a request task's exception lands in ITS context
      // (cancelling that request only), never in the resident region.
      if (ctx != nullptr) {
        ctx->store_exception();
      } else {
        w.region->store_exception();
      }
    }
  } catch (...) {
    if (ctx != nullptr) {
      ctx->store_exception();
    } else {
      w.region->store_exception();
    }
  }
  // End of t's body: its unused slots go back before finish_task reads
  // exclusive() — the body-end settle point of every exit path.
  settle_charge(w);
  t.destroy_env();
  w.current = prev;
  w.inline_depth = prev_inline;
  finish_task(w, t);
}

void Scheduler::run_undeferred(Worker& w, Task& t) {
  if ((w.region != nullptr && w.region->cancelled()) ||
      (t.ctx() != nullptr && t.ctx()->cancelled())) {
    // Cancelled before it ever started: retire the descriptor, skip the
    // body. Undeferred tasks are not in tasks_deferred, so this counts in
    // the inline-discard bucket, keeping executed + discarded == deferred
    // exact for the queued population.
    ++w.stats.tasks_discarded_inline;
    t.destroy_env();
    finish_task(w, t);
    return;
  }
  Task* prev = w.current;
  // As in execute_deferred: t's descriptor depth already includes any inline
  // frames below it, so depths computed under t start from zero again.
  const std::uint32_t prev_inline = w.inline_depth;
  const SpawnCharge prev_charge = w.charge;
  w.charge = {};
  w.inline_depth = 0;
  w.current = &t;
  const auto leave = [&]() noexcept {
    settle_charge(w);  // body end: t's unused slots go back
    t.destroy_env();
    w.current = prev;
    w.charge = prev_charge;
    w.inline_depth = prev_inline;
  };
  try {
    t.invoke();
  } catch (...) {
    // An undeferred task is sequenced in its parent, so the exception
    // propagates synchronously from the spawn call (OpenMP semantics) —
    // after the descriptor is retired like any completed task: the
    // parent's child count must drop and the storage must recycle, or the
    // descriptor (and through it the parent chain) leaks.
    leave();
    finish_task(w, t);
    throw;
  }
  leave();
  finish_task(w, t);
}

void Scheduler::finish_task(Worker& w, Task& t) {
  // Dependence hook first, before any path can recycle the descriptor:
  // successors release on execute AND discard retirements alike, which is
  // what lets a cancelled DAG or replay drain by discards (one null check
  // for every task that carries no dependences).
  if (t.dep() != nullptr) release_successors(w, t);
  Task* parent = t.parent();
  // Order matters. (1) The completion announcement (the parent's
  // unfinished-children decrement) must never be preceded by dropping this
  // task's self-reference: t's reference on the parent is released only when
  // t itself is disposed, so an undisposed t transitively pins the parent.
  // Dropping the self-reference first would open a window where a still
  // running child of t finishes on another worker, takes t's references to
  // zero, and walks the release chain into the parent — and release_ref
  // ignores the children bits, so the parent (whose own body may long be
  // done) can be recycled before our announcement lands: a use-after-free.
  // Two safe shapes exist: announce-then-release (the pin order, also the
  // seed behaviour), or — when t is observably exclusive, state word exactly
  // ref_one — fuse the announcement and the release into ONE parent RMW, so
  // no window exists at all. Exclusivity is stable here because refs and
  // children are only ever added by t's own executor, and t's body has
  // finished. (2) Every path ends in an RMW on the parent chain, so the
  // last RMW on a scope's frame — an implicit root, a nested region's frame
  // or a request's frame — the one that makes it exclusive and ends the
  // scope, comes after every disposal below it. Nothing here touches the
  // frame after that RMW: child_completed_and_release returns false for a
  // frame (its own reference remains) and release_chain stops there, so
  // the frame may leave the stack at once. Nor is the task's RegionCtx
  // touched after it: the ctx may die as soon as its frame is exclusive.
  // The scope-end test is exact because every task hangs by a reference
  // chain from the frame of every scope it was created in:
  //   - set_links links a spawn under w.current and copies its ctx, so
  //     every task whose ctx is C hangs under C's request frame;
  //   - a split-off range half links under its splitter's parent;
  //   - a replay re-arms its nodes under the replaying task, and a
  //     dependent task links under w.current like any spawn;
  //   - an owed fold (fold_completion) keeps its parent, and so every
  //     frame above it, non-exclusive until the fold is paid.
  if (cfg_.fused_finish && t.exclusive()) {
    // Exclusive: no child or release chain can reach t anymore, so t dies
    // without an RMW and both halves of the parent update — the
    // unfinished-children decrement and the reference drop — fuse into a
    // single RMW on the parent's state word.
    if (t.storage() == TaskStorage::graph ||
        (t.storage() == TaskStorage::pooled && parent != w.current)) {
      // A replayed node (its parent is the replaying task, blocked in the
      // replay's join), or a pooled task of a parent this worker is not
      // running — a thief's completion, typically one of a flood's
      // siblings. The descriptor dies now (graph storage is never
      // disposed); the parent RMW waits in this worker's fold and is paid
      // for up to fold_batch completions at once — the completion-side
      // twin of the generator's pre-charged slots. A task of w.current
      // announces at once: its parent is waiting right here. Until the fold
      // is paid (Worker::fold_parent lists when) the parent, and so every
      // frame above it, stays non-exclusive: no wait or barrier can open
      // over an owed announcement.
      assert(parent != nullptr);
      dispose(w, t);
      fold_completion(w, *parent);
    } else {
      dispose(w, t);
      if (parent != nullptr && parent->child_completed_and_release()) {
        Task* grand = parent->parent();
        dispose(w, *parent);
        release_chain(w, grand);  // pure reference drops from here upward
      }
    }
  } else {
    // Children (or their not-yet-drained release chains) may still hold
    // references on t: announce first — while t's own reference still pins
    // the parent — then release. Whoever drops t's last reference (possibly
    // this very release_chain call) continues the pure-reference walk
    // upward; the announcement is already done by then.
    if (parent != nullptr) parent->child_completed();
    release_chain(w, &t);
  }
}

void Scheduler::fold_completion(Worker& w, Task& parent) noexcept {
  if (w.fold_parent != &parent) {
    flush_fold(w);
    w.fold_parent = &parent;
  }
  if (++w.fold_count == Worker::fold_batch) pay_fold(w);
}

void Scheduler::pay_fold(Worker& w) noexcept {
  Task* parent = w.fold_parent;
  const std::uint32_t n = w.fold_count;
  w.fold_parent = nullptr;
  w.fold_count = 0;
  // Drops the last reference when the parent's body has already ended
  // without waiting for these children (a fire-and-forget spawner).
  if (parent->children_completed_and_release(n)) {
    Task* grand = parent->parent();
    dispose(w, *parent);
    release_chain(w, grand);
  }
}

void Scheduler::release_chain(Worker& w, Task* t) noexcept {
  while (t != nullptr && t->release_ref()) {
    Task* parent = t->parent();
    dispose(w, *t);
    t = parent;
  }
}

template <class Done>
void Scheduler::help_until(Worker& w, Done done) {
  Backoff backoff;
  while (!done()) {
    if (Task* t = find_work(w)) {
      execute_deferred(w, *t);
      backoff.reset();
    } else {
      backoff.pause();  // find_work paid the fold before its raid
    }
  }
  // The waiter's body resumes and may run long: pay what the tasks it ran
  // while waiting owe elsewhere.
  flush_fold(w);
}

void Scheduler::taskwait_from(Worker& w) {
  ++w.stats.taskwaits;
  Task* cur = w.current;
  if (cur == nullptr) return;
  // Settle point: cur's unused spawn slots go back before its child count
  // is read, and announcements this worker owes anyone are paid.
  settle_charge(w);
  flush_fold(w);
  if (cur->unfinished_children() == 0) return;
  // The wait reads the exact per-parent unfinished_children counter.
  const bool constrains = cur->tiedness() == Tiedness::tied;
  Task* const prev_top = constrains ? w.suspend_tied(cur) : nullptr;
  help_until(w, [this, &w, cur] {
    // A waiter pays its own fold before reading: replayed nodes it retired
    // itself are cur's children too.
    if (w.fold_parent == cur) flush_fold(w);
    return cur->unfinished_children() == 0;
  });
  if (constrains) w.resume_tied(prev_top);
}

void Scheduler::join_subtree(Worker& w) {
  Task* frame = w.current;
  // Settle point of the frame, as at a taskwait. After this nothing adds to
  // the frame: its body has ended, and every other charger already holds a
  // reference chain up to it — so an exclusive() reading is final.
  settle_charge(w);
  flush_fold(w);
  const bool constrains = frame->tiedness() == Tiedness::tied;
  Task* const prev_top = constrains ? w.suspend_tied(frame) : nullptr;
  help_until(w, [frame] { return frame->exclusive(); });
  if (constrains) w.resume_tied(prev_top);
}

void Scheduler::barrier_from(Worker& w) {
  Region& r = *w.region;
  assert(w.current != nullptr && w.current->depth() == 0 &&
         "barrier() is only valid from the implicit task of a region");
  // The barrier opens when the task tree is empty, read off the implicit
  // tasks' state words: every live task holds a reference chain up to some
  // worker's root frame (roots_), so once every implicit task has arrived,
  // all roots exclusive() — state word exactly ref_one — means no explicit
  // task is left. Once all have arrived that reading is stable: only a
  // root's own implicit task charges an exclusive root (anyone else adding
  // to it — a range split, a dependent spawn — runs a task that holds a
  // reference on it), and an arrived implicit task runs no body of its own,
  // only claimed tasks. Settling returns this root's unused spawn slots
  // first, and the flush pays folds (an unpaid fold keeps its parent, and
  // so a root, non-exclusive).
  settle_charge(w);
  flush_fold(w);
  w.parked_recheck = true;  // the barrier suspends no tied task: drain all
  const std::uint32_t gen = r.barrier_gen.load(std::memory_order_acquire);
  // The arrival RMW releases this worker's roots_ entry (stored in
  // participate) and its root's settle; the last arriver's RMW acquires all.
  const std::uint32_t n = r.arrived.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (n == r.team_size) {
    // Last arriver: drain every outstanding task, then release the team.
    // Roots below `open` already read exclusive, which is final.
    unsigned open = 0;
    help_until(w, [&] {
      while (open < r.team_size && roots_[open]->exclusive()) ++open;
      return open == r.team_size;
    });
    // At a region's end the roots die once the team leaves: a raid that
    // looked at a task since claimed may still be walking up to one.
    await_raids();
    r.arrived.store(0, std::memory_order_relaxed);
    r.barrier_gen.fetch_add(1, std::memory_order_release);
  } else {
    help_until(w, [&r, gen] {
      return r.barrier_gen.load(std::memory_order_acquire) != gen;
    });
  }
}

std::exception_ptr Scheduler::run_scope(Worker& w, Tiedness tied,
                                        RegionCtx* ctx,
                                        const std::function<void()>& body) {
  // The scope's frame lives on this stack, like an implicit root: it leaves
  // only after join_subtree read it exclusive, and after the RMW that made
  // it so no worker touches it (finish_task's ordering note (2)).
  Task frame;
  Task* parent = w.current;
  const std::uint32_t depth =
      (parent != nullptr ? parent->depth() + 1 : 1) + w.inline_depth;
  if (parent != nullptr) parent->add_child_ref();
  frame.set_links(parent, depth, tied, TaskStorage::stack_frame);
  // A request's root: set_links copied the parent's ctx, so plant the
  // request's here; every descendant inherits it through its own set_links.
  if (ctx != nullptr) frame.set_ctx(ctx);
  const std::uint32_t prev_inline = w.inline_depth;
  const SpawnCharge prev_charge = w.charge;
  w.charge = {};
  w.inline_depth = 0;  // the frame's depth already accounts for inline frames
  w.current = &frame;
  std::exception_ptr eptr;
  try {
    body();
  } catch (...) {
    eptr = std::current_exception();
  }
  join_subtree(w);
  // The frame dies with this call: a raid that looked at one of its
  // children before that child was claimed may still be walking up to it.
  await_raids();
  w.current = parent;
  w.charge = prev_charge;
  w.inline_depth = prev_inline;
  if (parent != nullptr) parent->child_completed();
  release_chain(w, &frame);
  return eptr;
}

void Scheduler::park_refused(Worker& w, Task* t) {
  ++w.stats.tsc_parked;
  trace_record(w.ring, TraceEvent::park, t->depth());
  Region& r = *w.region;
  if (cfg_.distributed_parking) {
    // Push onto this worker's own inbox. Only the owner pushes, but drains
    // by other workers race with the push, so a CAS loop is still required.
    Task* head = w.parked_inbox.load(std::memory_order_relaxed);
    do {
      t->pool_next = head;
    } while (!w.parked_inbox.compare_exchange_weak(
        head, t, std::memory_order_release, std::memory_order_relaxed));
    r.parked_count.fetch_add(1, std::memory_order_release);
  } else {
    std::lock_guard<std::mutex> lock(r.overflow_mutex);
    r.overflow.push_back(t);
    r.parked_count.fetch_add(1, std::memory_order_release);
  }
}

Task* Scheduler::claim_parked(Worker& w) {
  Region& r = *w.region;
  // Parking is the exception, not the rule: one load gates the whole scan.
  if (r.parked_count.load(std::memory_order_acquire) == 0) return nullptr;
  if (!cfg_.distributed_parking) {
    std::lock_guard<std::mutex> lock(r.overflow_mutex);
    for (std::size_t i = 0; i < r.overflow.size(); ++i) {
      if (tsc_allows(w, *r.overflow[i])) {
        Task* t = r.overflow[i];
        r.overflow.erase(r.overflow.begin() + static_cast<std::ptrdiff_t>(i));
        r.parked_count.fetch_sub(1, std::memory_order_release);
        ++w.stats.parked_claimed;
        trace_record(w.ring, TraceEvent::unpark, t->depth());
        return t;
      }
    }
    return nullptr;
  }
  // Scan every worker's inbox, own first. A drain takes the whole chain in
  // one exchange; ineligible survivors are republished onto OUR inbox (the
  // MPSC handoff), where the next scan — ours or anyone else's — sees them.
  const unsigned n = cfg_.num_threads;
  for (unsigned k = 0; k < n; ++k) {
    Worker& v = *workers_[(w.id + k) % n];
    if (&v == &w) {
      if (!w.parked_recheck) continue;
      w.parked_recheck = false;
    }
    if (v.parked_inbox.load(std::memory_order_relaxed) == nullptr) continue;
    Task* chain = v.parked_inbox.exchange(nullptr, std::memory_order_acquire);
    if (chain == nullptr) continue;
    Task* take = nullptr;
    Task* keep_head = nullptr;
    Task* keep_tail = nullptr;
    bool kept_unchecked = false;
    while (chain != nullptr) {
      Task* next = chain->pool_next;
      if (take == nullptr && tsc_allows(w, *chain)) {
        take = chain;
      } else {
        // Survivors kept after `take` was found were NOT re-checked against
        // this worker's constraint: force a rescan of the own inbox next
        // round, or a second eligible task republished here would be
        // stranded (nobody else may exist to drain it).
        kept_unchecked |= take != nullptr;
        if (keep_head == nullptr) keep_tail = chain;
        chain->pool_next = keep_head;
        keep_head = chain;
      }
      chain = next;
    }
    if (kept_unchecked) w.parked_recheck = true;
    if (keep_head != nullptr) {
      // Republish the survivors with a single CAS-splice.
      Task* head = w.parked_inbox.load(std::memory_order_relaxed);
      do {
        keep_tail->pool_next = head;
      } while (!w.parked_inbox.compare_exchange_weak(
          head, keep_head, std::memory_order_release,
          std::memory_order_relaxed));
    }
    if (take != nullptr) {
      r.parked_count.fetch_sub(1, std::memory_order_release);
      ++w.stats.parked_claimed;
      trace_record(w.ring, TraceEvent::unpark, v.id);
      return take;
    }
  }
  return nullptr;
}

Task* Scheduler::steal_work(Worker& w) {
  const unsigned n = cfg_.num_threads;
  if (n <= 1) return nullptr;
  // One snapshot generation per steal round: victim order, batch caps and
  // raid notifications all come from the same pinned generation (find_work
  // pinned it at the top of this round).
  PolicySnapshot& sp = *w.snap;
  constexpr std::size_t raid_max = 64;
  Task* batch[raid_max];
  const std::size_t base_cap =
      std::clamp<std::size_t>(cfg_.steal_batch_max, std::size_t{1}, raid_max);
  // A raid claims only a task this worker may run (the tsc_allows rule,
  // checked before the claim) and the run of its siblings behind it, which
  // share its parent and so are allowed too. It returns the oldest and
  // pushes any surplus onto the thief's own deque, oldest first, so the
  // next pop takes the newest, and the thief's own spawns land on top of
  // it. A plain push, not enqueue_released: that would hide the newest
  // stolen task in the private slot. Surplus keeps the references it was
  // spawned with, so no accounting happens on this path.
  auto raid = [&](unsigned v) -> std::size_t {
    ++w.stats.steal_attempts;
    trace_record(w.ring, TraceEvent::steal_attempt, v);
    // The cap per victim is the policy's call (hierarchical shrinks it
    // across the interconnect). The oldest task must pass tsc_allows
    // (peeked: it is not claimed yet); each later one must share its
    // parent.
    const std::size_t got = workers_[v]->deque.steal_batch(
        batch, cfg_.steal_half ? sp.policy->batch_cap(w, v, base_cap) : 1,
        [&w](const Task& t, const Task* first) {
          if (first != nullptr) return t.parent() == first->parent();
          return w.tsc_top == nullptr || t.peek_descends_from(*w.tsc_top);
        });
    if (cfg_.steal_half && got > 0) ++w.stats.steal_batches;
    sp.policy->raided(w, v, got > 0);
    if (got == 0) return 0;
    w.stats.tasks_stolen += got;
    // The record carries the raid's task count and the (victim_node,
    // thief_node) pair the ping-pong analyzer consumes.
    trace_record(w.ring, TraceEvent::steal_hit, got,
                 trace_pack_nodes(workers_[v]->node, w.node));
    if (workers_[v]->node == w.node) {
      ++w.stats.steals_local_node;
    } else {
      ++w.stats.steals_remote_node;
    }
    for (std::size_t i = 1; i < got; ++i) w.deque.push(batch[i]);
    // Surplus transition: this node now holds stealable work. Publishing is
    // the conservative direction — a set word only costs probes.
    if (got > 1 && sp.hints != nullptr) sp.hints->publish(w.node);
    return got;
  };
  // The probe ORDER is entirely the policy's decision (affinity hints,
  // same-node-first tiers, rotation); this loop only executes it. The
  // raids run inside an odd raid_seq: memory they may read is not released
  // until the round ends (await_raids).
  const std::uint64_t seq = w.raid_seq.load(std::memory_order_relaxed);
  w.raid_seq.store(seq + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  const unsigned cnt = sp.policy->victim_order(w, w.victim_buf.data());
  Task* stolen = nullptr;
  for (unsigned k = 0; k < cnt && stolen == nullptr; ++k) {
    if (raid(w.victim_buf[k])) stolen = batch[0];
  }
  w.raid_seq.store(seq + 2, std::memory_order_release);
  if (stolen != nullptr) return stolen;
  // Node-wide dryness check, only on a fully fruitless round: this
  // worker's local state is already empty (find_work precondition), so if
  // every home deque also looks empty — and nothing is waiting in the
  // node's mailbox — the node's has-work word goes down and remote
  // planners stop paying probes for us. A publish racing this clear is
  // benign: home workers never consult the word for their own node, and
  // the hierarchical backoff bounds the remote delay.
  if (sp.hints != nullptr) {
    bool dry = mailboxes_ == nullptr || mailboxes_[w.node].empty();
    if (dry) {
      for (const unsigned m : topo_.workers_on(w.node)) {
        if (!workers_[m]->deque.empty_estimate()) {
          dry = false;
          break;
        }
      }
    }
    if (dry) sp.hints->clear(w.node);
  }
  return nullptr;
}

Task* Scheduler::find_work(Worker& w) {
  for (;;) {
    // 0. Pin the policy snapshot for this round. Steady state is one
    // seq_cst load (a plain MOV on x86) + a pointer compare — no lock, no
    // store, no barrier instruction; only an actual generation change pays
    // the announce-validate handshake.
    pin_snapshot(w);
    // 1. The private LIFO slot (the newest spawn — no fence, no deque),
    // then the own deque (order selects depth- vs breadth-first), where
    // this worker's spawns sit on top of any surplus its raids left.
    if (Task* t = w.slot; t != nullptr) {
      w.slot = nullptr;
      if (tsc_allows(w, *t)) return t;
      park_refused(w, t);
    }
    for (;;) {
      Task* t = cfg_.local_order == LocalOrder::lifo ? w.deque.pop()
                                                     : w.deque.steal();
      if (t == nullptr) break;
      if (tsc_allows(w, *t)) return t;
      park_refused(w, t);
    }
    // 1.5 Range halves mailed to this node (use_hint_placement): fresher
    // than anything stealable and placed here precisely because this node
    // was hungry, so they outrank parked claims and raids. Steady state
    // (no placement, empty mailbox) is one null check + one relaxed load.
    if (mailboxes_ != nullptr) {
      if (Task* t = take_mailed(w, /*scavenge=*/false)) {
        if (tsc_allows(w, *t)) return t;
        park_refused(w, t);
      }
    }
    // 2. Parked constraint-refused claims. Checked once local work is out —
    // off the per-pop hot path — but before stealing, so a waiting ancestor
    // reaches its parked descendant on every idle round.
    if (Task* t = claim_parked(w)) return t;
    // 3. Steal: a raid claims only tasks this worker may run. The fold is
    // paid first: the local work it was folding across has run out, and a
    // stolen subtree can keep this worker away for long.
    flush_fold(w);
    if (Task* t = steal_work(w)) return t;
    // 3.5 Liveness fallback for hint placement: before reporting idle,
    // sweep the OTHER nodes' mailboxes too — a mailed half must never
    // strand behind a target node that stays busy in long task bodies. A
    // refused half is parked, which is progress: loop back.
    bool parked = false;
    if (mailboxes_ != nullptr) {
      if (Task* t = take_mailed(w, /*scavenge=*/true)) {
        if (tsc_allows(w, *t)) return t;
        park_refused(w, t);
        parked = true;
      }
    }
    if (!parked) {
      // Nothing local, parked or stealable anywhere: a starvation signal
      // for the adaptive grain controllers (a coarse range schedule that
      // cannot split is the classic way a team ends up here). Each
      // controller's live-range gate scopes the note to the sites it
      // concerns.
      if (cfg_.use_adaptive_grain) grain_table_.note_hungry();
      ++w.stats.hungry_rounds;
      trace_record(w.ring, TraceEvent::hungry);
      return nullptr;
    }
  }
}

void Scheduler::assert_between_regions() noexcept {
#ifndef NDEBUG
  // Between-regions contract shared by plan_steal_order and reconfigure:
  // both mutate plain per-worker state (rng, affinity hints, node ids)
  // that the workers themselves mutate while a region is live.
  std::lock_guard<std::mutex> lock(region_mutex_);
  assert(region_ == nullptr && "only valid between regions");
#endif
}

void Scheduler::install_snapshot_locked(bool live) {
  auto next = std::make_unique<PolicySnapshot>();
  next->version = snap_version_.load(std::memory_order_relaxed) + 1;
  next->kind = cfg_.resolved_steal_policy();
  // Hints cost a publish load on every enqueue and a dryness scan on every
  // fruitless steal round, and ONLY the hierarchical policy on a
  // multi-node topology ever reads them — every other configuration gets
  // a null pointer and pays nothing.
  if (cfg_.use_node_work_hints &&
      next->kind == StealPolicyKind::hierarchical && topo_.num_nodes() > 1) {
    next->hints = std::make_unique<NodeHints>(topo_.num_nodes());
    if (live) {
      // Live swap: fresh words start SET, not clear. Work enqueued before
      // the swap was published into the OLD generation's words; a clear
      // word here would gate remote probes away from nodes that do hold
      // work. A stale SET only costs the probes it was meant to save and
      // self-corrects at the first observed-dry round.
      for (unsigned n = 0; n < topo_.num_nodes(); ++n) next->hints->publish(n);
    }
  }
  next->policy = make_steal_policy(cfg_, topo_, next->hints.get());
  next->grain = &grain_table_;
  next->watchdog_ms = cfg_.watchdog_ms;
  next->watchdog_cancel = cfg_.watchdog_cancel;

  PolicySnapshot* raw = next.get();
  std::unique_ptr<PolicySnapshot> old = std::move(snap_owner_);
  snap_owner_ = std::move(next);
  active_kind_.store(static_cast<std::uint8_t>(raw->kind),
                     std::memory_order_relaxed);
  // Publication order — pointer FIRST, version second: pin_snapshot's
  // validate relies on "version v observed ⇒ snap_ holds generation >= v".
  snap_.store(raw, std::memory_order_seq_cst);
  snap_version_.store(raw->version, std::memory_order_seq_cst);

  if (old != nullptr) {
    // A team worker swapping from inside a task body cannot wait on its own
    // epoch slot: advance its pin by hand first (safe — it is this thread).
    if (Worker* self = detail::tls_worker;
        self != nullptr && self->sched == this && self->snap != nullptr) {
      self->snap = raw;
      self->snap_epoch.store(raw->version, std::memory_order_seq_cst);
      self->last_victim = Worker::no_victim;
      self->gated_rounds = 0;
    }
    wait_quiescent(raw->version);
  }
  // `old` — the previous generation's policy AND its hints — dies here,
  // after quiescence proved no worker can still dereference it.
}

void Scheduler::wait_quiescent(std::uint64_t version) noexcept {
  // A slot of 0 is quiescent (between regions / at region exit); anything
  // >= `version` has re-pinned onto the new generation. Anything else is a
  // worker still acting on an older generation: wait it out. Bounded by
  // the longest running task body or grain chunk — pin points sit at the
  // top of every find_work round, at region entry, and at every
  // range-chunk boundary, exactly the cadence that bounds cancellation
  // latency.
  for (const auto& w : workers_) {
    Backoff backoff;
    for (;;) {
      const std::uint64_t e = w->snap_epoch.load(std::memory_order_seq_cst);
      if (e == 0 || e >= version) break;
      backoff.pause();
    }
  }
}

PolicySnapshot* Scheduler::pin_snapshot(Worker& w) noexcept {
  PolicySnapshot* cur = snap_.load(std::memory_order_seq_cst);
  if (cur == w.snap) return cur;  // steady state: one load + compare
  // Generation changed (or first pin this region). Announce-validate: store
  // the version we intend to pin into the epoch slot, then re-read the
  // version; repeat until it held still. SC order closes the classic
  // epoch race — once the validating read returned v, any swapper
  // publishing v+1 does so LATER in the total order, and its quiescence
  // scan (later still) must observe our slot at v and wait. The pointer
  // loaded after that is therefore protected: generation >= v cannot be
  // retired while the slot holds v.
  std::uint64_t v = snap_version_.load(std::memory_order_seq_cst);
  for (;;) {
    w.snap_epoch.store(v, std::memory_order_seq_cst);
    const std::uint64_t check = snap_version_.load(std::memory_order_seq_cst);
    if (check == v) break;
    v = check;
  }
  PolicySnapshot* s = snap_.load(std::memory_order_seq_cst);
  if (s->version != v) {
    // An even newer generation landed between the validate and the pointer
    // load (s->version > v by publication order — never older). Raise the
    // slot to what we actually hold so a swapper retiring s's predecessors
    // never waits on this worker.
    w.snap_epoch.store(s->version, std::memory_order_seq_cst);
  }
  w.snap = s;
  // First pin of a new generation re-seeds the per-worker transient steal
  // state — the RCU replacement for the global-stop reset reconfigure()
  // does in its worker loop: a last_victim or hint-backoff count earned
  // under the old policy is meaningless (not dangerous, just wrong) under
  // the new one.
  w.last_victim = Worker::no_victim;
  w.gated_rounds = 0;
  return s;
}

void Scheduler::reconfigure_live(StealPolicyKind kind) {
  reconfigure_live(kind, LiveTunables{});
}

void Scheduler::reconfigure_live(StealPolicyKind kind,
                                 const LiveTunables& tune) {
  if (!cfg_.live_reconfigure) {
    throw std::logic_error(
        "bots::rt: reconfigure_live() disabled (RT_LIVE_RECONF=0); use "
        "reconfigure() between regions");
  }
  std::lock_guard<std::mutex> lock(reconf_mutex_);
  cfg_.steal_policy = kind;
  if (tune.grain_base > 0) grain_table_.global().seed(tune.grain_base);
  if (tune.watchdog_ms != ~0u) cfg_.watchdog_ms = tune.watchdog_ms;
  if (tune.watchdog_cancel != 0) cfg_.watchdog_cancel = tune.watchdog_cancel == 2;
  install_snapshot_locked(/*live=*/true);
}

void Scheduler::rebuild_mailboxes() {
  // Mailboxes exist only where the placement decision could ever fire:
  // knob on, multi-node, hints enabled. Deliberately NOT gated on the
  // CURRENT policy kind — a live swap to hierarchical must find them
  // ready, and a swap away must still drain halves mailed before it.
  // Everybody else keeps a null pointer and find_work's mailbox probes
  // vanish behind it.
  mailboxes_.reset();
  if (cfg_.use_hint_placement && cfg_.use_node_work_hints &&
      topo_.num_nodes() > 1) {
    mailboxes_ = std::make_unique<RangeMailbox[]>(topo_.num_nodes());
  }
}

std::vector<Scheduler::NodePoolSnapshot> Scheduler::node_pool_snapshot()
    const {
  std::vector<NodePoolSnapshot> snap;
  if (!node_pools_active()) return snap;
  snap.resize(topo_.num_nodes());
  for (const auto& w : workers_) {
    const TaskPool::Counts c = w->pool.counts();
    NodePoolSnapshot& n = snap[topo_.node_of(w->id)];
    n.cached += c.free;
    n.arena_free += c.returned;
    n.arena_carved += c.carved;
    for (unsigned o = 0; o < static_cast<unsigned>(w->returns.size()); ++o) {
      snap[topo_.node_of(o)].in_transit += w->returns[o].count;
    }
  }
  return snap;
}

void Scheduler::restore_caller_mask() noexcept {
  if (!caller_pinned_ || caller_affinity_.empty()) return;
  if (current_tid() == caller_tid_) {
    (void)pin_current_thread(caller_affinity_);
    return;
  }
  // Cross-thread restore, addressed by kernel tid — but only while the tid
  // still names a live thread of this process: tids are recycled after a
  // thread exits, and an unguarded sched_setaffinity would clobber
  // whatever unrelated thread inherited the id.
  if (same_process_thread(caller_tid_)) {
    (void)pin_thread(caller_tid_, caller_affinity_);
  }
}

void Scheduler::apply_pinning(Worker& w) noexcept {
  w.pin_seen = pin_generation_;
  const std::vector<unsigned>* prepin = nullptr;
  if (w.id == 0) {
    // Worker 0 is whatever thread entered this region: save THAT thread's
    // mask (not the constructing thread's) so the destructor can hand it
    // back, and remember the thread so a different caller re-pins. A
    // caller displaced by a new one gets its mask back right here — it is
    // not the thread executing this, so the restore goes by tid.
    restore_caller_mask();
    caller_thread_ = std::this_thread::get_id();
    caller_tid_ = current_tid();
    caller_affinity_.clear();
    (void)save_current_affinity(caller_affinity_);
    caller_pinned_ = true;
    prepin = &caller_affinity_;
  } else {
    if (!w.prepin_saved) {
      w.prepin_saved = save_current_affinity(w.prepin_affinity);
    }
    if (w.prepin_saved) prepin = &w.prepin_affinity;
  }
  const std::vector<unsigned>& cpus = topo_.cpus_on(w.node);
  // An injected pin failure takes the same graceful path as a refused
  // sched_setaffinity: the worker runs unpinned (stats.pinned = 0) on its
  // pre-pin mask.
  bool ok = !cpus.empty() && !inject(&w, FaultSite::pin) &&
            pin_current_thread(cpus);
  if (ok) {
    // Record reality, not intent: the pin only counts when the thread is
    // observed running inside the requested cpuset afterwards.
    const int cpu = current_cpu();
    ok = cpu >= 0 && std::find(cpus.begin(), cpus.end(),
                               static_cast<unsigned>(cpu)) != cpus.end();
  }
  if (!ok && prepin != nullptr && !prepin->empty()) {
    // A failed (re-)pin must leave the thread genuinely unpinned, not
    // hard-bound to some PREVIOUS topology's cpuset while stats call it
    // unpinned — fall back to the thread's pre-pin mask.
    (void)pin_current_thread(*prepin);
  }
  w.pin_applied = ok;
}

void Scheduler::reconfigure(StealPolicyKind kind,
                            const std::string& synthetic_topology) {
  {
    // Checked in every build mode, not just the debug assert: reconfigure
    // under a live region (including the resident server region) would
    // rebuild mailboxes whose halves are still in flight and re-map node
    // ids under workers that are using them — silent memory corruption in
    // release builds before this guard.
    std::lock_guard<std::mutex> lock(region_mutex_);
    if (region_ != nullptr) {
      throw std::logic_error(
          "bots::rt: reconfigure() called while a region is live; "
          "drain or stop the region (server) first");
    }
  }
  cfg_.steal_policy = kind;
  cfg_.synthetic_topology = synthetic_topology;
  topo_ = Topology::detect(cfg_.num_threads, synthetic_topology);
  {
    // Between regions every worker's epoch slot is 0 (quiescent), so this
    // is a plain swap: install, no waiting.
    std::lock_guard<std::mutex> lock(reconf_mutex_);
    install_snapshot_locked(/*live=*/false);
  }
  for (auto& w : workers_) {
    // Refresh the cached node id (steal-locality counters and the hint
    // word addressed on enqueue would otherwise use — possibly
    // out-of-range — stale nodes) and drop every per-worker victim hint:
    // a last_victim learned under the old topology can point off-node
    // under the new one, and the backoff counter belongs to the old hint
    // array.
    w->node = topo_.node_of(w->id);
    w->last_victim = Worker::no_victim;
    w->gated_rounds = 0;
  }
  rebuild_mailboxes();
  if (pin_generation_ != 0) ++pin_generation_;  // re-pin at next region entry
  // Frozen task graphs recorded under the old shape (team, topology,
  // placement) must re-record, not replay: invalidate them all.
  ++graph_epoch_;
}

void Scheduler::set_victim_hint(unsigned worker, unsigned victim) noexcept {
  assert_between_regions();
  if (worker < workers_.size()) workers_[worker]->last_victim = victim;
}

unsigned Scheduler::plan_range_placement(unsigned worker) {
  assert_between_regions();
  // Report what publish_range_half would DO, not just what the policy
  // would prefer: without mailboxes (placement knob off, or no hints) no
  // half is ever mailed, whatever the policy says.
  if (mailboxes_ == nullptr || worker >= workers_.size()) {
    return StealPolicy::no_node;
  }
  std::lock_guard<std::mutex> lock(reconf_mutex_);
  return snap_owner_->policy->place_range_half(*workers_[worker]);
}

std::vector<unsigned> Scheduler::plan_steal_order(unsigned worker) {
  assert_between_regions();
  std::vector<unsigned> order;
  if (worker >= workers_.size() || cfg_.num_threads <= 1) return order;
  Worker& w = *workers_[worker];
  order.resize(cfg_.num_threads);
  unsigned cnt = 0;
  {
    std::lock_guard<std::mutex> lock(reconf_mutex_);
    cnt = snap_owner_->policy->victim_order(w, order.data());
  }
  order.resize(cnt);
  return order;
}

// One rule for every claim, whatever the claimed task's tiedness: a worker
// whose innermost suspended tied task is P may start only descendants of
// P. Untied frames are never suspended on tsc_top — a wait inside one
// constrains nothing — and the rule stays live:
// * each worker's innermost waiting frame descends from its tsc_top (it
//   was started under the rule, or it is tsc_top), so that worker may
//   claim the frame's queued and parked descendants itself;
// * every waits-for edge points to a task that started later: a frame
//   waits for its descendants, and a buried frame waits for the frames
//   above it on its worker;
// * so waits cannot form a cycle, and following them from any waiting
//   frame ends at a running task or at one its innermost waiter may claim.
// Raids check the rule before they claim (steal_work passes it to
// steal_batch) and leave a refused task in its victim's deque. That costs
// no liveness: every scheduling point starts with the local phase, which
// runs or parks everything in the worker's own slot and deque before it
// claims parked work or steals, so every queued task is eventually popped
// by its owner, and a raid never needs to take a task it cannot run to
// uncover one behind it. The limit: this assumes the owner reaches a
// scheduling point. A task body that blocks on another task without
// reaching one leaves its worker's queue to thieves the rule permits.
// Runtimes that can resume a suspended task elsewhere may exempt untied
// tasks; this one cannot, so an untied task claimed on top of an unrelated
// tied wait could strand its tied children on every worker.
bool Scheduler::tsc_allows(const Worker& w, const Task& t) const noexcept {
  return w.tsc_top == nullptr || t.is_descendant_of(*w.tsc_top);
}

StatsSnapshot Scheduler::stats() const {
  StatsSnapshot snap;
  snap.per_worker.reserve(workers_.size());
  for (const auto& w : workers_) {
    snap.per_worker.push_back(w->stats.snapshot());
    snap.total += snap.per_worker.back();
  }
  return snap;
}

void Scheduler::reset_stats() noexcept {
  for (auto& w : workers_) w->stats.reset();
}

}  // namespace bots::rt
