// Worksharing constructs layered over run_all regions.
//
// These reproduce the "tasks inside omp for / single" generator schemes of
// Table I: Alignment generates tasks from a dynamically scheduled `for`,
// SparseLU's `for` version generates each phase's tasks from a static `for`
// across the team (multiple generators), while the `single` versions funnel
// all generation through one worker.
//
// spawn_range is the loop-style alternative to per-iteration task
// generation: one descriptor stands for a whole iteration range and splits
// on demand (see RangeDesc in task.hpp and the design note at the top of
// scheduler.hpp). With SchedulerConfig::use_range_tasks on, the Alignment,
// SparseLU `for` and Health `for` generators, Sort's merge phases and FFT's
// scatter and butterfly loops use it; perfbench's server mix calls it
// directly.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "runtime/scheduler.hpp"

namespace bots::rt {

/// Shared iteration state for for_dynamic. Construct one per worksharing
/// construct, outside run_all, and capture it by reference in the region
/// body (every worker must use the same object).
class DynamicSchedule {
 public:
  explicit DynamicSchedule(std::int64_t begin = 0) : next_(begin) {}

  void reset(std::int64_t begin) noexcept {
    next_.store(begin, std::memory_order_relaxed);
  }

  [[nodiscard]] std::int64_t fetch_chunk(std::int64_t chunk) noexcept {
    return next_.fetch_add(chunk, std::memory_order_relaxed);
  }

 private:
  alignas(64) std::atomic<std::int64_t> next_;
};

/// `#pragma omp for schedule(static)`: contiguous block partition of
/// [begin, end) across the team. No implicit barrier (nowait); call
/// rt::barrier() if the phase must synchronize.
template <class Body>
void for_static(std::int64_t begin, std::int64_t end, Body&& body) {
  const std::int64_t n = end - begin;
  if (n <= 0) return;
  const std::int64_t team = static_cast<std::int64_t>(team_size());
  const std::int64_t id = static_cast<std::int64_t>(worker_id());
  const std::int64_t base = n / team;
  const std::int64_t rem = n % team;
  const std::int64_t lo = begin + id * base + (id < rem ? id : rem);
  const std::int64_t hi = lo + base + (id < rem ? 1 : 0);
  for (std::int64_t i = lo; i < hi; ++i) body(i);
}

/// `#pragma omp for schedule(static, chunk)`: chunk-cyclic partition.
template <class Body>
void for_static_chunked(std::int64_t begin, std::int64_t end,
                        std::int64_t chunk, Body&& body) {
  const std::int64_t team = static_cast<std::int64_t>(team_size());
  const std::int64_t id = static_cast<std::int64_t>(worker_id());
  for (std::int64_t lo = begin + id * chunk; lo < end; lo += team * chunk) {
    const std::int64_t hi = lo + chunk < end ? lo + chunk : end;
    for (std::int64_t i = lo; i < hi; ++i) body(i);
  }
}

/// `#pragma omp for schedule(dynamic, chunk)`. The shared DynamicSchedule
/// must have been reset to `begin` before the region.
template <class Body>
void for_dynamic(DynamicSchedule& sched, std::int64_t end, std::int64_t chunk,
                 Body&& body) {
  for (;;) {
    const std::int64_t lo = sched.fetch_chunk(chunk);
    if (lo >= end) return;
    const std::int64_t hi = lo + chunk < end ? lo + chunk : end;
    for (std::int64_t i = lo; i < hi; ++i) body(i);
  }
}

/// Shared claim state for single_nowait. Construct one per lexical `single`
/// construct, outside the region, and capture it by reference in the region
/// body — like DynamicSchedule. One gate serves any number of dynamic
/// encounters of its construct (e.g. a single inside a loop): per-worker
/// encounter counters line the workers up on the same instance sequence and
/// one shared claim counter elects the first arriver of each instance.
class SingleGate {
 public:
  /// `team` must cover every worker id that can reach the construct
  /// (Scheduler::num_workers()).
  explicit SingleGate(unsigned team) : seen_(team) {}

  SingleGate(const SingleGate&) = delete;
  SingleGate& operator=(const SingleGate&) = delete;

  /// First-arrival claim for this worker's next encounter of the construct.
  /// Exactly one worker per instance gets `true`. Every worker of the team
  /// must encounter the construct instances in the same order (the usual
  /// OpenMP worksharing requirement).
  [[nodiscard]] bool try_claim() noexcept {
    const std::uint64_t instance = ++seen_[worker_id()].encounters;
    std::uint64_t expected = instance - 1;
    // claimed_ counts fully claimed instances. A worker reaching instance n
    // has already passed (and observed claimed or claimed itself) every
    // earlier instance, so claimed_ >= n - 1 here: the CAS succeeds exactly
    // for the first arriver of instance n.
    return claimed_.compare_exchange_strong(expected, instance,
                                            std::memory_order_acq_rel,
                                            std::memory_order_acquire);
  }

 private:
  struct alignas(cache_line_bytes) Slot {
    std::uint64_t encounters = 0;
  };
  std::vector<Slot> seen_;
  alignas(cache_line_bytes) std::atomic<std::uint64_t> claimed_{0};
};

/// `#pragma omp single nowait` with OpenMP's first-arrival semantics: the
/// FIRST worker to reach the construct executes it; nobody waits. (A static
/// worker-0 binding would stall task generation behind a late worker 0.)
/// Follow with rt::barrier() when the single's effects must be visible to
/// the team.
template <class F>
void single_nowait(SingleGate& gate, F&& f) {
  if (gate.try_claim()) std::forward<F>(f)();
}

// ---------------------------------------------------------------------------
// Splittable range tasks.
// ---------------------------------------------------------------------------

namespace detail {

/// The closure executed by a range-task descriptor: peels grain-sized chunks
/// off [lo, hi) and splits off the upper half as a sibling descriptor
/// whenever this worker's local queue is dry — which is the state a steal
/// leaves behind, so splitting tracks thief demand. A thief that steals a
/// range immediately splits on its first check (its deque is empty: it was
/// stealing), re-exposing half for other thieves; an uncontended owner keeps
/// the one descriptor and only re-splits along a logarithmic chain.
template <class Body>
struct RangeRunner {
  RangeDesc desc;
  Body body;

  void operator()() {
    Worker* w = tls_worker;  // range tasks only ever run deferred, in-region
    Scheduler& s = *w->sched;
    std::int64_t lo = desc.lo;
    std::int64_t hi = desc.hi;
    const std::int64_t grain = desc.grain;
    RegionCtx* ctx = w->current->ctx();  // this range task's request, if any
    const bool splittable = w->region->team_size > 1;
    while (lo < hi) {
      // Cancellation boundary at every grain chunk: a cancelled region —
      // or, in server mode, this range's cancelled request context —
      // truncates the remainder right here, so range latency is bounded by
      // one chunk, not the whole range. execute_deferred dispatches range
      // tasks even after a cancel, so this check is what drops the rest.
      if (w->region->cancelled() || (ctx != nullptr && ctx->cancelled())) {
        break;
      }
      // Split when this worker's local queue is dry: a steal (or this
      // worker's own drain) just emptied it, so somebody is hungry. A
      // thief's first check after stealing a lone range always passes.
      // The snapshot is pinned fresh per chunk, not once per range: a long
      // range must not hold one policy generation across its whole body,
      // or a live reconfigure would stall on it. Re-pinning here bounds
      // swap latency to one grain chunk, the same cadence as cancellation;
      // publish_range_half places the half by the pinned snapshot.
      if (splittable && hi - lo > grain) {
        s.pin_snapshot(*w);
        if (w->queued_fewer_than(1)) {
          const std::int64_t mid = lo + (hi - lo) / 2;
          if (split_off(*w, mid, hi)) {
            hi = mid;
            continue;
          }
          // Split refused (descriptor drought): keep the whole remainder
          // and chew through it serially — degraded but correct.
        }
      }
      const std::int64_t stop = lo + grain < hi ? lo + grain : hi;
      for (std::int64_t i = lo; i < stop; ++i) body(i);
      lo = stop;
      w->note_progress();  // one watchdog tick per chunk peeled
      // Per-request stall signal: a chunk dispatches no task, so the
      // request's executed count does not move for it.
      if (ctx != nullptr) ctx->note_progress(w->id);
    }
  }

  /// Publish [lo2, hi2) as a sibling of the running range task (same parent,
  /// same depth, same tiedness), so a taskwait at the original spawner joins
  /// every split exactly like the range itself. WHERE the half appears is
  /// the scheduler's placement call (publish_range_half): normally this
  /// worker's own deque — where the victim order sends same-node thieves
  /// first — but under use_hint_placement a half split on a saturated node
  /// while a remote node's has-work word is clear is mailed to that idle
  /// node's RangeMailbox instead, sparing it the cross-node steal.
  /// False when no descriptor could be obtained (degradation ladder): the
  /// caller keeps the whole remainder. Counters move only after the
  /// allocation succeeds, so a refused split leaves no phantom
  /// split/deferred counts behind and the accounting invariants hold on
  /// the degraded path.
  bool split_off(Worker& w, std::int64_t lo2, std::int64_t hi2) {
    Scheduler& s = *w.sched;
    Task* self = w.current;
    TaskStorage storage{};
    Task* t = s.alloc_task(w, storage);
    if (t == nullptr) return false;
    ++w.stats.range_splits;
    ++w.stats.tasks_deferred;
    // A split is both a split event AND a spawn (the half is a new deferred
    // descriptor — keeps the spawn/deferred conservation law exact).
    trace_record(w.ring, TraceEvent::split,
                 static_cast<std::uint64_t>(hi2 - lo2));
    trace_record(w.ring, TraceEvent::spawn, w.current->depth(), 1);
    t->init_env(RangeRunner<Body>{{lo2, hi2, desc.grain}, body});
    w.stats.env_bytes += t->env_bytes();
    Task* parent = self->parent();
    if (parent != nullptr) parent->add_child_ref();
    t->set_links(parent, self->depth(), self->tiedness(), storage);
    // set_links copied the parent's ctx, which is self's: a request frame
    // never runs as a range task, so the half stays under its request's frame.
    assert(t->ctx() == self->ctx());
    t->set_range(&t->env_as<RangeRunner<Body>>()->desc);
    s.publish_range_half(w, *t);
    return true;
  }
};

}  // namespace detail

/// Create ONE splittable task for the whole iteration range [lo, hi):
/// `body(i)` runs exactly once per i. `grain` is the caller's: it is both
/// the chunk peeled between split checks and the threshold below which a
/// remainder is never split (a split halves the remainder, so descriptors
/// can cover as few as (grain + 1) / 2 iterations). Joins like any task: a
/// taskwait in the spawner (or any barrier) covers the range and every half
/// split off it. Outside a region the range runs serially in place.
template <class Body>
void spawn_range(Tiedness tied, std::int64_t lo, std::int64_t hi,
                 std::int64_t grain, Body body) {
  if (hi - lo <= 0) return;
  if (grain < 1) grain = 1;
  Worker* w = detail::tls_worker;
  if (w == nullptr) {
    for (std::int64_t i = lo; i < hi; ++i) body(i);
    return;
  }
  Scheduler& s = *w->sched;
  ++w->stats.tasks_created;
  ++w->stats.range_tasks;
  TaskStorage storage{};
  Task* t = s.alloc_task(*w, storage);
  if (t == nullptr) {
    // Degradation ladder bottom: run the whole range serially on this
    // frame. Counted as cutoff_inlined (creation-side invariant) plus the
    // degradation marker.
    ++w->stats.tasks_cutoff_inlined;
    ++w->stats.tasks_degraded_inline;
    detail::run_inline_fast(*w, tied, [lo, hi, &body] {
      for (std::int64_t i = lo; i < hi; ++i) body(i);
    });
    return;
  }
  // The deferred count moves only now, after the descriptor exists (the
  // degraded path above must leave no phantoms).
  ++w->stats.tasks_deferred;
  trace_record(w->ring, TraceEvent::spawn,
               w->current->depth() + 1 + w->inline_depth, 1);
  t->init_env(detail::RangeRunner<Body>{{lo, hi, grain}, std::move(body)});
  w->stats.env_bytes += t->env_bytes();
  Task* parent = w->current;
  Scheduler::charge_parent(*w);
  const std::uint32_t depth = parent->depth() + 1 + w->inline_depth;
  t->set_links(parent, depth, tied, storage);
  t->set_range(&t->env_as<detail::RangeRunner<Body>>()->desc);
  s.enqueue(*w, *t);
}

template <class Body>
void spawn_range(std::int64_t lo, std::int64_t hi, std::int64_t grain,
                 Body body) {
  spawn_range(Tiedness::tied, lo, hi, grain, std::move(body));
}

}  // namespace bots::rt
