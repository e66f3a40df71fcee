// Task dependences: depend(in/out/inout) clauses for spawn (PR 8).
//
// OpenMP 4.0-style address-keyed dependence tracking, scoped to one
// generator (a DepScope): the generator thread keeps a last-writer /
// reader-set hash table per storage address and turns each spawn's clauses
// into true dependence edges between sibling tasks — an `in` depends on the
// address's last writer, an `out`/`inout` depends on the last writer AND
// every reader since, then becomes the new last writer. Tasks whose
// predecessors are still running wait UN-ENQUEUED on a pending-predecessor
// counter; the finish path releases their successor lists, so phases that
// previously needed taskwait barriers (SparseLU's fwd/bdiv -> bmod) overlap
// wherever the data allows.
//
// Concurrency protocol (the only cross-thread state is per-task):
//
// * Each dep-spawned task carries a DepNode (Task::dep). Its successor list
//   is a Treiber stack of DepEdge records pushed by the generator; the
//   FINISHING worker closes the stack by exchanging the head with a
//   sentinel (dep_closed) and walks the edges it took. A generator that
//   finds the stack already closed knows that predecessor is done and
//   self-satisfies the edge. pending counts unreleased predecessors plus a
//   registration guard the generator holds while it pushes edges, so the
//   task cannot be released half-registered; whoever moves pending to zero
//   (the last finishing predecessor, or the generator dropping the guard)
//   enqueues the task.
// * The tracker holds one extra reference on every task it may later name
//   as a predecessor (taken on the generator thread BEFORE publication, so
//   the rule that references are only ever added pre-publication — which
//   makes Task::exclusive()/release_ref() sound — is preserved). A pinned
//   descriptor survives its own finish; DepScope::wait() drops the pins
//   after the join, which also completes the deferred half of each task's
//   release chain into the parent.
// * Dep tasks are ALWAYS deferred — inlining one would run it before its
//   predecessors — and fully accounted at spawn (worker ledger, request
//   ledger); the release at predecessor-finish only ROUTES the task onto a
//   queue. A task waiting on its predecessors already holds the reference
//   on its parent it took at spawn, so it hangs by a reference chain from a
//   root frame, which cannot read exclusive meanwhile. Barriers therefore
//   never open early, and `executed + discarded == deferred` holds on
//   every path, including cancellation (a discarded predecessor still
//   releases its successors, so a cancelled DAG drains by discards instead
//   of deadlocking).
//
// Scoping rule (OpenMP's): dependences relate SIBLING tasks spawned by the
// same DepScope. Addresses touched by different scopes are unrelated.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "runtime/scheduler.hpp"

namespace bots::rt {

class TaskGraph;

/// Access mode of one depend() clause.
enum class DepAccess : std::uint8_t { in, out, inout };

/// One depend clause: an address (the dependence key — identity, not
/// contents) and how the task accesses it.
struct Dep {
  const void* addr = nullptr;
  DepAccess mode = DepAccess::inout;
};

/// Clause builders. The POINTER overloads key on the pointee (`in(block)`
/// for a float* names the block, the common kernel case); the object
/// overloads key on the object's own address (`inout(counter)`).
[[nodiscard]] inline Dep in(const volatile void* p) noexcept {
  return {const_cast<const void*>(p), DepAccess::in};
}
[[nodiscard]] inline Dep out(volatile void* p) noexcept {
  return {const_cast<const void*>(p), DepAccess::out};
}
[[nodiscard]] inline Dep inout(volatile void* p) noexcept {
  return {const_cast<const void*>(p), DepAccess::inout};
}
template <class T, class = std::enable_if_t<!std::is_pointer_v<std::decay_t<T>> &&
                                            !std::is_void_v<std::decay_t<T>>>>
[[nodiscard]] Dep in(const T& x) noexcept {
  return {static_cast<const void*>(&x), DepAccess::in};
}
template <class T, class = std::enable_if_t<!std::is_pointer_v<std::decay_t<T>> &&
                                            !std::is_void_v<std::decay_t<T>>>>
[[nodiscard]] Dep out(T& x) noexcept {
  return {static_cast<const void*>(&x), DepAccess::out};
}
template <class T, class = std::enable_if_t<!std::is_pointer_v<std::decay_t<T>> &&
                                            !std::is_void_v<std::decay_t<T>>>>
[[nodiscard]] Dep inout(T& x) noexcept {
  return {static_cast<const void*>(&x), DepAccess::inout};
}

/// One successor edge, pushed onto the predecessor's Treiber stack by the
/// generator and consumed exactly once by the finishing worker.
struct DepEdge {
  Task* succ = nullptr;
  DepEdge* next = nullptr;
};

namespace detail {
/// Sentinel a finished predecessor's successor stack is closed with. A
/// distinct address, never dereferenced.
inline DepEdge dep_closed_edge{};
[[nodiscard]] inline DepEdge* dep_closed() noexcept { return &dep_closed_edge; }
}  // namespace detail

/// Dependence side-structure of one task (Task::dep). Dynamic tasks use the
/// Treiber successor stack; graph-owned replay nodes (taskgraph.hpp) use the
/// baked successor index span instead and carry the owning graph pointer so
/// the finish path can route the release without a hash lookup.
struct DepNode {
  Task* task = nullptr;
  std::atomic<DepEdge*> succ_head{nullptr};
  /// Unreleased predecessors (+1 registration guard while the generator is
  /// still pushing edges). The task is enqueued by whoever moves it to 0.
  std::atomic<std::uint32_t> pending{0};
  // -- replay-only fields (null/0 on dynamic nodes) -------------------------
  TaskGraph* graph = nullptr;
  const std::uint32_t* baked_succs = nullptr;
  std::uint32_t baked_count = 0;
};

/// Recording hook a DepScope drives while a TaskGraph captures the region's
/// structure (taskgraph.hpp implements it). Kept abstract here so the spawn
/// template does not need the graph's definition.
class GraphRecorder {
 public:
  /// A registered node: its index and the graph-owned descriptor the spawn
  /// copies the body into (Task::init_env). The copy must be re-invocable:
  /// it runs once per replay and lives until the graph re-records or dies.
  struct NodeSlot {
    Task* task = nullptr;
    std::uint32_t index = 0;
  };
  /// Register one task.
  virtual NodeSlot record_node(Tiedness t) = 0;
  /// Register one structural dependence edge (recorded whether or not the
  /// predecessor had already finished at record time — replay re-resolves
  /// every edge).
  virtual void record_edge(std::uint32_t pred, std::uint32_t succ) = 0;
  /// The recording is unusable (a spawn degraded to inline execution, so
  /// the executed structure and the recorded structure diverged).
  virtual void record_abort() noexcept = 0;

 protected:
  ~GraphRecorder() = default;
};

/// One dependence-tracked generator scope. Spawn tasks with depend clauses;
/// wait() (or destruction) joins them all and releases the tracker state.
/// Single-threaded use by the owning generator task only.
class DepScope {
 public:
  DepScope() = default;
  /// Record mode: every spawn is also captured into `rec` (see
  /// run_graph_region in taskgraph.hpp).
  explicit DepScope(GraphRecorder* rec) noexcept : recorder_(rec) {}
  DepScope(const DepScope&) = delete;
  DepScope& operator=(const DepScope&) = delete;
  ~DepScope() { wait(); }

  /// Spawn a task ordered by `deps` against this scope's earlier spawns.
  /// Always deferred (an inlined dep task could run before its
  /// predecessors); outside a region it executes immediately — program
  /// order satisfies every dependence.
  template <class F>
  void spawn(Tiedness tied, std::initializer_list<Dep> deps, F&& f) {
    Worker* w = detail::tls_worker;
    if (w == nullptr) {
      std::forward<F>(f)();
      return;
    }
    Scheduler& s = *w->sched;
    ++w->stats.tasks_created;
    w->stats.deps_declared += deps.size();
    const std::uint32_t depth =
        (w->current != nullptr ? w->current->depth() + 1 : 1) + w->inline_depth;
    preds_.clear();
    for (const Dep& d : deps) collect_preds(d);
    std::uint32_t self_idx = 0;
    if (recorder_ != nullptr) {
      const GraphRecorder::NodeSlot rec = recorder_->record_node(tied);
      rec.task->init_env(f);  // the graph's own copy; `f` itself moves below
      self_idx = rec.index;
    }
    TaskStorage storage{};
    Task* t = s.alloc_task(*w, storage);
    if (t == nullptr) {
      // Degradation ladder bottom, dependence-safe: join every outstanding
      // scope task (they are all children of `current`), THEN run inline —
      // the body executes after its predecessors, trivially in order. The
      // structure now differs from a normal run, so a recording is void.
      ++w->stats.tasks_cutoff_inlined;
      ++w->stats.tasks_degraded_inline;
      if (recorder_ != nullptr) recorder_->record_abort();
      s.taskwait_from(*w);
      detail::run_inline_fast(*w, tied, std::forward<F>(f));
      apply_writes(deps, nullptr);  // completed: later deps wait on nobody
      return;
    }
    t->init_env(std::forward<F>(f));
    w->stats.env_bytes += t->env_bytes();
    Scheduler::charge_parent(*w);
    t->set_links(w->current, depth, tied, storage);
    DepNode* node = new_node(t);
    t->set_dep(node);
    // Tracker pin: +1 reference, taken pre-publication on this (the
    // generator) thread. Dropped by wait() after the join.
    t->add_ref();
    tracked_.push_back(t);
    if (recorder_ != nullptr) {
      index_of_[t] = self_idx;
      for (Task* p : preds_) recorder_->record_edge(index_of_[p], self_idx);
    }
    node->pending.store(1, std::memory_order_relaxed);  // registration guard
    for (Task* p : preds_) {
      DepEdge* e = new_edge(t);
      // Count the predecessor BEFORE publishing the edge: the finishing
      // worker's decrement must never observe a counter the edge is not in.
      node->pending.fetch_add(1, std::memory_order_relaxed);
      if (push_succ(p, e)) {
        ++w->stats.deps_edges;
      } else {
        // Stack already closed: the predecessor finished. Self-satisfy.
        node->pending.fetch_sub(1, std::memory_order_relaxed);
      }
    }
    apply_writes(deps, t);
    // Full spawn-side accounting happens HERE — the release at predecessor
    // finish only routes the task onto a queue, so the ledgers count it
    // once, from the moment it exists.
    ++w->stats.tasks_deferred;
    trace_record(w->ring, TraceEvent::spawn, t->depth(), 1);
    if (RegionCtx* c = t->ctx()) c->note_deferred(w->id);
    if (node->pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      s.enqueue_released(*w, *t);
    }
  }

  template <class F>
  void spawn(std::initializer_list<Dep> deps, F&& f) {
    spawn(Tiedness::tied, deps, std::forward<F>(f));
  }

  /// Join every task spawned by this scope (a taskwait on the generator's
  /// current task — a conservative superset), then drop the tracker pins
  /// and release the scope's dependence bookkeeping. The scope is reusable
  /// afterwards.
  void wait() {
    Worker* w = detail::tls_worker;
    if (w == nullptr) return;
    if (!tracked_.empty() || !table_.empty()) {
      w->sched->taskwait_from(*w);
      for (Task* t : tracked_) w->sched->release_dep_ref(*w, *t);
    }
    tracked_.clear();
    table_.clear();
    index_of_.clear();
    nodes_.clear();
    edges_.clear();
  }

 private:
  struct AddrState {
    Task* last_writer = nullptr;
    std::vector<Task*> readers;
  };

  void collect_preds(const Dep& d) {
    auto it = table_.find(d.addr);
    if (it == table_.end()) return;
    AddrState& a = it->second;
    if (a.last_writer != nullptr) preds_.push_back(a.last_writer);
    if (d.mode != DepAccess::in) {
      // A writer also waits for every reader since the last write
      // (anti-dependence); the last writer never sits in readers (a write
      // clears the set), so no duplicate from one address.
      for (Task* r : a.readers) preds_.push_back(r);
    }
  }

  /// Update the last-writer/reader table after a spawn. `t` == nullptr for
  /// a degraded-inline body that already COMPLETED: later tasks naming the
  /// address wait on nobody.
  void apply_writes(std::initializer_list<Dep> deps, Task* t) {
    for (const Dep& d : deps) {
      AddrState& a = table_[d.addr];
      if (d.mode == DepAccess::in) {
        if (t != nullptr) a.readers.push_back(t);
      } else {
        a.last_writer = t;
        a.readers.clear();
      }
    }
  }

  DepNode* new_node(Task* t) {
    DepNode& n = nodes_.emplace_back();
    n.task = t;
    return &n;
  }

  DepEdge* new_edge(Task* succ) {
    DepEdge& e = edges_.emplace_back();
    e.succ = succ;
    return &e;
  }

  /// Push `e` onto `pred`'s successor stack; false when the stack is
  /// already closed (the predecessor finished — its successor walk is over
  /// and will never see this edge).
  ///
  /// Reading the sentinel must acquire: the finishing worker closed the
  /// stack with a release after the predecessor's body, and the successor
  /// this generator then self-satisfies has to see that body's writes.
  static bool push_succ(Task* pred, DepEdge* e) noexcept {
    DepNode* pn = pred->dep();
    DepEdge* head = pn->succ_head.load(std::memory_order_acquire);
    do {
      if (head == detail::dep_closed()) return false;
      e->next = head;
    } while (!pn->succ_head.compare_exchange_weak(
        head, e, std::memory_order_release, std::memory_order_acquire));
    return true;
  }

  // Node/edge storage: deque for pointer stability, bulk-freed at wait()
  // (after quiescence, so no finishing worker can still be walking them).
  std::deque<DepNode> nodes_;
  std::deque<DepEdge> edges_;
  std::unordered_map<const void*, AddrState> table_;
  std::vector<Task*> tracked_;  ///< tasks pinned by a tracker reference
  std::vector<Task*> preds_;    ///< per-spawn scratch
  GraphRecorder* recorder_ = nullptr;
  std::unordered_map<Task*, std::uint32_t> index_of_;  ///< record mode only
};

}  // namespace bots::rt
