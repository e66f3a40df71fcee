// Task descriptor and per-worker descriptor pool.
//
// A Task owns a type-erased closure (the "captured environment" in BOTS
// terminology; `firstprivate` data in OpenMP terms). Environments up to
// Task::inline_env_capacity bytes live inside the descriptor itself —
// Table II of the paper shows almost every BOTS benchmark captures under
// 45 bytes per task, which is exactly why the paper suggests pre-allocated
// descriptor areas; larger environments (Floorplan captures ~5 KB) fall
// back to the heap.
//
// Lifetime: refs_ = 1 (the task itself, released when its body finishes)
// + 1 per live child. A task descriptor must outlive its children because
// children decrement the parent's unfinished-children counter at completion
// and the Task Scheduling Constraint walks parent chains.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "runtime/config.hpp"

namespace bots::rt {

class Worker;
class Task;
class RegionCtx;  // per-request server context (region_ctx.hpp)
struct DepNode;   // dependence-tracking side structure (dependency.hpp)

/// Where a task descriptor's storage came from, which decides how it is
/// released when the last reference drops.
enum class TaskStorage : std::uint8_t {
  stack_frame,  ///< implicit root or scope frame on a worker stack; not freed
  pooled,       ///< carved by a worker's TaskPool; freed back to a pool
  heap,         ///< plain new/delete (use_task_pool = false)
  graph         ///< owned by a frozen TaskGraph; re-armed on release
};

/// Static per-closure-type operations table. One immutable instance exists
/// per closure type, so a task descriptor stores a single pointer instead of
/// an (invoke, env_dtor) function-pointer pair — 8 bytes off the header and
/// one store less on the spawn fast path.
struct TaskOps {
  void (*invoke)(Task&);
  void (*destroy_env)(Task&) noexcept;
};

namespace detail {
template <class Fn>
struct TaskOpsFor;
}  // namespace detail

/// Payload variant for splittable range tasks (rt::spawn_range): one
/// descriptor stands for the whole iteration range [lo, hi). The executing
/// worker peels grain-sized chunks off the front and, whenever its local
/// queue runs dry (the signature a steal leaves behind), splits [mid, hi)
/// into a sibling descriptor that thieves can take. The fields live inside
/// the captured environment (the range runner closure); the descriptor
/// carries a pointer to them so the scheduler can recognize range tasks —
/// enqueue keeps them out of the private LIFO slot, where a splittable
/// range would be invisible to thieves until the owner's next scheduling
/// point.
struct RangeDesc {
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  std::int64_t grain = 1;
};

class Task {
 public:
  static constexpr std::size_t inline_env_capacity = 128;

  Task() = default;
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;

  /// Move-construct the closure into the descriptor.
  template <class F>
  void init_env(F&& f) {
    using Fn = std::decay_t<F>;
    env_bytes_ = static_cast<std::uint32_t>(sizeof(Fn));
    if constexpr (sizeof(Fn) <= inline_env_capacity &&
                  alignof(Fn) <= alignof(std::max_align_t)) {
      env_ = ::new (static_cast<void*>(inline_env_)) Fn(std::forward<F>(f));
      heap_env_ = false;
    } else {
      env_ = new Fn(std::forward<F>(f));
      heap_env_ = true;
    }
    ops_ = &detail::TaskOpsFor<Fn>::ops;
  }

  void invoke() { ops_->invoke(*this); }

  /// End of one dispatch: destroy the environment. A graph-owned descriptor
  /// keeps its recorded closure for the next replay — the TaskGraph destroys
  /// it (destroy_graph_env) when it re-records or dies.
  void destroy_env() noexcept {
    if (env_ != nullptr && storage_ != TaskStorage::graph) {
      ops_->destroy_env(*this);
    }
  }
  void destroy_graph_env() noexcept {
    if (env_ != nullptr) ops_->destroy_env(*this);
  }

  /// Typed view of the captured environment. Only valid between init_env and
  /// destroy_env, for the exact closure type passed to init_env.
  template <class Fn>
  [[nodiscard]] Fn* env_as() noexcept {
    return static_cast<Fn*>(env_);
  }

  /// Range payload (see RangeDesc). Null for ordinary tasks.
  [[nodiscard]] RangeDesc* range() const noexcept { return range_; }
  void set_range(RangeDesc* r) noexcept { range_ = r; }

  // -- intrusive state ------------------------------------------------------
  // parent_ and depth_ are read and written through atomic_refs (plain
  // moves on x86): a raid reads them on a descriptor it has not claimed yet
  // (WorkStealingDeque::steal_batch), which may be claimed, retired and
  // re-linked under it. The reader discards those values when its claim
  // fails; the atomics only make that window a non-race. The parent link is
  // stored last with release and loaded with acquire, so a walk that
  // follows a freshly re-linked descriptor still reads a parent whose
  // construction and links happen-before it.
  Task* parent() const noexcept {
    return std::atomic_ref<Task*>(const_cast<Task*&>(parent_))
        .load(std::memory_order_acquire);
  }
  std::uint32_t depth() const noexcept {
    return std::atomic_ref<std::uint32_t>(const_cast<std::uint32_t&>(depth_))
        .load(std::memory_order_relaxed);
  }
  Tiedness tiedness() const noexcept { return tied_; }
  std::uint32_t env_bytes() const noexcept { return env_bytes_; }
  TaskStorage storage() const noexcept { return storage_; }

  void set_links(Task* parent, std::uint32_t depth, Tiedness t,
                 TaskStorage storage) noexcept {
    store_links(parent, depth);
    tied_ = t;
    storage_ = storage;
    // A task belongs to its parent's request context (server mode): the
    // whole subtree of a request root shares one RegionCtx, and ordinary
    // regions propagate the null pointer for free. Root frames with no
    // parent set theirs explicitly via set_ctx.
    ctx_ = parent != nullptr ? parent->ctx_ : nullptr;
  }

  /// Per-request server context this task's subtree belongs to; null in
  /// ordinary (non-server) regions. Inherited from the parent by set_links
  /// (and by rearm, from the replaying task); set explicitly only on request
  /// root frames (Scheduler::run_scope).
  [[nodiscard]] RegionCtx* ctx() const noexcept { return ctx_; }
  void set_ctx(RegionCtx* c) noexcept { ctx_ = c; }

  // The reference count (low half) and unfinished-children count (high half)
  // live in ONE 64-bit atomic: a spawn charges its parent one reference and
  // one unfinished child in a single RMW, halving the parent-cacheline
  // traffic of the spawn and finish fast paths.
  //
  // Pre-charged slots: a task that keeps spawning charges itself
  // SpawnCharge::batch child+reference pairs in one RMW and hands them out
  // to later spawns without touching the word (Worker::charge). Unused
  // slots are phantom children: they are added, like every other child, by
  // this task's own executor only, and that executor returns them
  // (return_slots) at every settle point — taskwait, barrier, a scope's
  // join and the end of the task's body — before it reads the child count
  // or exclusive() can be read. Every invariant below therefore holds with
  // slots counted as children.
  static constexpr std::uint64_t ref_one = 1;
  static constexpr std::uint64_t child_one = std::uint64_t{1} << 32;
  static constexpr std::uint64_t ref_mask = child_one - 1;

  void add_child_ref() noexcept {
    state_.fetch_add(child_one + ref_one, std::memory_order_relaxed);
  }

  /// Charge `n` children and `n` references in ONE RMW: a graph replay
  /// before any root is enqueued, or a batch of pre-charged spawn slots.
  void add_children_bulk(std::uint64_t n) noexcept {
    state_.fetch_add(n * (child_one + ref_one), std::memory_order_relaxed);
  }

  /// The executor hands back `n` pre-charged slots it did not use. Never
  /// the last reference: the executor's own body still holds one.
  void return_slots(std::uint64_t n) noexcept {
    state_.fetch_sub(n * (child_one + ref_one), std::memory_order_acq_rel);
  }

  /// One extra reference with no child charge — the dependence tracker's
  /// descriptor pin (dependency.hpp). Must be taken on the generator thread
  /// BEFORE the task is published, preserving the rule exclusive() and the
  /// release_ref() fast path rely on: after the body has finished, the
  /// state word only ever decreases.
  void add_ref() noexcept {
    state_.fetch_add(ref_one, std::memory_order_relaxed);
  }

  void child_completed() noexcept {
    state_.fetch_sub(child_one, std::memory_order_acq_rel);
  }

  /// Fused child_completed + release_ref for the common case where the
  /// completing child descriptor dies in the same breath: one RMW announces
  /// the completion and drops the child's reference. Returns true when this
  /// was the last reference and the caller must recycle the descriptor.
  [[nodiscard]] bool child_completed_and_release() noexcept {
    return children_completed_and_release(1);
  }

  /// `n` completions and their references in one RMW (folded replay
  /// completions, Scheduler::flush_fold). True when this dropped the last
  /// reference.
  [[nodiscard]] bool children_completed_and_release(std::uint64_t n) noexcept {
    return (state_.fetch_sub(n * (child_one + ref_one),
                             std::memory_order_acq_rel) &
            ref_mask) == n;
  }

  [[nodiscard]] std::uint32_t unfinished_children() const noexcept {
    return static_cast<std::uint32_t>(state_.load(std::memory_order_acquire) >>
                                      32);
  }

  /// Exclusivity probe for the fused finish path: true when the state word
  /// reads exactly one reference and zero unfinished children. References
  /// and children — pre-charged slots included — are only ever added by
  /// this task's own executor (spawn), which settles its unused slots when
  /// the body ends, before this is read; so once the body has finished both
  /// counts can only decrease — an observed ref_one is stable, and the
  /// caller owns the descriptor outright with no RMW needed. (children > 0
  /// implies refs >= 2, since every live child or slot holds a reference,
  /// so ref_one alone proves both halves.)
  [[nodiscard]] bool exclusive() const noexcept {
    return state_.load(std::memory_order_acquire) == ref_one;
  }

  /// Drops one reference; returns true when this was the last one and the
  /// caller must recycle the descriptor (and then drop the parent's ref).
  /// Fast path: observing exactly one reference and no unfinished children
  /// means every party that ever held a reference is gone (references,
  /// pre-charged slots included, are only ever added by this task's own
  /// executor, in spawn, and its slots are settled before its own reference
  /// drops), so the caller is exclusive and no RMW is needed — leaf tasks
  /// release with one load.
  [[nodiscard]] bool release_ref() noexcept {
    if (state_.load(std::memory_order_acquire) == ref_one) return true;
    return (state_.fetch_sub(ref_one, std::memory_order_acq_rel) & ref_mask) ==
           1;
  }

  /// Restore the invariants a recycled descriptor must re-enter the spawn
  /// path with. Only the fields init_env/set_links do not overwrite need
  /// resetting: the fused state word (refs back to 1, children 0) and the
  /// environment pointer (so a stray destroy_env on an uninitialised
  /// descriptor stays a no-op). owner_ deliberately survives: the owner is
  /// a property of the descriptor's MEMORY (whose chunk it was carved from),
  /// not of any one use.
  void reset_for_reuse() noexcept {
    env_ = nullptr;
    range_ = nullptr;
    ctx_ = nullptr;  // a recycled descriptor must not leak its old request
    dep_ = nullptr;  // dependence node dies with the scope that allocated it
    state_.store(ref_one, std::memory_order_relaxed);
  }

  /// Graph replay: hang the node under this replay's parent, back to one
  /// reference and no children, for its next dispatch. Tiedness, storage,
  /// dep node and the recorded closure stay from the recording.
  void rearm(Task* parent, std::uint32_t depth, RegionCtx* ctx) noexcept {
    store_links(parent, depth);
    ctx_ = ctx;
    state_.store(ref_one, std::memory_order_relaxed);
  }

  /// Dependence-tracking node (dependency.hpp) for dep-spawned and
  /// graph-replayed tasks; null for every other task, so the finish-path
  /// successor-release hook costs one null check.
  [[nodiscard]] DepNode* dep() const noexcept { return dep_; }
  void set_dep(DepNode* d) noexcept { dep_ = d; }

  /// Worker whose TaskPool carved this descriptor (set once, at carve; the
  /// allocating worker for heap descriptors). Under SchedulerConfig::
  /// use_node_pools a freed descriptor always returns to this worker's pool;
  /// its locality node is Topology::node_of(owner()).
  [[nodiscard]] std::uint16_t owner() const noexcept { return owner_; }
  void set_owner(unsigned worker) noexcept {
    owner_ = static_cast<std::uint16_t>(worker);
  }

  /// True when `ancestor` appears on this task's parent chain. For a task
  /// the caller holds (claimed, running or suspended), whose chain is live,
  /// so plain reads suffice: this walk runs on every local claim, where the
  /// atomic reads of peek_descends_from cost a 1-worker flood ~10 ns/task
  /// (60 → 73 ns, 4-vCPU x86 VM, g++ 12 -O3).
  [[nodiscard]] bool is_descendant_of(const Task& ancestor) const noexcept {
    const Task* node = this;
    while (node != nullptr && node->depth_ > ancestor.depth_) {
      node = node->parent_;
    }
    return node == &ancestor;
  }

  /// is_descendant_of for a task the caller has not claimed: a raid's look
  /// before its CAS (WorkStealingDeque::steal_batch). The descriptor may be
  /// claimed, retired and re-linked under the reader, so its chain can be
  /// stale or even cyclic: the fields are read atomically, and the walk
  /// takes at most depth() - ancestor.depth() hops (depth grows by at least
  /// one per link), counted from the depth read once up front.
  [[nodiscard]] bool peek_descends_from(const Task& ancestor) const noexcept {
    const std::uint32_t stop = ancestor.depth();
    const Task* node = this;
    for (std::uint32_t hops = depth(); hops > stop && node != nullptr;
         --hops) {
      if (node->depth() <= stop) break;
      node = node->parent();
    }
    return node == &ancestor;
  }

  /// The inline environment's storage, for a DEAD descriptor only: a
  /// returned batch is written there (TaskPool::give_back).
  [[nodiscard]] void* dead_env() noexcept { return inline_env_; }
  [[nodiscard]] const void* dead_env() const noexcept { return inline_env_; }

  /// Intrusive link: freelist chain while recycled in a TaskPool (or the
  /// chain of returned batch heads), parked chain while sitting in a
  /// worker's TSC inbox. The uses are disjoint in a task's lifetime (a
  /// parked task is live, a pooled one is dead).
  Task* pool_next = nullptr;

 private:
  template <class Fn>
  friend struct detail::TaskOpsFor;

  void store_links(Task* parent, std::uint32_t depth) noexcept {
    std::atomic_ref<std::uint32_t>(depth_).store(depth,
                                                 std::memory_order_relaxed);
    std::atomic_ref<Task*>(parent_).store(parent, std::memory_order_release);
  }

  const TaskOps* ops_ = nullptr;
  void* env_ = nullptr;
  Task* parent_ = nullptr;
  RangeDesc* range_ = nullptr;  ///< range payload inside env_, else null
  RegionCtx* ctx_ = nullptr;    ///< owning request context; null off-server
  DepNode* dep_ = nullptr;      ///< dependence node; null for non-dep tasks
  std::atomic<std::uint64_t> state_{ref_one};  ///< children<<32 | refs
  std::uint32_t depth_ = 0;
  std::uint32_t env_bytes_ = 0;
  Tiedness tied_ = Tiedness::tied;
  TaskStorage storage_ = TaskStorage::stack_frame;
  bool heap_env_ = false;
  std::uint16_t owner_ = 0;  ///< worker whose pool carved this descriptor
  alignas(std::max_align_t) std::byte inline_env_[inline_env_capacity];
};

namespace detail {

template <class Fn>
struct TaskOpsFor {
  static void invoke(Task& t) { (*static_cast<Fn*>(t.env_))(); }
  static void destroy_env(Task& t) noexcept {
    if (t.heap_env_) {
      delete static_cast<Fn*>(t.env_);
    } else {
      static_cast<Fn*>(t.env_)->~Fn();
    }
    t.env_ = nullptr;
  }
  static constexpr TaskOps ops{&TaskOpsFor::invoke, &TaskOpsFor::destroy_env};
};

}  // namespace detail

/// Per-worker stash of descriptors freed on this worker but owned by ONE
/// other worker (Scheduler keeps one per owner). A free costs one store
/// here, of the descriptor's address; when the stash reaches flush_batch the
/// whole batch goes back to the owner in one TaskPool::give_back CAS.
/// Workers also flush every stash at region end, which bounds in-transit
/// memory and makes the between-regions balance exact (every descriptor
/// rests in its owner's pool).
struct RemoteStash {
  static constexpr std::uint32_t flush_batch = 16;

  Task* items[flush_batch];
  std::uint32_t count = 0;

  void push(Task* t) noexcept { items[count++] = t; }
};

/// Per-worker pool of task descriptors. Only the owning worker carves from
/// it, and every descriptor it carves records that worker as its owner
/// (Task::owner). Under SchedulerConfig::use_node_pools a freed descriptor
/// always comes back to its owner's pool: the owner recycles its own frees
/// onto the private freelist, and any other worker stashes them
/// (RemoteStash) and hands whole batches back onto the lock-free return
/// list, which the owner takes in one exchange when its freelist runs dry.
/// A returned batch carries its addresses: its first descriptor holds the
/// count and the other addresses in its dead inline environment, so the
/// owner knows the next descriptors before it touches them and prefetches
/// the lines a spawn writes a few hand-outs ahead. (A chain linked through
/// each dead descriptor would reveal the next address only by a miss on the
/// line a thief last wrote, one serial cross-core miss per reuse.) A pool
/// therefore holds at most its owner's peak live descriptors plus the ones
/// in transit, however the tasks were stolen, and the memory stays on the
/// node of the thread that first touched it. With the knob off the freeing
/// worker recycles into its OWN pool instead (the drift reference): pools
/// then grow without bound whenever one worker generates and others execute.
/// All chunk memory is owned here and released when the worker is
/// destroyed.
class TaskPool {
 public:
  static constexpr std::size_t chunk_tasks = 64;

  TaskPool() = default;
  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  ~TaskPool() {
    for (auto& chunk : chunks_) {
      ::operator delete[](chunk, std::align_val_t{alignof(Task)});
    }
  }

  /// Owner only: a recycled descriptor, reset for reuse — from the private
  /// freelist or, when that is empty, from the returned batches, taken from
  /// the return list all at once in one exchange. nullptr when both are
  /// empty; the caller carves then.
  Task* reuse() noexcept {
    Task* t = free_;
    if (t != nullptr) {
      free_ = t->pool_next;
    } else {
      if (next_ == taken_ && !open_batch()) return nullptr;
      if (next_ + prefetch_ahead < taken_) {
        prefetch_for_spawn(batch_[next_ + prefetch_ahead]);
      }
      t = batch_[next_++];
    }
    t->pool_next = nullptr;
    t->reset_for_reuse();
    return t;
  }

  /// Owner only: construct a fresh descriptor owned by worker `owner`.
  /// Throws bad_alloc with the pool unchanged when a new chunk is needed
  /// and cannot be had.
  Task* carve(unsigned owner) {
    if (next_in_chunk_ >= chunk_tasks) refill();
    Task* t = ::new (static_cast<void*>(chunk_cursor_ + next_in_chunk_)) Task();
    ++next_in_chunk_;
    t->set_owner(owner);
    return t;
  }

  /// The pool's worker only: push a dead descriptor onto the private
  /// freelist.
  void recycle(Task* t) noexcept {
    t->pool_next = free_;
    free_ = t;
  }

  /// Any thread: hand the `n` dead descriptors `items` (1 to
  /// RemoteStash::flush_batch, all carved by this pool) back in one CAS.
  /// items[0] carries the batch: the count and the other addresses go into
  /// its dead inline environment, and it alone is linked onto the return
  /// list.
  void give_back(Task* const* items, std::uint32_t n) noexcept {
    Task* head = items[0];
    auto* b = ::new (head->dead_env()) ReturnBatch;
    b->count = n;
    for (std::uint32_t i = 1; i < n; ++i) b->rest[i - 1] = items[i];
    Task* old = returned_.load(std::memory_order_relaxed);
    do {
      head->pool_next = old;
    } while (!returned_.compare_exchange_weak(old, head,
                                              std::memory_order_release,
                                              std::memory_order_relaxed));
  }

  /// Between regions only (tests, node_pool_snapshot): descriptors the
  /// owner holds (private freelist and batches it has taken), descriptors
  /// on the return list, and the total ever carved.
  struct Counts {
    std::size_t free = 0;
    std::size_t returned = 0;
    std::size_t carved = 0;
  };
  [[nodiscard]] Counts counts() const noexcept {
    Counts c;
    for (const Task* t = free_; t != nullptr; t = t->pool_next) ++c.free;
    c.free += taken_ - next_;
    for (const Task* h = batches_; h != nullptr; h = h->pool_next) {
      c.free += batch_of(h).count;
    }
    for (const Task* h = returned_.load(std::memory_order_acquire);
         h != nullptr; h = h->pool_next) {
      c.returned += batch_of(h).count;
    }
    c.carved = chunks_.size() * chunk_tasks + next_in_chunk_ - chunk_tasks;
    return c;
  }

 private:
  /// A returned batch, written over its first descriptor's dead inline
  /// environment: 16 eight-byte slots fill the 128 bytes exactly.
  struct ReturnBatch {
    std::uint32_t count;
    Task* rest[RemoteStash::flush_batch - 1];
  };
  static_assert(sizeof(ReturnBatch) <= Task::inline_env_capacity);

  /// Hand-outs between a prefetch and the reuse it serves.
  static constexpr std::uint32_t prefetch_ahead = 4;

  static const ReturnBatch& batch_of(const Task* head) noexcept {
    return *std::launder(static_cast<const ReturnBatch*>(head->dead_env()));
  }

  /// The lines a spawn writes: the header and the start of the inline
  /// environment (every byte of [t, t + 128), whatever the line offset).
  static void prefetch_for_spawn(const Task* t) noexcept {
    const char* p = reinterpret_cast<const char*>(t);
    __builtin_prefetch(p, 1);
    __builtin_prefetch(p + 64, 1);
    __builtin_prefetch(p + 127, 1);
  }

  /// Owner only: make the next returned batch current — the rest of the
  /// chain taken earlier, else the whole return list in one exchange. Its
  /// first descriptor, whose lines the read just brought in, goes out
  /// first; the next prefetch_ahead are prefetched at once.
  bool open_batch() noexcept {
    Task* head = batches_;
    if (head == nullptr) {
      // Only the owner ever empties the return list, so a non-null load
      // guarantees the exchange below takes a non-empty chain.
      if (returned_.load(std::memory_order_relaxed) == nullptr) return false;
      head = returned_.exchange(nullptr, std::memory_order_acquire);
    }
    batches_ = head->pool_next;
    const ReturnBatch& b = batch_of(head);
    taken_ = b.count;
    batch_[0] = head;
    for (std::uint32_t i = 1; i < taken_; ++i) batch_[i] = b.rest[i - 1];
    next_ = 0;
    for (std::uint32_t i = 1; i <= prefetch_ahead && i < taken_; ++i) {
      prefetch_for_spawn(batch_[i]);
    }
    return true;
  }

  void refill() {
    // Grow the bookkeeping vector BEFORE allocating the chunk: with the
    // slot reserved, the push_back below cannot throw, so a bad_alloc
    // (real or injected upstream) can never leak a chunk. Throwing out of
    // refill leaves the pool unchanged — the scheduler's degradation
    // ladder catches it and falls back to heap descriptors.
    chunks_.reserve(chunks_.size() + 1);
    void* raw = ::operator new[](sizeof(Task) * chunk_tasks,
                                 std::align_val_t{alignof(Task)});
    chunk_cursor_ = static_cast<Task*>(raw);
    chunks_.push_back(static_cast<std::byte*>(raw));
    next_in_chunk_ = 0;
  }

  Task* free_ = nullptr;
  /// The batch being handed out: batch_[next_ .. taken_) are still free.
  Task* batch_[RemoteStash::flush_batch];
  std::uint32_t next_ = 0;
  std::uint32_t taken_ = 0;
  /// Batch heads taken from the return list and not opened yet.
  Task* batches_ = nullptr;
  Task* chunk_cursor_ = nullptr;
  std::size_t next_in_chunk_ = chunk_tasks;
  std::vector<std::byte*> chunks_;
  /// Written by every worker that returns descriptors: on its own cache
  /// line, away from the owner's hot freelist fields.
  alignas(cache_line_bytes) std::atomic<Task*> returned_{nullptr};
};

}  // namespace bots::rt
