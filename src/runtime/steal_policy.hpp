// Pluggable steal/placement policies: every scheduling *decision* the
// work-stealing core used to hardcode now flows through one of these
// objects — victim selection order, steal-batch sizing, and the hint-aware
// placement consultation (place_range_half: whether a split half should be
// MAILED to an idle remote node's RangeMailbox, sparing that node the
// cross-node steal, instead of published on the splitter's own deque, where
// it reaches whichever thief the victim order sends there first).
//
// One policy instance serves the whole team. Methods take the acting
// Worker and mutate only that worker's state (last_victim, rng), so the
// object itself needs no synchronization.
//
// Policies (SchedulerConfig::steal_policy, RT_STEAL_POLICY):
//   random       pure random rotation — the seed behaviour with
//                victim_affinity off.
//   sequential   rotation from (id + 1) — the seed's VictimPolicy::
//                sequential with affinity off.
//   last_victim  the remembered last successful victim first, then the
//                base rotation (steals come in bursts from the same
//                loaded worker) — the PR-1 default behaviour.
//   hierarchical topology-aware: local LIFO first (find_work's local
//                phase), then same-node victims (last-victim hint kept
//                only while it stays on-node), then cross-node victims —
//                with the steal-half batch scaled down across the
//                interconnect, so a cross-node raid moves less remote
//                memory per trip. With NodeHints (cfg.use_node_work_hints)
//                a planning round skips remote nodes whose has-work word
//                is clear, and a backoff plans an unconditional full round
//                every hint_backoff_rounds gated rounds so a stale hint
//                can only delay a steal, never starve the team. On a
//                single-node topology it degenerates to last_victim
//                exactly.
//   legacy       (default) derive the policy from the PR-1 knobs
//                `victim` + `victim_affinity`, keeping every existing
//                ablation configuration meaningful.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "runtime/config.hpp"
#include "runtime/task.hpp"
#include "runtime/topology.hpp"

namespace bots::rt {

class Worker;

/// Per-node "has work" hints: one cache-line-padded word per locality node.
/// The scheduler publishes a node's word on every enqueue into that node
/// (and when a steal pushes surplus there) and clears it when a fruitless
/// steal round observes the whole node dry; the hierarchical policy reads
/// the words to skip planning probes into idle remote nodes — the
/// interconnect traffic an all-idle node otherwise costs every round.
///
/// The protocol is advisory by design. A stale SET word only costs the
/// probes the hint was meant to save; a stale CLEAR word (a publish racing
/// a clear) can hide work from REMOTE planners only — the node's own
/// workers always probe their home node, and parked-task inboxes are
/// scanned globally, so nothing is ever stranded. Remote delay is bounded
/// by the hierarchical policy's backoff (an unconditional full probe round
/// every hint_backoff_rounds gated rounds). Words are written with a
/// load-then-store so the steady state (already published / already clear)
/// costs one shared read and zero writes.
class NodeHints {
 public:
  explicit NodeHints(unsigned nodes)
      : n_(nodes == 0 ? 1 : nodes), words_(new Word[n_]) {}

  NodeHints(const NodeHints&) = delete;
  NodeHints& operator=(const NodeHints&) = delete;

  void publish(unsigned node) noexcept {
    Word& w = words_[node % n_];
    if (w.v.load(std::memory_order_relaxed) == 0) {
      w.v.store(1, std::memory_order_release);
    }
  }

  void clear(unsigned node) noexcept {
    Word& w = words_[node % n_];
    if (w.v.load(std::memory_order_relaxed) != 0) {
      w.v.store(0, std::memory_order_release);
    }
  }

  [[nodiscard]] bool has_work(unsigned node) const noexcept {
    return words_[node % n_].v.load(std::memory_order_acquire) != 0;
  }

  [[nodiscard]] unsigned num_nodes() const noexcept { return n_; }

 private:
  struct alignas(cache_line_bytes) Word {
    std::atomic<std::uint32_t> v{0};
  };

  unsigned n_;
  std::unique_ptr<Word[]> words_;
};

/// Per-node mailbox for hint-aware range placement
/// (SchedulerConfig::use_hint_placement): a splitter on a saturated node
/// publishes a split-off range half HERE — on the idle node the hints say
/// is starving — instead of on its own deque, so the idle node's workers
/// find the half on their next find_work round without paying a
/// cross-node steal probe for it.
///
/// Lock-free Treiber stack, same shape as the parking-inbox design in
/// scheduler.cpp: push is a CAS-splice of a single node, pop takes
/// exclusive ownership of the whole chain with exchange(nullptr), keeps
/// the first task and CAS-splices the remainder back. Exactly-once
/// delivery holds for any producer/consumer mix (any remote splitter may
/// push; any worker may pop): the exchange hands the chain to exactly one
/// popper, and a task is only ever in one chain. Order is LIFO, not the
/// old mutex-FIFO — irrelevant in practice because the redirect condition
/// (target mailbox observed empty) keeps the depth at ~1. The steady
/// state costs one acquire head probe (empty()) per idle round and zero
/// locks anywhere; `size_` is a relaxed side counter kept only for the
/// stall watchdog's dump and tests. Tasks chain through Task::pool_next
/// (a mailed task is live and queued, so the freelist/parked uses of that
/// link are disjoint from this one).
class alignas(cache_line_bytes) RangeMailbox {
 public:
  RangeMailbox() = default;
  RangeMailbox(const RangeMailbox&) = delete;
  RangeMailbox& operator=(const RangeMailbox&) = delete;

  void push(Task* t) noexcept {
    Task* head = head_.load(std::memory_order_relaxed);
    do {
      t->pool_next = head;
    } while (!head_.compare_exchange_weak(head, t, std::memory_order_release,
                                          std::memory_order_relaxed));
    size_.fetch_add(1, std::memory_order_relaxed);
  }

  /// One mailed task, or nullptr. Exactly-once: exchange(nullptr) gives
  /// this popper the whole chain exclusively; concurrent poppers get
  /// disjoint chains (or nullptr), so every pushed task is returned by
  /// exactly one pop, whichever workers race for it.
  [[nodiscard]] Task* pop() noexcept {
    if (head_.load(std::memory_order_acquire) == nullptr) return nullptr;
    Task* chain = head_.exchange(nullptr, std::memory_order_acquire);
    if (chain == nullptr) return nullptr;
    Task* rest = chain->pool_next;
    chain->pool_next = nullptr;
    size_.fetch_sub(1, std::memory_order_relaxed);
    if (rest != nullptr) {
      Task* tail = rest;
      while (tail->pool_next != nullptr) tail = tail->pool_next;
      Task* head = head_.load(std::memory_order_relaxed);
      do {
        tail->pool_next = head;
      } while (!head_.compare_exchange_weak(
          head, rest, std::memory_order_release, std::memory_order_relaxed));
    }
    return chain;
  }

  /// Advisory: a popper transiently holding the chain makes the mailbox
  /// look empty for one probe — the same miss-a-round semantics the old
  /// size gate had.
  [[nodiscard]] bool empty() const noexcept {
    return head_.load(std::memory_order_acquire) == nullptr;
  }

  /// Approximate depth (one relaxed load, no lock): introspection for the
  /// stall watchdog's dump and tests — safe to call from a non-team thread.
  [[nodiscard]] std::size_t size() const noexcept {
    return size_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<Task*> head_{nullptr};
  std::atomic<std::size_t> size_{0};
};

class StealPolicy {
 public:
  explicit StealPolicy(const Topology& topo) noexcept : topo_(topo) {}
  virtual ~StealPolicy() = default;

  StealPolicy(const StealPolicy&) = delete;
  StealPolicy& operator=(const StealPolicy&) = delete;

  [[nodiscard]] virtual const char* name() const noexcept = 0;

  /// Fill `order` with the victim ids to probe this round, most preferred
  /// first, self excluded; returns how many were written. `order` must
  /// hold at least team-size entries. Every other worker appears exactly
  /// once (a full round probes everyone — liveness of the steal loop).
  virtual unsigned victim_order(Worker& w, unsigned* order) = 0;

  /// Steal-half batch cap for a raid by `w` on victim `v`; `base` is the
  /// configured steal_batch_max (already clamped to the raid buffer).
  [[nodiscard]] virtual std::size_t batch_cap(const Worker& w, unsigned v,
                                              std::size_t base) const noexcept {
    (void)w;
    (void)v;
    return base;
  }

  /// Outcome notification for a raid on `v` (true = at least one task).
  virtual void raided(Worker& w, unsigned v, bool success) noexcept {
    (void)w;
    (void)v;
    (void)success;
  }

  /// "No placement preference" sentinel for place_range_half.
  static constexpr unsigned no_node = ~0u;

  /// Placement consultation for a split-off range half: the node whose
  /// mailbox should receive it, or no_node to publish on the splitter's own
  /// deque (the default — every non-topology-aware policy). The
  /// hierarchical policy redirects when the splitter's home node already
  /// advertises surplus (its has-work word is set: local thieves have
  /// nearer work) while a remote node's word is clear (its workers are
  /// provably hungry — they would otherwise pay a cross-node steal for
  /// exactly this half). Purely advisory: the scheduler still keeps the
  /// half local when the target's mailbox is backed up.
  [[nodiscard]] virtual unsigned place_range_half(Worker& w) noexcept {
    (void)w;
    return no_node;
  }

  [[nodiscard]] const Topology& topology() const noexcept { return topo_; }

 protected:
  const Topology& topo_;
};

/// Build the policy selected by cfg.resolved_steal_policy(). `topo` (and
/// `hints`, when non-null) must outlive the returned policy — the
/// Scheduler owns all three. `hints` may be null (knob off); only the
/// hierarchical policy consults it.
[[nodiscard]] std::unique_ptr<StealPolicy> make_steal_policy(
    const SchedulerConfig& cfg, const Topology& topo, NodeHints* hints);

}  // namespace bots::rt
