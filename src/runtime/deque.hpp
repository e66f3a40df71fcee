// Chase-Lev work-stealing deque (growable), after:
//   D. Chase and Y. Lev, "Dynamic circular work-stealing deque", SPAA 2005,
// with the C11 memory orderings of:
//   N. M. Le, A. Pop, A. Cohen, F. Zappa Nardelli, "Correct and efficient
//   work-stealing for weak memory models", PPoPP 2013.
//
// The owner pushes and pops at the bottom; thieves steal from the top.
// steal() may fail spuriously when it loses the top CAS race; callers treat
// that as "no work right now" and retry through their outer loop.
//
// steal_batch() grabs up to half of the victim's tasks in one synchronized
// raid. Each task is still claimed by its own CAS on `top` — a single CAS
// covering the whole range is unsound on a Chase-Lev deque, because the
// owner's pop fast path takes bottom-end items *without* synchronizing on
// `top` and can walk into a range a thief reserved wholesale (duplicating
// tasks). The batch still costs roughly one cross-core coherence transfer:
// after the first successful CAS the `top` cacheline stays exclusive in the
// thief's cache, so the follow-up CASes are core-local until the owner or
// another thief intervenes.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "runtime/config.hpp"

// ThreadSanitizer does not model std::atomic_thread_fence, so the
// fence-published relaxed buffer slots of the PPoPP'13 orderings read as
// data races under it (a known false positive of fence-based Chase-Lev).
// Under TSAN each slot is published with per-slot release/acquire instead —
// stronger than the hardware needs, but it restores the happens-before
// edges the sanitizer can see, so every OTHER ordering in the runtime
// (descriptor contents, finish/release chains, parking) is verified for
// real instead of being buried in this noise.
#if defined(__SANITIZE_THREAD__)
#define BOTS_DEQUE_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define BOTS_DEQUE_TSAN 1
#endif
#endif
#ifndef BOTS_DEQUE_TSAN
#define BOTS_DEQUE_TSAN 0
#endif

namespace bots::rt {

class Task;

class WorkStealingDeque {
 public:
  explicit WorkStealingDeque(std::size_t initial_capacity = 1024)
      : array_(new RingArray(round_up_pow2(initial_capacity))) {
    retired_.emplace_back(array_.load(std::memory_order_relaxed));
  }

  WorkStealingDeque(const WorkStealingDeque&) = delete;
  WorkStealingDeque& operator=(const WorkStealingDeque&) = delete;

  ~WorkStealingDeque() = default;  // retired_ owns every array ever published

  /// Owner-only: push one task at the bottom. Grows when full.
  ///
  /// The fullness check runs against top_cache_, the owner's private copy
  /// of top_, and re-reads the shared top_ only when the ring looks full:
  /// thieves advance top_ on every steal, so reading it on every push
  /// pulled that cache line back to the owner once per spawn. top_ only
  /// grows, so the copy can only overstate the occupancy — a stale copy
  /// costs a refresh, never an overwrite. The refresh keeps the acquire of
  /// the PPoPP'13 push: a slot is reused only after the steal that emptied
  /// it (its read happens before its CAS) is visible.
  void push(Task* t) {
    std::int64_t b = bottom_.load(std::memory_order_relaxed);
    RingArray* a = array_.load(std::memory_order_relaxed);
    if (b - top_cache_ > static_cast<std::int64_t>(a->capacity) - 1) {
      top_cache_ = top_.load(std::memory_order_acquire);
      if (b - top_cache_ > static_cast<std::int64_t>(a->capacity) - 1) {
        a = grow(a, b, top_cache_);
      }
    }
    a->put(b, t);
    std::atomic_thread_fence(std::memory_order_release);
    bottom_.store(b + 1, std::memory_order_relaxed);
  }

  /// Owner-only: whether fewer than `n` tasks are queued. Like push, it
  /// counts against top_cache_ and re-reads the shared top_ only when the
  /// private copy says the bound has been reached: the copy only overstates
  /// the occupancy, so its "fewer" is true, and a steal the copy missed
  /// costs one refresh. The refresh acquires, as push's does, because push
  /// trusts the refreshed copy to reuse slots.
  [[nodiscard]] bool holds_fewer_than(std::int64_t n) noexcept {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    if (b - top_cache_ < n) return true;
    top_cache_ = top_.load(std::memory_order_acquire);
    return b - top_cache_ < n;
  }

  /// Owner-only: pop the newest task (LIFO end). Returns nullptr when empty.
  Task* pop() {
    std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    RingArray* a = array_.load(std::memory_order_relaxed);
    bottom_.store(b, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    std::int64_t top = top_.load(std::memory_order_relaxed);
    Task* item = nullptr;
    if (top <= b) {
      item = a->get(b);
      if (top == b) {
        // Single element left: race against thieves for it.
        if (!top_.compare_exchange_strong(top, top + 1,
                                          std::memory_order_seq_cst,
                                          std::memory_order_relaxed)) {
          item = nullptr;  // a thief won
        }
        bottom_.store(b + 1, std::memory_order_relaxed);
      }
    } else {
      bottom_.store(b + 1, std::memory_order_relaxed);
    }
    return item;
  }

  /// Any thread: steal the oldest task (FIFO end). Returns nullptr when the
  /// deque looks empty or the CAS race is lost.
  Task* steal() {
    std::int64_t top = top_.load(std::memory_order_acquire);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    std::int64_t b = bottom_.load(std::memory_order_acquire);
    if (top >= b) return nullptr;
    RingArray* a = array_.load(std::memory_order_acquire);
    Task* item = a->get(top);
    if (!top_.compare_exchange_strong(top, top + 1, std::memory_order_seq_cst,
                                      std::memory_order_relaxed)) {
      return nullptr;
    }
    return item;
  }

  /// Any thread: steal up to `max_n` tasks from the top, bounded by half of
  /// the victim's observed queue (rounded up, so a 1-element deque is still
  /// stealable). Returns the number of tasks written to `out`, oldest first.
  /// Returns 0 when the deque looks empty or the first CAS race is lost;
  /// stops early (keeping what it already claimed) on any later race loss.
  std::size_t steal_batch(Task** out, std::size_t max_n) {
    std::size_t got = 0;
    std::size_t limit = max_n;
    while (got < limit) {
      std::int64_t top = top_.load(std::memory_order_acquire);
      std::atomic_thread_fence(std::memory_order_seq_cst);
      const std::int64_t b = bottom_.load(std::memory_order_acquire);
      const std::int64_t avail = b - top;
      if (avail <= 0) break;
      if (got == 0) {
        // Take at most half of what is there right now; leave the rest to
        // the owner and other thieves.
        const auto half = static_cast<std::size_t>((avail + 1) / 2);
        limit = half < max_n ? half : max_n;
      }
      RingArray* a = array_.load(std::memory_order_acquire);
      Task* item = a->get(top);
      if (!top_.compare_exchange_strong(top, top + 1,
                                        std::memory_order_seq_cst,
                                        std::memory_order_relaxed)) {
        break;  // contended: settle for what we have
      }
      out[got++] = item;
    }
    return got;
  }

  /// Approximate size; exact only when quiescent.
  [[nodiscard]] std::int64_t size_estimate() const noexcept {
    std::int64_t b = bottom_.load(std::memory_order_relaxed);
    std::int64_t t = top_.load(std::memory_order_relaxed);
    return b > t ? b - t : 0;
  }

  [[nodiscard]] bool empty_estimate() const noexcept {
    return size_estimate() == 0;
  }

  /// Current ring capacity (slots); grows by doubling, never shrinks.
  [[nodiscard]] std::size_t capacity() const noexcept {
    return array_.load(std::memory_order_acquire)->capacity;
  }

 private:
  struct RingArray {
    explicit RingArray(std::size_t cap)
        : capacity(cap), mask(cap - 1),
          slots(std::make_unique<std::atomic<Task*>[]>(cap)) {}

    static constexpr std::memory_order slot_load =
        BOTS_DEQUE_TSAN ? std::memory_order_acquire : std::memory_order_relaxed;
    static constexpr std::memory_order slot_store =
        BOTS_DEQUE_TSAN ? std::memory_order_release : std::memory_order_relaxed;

    [[nodiscard]] Task* get(std::int64_t i) const noexcept {
      return slots[static_cast<std::size_t>(i) & mask].load(slot_load);
    }
    void put(std::int64_t i, Task* t) noexcept {
      slots[static_cast<std::size_t>(i) & mask].store(t, slot_store);
    }

    std::size_t capacity;
    std::size_t mask;
    std::unique_ptr<std::atomic<Task*>[]> slots;
  };

  static std::size_t round_up_pow2(std::size_t v) noexcept {
    std::size_t p = 16;
    while (p < v) p <<= 1;
    return p;
  }

  RingArray* grow(RingArray* old, std::int64_t b, std::int64_t top) {
    auto bigger = std::make_unique<RingArray>(old->capacity * 2);
    for (std::int64_t i = top; i < b; ++i) bigger->put(i, old->get(i));
    RingArray* raw = bigger.get();
    retired_.push_back(std::move(bigger));
    // Thieves may still be reading `old`; it stays alive in retired_ until
    // the deque itself is destroyed (memory is bounded: capacities double).
    array_.store(raw, std::memory_order_release);
    return raw;
  }

  alignas(cache_line_bytes) std::atomic<std::int64_t> top_{0};
  alignas(cache_line_bytes) std::atomic<std::int64_t> bottom_{0};
  /// Owner-private lower bound of top_ (see push). Beside bottom_, which the
  /// owner writes on every push anyway, so it costs no line of its own.
  std::int64_t top_cache_ = 0;
  alignas(cache_line_bytes) std::atomic<RingArray*> array_;
  std::vector<std::unique_ptr<RingArray>> retired_;
};

}  // namespace bots::rt
