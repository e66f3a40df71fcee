// Per-request region context (PR 7 server mode).
//
// PR 6 attached the fault-tolerance state — sticky cancel word, deadline,
// first-exception slot, execution ledgers, watchdog progress — to the ONE
// Region a Scheduler runs at a time. A resident server multiplexes many
// concurrent client requests over a single long-lived region, so that state
// must live per REQUEST instead: RegionCtx is that per-request context.
//
// Every task descriptor carries a RegionCtx* (Task::ctx), inherited from its
// parent at set_links time, so a request's whole task subtree shares one
// context at zero cost to non-server regions (the pointer is null there and
// every ctx check short-circuits on it). The scheduler consults the context
// at the same dispatch boundaries as the region cancel word — deferred
// dequeue, undeferred/inline dispatch, range grain chunks — which gives each
// request independent cooperative cancellation, deadline enforcement, fault
// isolation (a body exception cancels only its own context, never the
// resident region) and an exact per-request ledger:
//
//   executed + discarded == deferred      (after the request has drained)
//
// The ledger is sharded by team worker (see "execution ledger" below), so a
// request task pays no shared-line RMW for its accounting.
//
// The terminal state (RequestStatus) is decided exactly once by a CAS:
// completed, cancelled, deadline_exceeded or rejected_overload — every
// submitted request ends in exactly one of them, which is the conservation
// law bench_server_mix and the CI soak job assert.
#pragma once

#include <atomic>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>

#include "runtime/stats.hpp"

namespace bots::rt {

/// How a parallel region ended. `completed` = the quiescence barrier was
/// reached with no cancel; the other values name the FIRST cancel cause
/// (sticky: later causes lose the CAS). Shared by the scheduler-global
/// Region (one per run_single/run_all) and the per-request RegionCtx.
enum class RegionStatus : std::uint8_t {
  completed = 0,
  cancelled = 1,          ///< rt::cancel_region(), watchdog, or cancel_on_exception
  deadline_exceeded = 2,  ///< the region's deadline expired first
  unknown = 3,            ///< sentinel: asked while a region is still live
                          ///< (Scheduler::last_region_status() during server
                          ///< mode) — use per-request RegionHandle instead
};

[[nodiscard]] constexpr const char* to_string(RegionStatus s) noexcept {
  switch (s) {
    case RegionStatus::completed: return "completed";
    case RegionStatus::cancelled: return "cancelled";
    case RegionStatus::deadline_exceeded: return "deadline_exceeded";
    case RegionStatus::unknown: return "unknown";
  }
  return "?";
}

/// Terminal state of a server-submitted request. `pending` is the only
/// non-terminal value; finalize() moves a context out of it exactly once.
enum class RequestStatus : std::uint8_t {
  pending = 0,            ///< queued or executing; not yet terminal
  completed = 1,          ///< body and every descendant task finished
  cancelled = 2,          ///< client cancel, shed, fault, or server shutdown
  deadline_exceeded = 3,  ///< the request's deadline expired first
  rejected_overload = 4,  ///< never admitted: queue full or server stopping
};

[[nodiscard]] constexpr const char* to_string(RequestStatus s) noexcept {
  switch (s) {
    case RequestStatus::pending: return "pending";
    case RequestStatus::completed: return "completed";
    case RequestStatus::cancelled: return "cancelled";
    case RequestStatus::deadline_exceeded: return "deadline_exceeded";
    case RequestStatus::rejected_overload: return "rejected_overload";
  }
  return "?";
}

class RegionCtx {
 public:
  /// `shards` is the team size (Scheduler::num_workers()): every worker id
  /// that can run this request's tasks must be below it.
  RegionCtx(std::uint64_t id, unsigned shards, std::uint32_t weight = 1)
      : id_(id),
        weight_(weight == 0 ? 1u : weight),
        num_shards_(shards),
        shards_(std::make_unique<LedgerShard[]>(shards)) {
    assert(shards > 0);
  }

  RegionCtx(const RegionCtx&) = delete;
  RegionCtx& operator=(const RegionCtx&) = delete;

  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }
  /// Weighted-share fairness weight (>= 1): a weight-2 request receives
  /// roots twice as often as a weight-1 one under ServerFairness::weighted_share.
  [[nodiscard]] std::uint32_t weight() const noexcept { return weight_; }

  /// Set once by the server at submit / admission; read by the monitor and
  /// the latency accounting. Default-constructed time_point = unset.
  std::chrono::steady_clock::time_point arrival{};
  std::chrono::steady_clock::time_point deadline{};
  /// Set once by the worker that takes the request off the queue, before its
  /// body runs; unset for a request that was never picked (rejected, shed,
  /// or cancelled while queued). Read only once the request is terminal:
  /// finalize's CAS orders the stamp before any done() reader.
  std::chrono::steady_clock::time_point pickup{};
  [[nodiscard]] bool has_deadline() const noexcept {
    return deadline != std::chrono::steady_clock::time_point{};
  }

  // -- cooperative cancellation (per request) -------------------------------
  // Same sticky first-cause CAS discipline as Region::cancel: the request's
  // whole task subtree observes it at every dispatch boundary, while sibling
  // requests and the resident region never do.

  void cancel(RegionStatus why) noexcept {
    std::uint8_t expected = 0;
    cancel_state_.compare_exchange_strong(expected,
                                          static_cast<std::uint8_t>(why),
                                          std::memory_order_relaxed);
  }
  [[nodiscard]] bool cancelled() const noexcept {
    return cancel_state_.load(std::memory_order_relaxed) != 0;
  }
  [[nodiscard]] RegionStatus cancel_cause() const noexcept {
    return static_cast<RegionStatus>(
        cancel_state_.load(std::memory_order_relaxed));
  }

  // -- first exception (per request) ----------------------------------------
  // Capturing always cancels the context: one client's exception discards
  // only that client's not-yet-started tasks (per-request fault isolation —
  // the Region-level cancel_on_exception knob is irrelevant here because
  // the blast radius is already a single request).

  void store_exception() noexcept {
    {
      std::lock_guard<std::mutex> lock(wait_mutex_);
      if (!first_exception_) first_exception_ = std::current_exception();
    }
    cancel(RegionStatus::cancelled);
  }
  [[nodiscard]] std::exception_ptr exception() const {
    std::lock_guard<std::mutex> lock(wait_mutex_);
    return first_exception_;
  }

  // -- execution ledger (per request) ---------------------------------------
  // Mirrors the PR 6 region-wide invariant at request granularity: every
  // task deferred under this context is eventually dispatched exactly once,
  // as an execute or a discard, so after the request drains
  // executed + discarded == deferred.
  //
  // One cache-line shard per team worker. Only worker `w` writes shard `w`,
  // with a relaxed load and a relaxed store (WorkerCounter): no lock-prefixed
  // RMW and no line shared between writers. The index is asserted, never
  // wrapped: two writers on one shard would lose counts. Readers sum the
  // shards, and the sum is exact once the request is terminal. The ledger
  // counts; it does not join — the request ends when its frame reads
  // exclusive (Scheduler::run_scope), and:
  //   (1) each update comes before its task's finish RMW in the writing
  //       worker's program order (a deferred count before the spawner's,
  //       an execute, discard or chunk before the dispatched task's);
  //   (2) those finish RMWs are acq_rel on the parent's state word, so their
  //       chain reaches the request frame;
  //   (3) run_scope reads that frame exclusive (acquire) before finalize,
  //       and done() readers acquire finalize's CAS.
  // So every shard store happens-before any read of a terminal request.

  void note_deferred(unsigned worker) noexcept { ++shard(worker).deferred; }
  /// Bulk variant for graph replay: a frozen graph's node count is known up
  /// front, so one store accounts the whole replayed population before any
  /// root is enqueued.
  void note_deferred_bulk(unsigned worker, std::uint64_t n) noexcept {
    shard(worker).deferred += n;
  }
  void note_executed(unsigned worker) noexcept { ++shard(worker).executed; }
  void note_discarded(unsigned worker) noexcept { ++shard(worker).discarded; }
  [[nodiscard]] std::uint64_t deferred() const noexcept {
    return sum(&LedgerShard::deferred);
  }
  [[nodiscard]] std::uint64_t executed() const noexcept {
    return sum(&LedgerShard::executed);
  }
  [[nodiscard]] std::uint64_t discarded() const noexcept {
    return sum(&LedgerShard::discarded);
  }
  /// Valid once the request is terminal and its subtree has drained.
  [[nodiscard]] bool ledger_balanced() const noexcept {
    return executed() + discarded() == deferred();
  }

  // -- watchdog progress (per request) --------------------------------------
  // Every deferred dispatch already bumps executed or discarded, so the
  // separate tick counts only what dispatches nothing: range grain chunks
  // and inline discards. The server's monitor reports a per-request stall
  // when progress() stops moving.

  void note_progress(unsigned worker) noexcept { ++shard(worker).progress; }
  [[nodiscard]] std::uint64_t progress() const noexcept {
    return executed() + discarded() + sum(&LedgerShard::progress);
  }

  // -- terminal state -------------------------------------------------------

  /// Move the request out of `pending` exactly once (first caller wins) and
  /// wake every wait()er. Records the admission-to-terminal latency when
  /// `arrival` was set. Returns whether THIS call won the transition.
  bool finalize(RequestStatus s) noexcept {
    std::uint8_t expected =
        static_cast<std::uint8_t>(RequestStatus::pending);
    if (!terminal_.compare_exchange_strong(expected,
                                           static_cast<std::uint8_t>(s),
                                           std::memory_order_acq_rel,
                                           std::memory_order_acquire)) {
      return false;
    }
    if (arrival != std::chrono::steady_clock::time_point{}) {
      latency_us_.store(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - arrival)
              .count(),
          std::memory_order_relaxed);
    }
    {
      // Empty critical section: a wait()er between its predicate check and
      // its cv wait holds the mutex, so acquiring it here before notify
      // closes the lost-wakeup window.
      std::lock_guard<std::mutex> lock(wait_mutex_);
    }
    wait_cv_.notify_all();
    return true;
  }

  [[nodiscard]] RequestStatus status() const noexcept {
    return static_cast<RequestStatus>(
        terminal_.load(std::memory_order_acquire));
  }
  [[nodiscard]] bool done() const noexcept {
    return status() != RequestStatus::pending;
  }

  /// Block until the request is terminal; returns the terminal status.
  RequestStatus wait() const {
    std::unique_lock<std::mutex> lock(wait_mutex_);
    wait_cv_.wait(lock, [this] { return done(); });
    return status();
  }

  /// Admission-to-terminal latency; 0 until the request is terminal (or when
  /// it was rejected before arrival was stamped).
  [[nodiscard]] std::chrono::microseconds latency() const noexcept {
    return std::chrono::microseconds(
        latency_us_.load(std::memory_order_relaxed));
  }

  /// Admission-to-pickup wait, the queueing part of latency(); 0 until the
  /// request is terminal, and for a request that was never picked.
  [[nodiscard]] std::chrono::microseconds queue_wait() const noexcept {
    if (!done() || pickup == std::chrono::steady_clock::time_point{}) {
      return std::chrono::microseconds{0};
    }
    return std::chrono::duration_cast<std::chrono::microseconds>(pickup -
                                                                 arrival);
  }

 private:
  struct alignas(cache_line_bytes) LedgerShard {
    WorkerCounter deferred;
    WorkerCounter executed;
    WorkerCounter discarded;
    WorkerCounter progress;
  };
  LedgerShard& shard(unsigned worker) noexcept {
    assert(worker < num_shards_);
    return shards_[worker];
  }
  std::uint64_t sum(WorkerCounter LedgerShard::*field) const noexcept {
    std::uint64_t n = 0;
    for (unsigned i = 0; i < num_shards_; ++i) n += shards_[i].*field;
    return n;
  }

  const std::uint64_t id_;
  const std::uint32_t weight_;
  const unsigned num_shards_;
  const std::unique_ptr<LedgerShard[]> shards_;
  std::atomic<std::uint8_t> cancel_state_{0};
  std::atomic<std::uint8_t> terminal_{
      static_cast<std::uint8_t>(RequestStatus::pending)};
  std::atomic<std::int64_t> latency_us_{0};
  mutable std::mutex wait_mutex_;
  mutable std::condition_variable wait_cv_;
  std::exception_ptr first_exception_;  ///< guarded by wait_mutex_
};

}  // namespace bots::rt
