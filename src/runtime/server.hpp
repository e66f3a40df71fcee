// Persistent multi-region server mode (PR 7).
//
// A TaskServer keeps ONE resident region up for its whole lifetime
// (Scheduler::run_persistent) and multiplexes many concurrent client
// requests — each a RegionCtx-rooted task subtree — over the single pinned
// worker pool. The scheduler core stays untouched at steady state: workers
// run the server's worker loop as the resident region's implicit tasks,
// picking request roots from a bounded admission queue under a pluggable
// fairness policy and helping drain ANY request's tasks while they wait
// (request roots are untied, so a request's own join causes no
// cross-request convoying through the TSC; a tied wait inside a request
// limits its worker to that task's descendants, as anywhere else).
//
// Robustness surface, in order of the overload ladder:
//
// * Bounded admission queue with explicit backpressure: submit() NEVER
//   blocks. A full queue (or a draining/stopped server, or an injected
//   FaultSite::server_admit transient) returns rejected_overload plus a
//   retry-after hint derived from the queue depth and an EWMA of observed
//   service time — the client-visible contract of arXiv-style overload
//   control: reject early, tell the client when to come back.
// * Load shedding (ServerConfig::shed_on_overload): when the queue
//   saturates, the PENDING request closest to missing its deadline is
//   cancelled to make room — the request that would most likely burn a
//   worker for nothing — and if none is pending, the nearest-deadline LIVE
//   request is cancelled to free workers soon (the new submit is still
//   rejected; its slot does not exist yet).
// * Per-request concurrency cap (ServerConfig::max_live): at most max_live
//   requests execute concurrently; the rest wait admitted in the queue.
// * Per-request fault isolation: a body exception or injected fault cancels
//   only its own RegionCtx; sibling requests and the resident region never
//   observe it. The PR 6 ledger invariant holds per request
//   (executed + discarded == deferred, RegionHandle::ledger_balanced) on
//   top of the global per-worker one. The request ledger has one
//   cache-line shard per team worker (submit() sizes it from
//   Scheduler::num_workers()); a worker writes only its own shard, with a
//   relaxed load and store, and readers sum the shards. Each update comes
//   before its task's finish RMW, whose acq_rel chain reaches the request's
//   frame, and run_scope reads that frame before finalize: the sum is exact
//   once the request is terminal (region_ctx.hpp).
// * Per-request deadline + watchdog: the server's monitor thread cancels a
//   request whose deadline passes (pending or live) and reports a live
//   request whose progress (executed + discarded + range chunks and inline
//   discards) stops moving.
// * Graceful drain (drain()): admitted requests complete, new ones are
//   rejected; stop() additionally cancels pending and live requests first.
//   An external Scheduler::cancel_current_region() is the hard stop: the
//   resident region unwinds, in-flight requests are truncated (their
//   not-yet-started tasks discarded) and finalized as cancelled, and
//   further submits are rejected.
//
// Idle workers. A worker with no request to pick and no task to help with
// counts itself in idle_workers_ under mu_, in the same critical section
// that found no request pickable (queued, with a free max_live slot) and no
// drain to leave for, then blocks on a semaphore. submit() posts one wake
// token per admission, and only while some worker is counted idle, so a
// loaded server pays no wake syscall; drain() and stop() post one per idle
// worker. A worker that finishes a request picks the next one itself, so a
// freed max_live slot needs no wake. The wait keeps a 200 us backstop for
// the three events that post no token: tasks spawned by another request
// (cross-request help), an external cancel_current_region(), and a live
// policy swap, whose quiescence wait needs a blocked worker to re-pin
// (so retune() waits at most one backstop period for it).
//
// A semaphore, not a condition variable: glibc's pthread_cond_signal can
// block the signaller until waiters of an older wait group have run, and
// workers timing out every 200 us keep making such groups. With a
// condition variable the submitter of perfbench's server workload ran
// late by 2.5-22 ms at p99 (0.1-9 ms at the polling parent) and stretch
// p50 got no better; sem_post never blocks. Task spawns deliberately post
// no token: waking a sleeper per spawn while one sleeps measured worse
// (stretch p50 1.28-1.46 against 1.08-1.14 without it), as did idle
// workers that yield forever instead of blocking (1.16-1.18 against
// 1.07-1.09); all on a 4-vCPU VM.
//
// Every submitted request ends in EXACTLY ONE terminal state — completed,
// cancelled, deadline_exceeded or rejected_overload (RegionCtx::finalize is
// a CAS) — which is the conservation law bench_server_mix and the CI soak
// job assert.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <stop_token>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include <semaphore.h>

#include "runtime/config.hpp"
#include "runtime/region_ctx.hpp"
#include "runtime/scheduler.hpp"

namespace bots::rt {

class DepScope;    // dependency.hpp: dependence-tracked generator scope
class TaskGraph;   // taskgraph.hpp: recorded graph replayed per request tag

/// How the server picks the next request root when a worker frees up.
enum class ServerFairness : std::uint8_t {
  fifo = 0,        ///< strict admission order
  weighted_share,  ///< stride scheduling over RequestOptions::weight
};

[[nodiscard]] inline const char* to_string(ServerFairness f) noexcept {
  switch (f) {
    case ServerFairness::fifo: return "fifo";
    case ServerFairness::weighted_share: return "weighted_share";
  }
  return "?";
}

[[nodiscard]] inline bool server_fairness_from_string(
    std::string_view s, ServerFairness& out) noexcept {
  if (s == "fifo") { out = ServerFairness::fifo; return true; }
  if (s == "weighted_share" || s == "weighted") {
    out = ServerFairness::weighted_share;
    return true;
  }
  return false;
}

/// Server knobs. Defaults mirror from_env()'s fallbacks so a
/// default-constructed config and an empty environment agree.
struct ServerConfig {
  /// Admission queue capacity (RT_SERVER_QUEUE). submit() beyond it sheds
  /// or rejects — it never blocks and never grows the queue unboundedly.
  std::uint32_t queue_capacity = 64;
  /// Max concurrently EXECUTING requests (RT_SERVER_MAX_LIVE); 0 = team
  /// size. Admitted requests over the cap wait in the queue.
  std::uint32_t max_live = 0;
  /// Root pick policy (RT_SERVER_FAIRNESS: "fifo" | "weighted_share").
  ServerFairness fairness = ServerFairness::fifo;
  /// Cancel the nearest-deadline request when the queue saturates
  /// (RT_SERVER_SHED). Off = plain rejection only.
  bool shed_on_overload = true;
  /// Deadline applied to requests that do not carry their own
  /// (RT_SERVER_DEADLINE_MS); 0 = none.
  std::uint32_t default_deadline_ms = 0;
  /// Per-request stall report window (RT_SERVER_WATCHDOG_MS); 0 = off.
  /// Reporting only — cancel policy stays with deadlines and clients.
  std::uint32_t watchdog_ms = 0;
  /// Phase-detector cadence (RT_SERVER_RETUNE_MS); 0 = off. Every window
  /// the monitor samples the live worker counters and hot-swaps the steal
  /// policy (Scheduler::reconfigure_live) when the workload phase changed:
  /// sustained cross-node steal churn or serialized creation flips to
  /// hierarchical, a settled local phase flips back to last_victim. Requires
  /// RT_LIVE_RECONF=1 (the default) to have any effect.
  std::uint32_t retune_ms = 0;

  [[nodiscard]] static ServerConfig from_env() {
    ServerConfig c;
    c.queue_capacity = env_u32("RT_SERVER_QUEUE", c.queue_capacity);
    if (c.queue_capacity == 0) c.queue_capacity = 1;
    c.max_live = env_u32("RT_SERVER_MAX_LIVE", c.max_live);
    const std::string f = env_string("RT_SERVER_FAIRNESS");
    if (!f.empty() && !server_fairness_from_string(f, c.fairness)) {
      warn_malformed_env("RT_SERVER_FAIRNESS", f.c_str());
    }
    c.shed_on_overload = env_flag("RT_SERVER_SHED", c.shed_on_overload);
    c.default_deadline_ms =
        env_u32("RT_SERVER_DEADLINE_MS", c.default_deadline_ms);
    c.watchdog_ms = env_u32("RT_SERVER_WATCHDOG_MS", c.watchdog_ms);
    c.retune_ms = env_u32("RT_SERVER_RETUNE_MS", c.retune_ms);
    return c;
  }
};

/// Client-side view of one submitted request: shared ownership of its
/// RegionCtx (safe to hold past server shutdown). This is the per-region
/// status accessor that replaces Scheduler::last_region_status() under
/// concurrent regions.
class RegionHandle {
 public:
  RegionHandle() = default;
  explicit RegionHandle(std::shared_ptr<RegionCtx> ctx)
      : ctx_(std::move(ctx)) {}

  [[nodiscard]] bool valid() const noexcept { return ctx_ != nullptr; }
  [[nodiscard]] std::uint64_t id() const noexcept {
    return ctx_ ? ctx_->id() : 0;
  }
  /// Terminal state, or RequestStatus::pending while queued/executing.
  [[nodiscard]] RequestStatus status() const noexcept {
    return ctx_ ? ctx_->status() : RequestStatus::rejected_overload;
  }
  [[nodiscard]] bool done() const noexcept { return status() != RequestStatus::pending; }
  /// Block until terminal. Rejected handles return immediately.
  RequestStatus wait() const {
    return ctx_ ? ctx_->wait() : RequestStatus::rejected_overload;
  }
  /// Admission-to-terminal latency (0 until terminal, and for rejects).
  [[nodiscard]] std::chrono::microseconds latency() const noexcept {
    return ctx_ ? ctx_->latency() : std::chrono::microseconds{0};
  }
  /// Admission-to-pickup part of latency(): how long the request sat in the
  /// queue before a worker took it (0 until terminal, and for a request no
  /// worker picked — rejected, shed, or cancelled while queued).
  [[nodiscard]] std::chrono::microseconds queue_wait() const noexcept {
    return ctx_ ? ctx_->queue_wait() : std::chrono::microseconds{0};
  }
  /// Cooperatively cancel this request (pending: skipped at pickup; live:
  /// its not-yet-started tasks are discarded). Idempotent.
  void cancel() const noexcept {
    if (ctx_) ctx_->cancel(RegionStatus::cancelled);
  }
  /// First exception thrown by the request's body or any descendant task
  /// (null when none). Never rethrown by the server itself.
  [[nodiscard]] std::exception_ptr exception() const {
    return ctx_ ? ctx_->exception() : nullptr;
  }
  // Per-request execution ledger, summed over the worker shards (exact
  // once done()).
  [[nodiscard]] std::uint64_t tasks_deferred() const noexcept {
    return ctx_ ? ctx_->deferred() : 0;
  }
  [[nodiscard]] std::uint64_t tasks_executed() const noexcept {
    return ctx_ ? ctx_->executed() : 0;
  }
  [[nodiscard]] std::uint64_t tasks_discarded() const noexcept {
    return ctx_ ? ctx_->discarded() : 0;
  }
  [[nodiscard]] bool ledger_balanced() const noexcept {
    return ctx_ == nullptr || ctx_->ledger_balanced();
  }

 private:
  std::shared_ptr<RegionCtx> ctx_;
};

/// Per-submit options.
struct RequestOptions {
  /// weighted_share fairness weight (>= 1; 0 is treated as 1).
  std::uint32_t weight = 1;
  /// Deadline for THIS request in ms from submission; 0 = the server's
  /// default_deadline_ms (which may itself be "none").
  std::uint32_t deadline_ms = 0;
};

/// What submit() tells the client. The handle is always valid — a rejected
/// request's handle is already terminal (rejected_overload).
struct SubmitResult {
  RegionHandle handle;
  bool admitted = false;
  /// Backpressure hint on rejection: when to retry. Zero means "do not
  /// retry" (the server is draining or stopped).
  std::chrono::milliseconds retry_after{0};
};

/// Aggregate server counters (monotone over the server's lifetime).
struct ServerStats {
  std::uint64_t submitted = 0;          ///< submit() calls
  std::uint64_t admitted = 0;           ///< entered the queue
  std::uint64_t rejected = 0;           ///< rejected_overload at submit
  std::uint64_t shed = 0;               ///< cancelled by the load shedder
  std::uint64_t completed = 0;          ///< terminal: completed
  std::uint64_t cancelled = 0;          ///< terminal: cancelled (incl. shed)
  std::uint64_t deadline_exceeded = 0;  ///< terminal: deadline_exceeded
  std::uint64_t retunes = 0;            ///< live policy swaps (manual + detector)
};

class TaskServer {
 public:
  /// Brings the resident region up immediately (a dedicated server thread
  /// becomes worker 0 of Scheduler::run_persistent). One TaskServer per
  /// Scheduler at a time, and no run_single/run_all while it is running —
  /// the scheduler hosts one region at a time by construction.
  explicit TaskServer(Scheduler& sched,
                      ServerConfig cfg = ServerConfig::from_env());
  ~TaskServer();  ///< stop() if still running

  TaskServer(const TaskServer&) = delete;
  TaskServer& operator=(const TaskServer&) = delete;

  /// Non-blocking admission. See SubmitResult; every returned handle —
  /// admitted or rejected — reaches exactly one terminal state.
  SubmitResult submit(std::function<void()> body, RequestOptions opts = {});

  /// Dependence-tracked admission with per-tag taskgraph caching (PR 8):
  /// `build` constructs the request's DAG under a DepScope. The FIRST
  /// request of a tag records the graph; repeated requests of the same
  /// shape (same tag + same `key` buffer binding) replay it — the request's
  /// discovery cost is paid once across the server's lifetime. One
  /// record/replay per tag runs at a time: a same-tag request arriving
  /// while the graph is busy falls back to plain dynamic dependence
  /// tracking (same result, un-cached cost), so correctness never depends
  /// on request spacing. Admission, fairness, deadlines, cancellation and
  /// the ledger behave exactly as for submit().
  SubmitResult submit_graph(const std::string& tag,
                            std::function<void(DepScope&)> build,
                            const void* key, RequestOptions opts = {});

  /// Graceful shutdown: stop admitting, complete every admitted request,
  /// then take the resident region down. Idempotent; blocks until done.
  void drain();

  /// Hard-ish shutdown: reject new submits, finalize still-pending requests
  /// as cancelled, cooperatively cancel live ones, then drain. Running
  /// bodies finish their current grain/body (cooperative cancellation, as
  /// everywhere in this runtime). Idempotent; blocks until done.
  void stop();

  /// Hot-swap the scheduler's steal policy UNDER the resident region
  /// (Scheduler::reconfigure_live — epoch/RCU swap, no drain, no stop).
  /// In-flight requests keep running; workers adopt the new policy at
  /// their next find_work round or range-chunk boundary. Returns false
  /// when live reconfiguration is disabled (RT_LIVE_RECONF=0). This is
  /// the manual hook behind the RT_SERVER_RETUNE_MS phase detector.
  bool retune(StealPolicyKind kind);

  [[nodiscard]] bool running() const noexcept;
  [[nodiscard]] ServerStats stats() const;
  [[nodiscard]] const ServerConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] Scheduler& scheduler() noexcept { return sched_; }

 private:
  struct PendingReq {
    std::shared_ptr<RegionCtx> ctx;
    std::function<void()> body;
    std::uint64_t pass = 0;  ///< stride-scheduling virtual time (weighted_share)
  };

  void server_main();
  void worker_loop(unsigned id);
  void run_request(PendingReq req);
  void monitor_main(const std::stop_token& st);
  /// A request is queued and a max_live slot is free. Caller holds mu_.
  [[nodiscard]] bool pickable_locked() const noexcept {
    return !queue_.empty() && live_.size() < max_live_;
  }
  /// Pop the next runnable request per the fairness policy. Caller holds mu_.
  [[nodiscard]] bool pick_next_locked(PendingReq& out);
  /// Cancel the nearest-deadline pending request (freeing its queue slot) or,
  /// failing that, the nearest-deadline live one. Caller holds mu_. Returns
  /// whether a queue slot was freed.
  bool shed_one_locked();
  void tally_terminal_locked(RequestStatus s) noexcept;
  /// Block an idle worker until a wake token arrives or the backstop
  /// passes. The caller counted itself in idle_workers_ under mu_, after
  /// finding nothing pickable there.
  void wait_for_wake() noexcept;
  /// Post `n` wake tokens without blocking. A token that finds no blocked
  /// worker lets the next one to block return at once, to re-check mu_.
  void wake(unsigned n) noexcept;
  [[nodiscard]] std::chrono::milliseconds retry_hint_locked() const noexcept;
  void join_server();

  /// One cached graph per submit_graph tag. `busy` single-flights record
  /// and replay (a TaskGraph supports one dispatch at a time); entries are
  /// pointer-stable for the server's lifetime, so request bodies may hold
  /// plain references across the queue.
  struct GraphEntry {
    std::unique_ptr<TaskGraph> graph;
    std::atomic<bool> busy{false};
  };
  [[nodiscard]] GraphEntry& graph_entry(const std::string& tag);

  Scheduler& sched_;
  ServerConfig cfg_;
  unsigned max_live_ = 1;
  std::function<void(unsigned)> loop_fn_;

  mutable std::mutex mu_;
  std::deque<PendingReq> queue_;                    // guarded by mu_
  std::vector<std::shared_ptr<RegionCtx>> live_;    // guarded by mu_
  bool accepting_ = false;                          // guarded by mu_
  bool draining_ = false;                           // guarded by mu_
  bool region_up_ = false;                          // guarded by mu_
  std::atomic<std::uint64_t> next_id_{0};  ///< ids unique, not queue-ordered
  std::uint64_t global_pass_ = 0;                   // guarded by mu_
  std::uint64_t ewma_service_us_ = 0;               // guarded by mu_
  unsigned idle_workers_ = 0;                       // guarded by mu_
  sem_t wake_;  ///< wake tokens for idle workers (see wait_for_wake)
  ServerStats stats_;                               // guarded by mu_
  std::unordered_map<std::string, std::unique_ptr<GraphEntry>>
      graphs_;                                      // guarded by mu_

  /// Set by the first worker-loop iteration: the resident region is
  /// genuinely up (published to the scheduler, reconfigure() guarded). The
  /// constructor blocks on it so callers never observe a half-started server.
  std::atomic<bool> region_live_{false};

  bool joined_ = false;  ///< server thread reaped (guarded by join_mu_)
  std::mutex join_mu_;
  std::thread server_thread_;
  std::jthread monitor_;
};

}  // namespace bots::rt
