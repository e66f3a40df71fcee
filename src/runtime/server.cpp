#include "runtime/server.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <system_error>
#include <unordered_map>
#include <utility>

#include "runtime/dependency.hpp"
#include "runtime/pathology.hpp"
#include "runtime/taskgraph.hpp"

namespace bots::rt {

namespace {

/// Stride-scheduling quantum: a request's pass advances the global virtual
/// time by stride_unit / weight, so a weight-2 stream is picked twice as
/// often as a weight-1 stream under sustained load.
constexpr std::uint64_t stride_unit = 1ULL << 20;

/// Longest an idle worker blocks without a wake, in ns: it bounds how late
/// a blocked worker sees another request's spawned tasks, an external
/// cancel_current_region() and a live policy swap, none of which wake it.
constexpr long idle_backstop_ns = 200'000;

/// Map a request context's state to its terminal status. `hard_stop` is the
/// resident-region-cancelled path: a request whose subtree was truncated by
/// the region-wide cancel must not report completed.
[[nodiscard]] RequestStatus terminal_from(const RegionCtx& c,
                                          bool hard_stop) noexcept {
  if (c.cancelled()) {
    return c.cancel_cause() == RegionStatus::deadline_exceeded
               ? RequestStatus::deadline_exceeded
               : RequestStatus::cancelled;
  }
  return hard_stop ? RequestStatus::cancelled : RequestStatus::completed;
}

}  // namespace

TaskServer::TaskServer(Scheduler& sched, ServerConfig cfg)
    : sched_(sched), cfg_(cfg) {
  if (cfg_.queue_capacity == 0) cfg_.queue_capacity = 1;
  max_live_ = cfg_.max_live == 0 ? sched_.num_workers() : cfg_.max_live;
  loop_fn_ = [this](unsigned id) { worker_loop(id); };
  if (sem_init(&wake_, /*pshared=*/0, 0) != 0) {
    throw std::system_error(errno, std::generic_category(), "sem_init");
  }
  accepting_ = true;
  region_up_ = true;
  // The server thread becomes worker 0 of the resident region; submits that
  // land before the region is published simply wait in the queue until the
  // workers start looping.
  server_thread_ = std::thread([this] { server_main(); });
  monitor_ = std::jthread([this](std::stop_token st) { monitor_main(st); });
  // Block until the resident region is actually published (first worker-loop
  // iteration): a caller must never observe a TaskServer whose region the
  // scheduler does not know about yet (reconfigure() would slip through).
  while (!region_live_.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
}

TaskServer::~TaskServer() {
  stop();
  sem_destroy(&wake_);
}

bool TaskServer::retune(StealPolicyKind kind) {
  if (!sched_.config().live_reconfigure) return false;
  // NEVER with mu_ held: reconfigure_live waits for every worker to re-pin
  // its policy snapshot, and a server worker blocked on mu_ (pick_next)
  // still holds its old pin — mu_ + quiescence wait would deadlock.
  sched_.reconfigure_live(kind);
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.retunes;
  return true;
}

bool TaskServer::running() const noexcept {
  std::lock_guard<std::mutex> lock(mu_);
  return region_up_;
}

ServerStats TaskServer::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void TaskServer::tally_terminal_locked(RequestStatus s) noexcept {
  switch (s) {
    case RequestStatus::completed: ++stats_.completed; break;
    case RequestStatus::cancelled: ++stats_.cancelled; break;
    case RequestStatus::deadline_exceeded: ++stats_.deadline_exceeded; break;
    // rejected_overload is tallied at the submit site (it never transits
    // the queue), pending is not terminal.
    case RequestStatus::rejected_overload:
    case RequestStatus::pending: break;
  }
}

std::chrono::milliseconds TaskServer::retry_hint_locked() const noexcept {
  // Backpressure hint: the backlog ahead of a retry, in EWMA service times,
  // spread over the team — i.e. roughly when the queue will have drained a
  // slot. Never less than 1ms: "immediately" would invite a retry storm.
  const std::uint64_t service_us =
      ewma_service_us_ == 0 ? 1000 : ewma_service_us_;
  const std::uint64_t team = sched_.num_workers();
  const std::uint64_t hint_us =
      (static_cast<std::uint64_t>(queue_.size()) + 1) * service_us /
      (team == 0 ? 1 : team);
  return std::chrono::milliseconds(std::max<std::uint64_t>(1, hint_us / 1000));
}

bool TaskServer::shed_one_locked() {
  // Shed the PENDING request closest to missing its deadline: it frees a
  // queue slot and it is the admission the server is least likely to serve
  // usefully. Undeadlined requests are "infinitely far": when nothing
  // carries a deadline, drop the oldest (front) — the plain FIFO overflow
  // policy.
  if (!queue_.empty()) {
    std::size_t victim = 0;
    bool victim_dl = queue_[0].ctx->has_deadline();
    for (std::size_t i = 1; i < queue_.size(); ++i) {
      const bool dl = queue_[i].ctx->has_deadline();
      if (dl && (!victim_dl ||
                 queue_[i].ctx->deadline < queue_[victim].ctx->deadline)) {
        victim = i;
        victim_dl = true;
      }
    }
    PendingReq& p = queue_[victim];
    p.ctx->cancel(RegionStatus::cancelled);
    const RequestStatus st = terminal_from(*p.ctx, /*hard_stop=*/false);
    if (p.ctx->finalize(st)) tally_terminal_locked(st);
    ++stats_.shed;
    queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(victim));
    return true;
  }
  // No pending to shed (everything admitted is executing): cancel the
  // nearest-deadline LIVE request so workers free up soon. This does NOT
  // free a queue slot — the triggering submit is still rejected — but the
  // next retry lands on a less saturated server.
  std::shared_ptr<RegionCtx> victim;
  for (const auto& c : live_) {
    if (c->cancelled()) continue;
    if (!victim || (c->has_deadline() &&
                    (!victim->has_deadline() || c->deadline < victim->deadline))) {
      victim = c;
    }
  }
  if (victim) {
    victim->cancel(RegionStatus::cancelled);
    ++stats_.shed;
  }
  return false;
}

SubmitResult TaskServer::submit(std::function<void()> body,
                                RequestOptions opts) {
  // The context is built before mu_ is taken: every worker's pick and idle
  // check take that lock too, and the allocation and clock read need none.
  auto ctx = std::make_shared<RegionCtx>(
      next_id_.fetch_add(1, std::memory_order_relaxed) + 1,
      sched_.num_workers(), opts.weight);
  ctx->arrival = std::chrono::steady_clock::now();
  const std::uint32_t dl_ms =
      opts.deadline_ms != 0 ? opts.deadline_ms : cfg_.default_deadline_ms;
  if (dl_ms > 0) ctx->deadline = ctx->arrival + std::chrono::milliseconds(dl_ms);
  SubmitResult res;
  res.handle = RegionHandle(ctx);
  std::unique_lock<std::mutex> lock(mu_);
  ++stats_.submitted;
  if (!accepting_) {
    // Draining or stopped: permanent rejection, no retry hint.
    ++stats_.rejected;
    (void)ctx->finalize(RequestStatus::rejected_overload);
    return res;
  }
  FaultPlan& plan = sched_.fault_plan();
  if (plan.site_active(FaultSite::server_admit) &&
      plan.should_fail(FaultSite::server_admit)) {
    // Injected transient admission failure: same client-visible contract as
    // a real overload — rejected with a retry hint, never an exception.
    ++stats_.rejected;
    (void)ctx->finalize(RequestStatus::rejected_overload);
    res.retry_after = retry_hint_locked();
    return res;
  }
  if (queue_.size() >= cfg_.queue_capacity) {
    const bool slot_freed = cfg_.shed_on_overload && shed_one_locked();
    if (!slot_freed) {
      ++stats_.rejected;
      (void)ctx->finalize(RequestStatus::rejected_overload);
      res.retry_after = retry_hint_locked();
      return res;
    }
  }
  ++stats_.admitted;
  PendingReq req;
  req.ctx = ctx;
  req.body = std::move(body);
  // weight() is already clamped >= 1 by RegionCtx.
  req.pass = global_pass_ + stride_unit / ctx->weight();
  queue_.push_back(std::move(req));
  res.admitted = true;
  // Wake one blocked worker, outside mu_ so it does not wake into a held
  // lock. A worker counts itself idle under mu_ in the same critical
  // section that found nothing pickable, so an admission never slips past
  // a worker going idle.
  const bool wake_one = idle_workers_ > 0;
  lock.unlock();
  if (wake_one) wake(1);
  return res;
}

TaskServer::GraphEntry& TaskServer::graph_entry(const std::string& tag) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = graphs_[tag];
  if (!slot) {
    slot = std::make_unique<GraphEntry>();
    slot->graph = std::make_unique<TaskGraph>();
  }
  return *slot;
}

SubmitResult TaskServer::submit_graph(const std::string& tag,
                                      std::function<void(DepScope&)> build,
                                      const void* key, RequestOptions opts) {
  GraphEntry& entry = graph_entry(tag);
  // The winner of the busy flag records or replays the tag's cached graph;
  // a concurrent same-tag request runs the SAME build dynamically instead —
  // identical result, un-cached cost — so correctness never depends on
  // request spacing. The flag is released even if the body throws (the
  // request's exception handling proceeds as for any submit()).
  auto body = [this, &entry, key, build = std::move(build)] {
    if (!entry.busy.exchange(true, std::memory_order_acquire)) {
      struct Unbusy {
        std::atomic<bool>& flag;
        ~Unbusy() { flag.store(false, std::memory_order_release); }
      } unbusy{entry.busy};
      run_graph_region(sched_, *entry.graph, key, build);
    } else {
      DepScope sc;
      build(sc);
      sc.wait();
    }
  };
  return submit(std::move(body), opts);
}

bool TaskServer::pick_next_locked(PendingReq& out) {
  if (!pickable_locked()) return false;
  std::size_t best = 0;
  if (cfg_.fairness == ServerFairness::weighted_share) {
    for (std::size_t i = 1; i < queue_.size(); ++i) {
      if (queue_[i].pass < queue_[best].pass) best = i;
    }
    global_pass_ = queue_[best].pass;
  }
  out = std::move(queue_[best]);
  queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(best));
  live_.push_back(out.ctx);
  return true;
}

void TaskServer::run_request(PendingReq req) {
  const auto t0 = std::chrono::steady_clock::now();
  req.ctx->pickup = t0;
  sched_.run_ctx_root(*req.ctx, req.body);
  const auto service = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::steady_clock::now() - t0);
  // cancellation_point() from the worker loop's implicit task sees the
  // RESIDENT region's cancel word: true = someone hard-stopped the server
  // while this request ran, so its subtree was truncated mid-flight.
  const bool hard_stop = cancellation_point();
  const RequestStatus st = terminal_from(*req.ctx, hard_stop);
  std::lock_guard<std::mutex> lock(mu_);
  if (req.ctx->finalize(st)) tally_terminal_locked(st);
  if (st == RequestStatus::completed) {
    const auto us = static_cast<std::uint64_t>(service.count());
    ewma_service_us_ =
        ewma_service_us_ == 0 ? us : (7 * ewma_service_us_ + us) / 8;
  }
  live_.erase(std::find(live_.begin(), live_.end(), req.ctx));
}

void TaskServer::worker_loop(unsigned id) {
  (void)id;
  region_live_.store(true, std::memory_order_release);
  // Graceful drain with an empty queue: nothing left to pick. The region-end
  // barrier a leaving worker enters keeps it HELPING other workers'
  // still-live requests until true quiescence.
  const auto leave_locked = [this] { return draining_ && queue_.empty(); };
  for (;;) {
    // Hard stop: an external cancel_current_region() cancelled the resident
    // region. Leave immediately; server_main sweeps up non-terminal
    // requests after the region is down.
    if (cancellation_point()) break;
    PendingReq req;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!pick_next_locked(req) && leave_locked()) break;
    }
    if (req.ctx) {
      // Returning here picks the next queued request, so the max_live slot
      // this request frees is refilled without waking anyone.
      run_request(std::move(req));
      continue;
    }
    if (sched_.help_one()) continue;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (pickable_locked() || leave_locked()) continue;
      ++idle_workers_;
    }
    wait_for_wake();
    std::lock_guard<std::mutex> lock(mu_);
    --idle_workers_;
  }
}

void TaskServer::wait_for_wake() noexcept {
  timespec until{};
  (void)clock_gettime(CLOCK_MONOTONIC, &until);
  until.tv_nsec += idle_backstop_ns;
  if (until.tv_nsec >= 1'000'000'000) {
    ++until.tv_sec;
    until.tv_nsec -= 1'000'000'000;
  }
  // A token, the backstop or an EINTR: each ends the wait alike, and the
  // caller re-checks the queue under mu_.
  (void)sem_clockwait(&wake_, CLOCK_MONOTONIC, &until);
}

void TaskServer::wake(unsigned n) noexcept {
  // sem_post fails only at SEM_VALUE_MAX pending tokens, which already
  // wake every worker that blocks.
  for (unsigned i = 0; i < n; ++i) (void)sem_post(&wake_);
}

void TaskServer::server_main() {
  (void)sched_.run_persistent(loop_fn_);
  // The resident region is down — graceful drain or hard stop. Every
  // admitted-but-unpicked request is terminal-ized here so the
  // every-request-ends-in-exactly-one-state law holds on both paths (the
  // workers finalize everything they picked before leaving).
  std::lock_guard<std::mutex> lock(mu_);
  accepting_ = false;
  draining_ = true;
  region_up_ = false;
  for (auto& p : queue_) {
    p.ctx->cancel(RegionStatus::cancelled);
    const RequestStatus st = terminal_from(*p.ctx, /*hard_stop=*/true);
    if (p.ctx->finalize(st)) tally_terminal_locked(st);
  }
  queue_.clear();
  for (auto& c : live_) {  // defensive: workers drain live_ before leaving
    c->cancel(RegionStatus::cancelled);
    const RequestStatus st = terminal_from(*c, /*hard_stop=*/true);
    if (c->finalize(st)) tally_terminal_locked(st);
  }
  live_.clear();
}

void TaskServer::monitor_main(const std::stop_token& st) {
  // Per-request deadline enforcement + stall reporting, over the live and
  // pending RegionCtx sets. This replaces the scheduler's per-region
  // monitor, which run_persistent deliberately does not start.
  struct Watch {
    std::uint64_t progress = 0;
    std::chrono::steady_clock::time_point since;
  };
  std::unordered_map<std::uint64_t, Watch> watch;
  const bool watchdog = cfg_.watchdog_ms > 0;
  const auto stall_after = std::chrono::milliseconds(cfg_.watchdog_ms);
  const auto poll = std::chrono::milliseconds(2);
  // Phase detection: on the RT_SERVER_RETUNE_MS cadence, feed the
  // per-window deltas of the live worker counters into a PhaseDetector
  // (pathology.hpp) and hot-swap the steal policy when the workload phase
  // changed:
  //
  //   * sustained cross-node steal churn, OR a serialized-creation phase
  //     (one worker sourcing nearly every spawn while the team runs hungry),
  //     switches to hierarchical — node-tiered victim order + hint gating
  //     keeps the probe storm off the hot node;
  //   * a settled phase (remote churn AND hint-skip activity near zero,
  //     workers not hungry) switches back to last_victim.
  //
  // The counters are the same with tracing on or off. Detection and the
  // swap run OUTSIDE mu_ (see retune()); thresholds scale with team size.
  const bool detect = cfg_.retune_ms > 0 && sched_.config().live_reconfigure;
  const auto retune_window = std::chrono::milliseconds(
      cfg_.retune_ms == 0 ? 1 : cfg_.retune_ms);
  auto last_sample = std::chrono::steady_clock::now();
  StatsSnapshot prev = detect ? sched_.stats() : StatsSnapshot{};
  PhaseDetector phase(static_cast<double>(sched_.num_workers()));
  while (!st.stop_requested()) {
    if (detect) {
      const auto now = std::chrono::steady_clock::now();
      if (now - last_sample >= retune_window) {
        last_sample = now;
        StatsSnapshot cur = sched_.stats();
        const WorkerStats& t = cur.total;
        PhaseSample smp;
        smp.d_remote = static_cast<double>(t.steals_remote_node -
                                           prev.total.steals_remote_node);
        smp.d_skip = static_cast<double>(t.remote_probes_skipped -
                                         prev.total.remote_probes_skipped);
        smp.d_hungry =
            static_cast<double>(t.hungry_rounds - prev.total.hungry_rounds);
        // This window's spawn volume and how concentrated it was on one
        // worker.
        const auto spawns = [](const WorkerStats& w) {
          return w.tasks_deferred + w.tasks_inlined_fast;
        };
        std::uint64_t window_total = 0, window_top = 0;
        for (std::size_t i = 0; i < cur.per_worker.size(); ++i) {
          const std::uint64_t d =
              spawns(cur.per_worker[i]) - spawns(prev.per_worker[i]);
          window_total += d;
          window_top = std::max(window_top, d);
        }
        smp.d_spawn = static_cast<double>(window_total);
        smp.spawn_top_share =
            window_total == 0 ? 0.0
                              : static_cast<double>(window_top) /
                                    static_cast<double>(window_total);
        prev = std::move(cur);
        if (auto want = phase.update(smp, sched_.active_steal_policy())) {
          (void)retune(*want);
        }
      }
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      const auto now = std::chrono::steady_clock::now();
      for (auto& p : queue_) {
        if (p.ctx->has_deadline() && now >= p.ctx->deadline) {
          // Still pending at its deadline: cancel; the worker that picks it
          // skips the body and finalizes it as deadline_exceeded.
          p.ctx->cancel(RegionStatus::deadline_exceeded);
        }
      }
      for (auto& c : live_) {
        if (c->has_deadline() && now >= c->deadline) {
          c->cancel(RegionStatus::deadline_exceeded);
        }
        if (!watchdog) continue;
        // progress() sums every shard of the request's ledger: read it once.
        const std::uint64_t p = c->progress();
        auto [it, fresh] = watch.try_emplace(c->id(), Watch{p, now});
        if (fresh) continue;
        if (p != it->second.progress) {
          it->second.progress = p;
          it->second.since = now;
        } else if (now - it->second.since >= stall_after) {
          std::fprintf(
              stderr,
              "rt: SERVER STALL: request %llu no progress for %u ms "
              "(deferred=%llu executed=%llu discarded=%llu cancel=%s)\n",
              static_cast<unsigned long long>(c->id()), cfg_.watchdog_ms,
              static_cast<unsigned long long>(c->deferred()),
              static_cast<unsigned long long>(c->executed()),
              static_cast<unsigned long long>(c->discarded()),
              to_string(c->cancel_cause()));
          it->second.since = now;  // re-arm: one report per stalled window
        }
      }
      if (watchdog) {
        for (auto it = watch.begin(); it != watch.end();) {
          const std::uint64_t id = it->first;
          const bool still_live =
              std::any_of(live_.begin(), live_.end(),
                          [id](const auto& c) { return c->id() == id; });
          it = still_live ? std::next(it) : watch.erase(it);
        }
      }
    }
    std::this_thread::sleep_for(poll);
  }
}

void TaskServer::join_server() {
  std::lock_guard<std::mutex> jl(join_mu_);
  if (joined_) return;
  if (server_thread_.joinable()) server_thread_.join();
  monitor_.request_stop();
  if (monitor_.joinable()) monitor_.join();
  joined_ = true;
}

void TaskServer::drain() {
  unsigned idle = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    accepting_ = false;
    draining_ = true;
    idle = idle_workers_;
  }
  wake(idle);
  join_server();
}

void TaskServer::stop() {
  unsigned idle = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    accepting_ = false;
    // Pending requests are cancelled without ever being picked; live ones
    // are cancelled cooperatively and finalized by their worker.
    for (auto& p : queue_) {
      p.ctx->cancel(RegionStatus::cancelled);
      const RequestStatus st = terminal_from(*p.ctx, /*hard_stop=*/false);
      if (p.ctx->finalize(st)) tally_terminal_locked(st);
    }
    queue_.clear();
    for (auto& c : live_) c->cancel(RegionStatus::cancelled);
    draining_ = true;
    idle = idle_workers_;
  }
  wake(idle);
  join_server();
}

}  // namespace bots::rt
