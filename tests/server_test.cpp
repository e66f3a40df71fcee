// Server-mode tests (PR 7): the resident TaskServer multiplexing many
// concurrent request regions over one pinned worker pool. Everything runs
// the REAL scheduler and a REAL resident region; the invariants asserted —
// non-blocking admission, exactly-one-terminal-state, per-request ledgers
// and fault isolation, deadline/shed behaviour, the reconfigure guard — are
// the ones bench_server_mix and the CI soak job rely on.
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/rt.hpp"

namespace rt = bots::rt;

namespace {

std::uint64_t fib_ref(int n) {
  std::uint64_t a = 0, b = 1;
  for (int i = 0; i < n; ++i) {
    const std::uint64_t t = a + b;
    a = b;
    b = t;
  }
  return a;
}

std::uint64_t fib_task(int n) {
  if (n < 2) return static_cast<std::uint64_t>(n);
  std::uint64_t a = 0, b = 0;
  rt::spawn([&a, n] { a = fib_task(n - 1); });
  rt::spawn([&b, n] { b = fib_task(n - 2); });
  rt::taskwait();
  return a + b;
}

// Scheduler config pinned against the environment (CI's fault legs export
// RT_FAULT_PLAN to the whole suite; server tests that assert exact admission
// counts must not see injected admission faults).
rt::SchedulerConfig clean_cfg(unsigned threads) {
  rt::SchedulerConfig cfg;
  cfg.num_threads = threads;
  cfg.fault_plan.clear();
  return cfg;
}

void expect_accounting_balanced(const rt::StatsSnapshot& st) {
  EXPECT_EQ(st.total.tasks_created + st.total.range_splits,
            st.total.tasks_deferred + st.total.tasks_if_inlined +
                st.total.tasks_cutoff_inlined);
  EXPECT_EQ(st.total.tasks_executed + st.total.tasks_discarded,
            st.total.tasks_deferred);
}

// The conservation law: after drain, every submit() call ended in exactly
// one terminal state.
void expect_conservation(const rt::ServerStats& st) {
  EXPECT_EQ(st.submitted,
            st.completed + st.cancelled + st.deadline_exceeded + st.rejected);
}

// A lost wakeup shows as a hang, so the wake-protocol tests wait a bounded
// time for `done` and end the whole binary with a message instead of running
// into the suite's timeout.
void finish_within(std::chrono::seconds limit, const char* what,
                   const std::function<bool()>& done) {
  const auto until = std::chrono::steady_clock::now() + limit;
  while (!done()) {
    if (std::chrono::steady_clock::now() >= until) {
      std::fprintf(stderr, "%s: not done within %lld s\n", what,
                   static_cast<long long>(limit.count()));
      std::_Exit(1);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// ---------------------------------------------------------------------------
// Tentpole: concurrent requests complete with per-request ledgers.
// ---------------------------------------------------------------------------

TEST(Server, MixedRequestsAllComplete) {
  rt::Scheduler s(clean_cfg(4));
  rt::ServerConfig sc;
  sc.queue_capacity = 32;
  rt::TaskServer server(s, sc);
  EXPECT_TRUE(server.running());

  constexpr int kReqs = 8;
  std::array<std::uint64_t, kReqs> out{};
  std::vector<rt::RegionHandle> handles;
  for (int i = 0; i < kReqs; ++i) {
    const int n = 16 + (i % 3);
    auto res = server.submit([&out, i, n] { out[static_cast<std::size_t>(i)] = fib_task(n); });
    ASSERT_TRUE(res.admitted);
    ASSERT_TRUE(res.handle.valid());
    handles.push_back(res.handle);
  }
  for (auto& h : handles) {
    EXPECT_EQ(h.wait(), rt::RequestStatus::completed);
    EXPECT_TRUE(h.ledger_balanced());
    EXPECT_GT(h.tasks_executed(), 0u);
    EXPECT_EQ(h.tasks_discarded(), 0u);
    EXPECT_EQ(h.exception(), nullptr);
    EXPECT_GT(h.latency().count(), 0);
  }
  for (int i = 0; i < kReqs; ++i) {
    EXPECT_EQ(out[static_cast<std::size_t>(i)], fib_ref(16 + (i % 3)));
  }
  server.drain();
  EXPECT_FALSE(server.running());
  const rt::ServerStats st = server.stats();
  EXPECT_EQ(st.submitted, static_cast<std::uint64_t>(kReqs));
  EXPECT_EQ(st.admitted, static_cast<std::uint64_t>(kReqs));
  EXPECT_EQ(st.completed, static_cast<std::uint64_t>(kReqs));
  EXPECT_EQ(st.rejected, 0u);
  expect_conservation(st);
  const rt::StatsSnapshot snap = s.stats();
  EXPECT_GE(snap.total.server_requests, static_cast<std::uint64_t>(kReqs));
  expect_accounting_balanced(snap);
}

// ---------------------------------------------------------------------------
// Satellite: per-region status via handles — two OVERLAPPING requests with
// independently queryable, distinct statuses (the scheduler-global
// last_region_status() cannot express this; it is deprecated for server use).
// ---------------------------------------------------------------------------

TEST(Server, OverlappingRequestsHaveIndependentStatus) {
  rt::Scheduler s(clean_cfg(4));
  rt::ServerConfig sc;
  sc.queue_capacity = 8;
  rt::TaskServer server(s, sc);

  std::atomic<bool> a_started{false};
  auto ra = server.submit([&] {
    a_started.store(true, std::memory_order_release);
    while (!rt::cancellation_point()) { std::this_thread::yield(); }
  });
  auto rb = server.submit([] { (void)fib_task(18); });
  ASSERT_TRUE(ra.admitted);
  ASSERT_TRUE(rb.admitted);
  while (!a_started.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  // B completes while A is still live: two regions, two statuses.
  EXPECT_EQ(rb.handle.wait(), rt::RequestStatus::completed);
  EXPECT_EQ(ra.handle.status(), rt::RequestStatus::pending);
  ra.handle.cancel();
  EXPECT_EQ(ra.handle.wait(), rt::RequestStatus::cancelled);
  EXPECT_EQ(rb.handle.status(), rt::RequestStatus::completed);
  server.drain();
  expect_conservation(server.stats());
}

// ---------------------------------------------------------------------------
// Tentpole: per-request fault isolation — one client's exception cancels
// only that client's region; siblings and the server survive.
// ---------------------------------------------------------------------------

TEST(Server, ExceptionCancelsOnlyItsOwnRequest) {
  rt::Scheduler s(clean_cfg(4));
  rt::ServerConfig sc;
  sc.queue_capacity = 8;
  rt::TaskServer server(s, sc);

  std::uint64_t good_out = 0;
  auto bad = server.submit([] {
    rt::spawn([] { throw std::runtime_error("client A boom"); });
    (void)fib_task(18);
  });
  auto good = server.submit([&good_out] { good_out = fib_task(20); });
  ASSERT_TRUE(bad.admitted);
  ASSERT_TRUE(good.admitted);

  EXPECT_EQ(bad.handle.wait(), rt::RequestStatus::cancelled);
  ASSERT_NE(bad.handle.exception(), nullptr);
  try {
    std::rethrow_exception(bad.handle.exception());
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "client A boom");
  }
  EXPECT_TRUE(bad.handle.ledger_balanced());

  EXPECT_EQ(good.handle.wait(), rt::RequestStatus::completed);
  EXPECT_EQ(good_out, fib_ref(20));
  EXPECT_EQ(good.handle.exception(), nullptr);

  // The server itself is unharmed: a THIRD request still completes.
  EXPECT_TRUE(server.running());
  auto after = server.submit([] { (void)fib_task(14); });
  ASSERT_TRUE(after.admitted);
  EXPECT_EQ(after.handle.wait(), rt::RequestStatus::completed);
  server.drain();
  expect_conservation(server.stats());
}

// ---------------------------------------------------------------------------
// Tentpole: bounded admission — submit() never blocks; a full queue rejects
// with a retry-after hint.
// ---------------------------------------------------------------------------

TEST(Server, BackpressureRejectsWithRetryHint) {
  rt::Scheduler s(clean_cfg(2));
  rt::ServerConfig sc;
  sc.queue_capacity = 2;
  sc.max_live = 1;
  sc.shed_on_overload = false;  // plain rejection, no shedding
  rt::TaskServer server(s, sc);

  std::atomic<bool> release{false};
  std::atomic<int> started{0};
  auto blocker_body = [&] {
    started.fetch_add(1, std::memory_order_acq_rel);
    while (!release.load(std::memory_order_acquire) &&
           !rt::cancellation_point()) {
      std::this_thread::yield();
    }
  };
  std::vector<rt::RegionHandle> admitted;
  auto live = server.submit(blocker_body);
  ASSERT_TRUE(live.admitted);
  admitted.push_back(live.handle);
  // Wait until the blocker occupies the single live slot, then fill the
  // queue behind it.
  while (started.load(std::memory_order_acquire) == 0) {
    std::this_thread::yield();
  }
  for (int i = 0; i < 2; ++i) {
    auto r = server.submit(blocker_body);
    ASSERT_TRUE(r.admitted);
    admitted.push_back(r.handle);
  }
  // Queue is now full: every further submit is rejected IMMEDIATELY (no
  // blocking) with a terminal handle and a non-zero retry hint.
  for (int i = 0; i < 8; ++i) {
    auto r = server.submit([] {});
    EXPECT_FALSE(r.admitted);
    EXPECT_EQ(r.handle.status(), rt::RequestStatus::rejected_overload);
    EXPECT_TRUE(r.handle.done());
    EXPECT_GE(r.retry_after.count(), 1);
  }
  release.store(true, std::memory_order_release);
  for (auto& h : admitted) {
    EXPECT_EQ(h.wait(), rt::RequestStatus::completed);
  }
  server.drain();
  const rt::ServerStats st = server.stats();
  EXPECT_EQ(st.submitted, 11u);
  EXPECT_EQ(st.admitted, 3u);
  EXPECT_EQ(st.rejected, 8u);
  EXPECT_EQ(st.shed, 0u);
  expect_conservation(st);
}

// ---------------------------------------------------------------------------
// Tentpole: load shedding — on saturation the pending request closest to
// its deadline is cancelled to admit the new one.
// ---------------------------------------------------------------------------

TEST(Server, ShedCancelsNearestDeadlinePending) {
  rt::Scheduler s(clean_cfg(2));
  rt::ServerConfig sc;
  sc.queue_capacity = 2;
  sc.max_live = 1;
  sc.shed_on_overload = true;
  rt::TaskServer server(s, sc);

  std::atomic<bool> release{false};
  std::atomic<int> started{0};
  auto blocker = server.submit([&] {
    started.fetch_add(1, std::memory_order_acq_rel);
    while (!release.load(std::memory_order_acquire) &&
           !rt::cancellation_point()) {
      std::this_thread::yield();
    }
  });
  ASSERT_TRUE(blocker.admitted);
  while (started.load(std::memory_order_acquire) == 0) {
    std::this_thread::yield();
  }
  // Queue: p_far (10s deadline), p_near (2s deadline). Both far enough out
  // that the monitor cannot beat the shed — the terminal cause below is
  // deterministically the shedder.
  auto p_far = server.submit([] {}, {.weight = 1, .deadline_ms = 10000});
  auto p_near = server.submit([] {}, {.weight = 1, .deadline_ms = 2000});
  ASSERT_TRUE(p_far.admitted);
  ASSERT_TRUE(p_near.admitted);
  // Saturating submit: p_near (nearest deadline) is shed to make room.
  auto p_new = server.submit([] {}, {.weight = 1, .deadline_ms = 5000});
  EXPECT_TRUE(p_new.admitted);
  EXPECT_EQ(p_near.handle.status(), rt::RequestStatus::cancelled);
  EXPECT_TRUE(p_near.handle.ledger_balanced());  // never ran: 0 == 0

  release.store(true, std::memory_order_release);
  EXPECT_EQ(blocker.handle.wait(), rt::RequestStatus::completed);
  EXPECT_EQ(p_far.handle.wait(), rt::RequestStatus::completed);
  EXPECT_EQ(p_new.handle.wait(), rt::RequestStatus::completed);
  server.drain();
  const rt::ServerStats st = server.stats();
  EXPECT_EQ(st.shed, 1u);
  expect_conservation(st);
}

// ---------------------------------------------------------------------------
// Tentpole: per-request deadlines enforced by the server monitor.
// ---------------------------------------------------------------------------

TEST(Server, PerRequestDeadlineExceeded) {
  rt::Scheduler s(clean_cfg(2));
  rt::ServerConfig sc;
  sc.queue_capacity = 8;
  rt::TaskServer server(s, sc);

  auto slow = server.submit(
      [] {
        while (!rt::cancellation_point()) { std::this_thread::yield(); }
      },
      {.weight = 1, .deadline_ms = 30});
  auto fast = server.submit([] { (void)fib_task(14); });
  ASSERT_TRUE(slow.admitted);
  ASSERT_TRUE(fast.admitted);
  EXPECT_EQ(slow.handle.wait(), rt::RequestStatus::deadline_exceeded);
  EXPECT_TRUE(slow.handle.ledger_balanced());
  EXPECT_GT(slow.handle.latency().count(), 0);
  // The neighbour is untouched by the deadline kill.
  EXPECT_EQ(fast.handle.wait(), rt::RequestStatus::completed);
  server.drain();
  const rt::ServerStats st = server.stats();
  EXPECT_EQ(st.deadline_exceeded, 1u);
  expect_conservation(st);
}

// ---------------------------------------------------------------------------
// Satellite: the queue wait (admission to pickup) is the part of a request's
// latency spent before any worker took it.
// ---------------------------------------------------------------------------

TEST(Server, QueueWaitIsThePickupPartOfLatency) {
  rt::Scheduler s(clean_cfg(2));
  rt::ServerConfig sc;
  sc.queue_capacity = 8;
  sc.max_live = 1;
  rt::TaskServer server(s, sc);

  // The first request holds the only max_live slot until `go`, so every
  // later one sits queued for at least the hold.
  constexpr auto kHold = std::chrono::milliseconds(5);
  std::atomic<bool> go{false};
  std::vector<rt::RegionHandle> handles;
  handles.push_back(server
                        .submit([&go] {
                          while (!go.load(std::memory_order_acquire)) {
                            std::this_thread::yield();
                          }
                        })
                        .handle);
  for (int i = 0; i < 4; ++i) {
    auto res = server.submit([] { (void)fib_task(12); });
    ASSERT_TRUE(res.admitted);
    handles.push_back(res.handle);
  }
  EXPECT_EQ(handles.back().queue_wait().count(), 0);  // not terminal yet
  std::this_thread::sleep_for(kHold);
  go.store(true, std::memory_order_release);
  for (std::size_t i = 0; i < handles.size(); ++i) {
    ASSERT_EQ(handles[i].wait(), rt::RequestStatus::completed);
    EXPECT_GE(handles[i].queue_wait().count(), 0);
    EXPECT_LE(handles[i].queue_wait(), handles[i].latency());
    if (i > 0) {
      EXPECT_GE(handles[i].queue_wait(), kHold);
    }
  }
  server.drain();
  auto late = server.submit([] {});
  ASSERT_FALSE(late.admitted);
  EXPECT_EQ(late.handle.queue_wait().count(), 0);
  expect_conservation(server.stats());
}

// ---------------------------------------------------------------------------
// Tentpole: weighted-share fairness — a heavier request is picked first
// under contention (stride scheduling).
// ---------------------------------------------------------------------------

TEST(Server, WeightedShareFavorsHeavyRequest) {
  rt::Scheduler s(clean_cfg(2));
  rt::ServerConfig sc;
  sc.queue_capacity = 8;
  sc.max_live = 1;
  sc.fairness = rt::ServerFairness::weighted_share;
  rt::TaskServer server(s, sc);

  std::atomic<bool> release{false};
  std::atomic<int> started{0};
  auto blocker = server.submit([&] {
    started.fetch_add(1, std::memory_order_acq_rel);
    while (!release.load(std::memory_order_acquire) &&
           !rt::cancellation_point()) {
      std::this_thread::yield();
    }
  });
  ASSERT_TRUE(blocker.admitted);
  while (started.load(std::memory_order_acquire) == 0) {
    std::this_thread::yield();
  }
  std::mutex om;
  std::vector<char> order;
  // Light submitted FIRST; the weight-4 heavy one must still be picked
  // first (stride: pass advances by stride/weight).
  auto light = server.submit(
      [&] {
        std::lock_guard<std::mutex> l(om);
        order.push_back('L');
      },
      {.weight = 1, .deadline_ms = 0});
  auto heavy = server.submit(
      [&] {
        std::lock_guard<std::mutex> l(om);
        order.push_back('H');
      },
      {.weight = 4, .deadline_ms = 0});
  ASSERT_TRUE(light.admitted);
  ASSERT_TRUE(heavy.admitted);
  release.store(true, std::memory_order_release);
  EXPECT_EQ(blocker.handle.wait(), rt::RequestStatus::completed);
  EXPECT_EQ(light.handle.wait(), rt::RequestStatus::completed);
  EXPECT_EQ(heavy.handle.wait(), rt::RequestStatus::completed);
  {
    std::lock_guard<std::mutex> l(om);
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], 'H');
    EXPECT_EQ(order[1], 'L');
  }
  server.drain();
  expect_conservation(server.stats());
}

// ---------------------------------------------------------------------------
// Shutdown paths.
// ---------------------------------------------------------------------------

TEST(Server, DrainRejectsNewSubmitsPermanently) {
  rt::Scheduler s(clean_cfg(2));
  rt::ServerConfig sc;
  rt::TaskServer server(s, sc);
  auto ok = server.submit([] { (void)fib_task(12); });
  ASSERT_TRUE(ok.admitted);
  server.drain();
  EXPECT_EQ(ok.handle.status(), rt::RequestStatus::completed);
  EXPECT_FALSE(server.running());
  auto late = server.submit([] {});
  EXPECT_FALSE(late.admitted);
  EXPECT_EQ(late.handle.status(), rt::RequestStatus::rejected_overload);
  EXPECT_EQ(late.retry_after.count(), 0);  // permanent: do not retry
  server.drain();  // idempotent
  expect_conservation(server.stats());
}

TEST(Server, StopCancelsPendingAndLiveRequests) {
  rt::Scheduler s(clean_cfg(2));
  rt::ServerConfig sc;
  sc.queue_capacity = 8;
  sc.max_live = 1;
  rt::TaskServer server(s, sc);

  std::atomic<int> started{0};
  auto live = server.submit([&] {
    started.fetch_add(1, std::memory_order_acq_rel);
    while (!rt::cancellation_point()) { std::this_thread::yield(); }
  });
  auto q1 = server.submit([] { (void)fib_task(16); });
  auto q2 = server.submit([] { (void)fib_task(16); });
  ASSERT_TRUE(live.admitted);
  ASSERT_TRUE(q1.admitted);
  ASSERT_TRUE(q2.admitted);
  while (started.load(std::memory_order_acquire) == 0) {
    std::this_thread::yield();
  }
  server.stop();
  EXPECT_EQ(live.handle.wait(), rt::RequestStatus::cancelled);
  EXPECT_EQ(q1.handle.wait(), rt::RequestStatus::cancelled);
  EXPECT_EQ(q2.handle.wait(), rt::RequestStatus::cancelled);
  EXPECT_TRUE(live.handle.ledger_balanced());
  EXPECT_FALSE(server.running());
  const rt::ServerStats st = server.stats();
  EXPECT_EQ(st.cancelled, 3u);
  expect_conservation(st);
}

// ---------------------------------------------------------------------------
// Idle workers block until woken: these guard against lost wakeups, not
// timing. Each passes under a polling idle loop too.
// ---------------------------------------------------------------------------

TEST(Server, CappedQueueStartsWhenASlotFrees) {
  rt::Scheduler s(clean_cfg(4));
  rt::ServerConfig sc;
  sc.queue_capacity = 8;
  sc.max_live = 1;
  rt::TaskServer server(s, sc);

  std::atomic<bool> a_started{false};
  std::atomic<bool> release_a{false};
  auto a = server.submit([&] {
    a_started.store(true, std::memory_order_release);
    while (!release_a.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  });
  ASSERT_TRUE(a.admitted);
  std::atomic<bool> b_started{false};
  std::atomic<bool> b_saw_a_done{false};
  const rt::RegionHandle a_handle = a.handle;
  auto b = server.submit([&, a_handle] {
    b_saw_a_done.store(a_handle.done(), std::memory_order_relaxed);
    b_started.store(true, std::memory_order_release);
  });
  ASSERT_TRUE(b.admitted);
  finish_within(std::chrono::seconds(10), "CappedQueueStartsWhenASlotFrees",
                [&] { return a_started.load(std::memory_order_acquire); });
  // Three workers are free, but the cap holds B back while A runs.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_FALSE(b_started.load(std::memory_order_acquire));
  release_a.store(true, std::memory_order_release);
  finish_within(std::chrono::seconds(10), "CappedQueueStartsWhenASlotFrees",
                [&] { return b.handle.done(); });
  EXPECT_EQ(a.handle.status(), rt::RequestStatus::completed);
  EXPECT_EQ(b.handle.status(), rt::RequestStatus::completed);
  EXPECT_TRUE(b_saw_a_done.load(std::memory_order_relaxed));
  server.drain();
  expect_conservation(server.stats());
}

TEST(Server, DrainAndStopWakeBlockedWorkers) {
  rt::Scheduler s(clean_cfg(4));
  for (const bool graceful : {true, false}) {
    rt::TaskServer server(s, rt::ServerConfig{});
    // One request brings every worker up; the pause lets them all go idle.
    ASSERT_EQ(server.submit([] {}).handle.wait(),
              rt::RequestStatus::completed);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    std::atomic<bool> returned{false};
    std::thread closer([&] {
      if (graceful) {
        server.drain();
      } else {
        server.stop();
      }
      returned.store(true, std::memory_order_release);
    });
    finish_within(std::chrono::seconds(2),
                  graceful ? "DrainAndStopWakeBlockedWorkers: drain()"
                           : "DrainAndStopWakeBlockedWorkers: stop()",
                  [&] { return returned.load(std::memory_order_acquire); });
    closer.join();
    EXPECT_FALSE(server.running());
    expect_conservation(server.stats());
  }
}

TEST(Server, SubmitsFromManyThreadsAreNeverLost) {
  rt::Scheduler s(clean_cfg(4));
  constexpr int kClients = 3;
  constexpr int kPerClient = 500;
  rt::ServerConfig sc;
  sc.queue_capacity = kClients * kPerClient;  // admission never rejects
  sc.shed_on_overload = false;
  rt::TaskServer server(s, sc);

  std::vector<std::vector<rt::RegionHandle>> handles(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&server, &mine = handles[static_cast<std::size_t>(c)], c] {
      std::uint64_t rng = 0x5eedULL + static_cast<std::uint64_t>(c);
      for (int i = 0; i < kPerClient; ++i) {
        auto res = server.submit([] { (void)fib_task(8); });
        mine.push_back(res.handle);
        rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
        std::this_thread::sleep_for(std::chrono::microseconds((rng >> 33) % 301));
      }
    });
  }
  for (auto& t : clients) t.join();
  finish_within(std::chrono::seconds(30), "SubmitsFromManyThreadsAreNeverLost",
                [&] {
                  for (const auto& mine : handles) {
                    for (const auto& h : mine) {
                      if (!h.done()) return false;
                    }
                  }
                  return true;
                });
  for (const auto& mine : handles) {
    ASSERT_EQ(mine.size(), static_cast<std::size_t>(kPerClient));
    for (const auto& h : mine) {
      EXPECT_EQ(h.status(), rt::RequestStatus::completed);
      EXPECT_TRUE(h.ledger_balanced());
    }
  }
  server.drain();
  const rt::ServerStats st = server.stats();
  EXPECT_EQ(st.submitted, static_cast<std::uint64_t>(kClients * kPerClient));
  EXPECT_EQ(st.completed, st.submitted);
  expect_conservation(st);
}

// ---------------------------------------------------------------------------
// The per-request ledger counts every task exactly once, whichever worker
// runs it. ledger_balanced() alone passes when an update is lost on both
// sides, so these assert the counts themselves.
// ---------------------------------------------------------------------------

// Runs `body` as one request on a 4-worker server (cut-off none, so every
// spawn is deferred) while three sibling requests keep the other workers
// stealing until it is terminal, and returns the request's handle. The
// request stays open until another worker has run one of its tasks, so its
// ledger has more than one writer however the host schedules the threads.
rt::RegionHandle run_with_thieves(
    const std::function<void(const std::function<void()>&)>& body) {
  rt::SchedulerConfig cfg = clean_cfg(4);
  cfg.cutoff = rt::CutoffPolicy::none;
  rt::Scheduler s(cfg);
  rt::ServerConfig sc;
  sc.queue_capacity = 8;
  rt::TaskServer server(s, sc);

  // Tasks run per worker, each slot written only by its worker.
  struct alignas(64) Ran {
    std::atomic<std::uint64_t> n{0};
  };
  std::array<Ran, 4> ran{};
  const std::function<void()> task = [&ran] {
    std::atomic<std::uint64_t>& n = ran[rt::detail::tls_worker->id].n;
    n.store(n.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  };
  std::atomic<bool> done{false};
  std::atomic<int> thieves{0};
  std::vector<rt::RegionHandle> siblings;
  for (int i = 0; i < 3; ++i) {
    auto r = server.submit([&] {
      thieves.fetch_add(1, std::memory_order_acq_rel);
      while (!done.load(std::memory_order_acquire)) (void)s.help_one();
    });
    EXPECT_TRUE(r.admitted);
    siblings.push_back(r.handle);
  }
  finish_within(std::chrono::seconds(10), "run_with_thieves: siblings up",
                [&] { return thieves.load(std::memory_order_acquire) == 3; });
  auto req = server.submit([&] {
    const unsigned self = rt::detail::tls_worker->id;
    body(task);
    const auto stolen = [&] {
      for (unsigned w = 0; w < ran.size(); ++w) {
        if (w != self && ran[w].n.load(std::memory_order_relaxed) > 0) {
          return true;
        }
      }
      return false;
    };
    while (!stolen()) std::this_thread::yield();
  });
  EXPECT_TRUE(req.admitted);
  finish_within(std::chrono::seconds(30), "run_with_thieves: request",
                [&] { return req.handle.done(); });
  done.store(true, std::memory_order_release);
  for (auto& h : siblings) EXPECT_EQ(h.wait(), rt::RequestStatus::completed);
  server.drain();
  return req.handle;
}

constexpr std::uint64_t kLedgerTasks = 20000;

TEST(Server, LedgerCountsEveryStolenTaskExactly) {
  const rt::RegionHandle h = run_with_thieves([](const auto& task) {
    for (std::uint64_t i = 0; i < kLedgerTasks; ++i) rt::spawn(task);
  });
  EXPECT_EQ(h.status(), rt::RequestStatus::completed);
  EXPECT_EQ(h.tasks_deferred(), kLedgerTasks);
  EXPECT_EQ(h.tasks_executed(), kLedgerTasks);
  EXPECT_EQ(h.tasks_discarded(), 0u);
}

TEST(Server, LedgerCountsEveryTaskOfACancelledRequest) {
  // The task that runs a quarter of the way through cancels the request:
  // the spawn loop still defers all of them, and every one not yet
  // dispatched is discarded.
  std::atomic<std::uint64_t> started{0};
  const rt::RegionHandle h = run_with_thieves([&started](const auto& task) {
    for (std::uint64_t i = 0; i < kLedgerTasks; ++i) {
      rt::spawn([&started, &task] {
        task();
        if (started.fetch_add(1, std::memory_order_relaxed) + 1 ==
            kLedgerTasks / 4) {
          rt::cancel_region();
        }
      });
    }
  });
  EXPECT_EQ(h.status(), rt::RequestStatus::cancelled);
  EXPECT_EQ(h.tasks_deferred(), kLedgerTasks);
  EXPECT_EQ(h.tasks_executed() + h.tasks_discarded(), kLedgerTasks);
  EXPECT_GE(h.tasks_executed(), kLedgerTasks / 4);
  EXPECT_GT(h.tasks_discarded(), 0u);
}

// A thief folds the completions of stolen tasks into one later RMW on their
// parent (Worker::fold_parent). Request R's first task runs on the other
// worker — R's body spins until it has — and submits request Q, which that
// worker picks up next. Q's body runs until R is done, so R must not wait
// for the announcement the thief still owes it: the thief pays it before
// Q's root body starts. Left unpaid, R ends only after Q's body gives up
// (its deadline), and the test fails without hanging.
TEST(Server, FoldedCompletionsArePaidBeforeAnotherRequestRuns) {
  rt::SchedulerConfig cfg = clean_cfg(2);
  cfg.cutoff = rt::CutoffPolicy::none;
  rt::Scheduler s(cfg);
  rt::TaskServer server(s, rt::ServerConfig{});
  for (int round = 0; round < 20; ++round) {
    rt::RegionHandle r_handle;
    rt::RegionHandle q_handle;
    std::atomic<bool> r_published{false};
    std::atomic<bool> q_published{false};
    std::atomic<bool> task_ran_elsewhere{false};
    std::atomic<bool> r_done_while_q_ran{false};
    const auto q_body = [&] {
      const auto give_up =
          std::chrono::steady_clock::now() + std::chrono::seconds(5);
      while (!r_published.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      while (!r_handle.done() && std::chrono::steady_clock::now() < give_up) {
        std::this_thread::yield();
      }
      r_done_while_q_ran.store(r_handle.done(), std::memory_order_release);
    };
    auto r = server.submit([&] {
      const unsigned self = rt::detail::tls_worker->id;
      rt::spawn([&, self] {
        task_ran_elsewhere.store(rt::detail::tls_worker->id != self,
                                 std::memory_order_relaxed);
        auto q = server.submit(q_body);
        EXPECT_TRUE(q.admitted);
        q_handle = q.handle;
        q_published.store(true, std::memory_order_release);
      });
      // Pushes the task out of this worker's private slot, where no thief
      // could see it; this one runs here, at R's join.
      rt::spawn([] {});
      // Not a scheduling point: only the other worker can run the task.
      while (!q_published.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
    });
    ASSERT_TRUE(r.admitted);
    r_handle = r.handle;
    r_published.store(true, std::memory_order_release);
    EXPECT_EQ(r_handle.wait(), rt::RequestStatus::completed);
    finish_within(std::chrono::seconds(30), "folded request: Q published",
                  [&] { return q_published.load(std::memory_order_acquire); });
    EXPECT_EQ(q_handle.wait(), rt::RequestStatus::completed);
    EXPECT_TRUE(task_ran_elsewhere.load()) << "round " << round;
    EXPECT_TRUE(r_done_while_q_ran.load()) << "round " << round;
    EXPECT_EQ(r_handle.tasks_deferred(), 2u);
    EXPECT_EQ(r_handle.tasks_executed() + r_handle.tasks_discarded(), 2u);
  }
  server.drain();
  expect_accounting_balanced(s.stats());
  const auto t = s.stats().total;
  EXPECT_EQ(t.pool_home_frees + t.pool_remote_frees, t.pool_reuse + t.pool_fresh);
  for (const auto& n : s.node_pool_snapshot()) {
    EXPECT_EQ(n.arena_carved, n.arena_free + n.cached + n.in_transit);
  }
}

// The monitor reports a live request whose progress (dispatches, range
// chunks, inline discards) stops moving, and only that one.
TEST(Server, StallReportNamesOnlyTheBlockedRequest) {
  rt::Scheduler s(clean_cfg(4));
  rt::ServerConfig sc;
  sc.watchdog_ms = 50;
  rt::TaskServer server(s, sc);

  std::atomic<bool> release{false};
  testing::internal::CaptureStderr();
  // Blocked in its own body: no task of it is ever dispatched.
  auto blocked = server.submit([&release] {
    while (!release.load(std::memory_order_acquire) &&
           !rt::cancellation_point()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  // Dispatches one task after another for as long.
  auto busy = server.submit([&release] {
    while (!release.load(std::memory_order_acquire) &&
           !rt::cancellation_point()) {
      rt::spawn([] {});
      rt::taskwait();
    }
  });
  ASSERT_TRUE(blocked.admitted);
  ASSERT_TRUE(busy.admitted);
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  release.store(true, std::memory_order_release);
  EXPECT_EQ(blocked.handle.wait(), rt::RequestStatus::completed);
  EXPECT_EQ(busy.handle.wait(), rt::RequestStatus::completed);
  server.drain();
  const std::string err = testing::internal::GetCapturedStderr();
  const auto stalled = [&err](const rt::RegionHandle& h) {
    return err.find("SERVER STALL: request " + std::to_string(h.id()) +
                    " no progress") != std::string::npos;
  };
  EXPECT_TRUE(stalled(blocked.handle)) << err;
  EXPECT_FALSE(stalled(busy.handle)) << err;
  EXPECT_GT(busy.handle.tasks_executed(), 0u);
}

// ---------------------------------------------------------------------------
// Satellite: reconfigure() against a LIVE region is a checked error.
// ---------------------------------------------------------------------------

TEST(Server, RequestFramesOutliveRaidsThroughThem) {
  // A constrained raid walks up the parent chain of a task it has not
  // claimed yet. Request roots and nested regions run on frames on worker
  // stacks: tied tasks of each request wait (so raids inside requests are
  // constrained), half of them open a nested region below them, and every
  // request spawns from undeferred frames, whose depth gaps let such a walk
  // reach the request's root frame. Every frame must stay put until the
  // raids walking through it have ended. 8 workers oversubscribe a small
  // box, so raids get preempted mid-walk; run under ASan (with
  // ASAN_OPTIONS=detect_stack_use_after_return=1) and TSAN.
  rt::SchedulerConfig cfg = clean_cfg(8);
  cfg.cutoff = rt::CutoffPolicy::none;
  rt::Scheduler s(cfg);
  rt::ServerConfig sc;
  constexpr int kReqs = 192;
  sc.queue_capacity = kReqs;
  rt::TaskServer server(s, sc);
  constexpr int kTops = 8;
  constexpr int kKids = 3;
  std::atomic<int> leaves{0};
  const auto leaf = [&leaves] {
    leaves.fetch_add(1, std::memory_order_relaxed);
  };
  const std::function<void()> waiting_kids = [&leaf] {
    for (int k = 0; k < kKids; ++k) {
      rt::spawn(rt::Tiedness::tied, [&leaf] {
        rt::spawn(rt::Tiedness::tied, leaf);
        rt::taskwait();
      });
    }
    rt::taskwait();
  };
  const auto request = [&s, &waiting_kids] {
    rt::spawn_if(false, [&] {
      rt::spawn_if(false, [&] {
        for (int t = 0; t < kTops; ++t) {
          rt::spawn(rt::Tiedness::tied, [&s, &waiting_kids, t] {
            if (t % 2 == 0) {
              s.run_single(waiting_kids);
            } else {
              waiting_kids();
            }
          });
        }
        rt::taskwait();
      });
    });
  };
  std::vector<rt::RegionHandle> handles;
  for (int i = 0; i < kReqs; ++i) {
    auto res = server.submit(request);
    ASSERT_TRUE(res.admitted);
    handles.push_back(res.handle);
  }
  for (auto& h : handles) EXPECT_EQ(h.wait(), rt::RequestStatus::completed);
  server.drain();
  EXPECT_EQ(leaves.load(), kReqs * kTops * kKids);
  expect_accounting_balanced(s.stats());
}

TEST(Server, ReconfigureWhileServerRunningThrows) {
  rt::Scheduler s(clean_cfg(4));
  rt::ServerConfig sc;
  rt::TaskServer server(s, sc);
  ASSERT_TRUE(server.running());
  EXPECT_THROW(s.reconfigure(rt::StealPolicyKind::hierarchical, "2x2"),
               std::logic_error);
  server.drain();
  // Between regions reconfigure works again, exactly as before.
  s.reconfigure(rt::StealPolicyKind::last_victim, "1x4");
  std::uint64_t r = 0;
  s.run_single([&] { r = fib_task(16); });
  EXPECT_EQ(r, fib_ref(16));
}

// ---------------------------------------------------------------------------
// Injected admission faults: transient rejects, same client contract as a
// real overload.
// ---------------------------------------------------------------------------

TEST(Server, AdmissionFaultInjectionRejectsTransiently) {
  rt::SchedulerConfig cfg = clean_cfg(2);
  cfg.fault_plan = "seed=3,server_admit=1.0";
  rt::Scheduler s(cfg);
  rt::ServerConfig sc;
  rt::TaskServer server(s, sc);
  for (int i = 0; i < 5; ++i) {
    auto r = server.submit([] {});
    EXPECT_FALSE(r.admitted);
    EXPECT_EQ(r.handle.status(), rt::RequestStatus::rejected_overload);
    EXPECT_GE(r.retry_after.count(), 1);  // transient: retry IS advised
  }
  EXPECT_EQ(s.fault_plan().injected(rt::FaultSite::server_admit), 5u);
  server.drain();
  const rt::ServerStats st = server.stats();
  EXPECT_EQ(st.rejected, 5u);
  expect_conservation(st);
}

}  // namespace
