// Unit tests for the bots::rt task runtime: scheduler semantics, cut-off
// policies, tiedness/TSC behaviour, worksharing, worker-local storage.
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <set>
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

std::uint64_t fib_task(int n, rt::Tiedness tied) {
  if (n < 2) return static_cast<std::uint64_t>(n);
  std::uint64_t a = 0, b = 0;
  rt::spawn(tied, [&a, n, tied] { a = fib_task(n - 1, tied); });
  rt::spawn(tied, [&b, n, tied] { b = fib_task(n - 2, tied); });
  rt::taskwait();
  return a + b;
}

// ---------------------------------------------------------------------------
// Scheduler correctness across thread counts (parameterized).
// ---------------------------------------------------------------------------

class SchedulerThreads : public ::testing::TestWithParam<unsigned> {};

TEST_P(SchedulerThreads, FibTiedCorrect) {
  rt::SchedulerConfig cfg;
  cfg.num_threads = GetParam();
  rt::Scheduler s(cfg);
  std::uint64_t r = 0;
  s.run_single([&] { r = fib_task(22, rt::Tiedness::tied); });
  EXPECT_EQ(r, fib_ref(22));
}

TEST_P(SchedulerThreads, FibUntiedCorrect) {
  rt::SchedulerConfig cfg;
  cfg.num_threads = GetParam();
  rt::Scheduler s(cfg);
  std::uint64_t r = 0;
  s.run_single([&] { r = fib_task(22, rt::Tiedness::untied); });
  EXPECT_EQ(r, fib_ref(22));
}

TEST_P(SchedulerThreads, DeepTiedRecursionNoCutoffTerminates) {
  // Regression test: deep tied recursion once deadlocked when TSC-refused
  // claims were parked worker-privately instead of staying globally visible.
  rt::SchedulerConfig cfg;
  cfg.num_threads = GetParam();
  cfg.cutoff = rt::CutoffPolicy::none;
  rt::Scheduler s(cfg);
  std::uint64_t r = 0;
  s.run_single([&] { r = fib_task(20, rt::Tiedness::tied); });
  EXPECT_EQ(r, fib_ref(20));
}

TEST_P(SchedulerThreads, FireAndForgetTasksCompleteAtRegionEnd) {
  rt::SchedulerConfig cfg;
  cfg.num_threads = GetParam();
  rt::Scheduler s(cfg);
  std::atomic<int> done{0};
  s.run_single([&] {
    for (int i = 0; i < 500; ++i) {
      rt::spawn([&done] { done.fetch_add(1, std::memory_order_relaxed); });
    }
    // no taskwait: the region-end barrier must join them
  });
  EXPECT_EQ(done.load(), 500);
}

TEST_P(SchedulerThreads, RunAllExecutesEveryWorkerOnce) {
  rt::SchedulerConfig cfg;
  cfg.num_threads = GetParam();
  // Exactly GetParam() workers must exist: pin a fault-free team (an
  // injected thread-spawn fault would shrink it under CI's fault legs).
  cfg.fault_plan.clear();
  rt::Scheduler s(cfg);
  std::vector<std::atomic<int>> hits(cfg.num_threads);
  s.run_all([&](unsigned id) { hits[id].fetch_add(1); });
  for (unsigned i = 0; i < cfg.num_threads; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST_P(SchedulerThreads, BarrierSeparatesPhases) {
  rt::SchedulerConfig cfg;
  cfg.num_threads = GetParam();
  rt::Scheduler s(cfg);
  std::atomic<int> phase1{0};
  std::atomic<bool> phase_violation{false};
  s.run_all([&](unsigned) {
    for (int i = 0; i < 50; ++i) {
      rt::spawn([&phase1] { phase1.fetch_add(1, std::memory_order_relaxed); });
    }
    rt::barrier();  // completes all phase-1 tasks
    if (phase1.load() != static_cast<int>(50 * rt::team_size())) {
      phase_violation.store(true);
    }
    rt::barrier();
  });
  EXPECT_FALSE(phase_violation.load());
  EXPECT_EQ(phase1.load(), static_cast<int>(50 * s.num_workers()));
}

TEST_P(SchedulerThreads, ManyRegionsReuseWorkers) {
  rt::SchedulerConfig cfg;
  cfg.num_threads = GetParam();
  rt::Scheduler s(cfg);
  std::atomic<long> total{0};
  for (int rep = 0; rep < 100; ++rep) {
    s.run_single([&] {
      for (int i = 0; i < 20; ++i) {
        rt::spawn([&total, i] { total.fetch_add(i, std::memory_order_relaxed); });
      }
      rt::taskwait();
    });
  }
  EXPECT_EQ(total.load(), 100L * (19 * 20 / 2));
}

INSTANTIATE_TEST_SUITE_P(Threads, SchedulerThreads,
                         ::testing::Values(1u, 2u, 4u, 8u),
                         [](const auto& info) {
                           return "t" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------------
// Spawn/steal fast path: steal-half, parking.
// ---------------------------------------------------------------------------

TEST_P(SchedulerThreads, QuiescenceUnderMaxTasksDeferringEverySpawn) {
  // A max_tasks bound far above the task count defers every spawn, and the
  // region-end barrier alone must join everything, never hanging (caught by
  // the timeout).
  rt::SchedulerConfig cfg;
  cfg.num_threads = GetParam();
  cfg.cutoff = rt::CutoffPolicy::max_tasks;
  cfg.cutoff_value = 1u << 30;
  rt::Scheduler s(cfg);
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> done{0};
    s.run_single([&] {
      for (int i = 0; i < 300; ++i) {
        rt::spawn([&done] {
          rt::spawn([&done] { done.fetch_add(1, std::memory_order_relaxed); });
          done.fetch_add(1, std::memory_order_relaxed);
        });
      }
      // no taskwait: the region-end barrier alone joins everything
    });
    ASSERT_EQ(done.load(), 600) << "round " << round;
  }
}

TEST_P(SchedulerThreads, QuiescenceUnderMaxTasksAcrossPhases) {
  // Mid-region barriers too, under a max_tasks bound that defers every
  // spawn: tasks spawned by tasks executed inside the barrier drain must be
  // joined before the barrier opens.
  rt::SchedulerConfig cfg;
  cfg.num_threads = GetParam();
  cfg.cutoff = rt::CutoffPolicy::max_tasks;
  cfg.cutoff_value = 1u << 30;
  rt::Scheduler s(cfg);
  std::atomic<int> phase1{0};
  std::atomic<bool> violation{false};
  s.run_all([&](unsigned) {
    for (int i = 0; i < 40; ++i) {
      rt::spawn([&phase1] {
        rt::spawn(
            [&phase1] { phase1.fetch_add(1, std::memory_order_relaxed); });
        phase1.fetch_add(1, std::memory_order_relaxed);
      });
    }
    rt::barrier();
    if (phase1.load() != static_cast<int>(80 * rt::team_size())) {
      violation.store(true);
    }
    rt::barrier();
  });
  EXPECT_FALSE(violation.load());
  EXPECT_EQ(phase1.load(), static_cast<int>(80 * s.num_workers()));
}

TEST_P(SchedulerThreads, FibCorrectWithFastPathDisabled) {
  // The A/B baseline bench_spawn_overhead compares against: all overhaul
  // knobs off must still be a correct scheduler.
  rt::SchedulerConfig cfg;
  cfg.num_threads = GetParam();
  cfg.steal_half = false;
  cfg.victim_affinity = false;
  cfg.distributed_parking = false;
  cfg.lifo_slot = false;
  cfg.fused_finish = false;
  rt::Scheduler s(cfg);
  std::uint64_t r = 0;
  s.run_single([&] { r = fib_task(20, rt::Tiedness::tied); });
  EXPECT_EQ(r, fib_ref(20));
}

/// A tied task refused by the Task Scheduling Constraint is parked and later
/// executed by an eligible claimant. The scenario is deterministic: with
/// FIFO local order the body spawns tied A then tied X; the worker picks up
/// A (oldest first), A spawns child B and taskwaits. Waiting inside tied A,
/// the worker pulls X — the oldest pending task in its own deque — and MUST
/// refuse it (X is A's sibling, not a descendant), parking it. B unblocks
/// the taskwait, and the region-end barrier (which suspends no tied task)
/// claims X back from the parked pool and runs it. Run with both parking
/// implementations.
void exercise_parked_path(bool distributed, unsigned threads) {
  rt::SchedulerConfig cfg;
  cfg.num_threads = threads;
  cfg.cutoff = rt::CutoffPolicy::none;  // A, B and X must all be deferred
  cfg.local_order = rt::LocalOrder::fifo;
  cfg.distributed_parking = distributed;
  rt::Scheduler s(cfg);
  std::atomic<bool> x_ran{false};
  std::atomic<bool> b_ran{false};
  s.run_single([&] {
    rt::spawn(rt::Tiedness::tied, [&b_ran] {  // A
      rt::spawn(rt::Tiedness::tied,
                [&b_ran] { b_ran.store(true); });  // B
      rt::taskwait();
    });
    rt::spawn(rt::Tiedness::tied, [&x_ran] { x_ran.store(true); });  // X
    // no taskwait: the implicit task constrains nothing at the barrier
  });
  EXPECT_TRUE(x_ran.load());
  EXPECT_TRUE(b_ran.load());
  const auto t = s.stats().total;
  // Everything deferred was executed: the parked task was not lost.
  EXPECT_EQ(t.tasks_executed, t.tasks_deferred);
  if (threads == 1) {
    // Single worker: the refusal above is unavoidable, so the parked path
    // is guaranteed to have fired (with >1 worker a thief may legally run X
    // first). Each parked task is claimed back exactly once.
    EXPECT_GT(t.tsc_parked, 0u) << "TSC parking not exercised";
    EXPECT_EQ(t.parked_claimed, t.tsc_parked);
  } else {
    EXPECT_EQ(t.parked_claimed, t.tsc_parked);
  }
}

TEST(Scheduler, MultipleParkedSiblingsAllReclaimed) {
  // Regression: claim_parked once republished the survivors found after its
  // `take` without re-checking them and without re-arming the own-inbox
  // rescan — with a single worker every parked sibling beyond the first was
  // stranded and the region-end barrier hung (caught as a test timeout).
  for (bool distributed : {true, false}) {
    rt::SchedulerConfig cfg;
    cfg.num_threads = 1;
    cfg.cutoff = rt::CutoffPolicy::none;
    cfg.local_order = rt::LocalOrder::fifo;
    cfg.distributed_parking = distributed;
    rt::Scheduler s(cfg);
    std::atomic<int> ran{0};
    s.run_single([&ran] {
      rt::spawn(rt::Tiedness::tied, [&ran] {  // A: suspends over B
        rt::spawn(rt::Tiedness::tied,
                  [&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
        rt::taskwait();  // pulls the X siblings first (FIFO) and parks them
      });
      for (int i = 0; i < 3; ++i) {  // X1..X3: A's siblings, refused under A
        rt::spawn(rt::Tiedness::tied,
                  [&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
      }
    });
    EXPECT_EQ(ran.load(), 4) << "distributed=" << distributed;
    const auto t = s.stats().total;
    EXPECT_EQ(t.tasks_executed, t.tasks_deferred) << "distributed=" << distributed;
    EXPECT_GE(t.tsc_parked, 3u) << "distributed=" << distributed;
  }
}

TEST(Scheduler, ParkedTiedTaskExecutedByEligibleClaimantDistributed) {
  exercise_parked_path(/*distributed=*/true, 1);
  exercise_parked_path(/*distributed=*/true, 4);
}

TEST(Scheduler, ParkedTiedTaskExecutedByEligibleClaimantGlobalOverflow) {
  exercise_parked_path(/*distributed=*/false, 1);
  exercise_parked_path(/*distributed=*/false, 4);
}

/// Regression: no tied task may start on a worker holding a suspended tied
/// task it does not descend from, even when an untied task and an inlined
/// tied task stand between them. Forced scenario (2 threads, FIFO): worker
/// 0 spawns tied A and untied U; at the region barrier it runs A, which
/// spawns B and taskwaits. U does not descend from A, so the wait must
/// refuse it (parked) and run B. Once A is done, the barrier runs U, which
/// inlines tied C via spawn_if(false); C spawns tied D and taskwaits. D
/// descends from C, but NOT from A: had U run on top of A's wait, D would
/// have run on worker 0 while A is suspended there, violating the
/// constraint. Worker 1 spins in its implicit body until C waits (so it
/// cannot perturb the setup), then proceeds to the barrier.
///
/// Runs with the zero-alloc inline path both on and off: with it on, C never
/// gets a descriptor — its constraint is represented by its parent U as the
/// worker's suspended tied top (D reattaches to U as well); with it off, C
/// is a descriptor-carrying undeferred task.
void exercise_tsc_broken_chain(bool distributed, bool inline_fast) {
  rt::SchedulerConfig cfg;
  cfg.num_threads = 2;
  cfg.cutoff = rt::CutoffPolicy::none;  // A, U, B, D must all be deferred
  cfg.local_order = rt::LocalOrder::fifo;
  cfg.distributed_parking = distributed;
  cfg.use_inline_fast_path = inline_fast;
  rt::Scheduler s(cfg);
  std::atomic<bool> violation{false};
  std::atomic<bool> c_waiting{false};
  std::atomic<bool> d_ran{false};
  std::atomic<unsigned> a_worker{~0u};
  std::atomic<bool> a_waiting{false};
  s.run_all([&](unsigned id) {
    if (id != 0) {
      while (!c_waiting.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      return;  // proceed to the barrier and drain the parked tasks
    }
    rt::spawn(rt::Tiedness::tied, [&] {  // A
      a_worker.store(rt::worker_id(), std::memory_order_relaxed);
      rt::spawn(rt::Tiedness::tied, [] {});  // B: keeps A's taskwait open
      a_waiting.store(true, std::memory_order_release);
      rt::taskwait();
      a_waiting.store(false, std::memory_order_release);
    });
    rt::spawn(rt::Tiedness::untied, [&] {  // U
      rt::spawn_if(false, rt::Tiedness::tied, [&] {  // C, inlined under U
        rt::spawn(rt::Tiedness::tied, [&] {  // D: descendant of C, not of A
          if (a_waiting.load(std::memory_order_acquire) &&
              rt::worker_id() == a_worker.load(std::memory_order_relaxed)) {
            violation.store(true);
          }
          d_ran.store(true);
        });
        c_waiting.store(true, std::memory_order_release);
        rt::taskwait();
      });
    });
  });
  EXPECT_TRUE(d_ran.load()) << "distributed=" << distributed
                            << " inline_fast=" << inline_fast;
  EXPECT_FALSE(violation.load())
      << "a tied task ran on a worker holding a suspended non-ancestor "
         "tied task (distributed="
      << distributed << " inline_fast=" << inline_fast << ")";
  const auto t = s.stats().total;
  EXPECT_EQ(t.tasks_executed, t.tasks_deferred)
      << "distributed=" << distributed << " inline_fast=" << inline_fast;
  if (inline_fast) {
    EXPECT_EQ(t.tasks_inlined_fast, 1u);  // exactly C took the zero-alloc path
  } else {
    EXPECT_EQ(t.tasks_inlined_fast, 0u);
  }
}

TEST(Scheduler, TscHoldsAcrossUntiedAndInlinedTasks) {
  for (bool distributed : {true, false}) {
    exercise_tsc_broken_chain(distributed, /*inline_fast=*/false);
  }
}

TEST(Scheduler, TscEnforcedAcrossZeroAllocInlinedTiedTasks) {
  for (bool distributed : {true, false}) {
    exercise_tsc_broken_chain(distributed, /*inline_fast=*/true);
  }
}

/// Regression: an untied task claimed on top of a tied wait must obey the
/// scheduling constraint too. Deterministic scenario (1 worker, FIFO, no
/// cut-off): the body spawns tied A and untied U and waits. A spawns tied B
/// and waits; U spawns tied C and waits. Were U claimable inside A's wait,
/// U would run on top of A and C — a descendant of U, not of A — could be
/// claimed by no worker: U would wait for C forever and A for U. Under the
/// rule U is refused while A waits, B runs, A ends, and the body's wait
/// then runs U and C. A hang is the failure mode, so the region runs on a
/// helper thread and a bounded wait ends the whole binary with a message
/// instead of running into the suite's timeout.
TEST(Scheduler, UntiedTaskWaitsForAnUnrelatedTiedWait) {
  rt::SchedulerConfig cfg;
  cfg.num_threads = 1;
  cfg.local_order = rt::LocalOrder::fifo;
  cfg.cutoff = rt::CutoffPolicy::none;
  rt::Scheduler s(cfg);
  std::atomic<int> leaves{0};
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  std::thread runner([&] {
    s.run_single([&] {
      rt::spawn(rt::Tiedness::tied, [&leaves] {  // A
        rt::spawn(rt::Tiedness::tied, [&leaves] { leaves.fetch_add(1); });  // B
        rt::taskwait();
      });
      rt::spawn(rt::Tiedness::untied, [&leaves] {  // U
        rt::spawn(rt::Tiedness::tied, [&leaves] { leaves.fetch_add(1); });  // C
        rt::taskwait();
      });
      rt::taskwait();
    });
    std::lock_guard<std::mutex> lock(mu);
    done = true;
    cv.notify_one();
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    if (!cv.wait_for(lock, std::chrono::seconds(10), [&] { return done; })) {
      std::fprintf(stderr,
                   "UntiedTaskWaitsForAnUnrelatedTiedWait: the region did not "
                   "finish within 10 s (an untied task ran on top of an "
                   "unrelated tied wait)\n");
      std::_Exit(1);
    }
  }
  runner.join();
  EXPECT_EQ(leaves.load(), 2);
}

std::uint64_t fib_if(int n, int depth_left) {
  if (n < 2) return static_cast<std::uint64_t>(n);
  std::uint64_t a = 0, b = 0;
  const bool defer = depth_left > 0;
  const int d = defer ? depth_left - 1 : 0;
  rt::spawn_if(defer, rt::Tiedness::tied, [&a, n, d] { a = fib_if(n - 1, d); });
  rt::spawn_if(defer, rt::Tiedness::tied, [&b, n, d] { b = fib_if(n - 2, d); });
  rt::taskwait();
  return a + b;
}

TEST(Scheduler, ZeroAllocInlinePathAllocatesNoDescriptors) {
  // The allocation-regression tripwire (also enforced in CI through
  // bench_spawn_overhead): with every construct inlined and the fast path
  // on, the run must report ZERO pool activity — any pool_fresh/pool_reuse
  // means a descriptor sneaked back onto the zero-alloc path.
  // This tripwire pins the EXACT alloc/inline partition — meaningless under
  // injected allocation faults (CI's RT_FAULT_PLAN legs), so pin them off.
  rt::SchedulerConfig on;
  on.num_threads = 2;
  on.fault_plan.clear();
  rt::Scheduler s(on);
  ASSERT_TRUE(s.config().use_inline_fast_path);
  std::uint64_t r = 0;
  s.run_single([&] { r = fib_if(20, 0); });  // depth 0: everything inlined
  EXPECT_EQ(r, fib_ref(20));
  const auto t = s.stats().total;
  EXPECT_EQ(t.pool_fresh + t.pool_reuse, 0u)
      << "the zero-alloc inline path allocated a descriptor";
  EXPECT_EQ(t.tasks_inlined_fast, t.tasks_created);
  EXPECT_EQ(t.tasks_deferred, 0u);

  // A/B: with the knob off, every undeferred construct still allocates.
  rt::SchedulerConfig off;
  off.num_threads = 2;
  off.use_inline_fast_path = false;
  off.fault_plan.clear();
  rt::Scheduler s2(off);
  std::uint64_t r2 = 0;
  s2.run_single([&] { r2 = fib_if(20, 0); });
  EXPECT_EQ(r2, fib_ref(20));
  const auto t2 = s2.stats().total;
  EXPECT_EQ(t2.pool_fresh + t2.pool_reuse, t2.tasks_created);
  EXPECT_EQ(t2.tasks_inlined_fast, 0u);
}

TEST(Scheduler, InlineFastPathMixedWithDeferredTasksIsCorrect) {
  // Constructs above the manual depth defer, everything below runs on the
  // zero-alloc path; children spawned inside inline bodies reattach to the
  // nearest descriptor-carrying ancestor and the taskwaits stay
  // conservative, so the result is exact on any team.
  for (unsigned threads : {1u, 4u, 8u}) {
    rt::Scheduler s(rt::SchedulerConfig{.num_threads = threads});
    std::uint64_t r = 0;
    s.run_single([&] { r = fib_if(22, 6); });
    EXPECT_EQ(r, fib_ref(22)) << "threads=" << threads;
    const auto t = s.stats().total;
    EXPECT_GT(t.tasks_inlined_fast, 0u);
    EXPECT_GT(t.tasks_deferred, 0u);
  }
}

TEST(Scheduler, ExceptionFromZeroAllocInlinedTaskPropagates) {
  rt::Scheduler s(rt::SchedulerConfig{.num_threads = 2});
  EXPECT_THROW(
      {
        s.run_single([] {
          rt::spawn_if(false, [] { throw std::runtime_error("inline boom"); });
        });
      },
      std::runtime_error);
  int ok = 0;  // the scheduler survives
  s.run_single([&ok] { ok = 1; });
  EXPECT_EQ(ok, 1);
}

TEST(Scheduler, InlineTaskExceptionPropagatesAtTheSpawnSite) {
  // OpenMP fidelity regression: an undeferred task runs synchronously on
  // the encountering thread, so its exception must be catchable AT THE
  // SPAWN CALL — not captured into the region and rethrown only after
  // run_single returns (the old behaviour, under which the try below never
  // catches and the region itself throws).
  rt::Scheduler s(rt::SchedulerConfig{.num_threads = 2});
  ASSERT_TRUE(s.config().use_inline_fast_path);
  bool caught_at_site = false;
  bool stack_intact = false;
  s.run_single([&] {
    try {
      rt::spawn_if(false, [] { throw std::runtime_error("inline boom"); });
    } catch (const std::runtime_error& e) {
      caught_at_site = std::string(e.what()) == "inline boom";
    }
    // Stack intact after the unwind: the same task context keeps spawning
    // and joining as if nothing happened.
    int x = 0;
    rt::spawn([&x] { x = 1; });
    rt::taskwait();
    stack_intact = x == 1;
  });  // must NOT throw: the exception was consumed at its site
  EXPECT_TRUE(caught_at_site);
  EXPECT_TRUE(stack_intact);
  const auto t = s.stats().total;
  // No descriptor leaked: the throwing construct ran on the zero-alloc
  // path (no descriptor at all); only the follow-up spawn allocated.
  EXPECT_EQ(t.pool_fresh + t.pool_reuse, 1u);
  EXPECT_EQ(t.tasks_inlined_fast, 1u);
}

TEST(Scheduler, InlineTaskExceptionUnwindsTiedBookkeeping) {
  // A tied inlined task throwing from inside another tied inlined task:
  // both frames must unwind their inline depth and suspended tied top on
  // the way out, or later tied scheduling (the TSC check) would consult a
  // frame that no longer exists.
  rt::Scheduler s(rt::SchedulerConfig{.num_threads = 4});
  std::uint64_t r = 0;
  s.run_single([&] {
    try {
      rt::spawn_if(false, rt::Tiedness::tied, [] {
        rt::spawn_if(false, rt::Tiedness::tied,
                     [] { throw std::runtime_error("deep inline boom"); });
      });
    } catch (const std::runtime_error&) {
    }
    r = fib_task(16, rt::Tiedness::tied);
  });
  EXPECT_EQ(r, fib_ref(16));
}

TEST(Scheduler, UndeferredDescriptorExceptionPropagatesAtTheSpawnSite) {
  // Same OpenMP semantics on the descriptor-carrying undeferred path
  // (inline fast path off): synchronous propagation AND the descriptor
  // retired — parent's child count dropped, storage recycled, not leaked.
  rt::SchedulerConfig cfg{.num_threads = 2};
  cfg.use_inline_fast_path = false;
  rt::Scheduler s(cfg);
  bool caught_at_site = false;
  s.run_single([&] {
    try {
      rt::spawn_if(false, [] { throw std::logic_error("undeferred boom"); });
    } catch (const std::logic_error& e) {
      caught_at_site = std::string(e.what()) == "undeferred boom";
    }
    rt::taskwait();  // the dead child must already be accounted: no hang
  });
  EXPECT_TRUE(caught_at_site);
  const auto t = s.stats().total;
  EXPECT_EQ(t.pool_fresh + t.pool_reuse, t.tasks_created);
  // The recycled descriptor is reusable: a follow-up undeferred construct
  // must be served from the pool freelist, proving the throw path released
  // it rather than leaking it.
  s.reset_stats();
  int ran = 0;
  s.run_single([&ran] { rt::spawn_if(false, [&ran] { ran = 1; }); });
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(s.stats().total.pool_reuse, 1u);
  EXPECT_EQ(s.stats().total.pool_fresh, 0u);
}

/// Regression stress for the fused finish path: fire-and-forget trees where
/// every interior task finishes (and releases its descriptor reference)
/// while its children may still be running. The dying task must announce
/// child_completed() to its parent BEFORE dropping its own reference (or
/// fuse both into one RMW, only legal when observably exclusive): releasing
/// first lets a concurrent child's release chain recycle the parent under
/// the announcement — a use-after-free that surfaced as corrupted counts or
/// hangs on recycled pooled descriptors.
TEST_P(SchedulerThreads, FireAndForgetTreesFusedFinishStress) {
  constexpr int depth = 9;                         // 2^10 - 1 nodes per tree
  constexpr long nodes = (1L << (depth + 1)) - 1;  // all levels counted
  struct Fire {
    static void tree(int d, std::atomic<long>& count) {
      count.fetch_add(1, std::memory_order_relaxed);
      if (d == 0) return;
      rt::spawn([d, &count] { tree(d - 1, count); });
      rt::spawn([d, &count] { tree(d - 1, count); });
      // no taskwait: the parent dies with its children possibly running
    }
  };
  // Heap descriptors matter here: with the pool a corrupted recycled
  // descriptor only shows up as a wrong count or a hang, while plain
  // new/delete turns the parent being released under the announcement into
  // a heap-use-after-free the sanitizers can attribute.
  for (bool pooled : {true, false}) {
    rt::SchedulerConfig cfg;
    cfg.num_threads = GetParam();
    cfg.cutoff = rt::CutoffPolicy::none;
    cfg.fused_finish = true;
    cfg.use_task_pool = pooled;
    rt::Scheduler s(cfg);
    for (int round = 0; round < 10; ++round) {
      std::atomic<long> count{0};
      s.run_single([&count] { Fire::tree(depth, count); });
      ASSERT_EQ(count.load(), nodes)
          << "round " << round << " pooled=" << pooled;
    }
  }
}

// ---------------------------------------------------------------------------
// Single-threaded semantic tests.
// ---------------------------------------------------------------------------

TEST(Scheduler, SpawnOutsideRegionExecutesInline) {
  int x = 0;
  rt::spawn([&x] { x = 42; });
  EXPECT_EQ(x, 42);
  rt::taskwait();  // must be a no-op
  EXPECT_FALSE(rt::in_region());
  EXPECT_EQ(rt::worker_id(), 0u);
  EXPECT_EQ(rt::team_size(), 1u);
}

TEST(Scheduler, SpawnIfFalseIsUndeferredAndSynchronous) {
  rt::Scheduler s(rt::SchedulerConfig{.num_threads = 2});
  int order = 0;
  int task_saw = -1;
  s.run_single([&] {
    rt::spawn_if(false, [&] { task_saw = order; });
    order = 1;  // runs after the undeferred task finished
  });
  EXPECT_EQ(task_saw, 0);
  const auto st = s.stats();
  EXPECT_EQ(st.total.tasks_if_inlined, 1u);
  EXPECT_EQ(st.total.tasks_deferred, 0u);
}

TEST(Scheduler, SpawnIfTrueDefers) {
  rt::Scheduler s(rt::SchedulerConfig{.num_threads = 2});
  int x = 0;
  s.run_single([&] {
    rt::spawn_if(true, [&x] { x = 7; });
    rt::taskwait();
  });
  EXPECT_EQ(x, 7);
  EXPECT_EQ(s.stats().total.tasks_deferred, 1u);
}

TEST(Scheduler, NestedRegionSerializesAsTeamOfOne) {
  rt::Scheduler s(rt::SchedulerConfig{.num_threads = 4});
  unsigned inner_team = 0;
  int inner_done = 0;
  int grandchild_done = 0;
  s.run_single([&] {
    s.run_single([&] {
      inner_team = rt::team_size();
      // This child returns without a taskwait while its own child still
      // runs: the nested scope must join its whole subtree, not only the
      // children of its body.
      rt::spawn([&grandchild_done] {
        rt::spawn([&grandchild_done] {
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
          grandchild_done = 1;
        });
      });
      rt::spawn([&inner_done] { inner_done = 1; });
      // no explicit taskwait: the nested scope must join its children
    });
    EXPECT_EQ(inner_done, 1);
    EXPECT_EQ(grandchild_done, 1);
  });
  // The nested region inherits the outer team's context but runs the body
  // serially on the calling worker.
  EXPECT_EQ(inner_team, 4u);
}

TEST(Scheduler, ExceptionFromTaskPropagatesToCaller) {
  rt::Scheduler s(rt::SchedulerConfig{.num_threads = 4});
  EXPECT_THROW(
      {
        s.run_single([] {
          rt::spawn([] { throw std::runtime_error("task boom"); });
          rt::taskwait();
        });
      },
      std::runtime_error);
}

TEST(Scheduler, ExceptionFromRegionBodyPropagates) {
  rt::Scheduler s(rt::SchedulerConfig{.num_threads = 2});
  EXPECT_THROW(s.run_single([] { throw std::logic_error("body boom"); }),
               std::logic_error);
}

TEST(Scheduler, RegionUsableAfterException) {
  rt::Scheduler s(rt::SchedulerConfig{.num_threads = 2});
  EXPECT_THROW(s.run_single([] { throw std::runtime_error("x"); }),
               std::runtime_error);
  int ok = 0;
  s.run_single([&ok] { ok = 1; });
  EXPECT_EQ(ok, 1);
}

TEST(Scheduler, ZeroThreadConfigClampsToOne) {
  rt::Scheduler s(rt::SchedulerConfig{.num_threads = 0});
  EXPECT_EQ(s.num_workers(), 1u);
  int x = 0;
  s.run_single([&x] { x = 1; });
  EXPECT_EQ(x, 1);
}

// ---------------------------------------------------------------------------
// Cut-off policies.
// ---------------------------------------------------------------------------

TEST(Cutoff, NoneDefersEverything) {
  rt::SchedulerConfig cfg{.num_threads = 2, .cutoff = rt::CutoffPolicy::none};
  // "Everything defers" pins the exact partition — incompatible with
  // injected allocation faults (CI's RT_FAULT_PLAN legs).
  cfg.fault_plan.clear();
  rt::Scheduler s(cfg);
  std::uint64_t r = 0;
  s.run_single([&] { r = fib_task(15, rt::Tiedness::tied); });
  EXPECT_EQ(r, fib_ref(15));
  const auto st = s.stats();
  EXPECT_EQ(st.total.tasks_cutoff_inlined, 0u);
  EXPECT_EQ(st.total.tasks_deferred, st.total.tasks_created);
  EXPECT_EQ(st.total.tasks_executed, st.total.tasks_deferred);
}

TEST(Cutoff, MaxTasksBoundsEachSpawnersQueue) {
  // max_tasks splits its bound into per-worker shares of queue: with 16 on
  // two workers, each spawner defers while its own queue holds fewer than
  // 8. Worker 1 spawns 16 empty tasks while worker 0 waits outside the
  // scheduler; then worker 0 spawns 16 while worker 1 does. Nobody steals
  // while anyone spawns, so each worker defers exactly 8 and inlines 8 —
  // the tasks worker 1 left queued do not count against worker 0.
  rt::SchedulerConfig cfg{.num_threads = 2,
                          .cutoff = rt::CutoffPolicy::max_tasks,
                          .cutoff_value = 16};
  cfg.fault_plan.clear();  // the full team, and no inlined failed allocs
  rt::Scheduler s(cfg);
  ASSERT_EQ(s.num_workers(), 2u);
  std::atomic<bool> one_done{false};
  std::atomic<bool> zero_done{false};
  std::atomic<int> ran{0};
  const auto spawn16 = [&ran] {
    for (int i = 0; i < 16; ++i) {
      rt::spawn([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
  };
  s.run_all([&](unsigned id) {
    if (id == 1) {
      spawn16();
      one_done.store(true, std::memory_order_release);
      while (!zero_done.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
    } else {
      while (!one_done.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      spawn16();
      zero_done.store(true, std::memory_order_release);
    }
  });
  EXPECT_EQ(ran.load(), 32);
  const auto st = s.stats();
  for (unsigned id = 0; id < 2; ++id) {
    EXPECT_EQ(st.per_worker[id].tasks_deferred, 8u) << "worker " << id;
    EXPECT_EQ(st.per_worker[id].tasks_cutoff_inlined, 8u) << "worker " << id;
  }
}

TEST(Cutoff, AdaptiveHysteresisOnTheSpawnersQueue) {
  // One worker, bound 4: adaptive throttles once the queue holds more than
  // 4 and releases only once it holds fewer than 2. help_one runs one queued
  // task at a time, so every spawn below lands on a known queue length.
  rt::SchedulerConfig cfg{.num_threads = 1,
                          .cutoff = rt::CutoffPolicy::adaptive,
                          .cutoff_value = 4};
  cfg.fault_plan.clear();  // no inlined failed allocs
  rt::Scheduler s(cfg);
  std::atomic<int> ran{0};
  std::string trace;  // D deferred, I inlined, one letter per spawn
  s.run_single([&] {
    const auto spawn_one = [&] {
      const auto before = s.stats().total.tasks_deferred;
      rt::spawn([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
      trace += s.stats().total.tasks_deferred > before ? 'D' : 'I';
    };
    for (int i = 0; i < 6; ++i) spawn_one();  // queue 0..4 defer, 5 > 4
    for (int i = 0; i < 3; ++i) s.help_one();  // queue 5 -> 2
    spawn_one();     // 2 is not below 2: still throttled
    s.help_one();    // queue 2 -> 1
    spawn_one();     // 1 < 2: released, deferred
    spawn_one();     // 2 <= 4: deferred
    rt::taskwait();
  });
  EXPECT_EQ(ran.load(), 9);
  EXPECT_EQ(trace, "DDDDDIIDD");
}

TEST(Cutoff, MaxDepthInlinesBelowDepth) {
  rt::SchedulerConfig cfg{.num_threads = 2,
                          .cutoff = rt::CutoffPolicy::max_depth,
                          .cutoff_value = 4};
  rt::Scheduler s(cfg);
  std::uint64_t r = 0;
  s.run_single([&] { r = fib_task(16, rt::Tiedness::tied); });
  EXPECT_EQ(r, fib_ref(16));
  const auto st = s.stats();
  EXPECT_GT(st.total.tasks_cutoff_inlined, 0u);
  // Depth <= 4 spawns are deferred: at most 2^5 - 2 of them... count loosely.
  EXPECT_LT(st.total.tasks_deferred, st.total.tasks_created);
}

TEST(Cutoff, MaxDepthSeesThroughZeroAllocInlineFrames) {
  // Descriptor-less inlined tasks still occupy a depth level
  // (Worker::inline_depth): the max_depth cut-off must defer exactly the
  // same spawns whether inlined tasks carry a descriptor or not. fib's task
  // tree is fixed, so the per-depth spawn counts — and with them
  // tasks_deferred under a depth bound — are schedule-independent.
  auto deferred_with = [](bool inline_fast) {
    rt::SchedulerConfig cfg{.num_threads = 2,
                            .cutoff = rt::CutoffPolicy::max_depth,
                            .cutoff_value = 5};
    cfg.use_inline_fast_path = inline_fast;
    // Exact counts below: with the inline path off every spawn allocates a
    // descriptor, and an injected pool + heap failure inlines a deferrable
    // spawn on the degradation ladder's last rung.
    cfg.fault_plan.clear();
    rt::Scheduler s(cfg);
    std::uint64_t r = 0;
    s.run_single([&] { r = fib_task(17, rt::Tiedness::tied); });
    EXPECT_EQ(r, fib_ref(17));
    return s.stats().total.tasks_deferred;
  };
  EXPECT_EQ(deferred_with(true), deferred_with(false));
}

TEST(Cutoff, InlineDepthDoesNotLeakIntoClaimedTasks) {
  // Regression: a task claimed at a scheduling point INSIDE an inline body
  // is a fresh frame whose depth is fully recorded in its descriptor, so
  // the claimer's inline_depth must not inflate depths computed under it.
  // Deterministic scenario (1 worker, FIFO, max_depth bound 2): the root
  // spawns untied T0 and T1 (depth 1, deferred). The region barrier runs T0
  // first (FIFO); T0 spawns A (depth 2, deferred — keeps its taskwait open)
  // and inlines untied C via spawn_if(false) (inline_depth = 1). C's
  // taskwait claims T1 — the oldest pending task, unconstrained because
  // no tied task is suspended — and T1's spawn of X must see depth 2
  // (deferred): a leaked inline_depth makes it 3 and wrongly inlines it.
  // With the inline path off, C carries a descriptor and waits on no one,
  // and X is plainly deferred — both runs must defer exactly {T0, T1, A, X}.
  for (bool inline_fast : {true, false}) {
    rt::SchedulerConfig cfg;
    cfg.num_threads = 1;
    cfg.local_order = rt::LocalOrder::fifo;
    cfg.cutoff = rt::CutoffPolicy::max_depth;
    cfg.cutoff_value = 2;
    cfg.use_inline_fast_path = inline_fast;
    rt::Scheduler s(cfg);
    std::atomic<int> x_ran{0};
    s.run_single([&] {
      rt::spawn(rt::Tiedness::untied, [&] {  // T0
        rt::spawn(rt::Tiedness::untied, [] {});  // A: keeps the wait open
        rt::spawn_if(false, rt::Tiedness::untied, [&] {  // C, inlined
          rt::taskwait();  // claims T1 while inline_depth = 1
        });
      });
      rt::spawn(rt::Tiedness::untied, [&] {  // T1
        rt::spawn(rt::Tiedness::untied, [&x_ran] {  // X: depth 2, MUST defer
          x_ran.fetch_add(1);
        });
      });
    });
    EXPECT_EQ(x_ran.load(), 1) << "inline_fast=" << inline_fast;
    EXPECT_EQ(s.stats().total.tasks_deferred, 4u)
        << "inline_fast=" << inline_fast
        << " (X was wrongly inlined: inline_depth leaked into a claimed "
           "task)";
  }
}

TEST(Cutoff, MaxTasksBoundsLiveTasks) {
  rt::SchedulerConfig cfg{.num_threads = 2,
                          .cutoff = rt::CutoffPolicy::max_tasks,
                          .cutoff_value = 8};
  rt::Scheduler s(cfg);
  std::uint64_t r = 0;
  s.run_single([&] { r = fib_task(18, rt::Tiedness::tied); });
  EXPECT_EQ(r, fib_ref(18));
  EXPECT_GT(s.stats().total.tasks_cutoff_inlined, 0u);
}

TEST(Cutoff, AdaptiveThrottlesUnderFlood) {
  rt::SchedulerConfig cfg{.num_threads = 2,
                          .cutoff = rt::CutoffPolicy::adaptive,
                          .cutoff_value = 16};
  rt::Scheduler s(cfg);
  std::atomic<int> done{0};
  s.run_single([&] {
    for (int i = 0; i < 5000; ++i) {
      rt::spawn([&done] { done.fetch_add(1, std::memory_order_relaxed); });
    }
    rt::taskwait();
  });
  EXPECT_EQ(done.load(), 5000);
  EXPECT_GT(s.stats().total.tasks_cutoff_inlined, 0u);
}

TEST(Cutoff, ResolvedBoundDefaults) {
  rt::SchedulerConfig cfg;
  cfg.num_threads = 4;
  cfg.cutoff = rt::CutoffPolicy::max_tasks;
  cfg.cutoff_value = 0;
  EXPECT_EQ(cfg.resolved_cutoff_bound(), 256u);
  cfg.cutoff = rt::CutoffPolicy::max_depth;
  EXPECT_EQ(cfg.resolved_cutoff_bound(), 16u);
  cfg.cutoff_value = 9;
  EXPECT_EQ(cfg.resolved_cutoff_bound(), 9u);
}

// ---------------------------------------------------------------------------
// Statistics accounting.
// ---------------------------------------------------------------------------

TEST(Stats, CreatedEqualsDeferredPlusInlined) {
  rt::SchedulerConfig cfg{.num_threads = 4,
                          .cutoff = rt::CutoffPolicy::max_tasks,
                          .cutoff_value = 16};
  rt::Scheduler s(cfg);
  s.run_single([] {
    for (int i = 0; i < 1000; ++i) {
      rt::spawn_if(i % 3 != 0, [] {});
    }
    rt::taskwait();
  });
  const auto t = s.stats().total;
  EXPECT_EQ(t.tasks_created,
            t.tasks_deferred + t.tasks_if_inlined + t.tasks_cutoff_inlined);
  EXPECT_EQ(t.tasks_executed, t.tasks_deferred);
  EXPECT_GT(t.env_bytes, 0u);
  EXPECT_EQ(t.taskwaits, 1u);
}

TEST(Stats, ResetClearsCounters) {
  rt::Scheduler s(rt::SchedulerConfig{.num_threads = 2});
  s.run_single([] {
    rt::spawn([] {});
    rt::taskwait();
  });
  EXPECT_GT(s.stats().total.tasks_created, 0u);
  s.reset_stats();
  EXPECT_EQ(s.stats().total.tasks_created, 0u);
}

TEST(Stats, PoolReuseAfterFirstWave) {
  rt::Scheduler s(rt::SchedulerConfig{.num_threads = 1});
  s.run_single([] {
    for (int wave = 0; wave < 4; ++wave) {
      for (int i = 0; i < 100; ++i) rt::spawn([] {});
      rt::taskwait();
    }
  });
  EXPECT_GT(s.stats().total.pool_reuse, 0u);
}

TEST(Stats, NoPoolModeUsesFreshAllocations) {
  rt::SchedulerConfig cfg{.num_threads = 2};
  cfg.use_task_pool = false;
  // "Every construct hits the allocator" pins the exact alloc partition —
  // incompatible with injected allocation faults (CI's RT_FAULT_PLAN legs).
  cfg.fault_plan.clear();
  rt::Scheduler s(cfg);
  s.run_single([] {
    for (int wave = 0; wave < 3; ++wave) {
      for (int i = 0; i < 50; ++i) rt::spawn([] {});
      rt::taskwait();
    }
  });
  const auto t = s.stats().total;
  EXPECT_EQ(t.pool_reuse, 0u);
  EXPECT_EQ(t.pool_fresh, t.tasks_created);
}

// ---------------------------------------------------------------------------
// Large captured environments take the heap path.
// ---------------------------------------------------------------------------

TEST(Environment, LargeCaptureIsCopiedCorrectly) {
  rt::Scheduler s(rt::SchedulerConfig{.num_threads = 4});
  struct Big {
    std::array<std::uint8_t, 4096> bytes;
  };
  Big big{};
  for (std::size_t i = 0; i < big.bytes.size(); ++i) {
    big.bytes[i] = static_cast<std::uint8_t>(i * 7);
  }
  std::atomic<int> failures{0};
  s.run_single([&] {
    for (int t = 0; t < 64; ++t) {
      rt::spawn([big, &failures] {  // 4 KB captured by value (heap env)
        for (std::size_t i = 0; i < big.bytes.size(); ++i) {
          if (big.bytes[i] != static_cast<std::uint8_t>(i * 7)) {
            failures.fetch_add(1);
            return;
          }
        }
      });
    }
    rt::taskwait();
  });
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(s.stats().total.env_bytes, 64u * sizeof(Big));
}

TEST(Environment, CaptureDestructorsRun) {
  rt::Scheduler s(rt::SchedulerConfig{.num_threads = 2});
  auto marker = std::make_shared<int>(13);
  std::weak_ptr<int> weak = marker;
  s.run_single([m = std::move(marker)] {
    rt::spawn([m] { EXPECT_EQ(*m, 13); });
    rt::taskwait();
  });
  EXPECT_TRUE(weak.expired());  // every captured copy destroyed
}

// ---------------------------------------------------------------------------
// Worksharing.
// ---------------------------------------------------------------------------

class WorksharingThreads : public ::testing::TestWithParam<unsigned> {};

TEST_P(WorksharingThreads, ForStaticCoversExactlyOnce) {
  rt::Scheduler s(rt::SchedulerConfig{.num_threads = GetParam()});
  std::vector<std::atomic<int>> hits(1000);
  s.run_all([&](unsigned) {
    rt::for_static(0, 1000, [&](std::int64_t i) { hits[i].fetch_add(1); });
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST_P(WorksharingThreads, ForStaticChunkedCoversExactlyOnce) {
  rt::Scheduler s(rt::SchedulerConfig{.num_threads = GetParam()});
  std::vector<std::atomic<int>> hits(777);
  s.run_all([&](unsigned) {
    rt::for_static_chunked(0, 777, 13,
                           [&](std::int64_t i) { hits[i].fetch_add(1); });
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST_P(WorksharingThreads, ForDynamicCoversExactlyOnce) {
  rt::Scheduler s(rt::SchedulerConfig{.num_threads = GetParam()});
  std::vector<std::atomic<int>> hits(997);
  rt::DynamicSchedule dyn(0);
  s.run_all([&](unsigned) {
    rt::for_dynamic(dyn, 997, 7, [&](std::int64_t i) { hits[i].fetch_add(1); });
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST_P(WorksharingThreads, SingleNowaitRunsOnce) {
  rt::Scheduler s(rt::SchedulerConfig{.num_threads = GetParam()});
  rt::SingleGate gate(s.num_workers());
  std::atomic<int> runs{0};
  s.run_all([&](unsigned) {
    rt::single_nowait(gate, [&] { runs.fetch_add(1); });
    rt::barrier();
  });
  EXPECT_EQ(runs.load(), 1);
}

TEST_P(WorksharingThreads, TasksInsideForJoinAtBarrier) {
  rt::Scheduler s(rt::SchedulerConfig{.num_threads = GetParam()});
  std::atomic<long> sum{0};
  rt::DynamicSchedule dyn(0);
  s.run_all([&](unsigned) {
    rt::for_dynamic(dyn, 200, 3, [&](std::int64_t i) {
      rt::spawn([&sum, i] { sum.fetch_add(i, std::memory_order_relaxed); });
    });
  });
  EXPECT_EQ(sum.load(), 199L * 200 / 2);
}

INSTANTIATE_TEST_SUITE_P(Threads, WorksharingThreads,
                         ::testing::Values(1u, 3u, 8u),
                         [](const auto& info) {
                           return "t" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------------
// WorkerLocal (threadprivate) storage.
// ---------------------------------------------------------------------------

TEST(WorkerLocal, AccumulatesAndReduces) {
  rt::Scheduler s(rt::SchedulerConfig{.num_threads = 4});
  rt::WorkerLocal<std::uint64_t> acc(s, 0);
  s.run_single([&] {
    for (int i = 0; i < 1000; ++i) {
      rt::spawn([&acc] { ++acc.local(); });
    }
    rt::taskwait();
  });
  EXPECT_EQ(acc.reduce(std::uint64_t{0},
                       [](std::uint64_t a, std::uint64_t b) { return a + b; }),
            1000u);
}

TEST(WorkerLocal, ResetRestoresInitial) {
  rt::Scheduler s(rt::SchedulerConfig{.num_threads = 2});
  rt::WorkerLocal<int> acc(s, 5);
  acc.local() += 10;
  acc.reset();
  EXPECT_EQ(acc.reduce(0, [](int a, int b) { return a + b; }), 10);  // 2 x 5
}

TEST(WorkerLocal, SlotsAreCacheLinePadded) {
  rt::Scheduler s(rt::SchedulerConfig{.num_threads = 2});
  rt::WorkerLocal<char> acc(s, 0);
  const auto* a = &acc.slot(0);
  const auto* b = &acc.slot(1);
  EXPECT_GE(reinterpret_cast<std::ptrdiff_t>(b) -
                reinterpret_cast<std::ptrdiff_t>(a),
            64);
}

// ---------------------------------------------------------------------------
// Scheduling policy configurations all yield correct results.
// ---------------------------------------------------------------------------

struct PolicyCase {
  rt::LocalOrder local;
  rt::VictimPolicy victim;
  rt::Tiedness tied;
};

class PolicyMatrix : public ::testing::TestWithParam<PolicyCase> {};

TEST_P(PolicyMatrix, FibCorrectUnderPolicy) {
  const PolicyCase pc = GetParam();
  rt::SchedulerConfig cfg;
  cfg.num_threads = 4;
  cfg.local_order = pc.local;
  cfg.victim = pc.victim;
  rt::Scheduler s(cfg);
  std::uint64_t r = 0;
  s.run_single([&] { r = fib_task(18, pc.tied); });
  EXPECT_EQ(r, fib_ref(18));
}

INSTANTIATE_TEST_SUITE_P(
    Policies, PolicyMatrix,
    ::testing::Values(
        PolicyCase{rt::LocalOrder::lifo, rt::VictimPolicy::random,
                   rt::Tiedness::tied},
        PolicyCase{rt::LocalOrder::lifo, rt::VictimPolicy::sequential,
                   rt::Tiedness::untied},
        PolicyCase{rt::LocalOrder::fifo, rt::VictimPolicy::random,
                   rt::Tiedness::untied},
        PolicyCase{rt::LocalOrder::fifo, rt::VictimPolicy::sequential,
                   rt::Tiedness::tied}),
    [](const auto& info) {
      return std::string(to_string(info.param.local)) + "_" +
             to_string(info.param.victim) + "_" + to_string(info.param.tied);
    });

}  // namespace
