// Robustness tests for the PR-6 fault-tolerance layer: cooperative
// cancellation + deadlines, the descriptor degradation ladder, deterministic
// fault injection, the stall watchdog, hardened env parsing, and teardown
// edge cases. Everything here runs the REAL scheduler — faults are injected
// through FaultPlan, never by mocking — so the invariants checked are the
// ones production would rely on.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
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

// Creation-side and execution-side ledgers that must balance in EVERY
// terminal region state — completed, cancelled, or deadline_exceeded.
void expect_accounting_balanced(const rt::StatsSnapshot& st) {
  EXPECT_EQ(st.total.tasks_created + st.total.range_splits,
            st.total.tasks_deferred + st.total.tasks_if_inlined + st.total.tasks_cutoff_inlined);
  EXPECT_EQ(st.total.tasks_executed + st.total.tasks_discarded, st.total.tasks_deferred);
  EXPECT_EQ(st.total.pool_home_frees + st.total.pool_remote_frees,
            st.total.pool_reuse + st.total.pool_fresh);
}

// ---------------------------------------------------------------------------
// Satellite: hardened env parsing. Malformed values fall back to defaults
// (with a stderr warning we don't capture — the contract under test is the
// RETURNED value, not the log line).
// ---------------------------------------------------------------------------

TEST(EnvParsing, ParseFlagTable) {
  struct Case {
    const char* in;
    bool ok;
    bool value;
  };
  const Case cases[] = {
      {"1", true, true},    {"true", true, true},  {"on", true, true},
      {"0", true, false},   {"false", true, false}, {"off", true, false},
      {"", false, false},   {"yes", false, false},  {"2", false, false},
      {"TRUE", false, false}, {"1 ", false, false}, {"o n", false, false},
  };
  for (const Case& c : cases) {
    bool out = false;
    EXPECT_EQ(rt::parse_flag(c.in, out), c.ok) << "input: '" << c.in << "'";
    if (c.ok) {
      EXPECT_EQ(out, c.value) << "input: '" << c.in << "'";
    }
  }
}

TEST(EnvParsing, ParseU32Table) {
  struct Case {
    const char* in;
    bool ok;
    std::uint32_t value;
  };
  const Case cases[] = {
      {"0", true, 0},
      {"17", true, 17},
      {"4294967295", true, 4294967295u},
      {"4294967296", false, 0},   // one past the u32 range
      {"", false, 0},
      {"-1", false, 0},
      {"1e3", false, 0},
      {"0x10", false, 0},
      {" 7", false, 0},
      {"7 ", false, 0},
      {"99999999999999999999999", false, 0},  // longer than any u64
  };
  for (const Case& c : cases) {
    std::uint32_t out = 0;
    EXPECT_EQ(rt::parse_u32(c.in, out), c.ok) << "input: '" << c.in << "'";
    if (c.ok) {
      EXPECT_EQ(out, c.value) << "input: '" << c.in << "'";
    }
  }
}

TEST(EnvParsing, StealPolicyFromStringTable) {
  struct Case {
    const char* in;
    bool ok;
  };
  const Case cases[] = {
      {"legacy", true},       {"random", true},     {"sequential", true},
      {"last_victim", true},  {"hierarchical", true},
      {"", false},            {"Random", false},    {"hier", false},
      {"last-victim", false}, {"random ", false},
  };
  for (const Case& c : cases) {
    rt::StealPolicyKind k = rt::StealPolicyKind::legacy;
    EXPECT_EQ(rt::steal_policy_from_string(c.in, k), c.ok)
        << "input: '" << c.in << "'";
  }
}

TEST(EnvParsing, MalformedEnvFallsBackToDefault) {
  ::setenv("RT_TEST_FLAG_KNOB", "banana", 1);
  EXPECT_TRUE(rt::env_flag("RT_TEST_FLAG_KNOB", true));
  EXPECT_FALSE(rt::env_flag("RT_TEST_FLAG_KNOB", false));
  ::setenv("RT_TEST_FLAG_KNOB", "off", 1);
  EXPECT_FALSE(rt::env_flag("RT_TEST_FLAG_KNOB", true));

  ::setenv("RT_TEST_U32_KNOB", "12abc", 1);
  EXPECT_EQ(rt::env_u32("RT_TEST_U32_KNOB", 42u), 42u);
  ::setenv("RT_TEST_U32_KNOB", "12", 1);
  EXPECT_EQ(rt::env_u32("RT_TEST_U32_KNOB", 42u), 12u);

  ::unsetenv("RT_TEST_FLAG_KNOB");
  ::unsetenv("RT_TEST_U32_KNOB");
}

TEST(EnvParsing, MalformedSyntheticTopologyFallsThrough) {
  // A malformed spec must behave exactly like an absent one (warn + fall
  // back), never crash or half-apply.
  for (const char* bad : {"x", "4x", "x4", "2y4", "0x4", "4x0", "2x4x8",
                          "-2x4", " 2x4", "2x4 "}) {
    const rt::Topology t = rt::Topology::detect(4, bad);
    EXPECT_NE(t.source(), "synthetic") << "spec: '" << bad << "'";
    EXPECT_EQ(t.num_workers(), 4u);
  }
  const rt::Topology ok = rt::Topology::detect(8, "2x4");
  EXPECT_EQ(ok.source(), "synthetic");
  EXPECT_EQ(ok.num_nodes(), 2u);
}

TEST(EnvParsing, FaultPlanMalformedEntriesIgnored) {
  rt::FaultPlan p;
  p.parse("seed=xyz,all=banana,descriptor_alloc,=0.5,bogus_site=0.5,"
          "task_body=1.5,arena_carve=0.25");
  EXPECT_EQ(p.seed(), 1u);  // malformed seed keeps the default
  EXPECT_TRUE(p.active());  // the one well-formed entry survived
  EXPECT_TRUE(p.site_active(rt::FaultSite::arena_carve));
  // task_body=1.5 is out of range -> ignored, site stays inactive.
  EXPECT_FALSE(p.site_active(rt::FaultSite::task_body));
  EXPECT_FALSE(p.site_active(rt::FaultSite::descriptor_alloc));

  p.parse("");
  EXPECT_FALSE(p.active());
  p.parse("seed=9,all=1.0");
  EXPECT_EQ(p.seed(), 9u);
  for (int i = 0; i < static_cast<int>(rt::fault_site_count); ++i) {
    EXPECT_TRUE(p.site_active(static_cast<rt::FaultSite>(i)));
  }
}

// ---------------------------------------------------------------------------
// Tentpole: deterministic fault injection.
// ---------------------------------------------------------------------------

TEST(FaultPlan, SameSeedSameVerdictSequence) {
  rt::FaultPlan a;
  rt::FaultPlan b;
  a.parse("seed=123,task_body=0.3");
  b.parse("seed=123,task_body=0.3");
  std::vector<bool> va, vb;
  for (int i = 0; i < 200; ++i) {
    va.push_back(a.should_fail(rt::FaultSite::task_body));
    vb.push_back(b.should_fail(rt::FaultSite::task_body));
  }
  EXPECT_EQ(va, vb);
  EXPECT_EQ(a.injected(rt::FaultSite::task_body),
            b.injected(rt::FaultSite::task_body));
  // ~0.3 hit rate, deterministic so an exact band is safe to assert.
  EXPECT_GT(a.total_injected(), 20u);
  EXPECT_LT(a.total_injected(), 120u);

  rt::FaultPlan c;
  c.parse("seed=124,task_body=0.3");
  std::vector<bool> vc;
  for (int i = 0; i < 200; ++i) {
    vc.push_back(c.should_fail(rt::FaultSite::task_body));
  }
  EXPECT_NE(va, vc);  // a different seed reshuffles the draws
}

TEST(FaultPlan, ProbabilityOneAlwaysFires) {
  rt::FaultPlan p;
  p.parse("seed=5,descriptor_alloc=1.0");
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(p.should_fail(rt::FaultSite::descriptor_alloc));
  }
  EXPECT_FALSE(p.should_fail(rt::FaultSite::pin));  // other sites untouched
}

// ---------------------------------------------------------------------------
// Tentpole: cooperative cancellation.
// ---------------------------------------------------------------------------

TEST(Cancellation, MidRegionCancelDiscardsAndBalances) {
  rt::SchedulerConfig cfg;
  cfg.num_threads = 4;
  rt::Scheduler s(cfg);
  std::atomic<std::uint64_t> bodies{0};
  const rt::RegionResult full = s.run_single(
      [&] {
        bodies.store(0);
        fib_task(24);
      },
      std::chrono::milliseconds(0));
  EXPECT_EQ(full.status, rt::RegionStatus::completed);
  const std::uint64_t full_exec = full.stats.total.tasks_executed;

  s.reset_stats();  // RegionResult.stats is cumulative per scheduler
  // Defer the whole tree, then cancel from the root body: the cancel lands
  // before more than a sliver of the tree can be stolen and executed, so the
  // latency assertion below is not scheduler-timing-dependent.
  const rt::RegionResult res = s.run_single(
      [&] {
        bodies.fetch_add(1, std::memory_order_relaxed);
        rt::spawn([&] { fib_task(24); });
        rt::cancel_region();
      },
      std::chrono::milliseconds(0));
  EXPECT_EQ(res.status, rt::RegionStatus::cancelled);
  EXPECT_EQ(s.last_region_status(), rt::RegionStatus::cancelled);
  EXPECT_GT(res.stats.total.tasks_discarded + res.stats.total.tasks_discarded_inline, 0u);
  // Cancellation latency: the cancelled region must run far fewer bodies
  // than the full tree (fib(24) defers tens of thousands of tasks).
  EXPECT_LT(res.stats.total.tasks_executed, full_exec / 2);
  expect_accounting_balanced(res.stats);
}

TEST(Cancellation, CancellationPointObservedInBody) {
  rt::SchedulerConfig cfg;
  cfg.num_threads = 2;
  rt::Scheduler s(cfg);
  std::atomic<bool> observed{false};
  const rt::RegionResult res = s.run_single(
      [&] {
        rt::cancel_region();
        // Same task that cancelled sees the flag immediately.
        observed.store(rt::cancellation_point());
      },
      std::chrono::milliseconds(0));
  EXPECT_TRUE(observed.load());
  EXPECT_EQ(res.status, rt::RegionStatus::cancelled);
}

TEST(Cancellation, CancelOnExceptionWithNodePools) {
  rt::SchedulerConfig cfg;
  cfg.num_threads = 8;
  cfg.synthetic_topology = "2x4";
  cfg.steal_policy = rt::StealPolicyKind::hierarchical;
  cfg.use_node_pools = true;
  cfg.cancel_on_exception = true;
  rt::Scheduler s(cfg);
  EXPECT_THROW(
      {
        s.run_single([&] {
          rt::spawn([] { throw std::runtime_error("boom"); });
          fib_task(24);
        });
      },
      std::runtime_error);
  EXPECT_EQ(s.last_region_status(), rt::RegionStatus::cancelled);
  const rt::StatsSnapshot st = s.stats();
  expect_accounting_balanced(st);
  // Every descriptor retired home: the node pools hold all carved memory.
  std::size_t free_sum = 0, carved_sum = 0;
  for (const auto& n : s.node_pool_snapshot()) {
    free_sum += n.arena_free + n.cached + n.in_transit;
    carved_sum += n.arena_carved;
  }
  EXPECT_EQ(free_sum, carved_sum);
}

TEST(Cancellation, ExternalCancelFromNonTeamThread) {
  rt::SchedulerConfig cfg;
  cfg.num_threads = 4;
  rt::Scheduler s(cfg);
  std::atomic<bool> spinning{false};
  // The helper thread issues the cancel from OUTSIDE the team once the
  // region signals it is busy — the only way out of the busy loop below.
  std::thread outside([&] {
    while (!spinning.load(std::memory_order_acquire)) {}
    s.cancel_current_region();
  });
  const rt::RegionResult res = s.run_single(
      [&] {
        spinning.store(true, std::memory_order_release);
        while (!rt::cancellation_point()) { fib_task(10); }
      },
      std::chrono::milliseconds(0));
  outside.join();
  EXPECT_EQ(res.status, rt::RegionStatus::cancelled);
  expect_accounting_balanced(res.stats);
}

// ---------------------------------------------------------------------------
// Tentpole: region deadlines.
// ---------------------------------------------------------------------------

TEST(Deadline, ExpiredDeadlineReportsDeadlineExceeded) {
  rt::SchedulerConfig cfg;
  cfg.num_threads = 4;
  rt::Scheduler s(cfg);
  const rt::RegionResult res = s.run_single(
      [&] {
        while (!rt::cancellation_point()) {
          fib_task(12);  // keep the region busy until the deadline fires
        }
      },
      std::chrono::milliseconds(30));
  EXPECT_EQ(res.status, rt::RegionStatus::deadline_exceeded);
  expect_accounting_balanced(res.stats);
}

TEST(Deadline, FastRegionCompletesUnderDeadline) {
  rt::SchedulerConfig cfg;
  cfg.num_threads = 4;
  rt::Scheduler s(cfg);
  std::uint64_t r = 0;
  const rt::RegionResult res = s.run_single(
      [&] { r = fib_task(20); }, std::chrono::milliseconds(10000));
  EXPECT_EQ(res.status, rt::RegionStatus::completed);
  EXPECT_EQ(r, fib_ref(20));
}

TEST(Deadline, RunAllHonoursDeadline) {
  rt::SchedulerConfig cfg;
  cfg.num_threads = 4;
  rt::Scheduler s(cfg);
  const rt::RegionResult res = s.run_all(
      [&](unsigned) {
        while (!rt::cancellation_point()) { fib_task(10); }
      },
      std::chrono::milliseconds(30));
  EXPECT_EQ(res.status, rt::RegionStatus::deadline_exceeded);
}

TEST(Deadline, RunAllOverloadEveryWorkerSpawning) {
  // Overload flavour of the run_all deadline: every worker keeps GENERATING
  // deferred work when the deadline fires, so the cancel has to discard a
  // continuously refilled task population — the ledgers must still balance
  // and the region must still terminate promptly.
  rt::SchedulerConfig cfg;
  cfg.num_threads = 4;
  rt::Scheduler s(cfg);
  const auto t0 = std::chrono::steady_clock::now();
  const rt::RegionResult res = s.run_all(
      [&](unsigned) {
        while (!rt::cancellation_point()) {
          rt::spawn([] { fib_task(8); });
          rt::spawn([] { fib_task(8); });
          rt::taskwait();
        }
      },
      std::chrono::milliseconds(40));
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  EXPECT_EQ(res.status, rt::RegionStatus::deadline_exceeded);
  EXPECT_LT(elapsed.count(), 5000);  // terminated, not wedged
  expect_accounting_balanced(res.stats);
}

// ---------------------------------------------------------------------------
// Tentpole: stall watchdog.
// ---------------------------------------------------------------------------

TEST(Watchdog, DetectsStallAndCancels) {
  rt::SchedulerConfig cfg;
  cfg.num_threads = 2;
  cfg.watchdog_ms = 40;
  cfg.watchdog_cancel = true;
  rt::Scheduler s(cfg);
  const rt::RegionResult res = s.run_single(
      [&] {
        // No spawns, no progress ticks: the watchdog is the only way out.
        while (!rt::cancellation_point()) {}
      },
      std::chrono::milliseconds(0));
  EXPECT_EQ(res.status, rt::RegionStatus::cancelled);
  EXPECT_GE(s.stalls_detected(), 1u);
}

TEST(Watchdog, QuietOnHealthyRegion) {
  rt::SchedulerConfig cfg;
  cfg.num_threads = 4;
  cfg.watchdog_ms = 2000;  // far longer than the region
  cfg.watchdog_cancel = true;
  rt::Scheduler s(cfg);
  std::uint64_t r = 0;
  const rt::RegionResult res =
      s.run_single([&] { r = fib_task(22); }, std::chrono::milliseconds(0));
  EXPECT_EQ(res.status, rt::RegionStatus::completed);
  EXPECT_EQ(r, fib_ref(22));
  EXPECT_EQ(s.stalls_detected(), 0u);
}

// ---------------------------------------------------------------------------
// Tentpole: degradation ladder, one site at a time at p=1.0 — the outcome
// must be deterministic AND correct.
// ---------------------------------------------------------------------------

TEST(Degradation, DescriptorAllocFullFailureRunsInline) {
  rt::SchedulerConfig cfg;
  cfg.num_threads = 4;
  cfg.fault_plan = "seed=3,descriptor_alloc=1.0";
  rt::Scheduler s(cfg);
  std::uint64_t r = 0;
  const rt::RegionResult res =
      s.run_single([&] { r = fib_task(20); }, std::chrono::milliseconds(0));
  EXPECT_EQ(res.status, rt::RegionStatus::completed);
  EXPECT_EQ(r, fib_ref(20));
  EXPECT_GT(res.stats.total.pool_alloc_fallbacks, 0u);
  EXPECT_GT(res.stats.total.tasks_degraded_inline, 0u);
  EXPECT_EQ(res.stats.total.tasks_deferred, 0u);  // nothing ever got a descriptor
  expect_accounting_balanced(res.stats);
}

TEST(Degradation, PoolRungFailureFallsBackToHeap) {
  // Only the pool rung fails (arena_carve at p=1.0 forces every carve to
  // fail) — the heap rung still serves descriptors, so tasks stay parallel.
  rt::SchedulerConfig cfg;
  cfg.num_threads = 8;
  cfg.synthetic_topology = "2x4";
  cfg.steal_policy = rt::StealPolicyKind::hierarchical;
  cfg.use_node_pools = true;
  cfg.fault_plan = "seed=3,arena_carve=1.0";
  rt::Scheduler s(cfg);
  std::uint64_t r = 0;
  const rt::RegionResult res =
      s.run_single([&] { r = fib_task(22); }, std::chrono::milliseconds(0));
  EXPECT_EQ(res.status, rt::RegionStatus::completed);
  EXPECT_EQ(r, fib_ref(22));
  EXPECT_GT(res.stats.total.pool_alloc_fallbacks, 0u);
  EXPECT_GT(res.stats.total.tasks_deferred, 0u);  // heap rung kept tasks deferred
  expect_accounting_balanced(res.stats);
  // Nothing was ever carved, so the node pools must balance at zero carved.
  for (const auto& n : s.node_pool_snapshot()) {
    EXPECT_EQ(n.arena_carved, n.arena_free + n.cached + n.in_transit);
  }
}

TEST(Degradation, ThreadSpawnFailureShrinksTeam) {
  rt::SchedulerConfig cfg;
  cfg.num_threads = 4;
  cfg.fault_plan = "seed=3,thread_spawn=1.0";
  rt::Scheduler s(cfg);
  EXPECT_TRUE(s.team_degraded());
  EXPECT_EQ(s.num_workers(), 1u);  // the caller's worker always survives
  std::uint64_t r = 0;
  s.run_single([&] { r = fib_task(20); });
  EXPECT_EQ(r, fib_ref(20));
  expect_accounting_balanced(s.stats());
}

TEST(Degradation, PinFailureLeavesWorkersUnpinned) {
  rt::SchedulerConfig cfg;
  cfg.num_threads = 4;
  cfg.synthetic_topology = "1x4";
  cfg.pin_workers = true;
  cfg.fault_plan = "seed=3,pin=1.0";
  rt::Scheduler s(cfg);
  std::uint64_t r = 0;
  const rt::RegionResult res =
      s.run_single([&] { r = fib_task(20); }, std::chrono::milliseconds(0));
  EXPECT_EQ(res.status, rt::RegionStatus::completed);
  EXPECT_EQ(r, fib_ref(20));
  EXPECT_EQ(res.stats.total.pinned, 0u);  // every pin attempt failed gracefully
}

TEST(Degradation, MailboxPushFailureKeepsHalvesLocal) {
  rt::SchedulerConfig cfg;
  cfg.num_threads = 8;
  cfg.synthetic_topology = "2x4";
  cfg.steal_policy = rt::StealPolicyKind::hierarchical;
  cfg.use_hint_placement = true;
  cfg.fault_plan = "seed=3,mailbox_push=1.0";
  rt::Scheduler s(cfg);
  std::atomic<std::uint64_t> sum{0};
  const rt::RegionResult res = s.run_single(
      [&] {
        rt::spawn_range(0, 100000, 64, [&](std::int64_t i) {
          sum.fetch_add(static_cast<std::uint64_t>(i),
                        std::memory_order_relaxed);
        });
        rt::taskwait();
      },
      std::chrono::milliseconds(0));
  EXPECT_EQ(res.status, rt::RegionStatus::completed);
  EXPECT_EQ(sum.load(), 100000ull * 99999ull / 2);  // exactly-once delivery
  EXPECT_EQ(res.stats.total.range_halves_redirected, 0u);  // every redirect refused
}

TEST(Degradation, TaskBodyFaultRetriedToCompletion) {
  rt::SchedulerConfig cfg;
  cfg.num_threads = 4;
  cfg.fault_plan = "seed=11,task_body=0.05";
  rt::Scheduler s(cfg);
  std::uint64_t r = 0;
  const rt::RegionResult res =
      s.run_single([&] { r = fib_task(22); }, std::chrono::milliseconds(0));
  EXPECT_EQ(res.status, rt::RegionStatus::completed);
  EXPECT_EQ(r, fib_ref(22));
  EXPECT_GT(res.stats.total.tasks_retried, 0u);
  EXPECT_EQ(res.stats.total.tasks_retried, res.stats.total.faults_injected);
  expect_accounting_balanced(res.stats);
}

// ---------------------------------------------------------------------------
// Satellite: teardown robustness.
// ---------------------------------------------------------------------------

TEST(Teardown, DestroyImmediatelyAfterRegion) {
  for (int i = 0; i < 10; ++i) {
    rt::SchedulerConfig cfg;
    cfg.num_threads = 4;
    rt::Scheduler s(cfg);
    std::uint64_t r = 0;
    s.run_single([&] { r = fib_task(16); });
    EXPECT_EQ(r, fib_ref(16));
    // Scheduler destroyed here with all workers freshly parked.
  }
}

TEST(Teardown, DoubleReconfigureBackToBack) {
  rt::SchedulerConfig cfg;
  cfg.num_threads = 4;
  rt::Scheduler s(cfg);
  std::uint64_t r = 0;
  s.run_single([&] { r = fib_task(18); });
  EXPECT_EQ(r, fib_ref(18));
  // Two reconfigures with no region in between: the second must rebuild
  // cleanly over the first's topology/policy/hint state.
  s.reconfigure(rt::StealPolicyKind::hierarchical, "2x2");
  s.reconfigure(rt::StealPolicyKind::last_victim, "1x4");
  s.run_single([&] { r = fib_task(18); });
  EXPECT_EQ(r, fib_ref(18));
  EXPECT_EQ(s.num_workers(), 4u);
}

TEST(Teardown, ReconfigureInsideLiveRegionThrows) {
  // Satellite regression test (failing before PR 7): reconfigure() used to
  // be guarded only by a debug assert, so a release-build call from inside
  // a region body would tear the policy/topology out from under running
  // workers. It is now a checked error in every build type.
  rt::SchedulerConfig cfg;
  cfg.num_threads = 4;
  rt::Scheduler s(cfg);
  std::atomic<bool> threw{false};
  s.run_single([&] {
    try {
      s.reconfigure(rt::StealPolicyKind::hierarchical, "2x2");
    } catch (const std::logic_error&) {
      threw.store(true);
    }
  });
  EXPECT_TRUE(threw.load());
  // The region completed despite the refused call; between regions the
  // reconfigure works as always.
  s.reconfigure(rt::StealPolicyKind::hierarchical, "2x2");
  std::uint64_t r = 0;
  s.run_single([&] { r = fib_task(16); });
  EXPECT_EQ(r, fib_ref(16));
}

TEST(Teardown, RegionReentryAfterCancelledRegion) {
  rt::SchedulerConfig cfg;
  cfg.num_threads = 4;
  rt::Scheduler s(cfg);
  const rt::RegionResult cancelled = s.run_single(
      [&] {
        rt::spawn([] { rt::cancel_region(); });
        fib_task(22);
      },
      std::chrono::milliseconds(0));
  EXPECT_EQ(cancelled.status, rt::RegionStatus::cancelled);
  // No stale cancel epoch: the next region starts clean and completes.
  std::uint64_t r = 0;
  const rt::RegionResult clean =
      s.run_single([&] { r = fib_task(20); }, std::chrono::milliseconds(0));
  EXPECT_EQ(clean.status, rt::RegionStatus::completed);
  EXPECT_EQ(r, fib_ref(20));
  EXPECT_EQ(s.last_region_status(), rt::RegionStatus::completed);
  expect_accounting_balanced(clean.stats);
}

TEST(Teardown, CancelledRangeRegionLeavesTheNextRegionWhole) {
  // A published range completes (truncated) under cancellation. Run a
  // cancelled range region, then a full one, and require the second to
  // finish correctly.
  rt::SchedulerConfig cfg;
  cfg.num_threads = 4;
  rt::Scheduler s(cfg);
  std::atomic<std::uint64_t> seen{0};
  const rt::RegionResult cancelled = s.run_single(
      [&] {
        rt::spawn_range(0, 1 << 20, 64, [&](std::int64_t) {
          if (seen.fetch_add(1, std::memory_order_relaxed) == 128) {
            rt::cancel_region();
          }
        });
        rt::taskwait();
      },
      std::chrono::milliseconds(0));
  EXPECT_EQ(cancelled.status, rt::RegionStatus::cancelled);
  expect_accounting_balanced(cancelled.stats);

  std::atomic<std::uint64_t> sum{0};
  const rt::RegionResult clean = s.run_single(
      [&] {
        rt::spawn_range(0, 10000, 64, [&](std::int64_t i) {
          sum.fetch_add(static_cast<std::uint64_t>(i),
                        std::memory_order_relaxed);
        });
        rt::taskwait();
      },
      std::chrono::milliseconds(0));
  EXPECT_EQ(clean.status, rt::RegionStatus::completed);
  EXPECT_EQ(sum.load(), 10000ull * 9999ull / 2);
}

// ---------------------------------------------------------------------------
// Satellite: external cancel_current_region() raced against concurrent
// submit() on a live TaskServer. TSAN is the other half of this test: the
// assertions below prove no request is lost; the sanitizer proves the race
// itself is clean.
// ---------------------------------------------------------------------------

TEST(ServerStress, ExternalCancelRacesConcurrentSubmit) {
  rt::SchedulerConfig cfg;
  cfg.num_threads = 4;
  cfg.fault_plan.clear();  // exact-count assertions below
  rt::Scheduler s(cfg);
  rt::ServerConfig sc;
  sc.queue_capacity = 16;
  rt::TaskServer server(s, sc);

  std::atomic<bool> stop_submitting{false};
  std::mutex hm;
  std::vector<rt::RegionHandle> handles;
  std::vector<std::thread> submitters;
  for (int t = 0; t < 2; ++t) {
    submitters.emplace_back([&] {
      while (!stop_submitting.load(std::memory_order_acquire)) {
        auto res = server.submit([] { (void)fib_task(12); });
        {
          std::lock_guard<std::mutex> lock(hm);
          handles.push_back(res.handle);
        }
        std::this_thread::yield();
      }
    });
  }
  // Let a batch of requests land, then hard-stop the resident region from
  // OUTSIDE the team while the submitters keep firing.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  s.cancel_current_region();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  stop_submitting.store(true, std::memory_order_release);
  for (auto& t : submitters) t.join();
  server.drain();

  // No hang, no lost request: EVERY handle ever returned is terminal, with
  // a balanced per-request ledger.
  std::lock_guard<std::mutex> lock(hm);
  ASSERT_GT(handles.size(), 0u);
  std::uint64_t terminal = 0;
  for (auto& h : handles) {
    const rt::RequestStatus st = h.wait();
    EXPECT_NE(st, rt::RequestStatus::pending);
    EXPECT_TRUE(h.ledger_balanced());
    ++terminal;
  }
  EXPECT_EQ(terminal, handles.size());
  const rt::ServerStats st = server.stats();
  EXPECT_EQ(st.submitted, static_cast<std::uint64_t>(handles.size()));
  EXPECT_EQ(st.submitted,
            st.completed + st.cancelled + st.deadline_exceeded + st.rejected);
  expect_accounting_balanced(s.stats());
}

// ---------------------------------------------------------------------------
// A/B identity: with every PR-6 knob off, a region behaves exactly as
// before — completed status, full execution, zero new-counter movement.
// ---------------------------------------------------------------------------

TEST(Baseline, KnobsOffChangeNothing) {
  rt::SchedulerConfig cfg;
  cfg.num_threads = 4;
  // The premise is every PR-6 knob OFF — pin them against the environment
  // (CI's fault legs export RT_FAULT_PLAN to the whole suite).
  cfg.fault_plan.clear();
  cfg.cancel_on_exception = false;
  cfg.region_deadline_ms = 0;
  cfg.watchdog_ms = 0;
  cfg.watchdog_cancel = false;
  rt::Scheduler s(cfg);
  std::uint64_t r = 0;
  const rt::RegionResult res =
      s.run_single([&] { r = fib_task(22); }, std::chrono::milliseconds(0));
  EXPECT_EQ(res.status, rt::RegionStatus::completed);
  EXPECT_EQ(r, fib_ref(22));
  EXPECT_EQ(res.stats.total.tasks_discarded, 0u);
  EXPECT_EQ(res.stats.total.tasks_discarded_inline, 0u);
  EXPECT_EQ(res.stats.total.pool_alloc_fallbacks, 0u);
  EXPECT_EQ(res.stats.total.tasks_degraded_inline, 0u);
  EXPECT_EQ(res.stats.total.faults_injected, 0u);
  EXPECT_EQ(res.stats.total.tasks_retried, 0u);
  EXPECT_EQ(res.stats.total.server_requests, 0u);  // PR 7: no server in play
  EXPECT_EQ(s.stalls_detected(), 0u);
  EXPECT_FALSE(s.team_degraded());
  expect_accounting_balanced(res.stats);
}

}  // namespace
