// Live reconfiguration tests (PR 9): epoch/RCU hot-swap of the steal
// policy, grain base and watchdog tunables UNDER running regions
// (Scheduler::reconfigure_live), without the global stop reconfigure()
// requires.
//
// Covered here:
//  * the failing-before regression: a policy-KIND swap under a live region
//    used to be impossible (reconfigure() throws); reconfigure_live does it
//    without throwing and without stopping anything,
//  * A/B output identity across alignment / sort / sparselu with a
//    background thread swapping the policy mid-region,
//  * swap-during-steal-storm stress (run under TSAN by the CI churn job),
//  * the conservation laws pinned across >= 100 random swap points:
//    created + range_splits == deferred + if_inlined + cutoff_inlined,
//    executed + discarded == deferred, node-pool balance, and the
//    edges_resolved law under graph replay,
//  * the graph-epoch fold: reconfigure_live does NOT invalidate frozen
//    graphs (policy kind is not structure-relevant), reconfigure() does,
//  * the RT_LIVE_RECONF=0 gate, and
//  * the last_region_status() server-mode race sentinel.
#include <atomic>
#include <chrono>
#include <cstring>
#include <random>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "kernels/alignment/alignment.hpp"
#include "kernels/sort/sort.hpp"
#include "kernels/sparselu/sparselu.hpp"
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

rt::SchedulerConfig clean_cfg(unsigned threads, const char* topo = "") {
  rt::SchedulerConfig cfg;
  cfg.num_threads = threads;
  cfg.synthetic_topology = topo;
  // These tests pin exact ledgers and swap timing; injected faults (CI's
  // RT_FAULT_PLAN legs) would perturb both in ways the swap is innocent of.
  cfg.fault_plan.clear();
  cfg.live_reconfigure = true;  // pin against RT_LIVE_RECONF=0 legs
  return cfg;
}

void expect_accounting_balanced(const rt::StatsSnapshot& st) {
  EXPECT_EQ(st.total.tasks_created + st.total.range_splits,
            st.total.tasks_deferred + st.total.tasks_if_inlined +
                st.total.tasks_cutoff_inlined);
  EXPECT_EQ(st.total.tasks_executed + st.total.tasks_discarded,
            st.total.tasks_deferred);
}

void expect_pool_balanced(rt::Scheduler& s) {
  for (const auto& n : s.node_pool_snapshot()) {
    EXPECT_EQ(n.arena_carved, n.arena_free + n.cached + n.in_transit);
    EXPECT_EQ(n.in_transit, 0u);  // between regions nothing is in flight
  }
}

/// Background churn: hot-swap the steal policy on a tight random cadence
/// until stopped, counting successful swaps.
class PolicyChurn {
 public:
  PolicyChurn(rt::Scheduler& s, unsigned seed, int sleep_us_max = 200)
      : thread_([this, &s, seed, sleep_us_max] {
          std::mt19937 rng(seed);
          const rt::StealPolicyKind kinds[] = {
              rt::StealPolicyKind::last_victim,
              rt::StealPolicyKind::hierarchical,
              rt::StealPolicyKind::random,
              rt::StealPolicyKind::sequential,
          };
          std::uniform_int_distribution<int> pick(0, 3);
          std::uniform_int_distribution<int> pause(1, sleep_us_max);
          while (!stop_.load(std::memory_order_acquire)) {
            s.reconfigure_live(kinds[pick(rng)]);
            swaps_.fetch_add(1, std::memory_order_relaxed);
            std::this_thread::sleep_for(std::chrono::microseconds(pause(rng)));
          }
        }) {}

  ~PolicyChurn() { stop(); }

  void stop() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
  }

  [[nodiscard]] int swaps() const noexcept {
    return swaps_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> stop_{false};
  std::atomic<int> swaps_{0};
  std::thread thread_;
};

}  // namespace

// ---------------------------------------------------------------------------
// Failing before this PR: swapping the steal policy under a live region
// required stopping it — the only path, reconfigure(), throws under a live
// region (and still does, because it also re-detects topology and rebuilds
// mailboxes). reconfigure_live() performs the policy-kind swap that used to
// throw, without stopping anything.
// ---------------------------------------------------------------------------

TEST(LiveReconf, PolicyKindSwapUnderLiveRegionNoLongerThrows) {
  rt::Scheduler s(clean_cfg(4));
  std::uint64_t r = 0;
  std::atomic<bool> in_region{false};
  std::atomic<bool> swapped{false};
  std::thread swapper([&] {
    while (!in_region.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    // The OLD interface still refuses under a live region (it re-detects
    // topology — that stays a between-regions operation by design)...
    EXPECT_THROW(s.reconfigure(rt::StealPolicyKind::hierarchical, "2x2"),
                 std::logic_error);
    // ...but the live interface performs the kind swap in place.
    EXPECT_NO_THROW(s.reconfigure_live(rt::StealPolicyKind::hierarchical));
    EXPECT_NO_THROW(s.reconfigure_live(rt::StealPolicyKind::last_victim));
    swapped.store(true, std::memory_order_release);
  });
  s.run_single([&] {
    in_region.store(true, std::memory_order_release);
    r = fib_task(24);  // long enough for the swapper to land mid-region
  });
  swapper.join();
  EXPECT_TRUE(swapped.load());
  EXPECT_EQ(r, fib_ref(24));
  expect_accounting_balanced(s.stats());
}

TEST(LiveReconf, SwapFromInsideATaskBody) {
  // A team worker may swap from inside a task it is executing: the
  // installer advances the caller's own pin by hand, so waiting for
  // quiescence cannot deadlock on the caller itself.
  rt::Scheduler s(clean_cfg(4, "2x2"));
  std::uint64_t r = 0;
  s.run_single([&] {
    s.reconfigure_live(rt::StealPolicyKind::hierarchical);
    r = fib_task(18);
    s.reconfigure_live(rt::StealPolicyKind::last_victim);
    r += fib_task(12);
  });
  EXPECT_EQ(r, fib_ref(18) + fib_ref(12));
  expect_accounting_balanced(s.stats());
}

TEST(LiveReconf, DisabledByConfigThrows) {
  rt::SchedulerConfig cfg = clean_cfg(2);
  cfg.live_reconfigure = false;  // RT_LIVE_RECONF=0
  rt::Scheduler s(cfg);
  EXPECT_THROW(s.reconfigure_live(rt::StealPolicyKind::hierarchical),
               std::logic_error);
  // The between-regions path is unaffected by the gate.
  s.reconfigure(rt::StealPolicyKind::hierarchical, "2x2");
  std::uint64_t r = 0;
  s.run_single([&] { r = fib_task(14); });
  EXPECT_EQ(r, fib_ref(14));
}

TEST(LiveReconf, SnapshotVersionAndActiveKindTrackSwaps) {
  rt::Scheduler s(clean_cfg(2));
  const std::uint64_t v0 = s.snapshot_version();
  EXPECT_GE(v0, 1u);  // the constructor installed generation 1
  s.reconfigure_live(rt::StealPolicyKind::hierarchical);
  EXPECT_EQ(s.snapshot_version(), v0 + 1);
  EXPECT_EQ(s.active_steal_policy(), rt::StealPolicyKind::hierarchical);
  s.reconfigure_live(rt::StealPolicyKind::random);
  EXPECT_EQ(s.snapshot_version(), v0 + 2);
  EXPECT_EQ(s.active_steal_policy(), rt::StealPolicyKind::random);
}

TEST(LiveReconf, TunablesSwapGrainAndWatchdog) {
  rt::SchedulerConfig cfg = clean_cfg(4);
  cfg.use_adaptive_grain = true;
  rt::Scheduler s(cfg);
  rt::Scheduler::LiveTunables tune;
  tune.grain_base = 32;
  tune.watchdog_ms = 5000;
  tune.watchdog_cancel = 1;  // report-only
  s.reconfigure_live(rt::StealPolicyKind::last_victim, tune);
  // The swap reseeds the live grain generation; regions still compute the
  // right answers with the retuned floor.
  std::atomic<std::int64_t> sum{0};
  s.run_single([&] {
    rt::spawn_range(0, 10000, 1,
                    [&sum](std::int64_t i) {
                      sum.fetch_add(i, std::memory_order_relaxed);
                    });
  });
  EXPECT_EQ(sum.load(), 10000LL * 9999 / 2);
  expect_accounting_balanced(s.stats());
}

// ---------------------------------------------------------------------------
// A/B output identity: a mid-region policy swap moves WHERE tasks run,
// never results. Reference outputs come from an undisturbed scheduler.
// ---------------------------------------------------------------------------

TEST(LiveReconf, KernelOutputsIdenticalUnderPolicyChurn) {
  const auto ap = bots::alignment::params_for(bots::core::InputClass::test);
  const auto aseqs = bots::alignment::make_input(ap);
  const auto sp = bots::sort::params_for(bots::core::InputClass::test);
  const auto lp = bots::sparselu::params_for(bots::core::InputClass::test);

  std::vector<int> align_ref;
  std::vector<bots::sort::Elm> sort_ref = bots::sort::make_input(sp);
  bots::sparselu::BlockMatrix lu_ref = bots::sparselu::make_input(lp);
  {
    rt::Scheduler s(clean_cfg(8, "2x4"));
    align_ref = bots::alignment::run_parallel(ap, aseqs, s, {});
    bots::sort::run_parallel(sp, sort_ref, s, {});
    bots::sparselu::run_parallel(lp, lu_ref, s, {});
  }

  rt::Scheduler s(clean_cfg(8, "2x4"));
  PolicyChurn churn(s, /*seed=*/42);
  const std::vector<int> align_b =
      bots::alignment::run_parallel(ap, aseqs, s, {});
  std::vector<bots::sort::Elm> sort_b = bots::sort::make_input(sp);
  bots::sort::run_parallel(sp, sort_b, s, {});
  bots::sparselu::BlockMatrix lu_b = bots::sparselu::make_input(lp);
  bots::sparselu::run_parallel(lp, lu_b, s, {});
  churn.stop();

  EXPECT_GT(churn.swaps(), 0);
  EXPECT_EQ(align_b, align_ref);
  EXPECT_EQ(sort_b, sort_ref);
  const std::size_t nb = lu_ref.nb();
  const std::size_t bs = lu_ref.bs();
  for (std::size_t i = 0; i < nb; ++i) {
    for (std::size_t j = 0; j < nb; ++j) {
      ASSERT_EQ(lu_b.empty(i, j), lu_ref.empty(i, j)) << i << "," << j;
      if (lu_ref.empty(i, j)) continue;
      // Bitwise: the swap may move blocks between workers but never the
      // per-element float operation order within a block task.
      ASSERT_EQ(0, std::memcmp(lu_b.block(i, j), lu_ref.block(i, j),
                               bs * bs * sizeof(float)))
          << "block " << i << "," << j;
    }
  }
  expect_accounting_balanced(s.stats());
  expect_pool_balanced(s);
}

// ---------------------------------------------------------------------------
// Steal-storm stress (the CI churn job runs this whole binary under TSAN):
// maximal steal pressure — deep fib spawns plus fine-grained ranges — while
// the policy swaps as fast as the installer can publish generations.
// ---------------------------------------------------------------------------

TEST(LiveReconf, SwapDuringStealStorm) {
  rt::Scheduler s(clean_cfg(8, "2x4"));
  PolicyChurn churn(s, /*seed=*/7, /*sleep_us_max=*/1);
  std::uint64_t r = 0;
  std::atomic<std::int64_t> sum{0};
  // A swap settles in ~a worker idle-backoff cycle, so the count is wall-
  // clock bound, not round bound: keep the storm up until enough swaps
  // landed (bounded — ~10 swaps arrive within a few storm rounds).
  std::int64_t rounds = 0;
  while ((churn.swaps() <= 10 || rounds < 3) && rounds < 200) {
    s.run_single([&] {
      rt::spawn([&r] { r = fib_task(22); });
      rt::spawn_range(0, 20000, 1, [&sum](std::int64_t i) {
        sum.fetch_add(i, std::memory_order_relaxed);
      });
      rt::taskwait();
    });
    ++rounds;
    ASSERT_EQ(r, fib_ref(22)) << "round " << rounds;
  }
  churn.stop();
  EXPECT_GT(churn.swaps(), 10);
  EXPECT_EQ(sum.load(), rounds * (20000LL * 19999 / 2));
  expect_accounting_balanced(s.stats());
  expect_pool_balanced(s);
}

// ---------------------------------------------------------------------------
// Conservation across >= 100 random swap points: many short regions (mixed
// fib / range / graph-replay shapes), each under churn swapping at random
// microsecond offsets — every ledger the runtime keeps must balance after
// every round, and the graph-replay edge law must hold at the end.
// ---------------------------------------------------------------------------

TEST(LiveReconf, ConservationLawsAcrossRandomSwapPoints) {
  rt::SchedulerConfig cfg = clean_cfg(8, "2x4");
  cfg.use_taskgraph_replay = true;  // pin against RT_TASKGRAPH_REPLAY=0 legs
  rt::Scheduler s(cfg);
  std::vector<std::uint64_t> cells(8, 0);
  rt::TaskGraph g;
  const auto build = [&cells](rt::DepScope& sc) {
    auto& v = cells;
    sc.spawn({rt::out(v[0])}, [&v] { v[0] += 3; });
    for (std::size_t i = 1; i <= 6; ++i) {
      sc.spawn({rt::in(v[0]), rt::out(v[i])}, [&v, i] { v[i] = v[0] * i; });
    }
    sc.spawn({rt::in(v[1]), rt::in(v[6]), rt::inout(v[7])},
             [&v] { v[7] = v[1] + v[6]; });
  };

  // One churn thread across every round, swapping at random microsecond
  // offsets: rounds repeat until >= 100 swaps landed, so the swap points
  // sample arbitrary positions in the fib / range / replay phases of many
  // region executions (bounded: a swap settles in ~one idle-backoff cycle).
  PolicyChurn churn(s, /*seed=*/1000, /*sleep_us_max=*/25);
  std::vector<std::uint64_t> first;
  int round = 0;
  while ((churn.swaps() < 100 || round < 12) && round < 400) {
    std::uint64_t r = 0;
    std::atomic<std::int64_t> sum{0};
    std::fill(cells.begin(), cells.end(), 0);
    s.run_single([&] {
      rt::spawn([&r] { r = fib_task(19); });
      rt::spawn_range(0, 8000, 1, [&sum](std::int64_t i) {
        sum.fetch_add(i, std::memory_order_relaxed);
      });
      rt::taskwait();
      rt::run_graph_region(s, g, &cells, build);
    });
    ASSERT_EQ(r, fib_ref(19)) << "round " << round;
    ASSERT_EQ(sum.load(), 8000LL * 7999 / 2) << "round " << round;
    if (round == 0) first = cells;
    ASSERT_EQ(cells, first) << "round " << round;
    // The full ledger set, re-checked after EVERY round so a swap-induced
    // leak is caught at the round that introduced it.
    const auto st = s.stats();
    expect_accounting_balanced(st);
    expect_pool_balanced(s);
    ++round;
  }
  const int total_swaps = churn.swaps();
  churn.stop();
  EXPECT_GE(total_swaps, 100) << "churn too slow to exercise the swap paths";
  // Edge law: every dynamic edge resolved once, every baked edge once per
  // replay — swaps must not have re-recorded the graph (the epoch fold) or
  // double-resolved anything.
  const auto t = s.stats().total;
  EXPECT_EQ(t.edges_resolved,
            t.deps_edges + g.replays() * g.edge_count());
}

// ---------------------------------------------------------------------------
// Graph-epoch fold: reconfigure_live is NOT structure-relevant — frozen
// graphs stay valid across any number of live swaps and re-record exactly
// when reconfigure() (team/topology) moves the epoch.
// ---------------------------------------------------------------------------

TEST(LiveReconf, DoesNotInvalidateRecordedGraphs) {
  rt::SchedulerConfig cfg = clean_cfg(8);
  cfg.use_taskgraph_replay = true;
  rt::Scheduler s(cfg);
  std::vector<std::uint64_t> cells(4, 0);
  rt::TaskGraph g;
  const auto build = [&cells](rt::DepScope& sc) {
    auto& v = cells;
    sc.spawn({rt::out(v[0])}, [&v] { v[0] = 11; });
    sc.spawn({rt::in(v[0]), rt::out(v[1])}, [&v] { v[1] = v[0] * 2; });
    sc.spawn({rt::in(v[1]), rt::inout(v[2])}, [&v] { v[2] += v[1]; });
  };
  s.run_single([&] { rt::run_graph_region(s, g, &cells, build); });
  ASSERT_TRUE(g.valid_for(s, &cells));

  const std::uint64_t epoch_before = s.graph_epoch();
  s.reconfigure_live(rt::StealPolicyKind::hierarchical);
  s.reconfigure_live(rt::StealPolicyKind::last_victim);
  EXPECT_EQ(s.graph_epoch(), epoch_before);  // the fold: tunables, not structure
  EXPECT_TRUE(g.valid_for(s, &cells));

  std::fill(cells.begin(), cells.end(), 0);
  s.run_single([&] { rt::run_graph_region(s, g, &cells, build); });
  EXPECT_EQ(s.stats().total.graphs_recorded, 1u);  // replayed, NOT re-recorded
  EXPECT_EQ(s.stats().total.graphs_replayed, 1u);

  s.reconfigure(rt::StealPolicyKind::last_victim, "");  // structure-relevant
  EXPECT_FALSE(g.valid_for(s, &cells));
}

// ---------------------------------------------------------------------------
// Server mode: live retune under the resident region, and the
// last_region_status race sentinel.
// ---------------------------------------------------------------------------

TEST(LiveReconf, ServerRetuneUnderLoad) {
  rt::Scheduler s(clean_cfg(4, "2x2"));
  rt::ServerConfig sc;
  rt::TaskServer server(s, sc);
  std::vector<rt::SubmitResult> subs;
  for (int i = 0; i < 8; ++i) {
    subs.push_back(server.submit([] { (void)fib_task(18); }));
  }
  EXPECT_TRUE(server.retune(rt::StealPolicyKind::hierarchical));
  for (int i = 0; i < 8; ++i) {
    subs.push_back(server.submit([] { (void)fib_task(16); }));
  }
  EXPECT_TRUE(server.retune(rt::StealPolicyKind::last_victim));
  for (auto& sub : subs) {
    EXPECT_EQ(sub.handle.wait(), rt::RequestStatus::completed);
    EXPECT_TRUE(sub.handle.ledger_balanced());
  }
  EXPECT_EQ(server.stats().retunes, 2u);
  server.drain();
  expect_accounting_balanced(s.stats());
}

TEST(LiveReconf, RetuneRespectsLiveReconfGate) {
  rt::SchedulerConfig cfg = clean_cfg(2);
  cfg.live_reconfigure = false;
  rt::Scheduler s(cfg);
  rt::TaskServer server(s, rt::ServerConfig{});
  EXPECT_FALSE(server.retune(rt::StealPolicyKind::hierarchical));
  EXPECT_EQ(server.stats().retunes, 0u);
  server.drain();
}

TEST(LiveReconf, LastRegionStatusReturnsSentinelWhileRegionLive) {
  // Failing before: last_region_status() during server mode silently
  // returned the PREVIOUS region's status (or the constructor default) —
  // a race the caller could not detect. Now a live region answers with the
  // explicit `unknown` sentinel, and the real status is readable again
  // once the region is down.
  rt::Scheduler s(clean_cfg(2));
  std::uint64_t r = 0;
  s.run_single([&r] { r = fib_task(10); });
  EXPECT_EQ(r, fib_ref(10));
  EXPECT_EQ(s.last_region_status(), rt::RegionStatus::completed);
  {
    rt::TaskServer server(s, rt::ServerConfig{});
    EXPECT_EQ(s.last_region_status(), rt::RegionStatus::unknown);
    auto sub = server.submit([] { (void)fib_task(12); });
    EXPECT_EQ(sub.handle.wait(), rt::RequestStatus::completed);
    EXPECT_EQ(s.last_region_status(), rt::RegionStatus::unknown);
    server.drain();
  }
  // Resident region down: the accessor is race-free again.
  EXPECT_NE(s.last_region_status(), rt::RegionStatus::unknown);
}
