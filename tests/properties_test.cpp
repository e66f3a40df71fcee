// Cross-cutting property tests: invariants that must hold across modules,
// schedules and repetitions — the "does the suite behave like BOTS"
// contracts beyond single-kernel correctness.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "core/registry.hpp"
#include "core/rng.hpp"
#include "kernels/floorplan/floorplan.hpp"
#include "kernels/health/health.hpp"
#include "kernels/sort/sort.hpp"
#include "kernels/uts/uts.hpp"
#include "runtime/rt.hpp"

namespace core = bots::core;
namespace rt = bots::rt;

namespace {

// ---------------------------------------------------------------------------
// Runtime invariants under stress.
// ---------------------------------------------------------------------------

TEST(Properties, RegionQuiescenceUnderRandomSpawnTrees) {
  // Randomly shaped task trees with no taskwaits at all: the barrier alone
  // must join everything, every time. It opens once every implicit task's
  // state word reads exclusive.
  {
    rt::Scheduler sched(rt::SchedulerConfig{.num_threads = 8});
    core::Xoshiro256 rng(99);
    for (int round = 0; round < 30; ++round) {
      std::atomic<std::uint64_t> executed{0};
      const int breadth = 1 + static_cast<int>(rng.next_below(40));
      const int depth = 1 + static_cast<int>(rng.next_below(5));
      std::function<void(int)> grow = [&](int d) {
        executed.fetch_add(1, std::memory_order_relaxed);
        if (d == 0) return;
        for (int i = 0; i < breadth; ++i) {
          rt::spawn(i % 2 == 0 ? rt::Tiedness::tied : rt::Tiedness::untied,
                    [&grow, d] { grow(d - 1); });
        }
        // deliberately no taskwait
      };
      sched.run_single([&] { grow(depth); });
      // Full (breadth)-ary tree of the given depth.
      std::uint64_t expect = 0;
      std::uint64_t layer = 1;
      for (int d = 0; d <= depth; ++d) {
        expect += layer;
        layer *= static_cast<std::uint64_t>(breadth);
      }
      ASSERT_EQ(executed.load(), expect)
          << "round " << round << " breadth " << breadth << " depth " << depth;
    }
  }
  // The same shapes, smaller, under a cut-off that reads the spawner's
  // queue (max_tasks) and one that defers everything, on both topologies:
  // a single generator, a nested region, every worker growing a tree and
  // checking it at a mid-region barrier, a region cancelled halfway, whose
  // discards must retire through the same barrier, and server requests —
  // every one of these scopes ends by the same rule. Trees stay under ~23k
  // nodes per generator so the whole matrix stays cheap enough to loop.
  constexpr unsigned kWorkers = 4;
  for (const rt::CutoffPolicy cutoff :
       {rt::CutoffPolicy::none, rt::CutoffPolicy::max_tasks}) {
    for (const char* topo : {"1x4", "2x2"}) {
      rt::SchedulerConfig cfg;
      cfg.num_threads = kWorkers;
      cfg.synthetic_topology = topo;
      cfg.cutoff = cutoff;
      cfg.use_task_pool = true;
      cfg.use_node_pools = true;
      cfg.fault_plan.clear();  // exact counts, pool ledgers and the full team
      rt::Scheduler sched(cfg);
      ASSERT_EQ(sched.num_workers(), kWorkers) << topo;
      const std::string config =
          std::string(topo) +
          (cutoff == rt::CutoffPolicy::none ? " none" : " max_tasks");
      const auto balanced = [&sched](const std::string& what) {
        const auto t = sched.stats().total;
        ASSERT_EQ(t.tasks_executed + t.tasks_discarded, t.tasks_deferred)
            << what;
        ASSERT_EQ(t.pool_home_frees + t.pool_remote_frees,
                  t.pool_reuse + t.pool_fresh)
            << what;
        for (const auto& n : sched.node_pool_snapshot()) {
          ASSERT_EQ(n.in_transit, 0u) << what;
          ASSERT_EQ(n.cached + n.arena_free, n.arena_carved) << what;
        }
      };
      core::Xoshiro256 rng(99);
      for (int round = 0; round < 30; ++round) {
        const int breadth = 1 + static_cast<int>(rng.next_below(12));
        const int depth = 1 + static_cast<int>(rng.next_below(4));
        const std::string what = config + " round " + std::to_string(round) +
                                 " breadth " + std::to_string(breadth) +
                                 " depth " + std::to_string(depth);
        // Full (breadth)-ary tree of the given depth.
        std::uint64_t expect = 0;
        std::uint64_t layer = 1;
        for (int d = 0; d <= depth; ++d) {
          expect += layer;
          layer *= static_cast<std::uint64_t>(breadth);
        }
        std::atomic<std::uint64_t> executed{0};
        std::uint64_t cancel_at = 0;  // 0 = never
        std::function<void(int)> grow = [&](int d) {
          const std::uint64_t n =
              executed.fetch_add(1, std::memory_order_relaxed) + 1;
          if (n == cancel_at) rt::cancel_region();
          if (d == 0) return;
          for (int i = 0; i < breadth; ++i) {
            rt::spawn(i % 2 == 0 ? rt::Tiedness::tied : rt::Tiedness::untied,
                      [&grow, d] { grow(d - 1); });
          }
          // deliberately no taskwait
        };

        sched.run_single([&] { grow(depth); });
        ASSERT_EQ(executed.load(), expect) << what << " single";
        balanced(what + " single");

        // A nested region joins its whole tree before it returns.
        executed.store(0);
        std::uint64_t nested = 0;
        sched.run_single([&] {
          sched.run_single([&] { grow(depth); });
          nested = executed.load();
        });
        ASSERT_EQ(nested, expect) << what << " nested";
        balanced(what + " nested");

        executed.store(0);
        std::atomic<int> short_phases{0};
        sched.run_all([&](unsigned) {
          for (std::uint64_t phase = 1; phase <= 2; ++phase) {
            grow(depth);
            rt::barrier();
            if (executed.load() != phase * kWorkers * expect) {
              short_phases.fetch_add(1);
            }
            rt::barrier();  // everyone checked before the next phase grows
          }
        });
        ASSERT_EQ(short_phases.load(), 0) << what << " run_all";
        ASSERT_EQ(executed.load(), 2 * kWorkers * expect) << what << " run_all";
        balanced(what + " run_all");

        executed.store(0);
        cancel_at = expect / 2;
        const rt::RegionResult res = sched.run_single(
            [&] { grow(depth); }, std::chrono::milliseconds(0));
        ASSERT_EQ(res.status, rt::RegionStatus::cancelled) << what;
        ASSERT_LE(executed.load(), expect) << what << " cancelled";
        balanced(what + " cancelled");

        // The same tree as a TaskServer request: reported completed, it has
        // run whole; cancelled halfway (cancel_region() cancels only the
        // request), it stops early. Either way its ledger balances.
        {
          rt::TaskServer server(sched);
          for (const std::uint64_t at : {std::uint64_t{0}, expect / 2}) {
            executed.store(0);
            cancel_at = at;
            const rt::SubmitResult sub = server.submit([&] { grow(depth); });
            ASSERT_TRUE(sub.admitted) << what;
            const rt::RequestStatus st = sub.handle.wait();
            if (at == 0) {
              ASSERT_EQ(st, rt::RequestStatus::completed) << what;
              ASSERT_EQ(executed.load(), expect) << what << " request";
            } else {
              ASSERT_EQ(st, rt::RequestStatus::cancelled) << what;
              ASSERT_LE(executed.load(), expect) << what << " request";
            }
            ASSERT_TRUE(sub.handle.ledger_balanced()) << what << " request";
          }
        }
        balanced(what + " request");
      }
    }
  }
}

TEST(Properties, TwoSchedulersCoexistSequentially) {
  rt::Scheduler a(rt::SchedulerConfig{.num_threads = 4});
  rt::Scheduler b(rt::SchedulerConfig{.num_threads = 2});
  int ra = 0;
  int rb = 0;
  for (int i = 0; i < 10; ++i) {
    a.run_single([&ra] {
      rt::spawn([&ra] { ++ra; });
      rt::taskwait();
    });
    b.run_single([&rb] {
      rt::spawn([&rb] { ++rb; });
      rt::taskwait();
    });
  }
  EXPECT_EQ(ra, 10);
  EXPECT_EQ(rb, 10);
}

TEST(Properties, ExceptionFromRunAllWorkerPropagates) {
  rt::SchedulerConfig cfg;
  cfg.num_threads = 4;
  // Worker id 2 must exist for the throw to happen: pin a fault-free team
  // (an injected thread-spawn fault would shrink it under CI's fault legs).
  cfg.fault_plan.clear();
  rt::Scheduler sched(cfg);
  EXPECT_THROW(sched.run_all([](unsigned id) {
    if (id == 2) throw std::runtime_error("worker 2 failed");
  }),
               std::runtime_error);
  // And the team is reusable afterwards.
  std::atomic<int> ok{0};
  sched.run_all([&](unsigned) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 4);
}

TEST(Properties, DynamicScheduleIsReusableAcrossRegions) {
  rt::Scheduler sched(rt::SchedulerConfig{.num_threads = 4});
  rt::DynamicSchedule dyn(0);
  for (int round = 0; round < 3; ++round) {
    dyn.reset(0);
    std::vector<std::atomic<int>> hits(500);
    sched.run_all([&](unsigned) {
      rt::for_dynamic(dyn, 500, 11, [&](std::int64_t i) { hits[i].fetch_add(1); });
    });
    for (auto& h : hits) ASSERT_EQ(h.load(), 1) << "round " << round;
  }
}

TEST(Properties, TaskwaitOnlyWaitsForDirectChildren) {
  // A child that finishes while its own (grandchild) task still runs must
  // release the parent's taskwait; the region barrier catches the rest.
  rt::Scheduler sched(rt::SchedulerConfig{.num_threads = 4});
  std::atomic<bool> grandchild_done{false};
  std::atomic<bool> waited_before_grandchild{false};
  sched.run_single([&] {
    rt::spawn([&] {
      rt::spawn([&] {
        // Make the grandchild slow enough to still be pending.
        for (int i = 0; i < 2'000'000; ++i) {
          asm volatile("");
        }
        grandchild_done.store(true, std::memory_order_release);
      });
      // child returns without waiting
    });
    rt::taskwait();  // waits for the child only
    if (!grandchild_done.load(std::memory_order_acquire)) {
      waited_before_grandchild.store(true);
    }
  });
  EXPECT_TRUE(grandchild_done.load());  // region end joined it
  // Note: timing-dependent, but on any sane schedule the taskwait returns
  // before the spun-out grandchild finishes at least occasionally; we only
  // assert it is *possible* (no deadlock, correct joins), not the timing.
  SUCCEED();
}

TEST(Properties, StatsAccountingBalancesOnEveryApp) {
  // Every spawn construct is deferred or inlined, every range split adds one
  // more deferred descriptor, and every deferred descriptor executes exactly
  // once: created + range_splits == deferred + if_inlined + cutoff_inlined
  // and executed == deferred must hold after any suite run.
  rt::Scheduler sched(rt::SchedulerConfig{.num_threads = 4});
  for (const auto& app : core::apps()) {
    (void)app.run(core::InputClass::test, app.best_version().name, sched,
                  false);
    const auto t = sched.stats().total;
    EXPECT_EQ(t.tasks_created + t.range_splits,
              t.tasks_deferred + t.tasks_if_inlined + t.tasks_cutoff_inlined)
        << app.name;
    EXPECT_EQ(t.tasks_executed, t.tasks_deferred) << app.name;
  }
}

TEST(Properties, PoolFreesBalanceAllocationsOnEveryApp) {
  // Every pooled descriptor allocated inside a region dies inside it
  // (region quiescence covers release chains), and every death is
  // classified as exactly one home or remote free — so after any suite
  // run, home + remote frees == reuse + fresh allocations. Checked in the
  // default (flat) configuration AND on a synthetic 2x4 box under the
  // hierarchical policy. With node pools active, frees by non-owners go
  // back through the stashes and remote frees must be zero by construction.
  auto check = [](rt::SchedulerConfig cfg, const char* label) {
    ASSERT_TRUE(cfg.use_task_pool);  // the invariant is about pooled storage
    rt::Scheduler sched(cfg);
    for (const auto& app : core::apps()) {
      (void)app.run(core::InputClass::test, app.best_version().name, sched,
                    false);
      const auto t = sched.stats().total;
      EXPECT_EQ(t.pool_home_frees + t.pool_remote_frees,
                t.pool_reuse + t.pool_fresh)
          << label << "/" << app.name;
      if (sched.node_pools_active()) {
        EXPECT_EQ(t.pool_remote_frees, 0u) << label << "/" << app.name;
      }
    }
  };
  check(rt::SchedulerConfig{.num_threads = 4}, "default");
  rt::SchedulerConfig numa;
  numa.num_threads = 8;
  numa.steal_policy = rt::StealPolicyKind::hierarchical;
  numa.synthetic_topology = "2x4";
  check(numa, "2x4-hierarchical");
}

TEST(Properties, ThrowingBodiesKeepAccountingAndPoolsBalanced) {
  // Exception-path stress (PR 6 regression): bodies that throw at random
  // depths — some bodies still spawning children before throwing — must
  // leave every ledger balanced: each deferred descriptor executes (or, in
  // a cancelled region, is discarded) exactly once, every pooled descriptor
  // retires to its owner's pool, and the pools end each region holding all
  // carved memory. Run on a synthetic 2x4 with node pools, where an unwound
  // release chain crosses the stash machinery too.
  rt::SchedulerConfig cfg;
  cfg.num_threads = 8;
  cfg.steal_policy = rt::StealPolicyKind::hierarchical;
  cfg.synthetic_topology = "2x4";
  cfg.use_node_pools = true;
  rt::Scheduler sched(cfg);
  core::Xoshiro256 rng(2026);
  for (int round = 0; round < 20; ++round) {
    const std::uint64_t throw_mask = rng.next_below(64);
    std::atomic<std::uint64_t> spawned{0};
    std::function<void(int)> grow = [&](int d) {
      const std::uint64_t id =
          spawned.fetch_add(1, std::memory_order_relaxed);
      if (d > 0) {
        for (int i = 0; i < 3; ++i) {
          rt::spawn(i % 2 == 0 ? rt::Tiedness::tied : rt::Tiedness::untied,
                    [&grow, d] { grow(d - 1); });
        }
      }
      if ((id & 63u) == throw_mask) throw std::runtime_error("stress");
      if (d > 0 && (id & 1u) == 0u) rt::taskwait();
    };
    bool threw = false;
    try {
      sched.run_single([&] { grow(6); });
    } catch (const std::runtime_error&) {
      threw = true;
    }
    // ~1100 bodies per round with a 1/64 throw rate: virtually certain.
    EXPECT_TRUE(threw) << "round " << round;
    const auto t = sched.stats().total;
    ASSERT_EQ(t.tasks_created + t.range_splits,
              t.tasks_deferred + t.tasks_if_inlined + t.tasks_cutoff_inlined)
        << "round " << round;
    ASSERT_EQ(t.tasks_executed + t.tasks_discarded, t.tasks_deferred)
        << "round " << round;
    ASSERT_EQ(t.pool_home_frees + t.pool_remote_frees,
              t.pool_reuse + t.pool_fresh)
        << "round " << round;
    ASSERT_EQ(t.pool_remote_frees, 0u) << "round " << round;
    // The owners got every carved descriptor back (none leaked down an
    // unwound release chain).
    for (const auto& n : sched.node_pool_snapshot()) {
      ASSERT_EQ(n.arena_carved, n.arena_free + n.cached + n.in_transit)
          << "round " << round;
    }
  }
}

TEST(Properties, SingleGeneratorFloodsKeepPoolsBounded) {
  // One generator spawns every task and the other workers execute — and so
  // free — nearly all of them. Each freed descriptor must go back to the
  // generator's pool, so after warm-up a flood is served from recycled
  // memory: later floods may carve at most the in-transit slack (partly
  // filled stashes), never another flood's worth. Recycling into the
  // freer's pool instead lets thieves hoard descriptors while the
  // generator carves about one flood's worth per flood.
  constexpr unsigned kWorkers = 4;
  constexpr int kTasks = 4096;
  constexpr int kRegions = 200;
  for (const char* topo : {"1x4", "2x2"}) {
    rt::SchedulerConfig cfg;
    cfg.num_threads = kWorkers;
    cfg.synthetic_topology = topo;
    cfg.cutoff = rt::CutoffPolicy::none;
    cfg.use_task_pool = true;
    cfg.use_node_pools = true;
    cfg.fault_plan.clear();  // exact pool ledgers and the full team
    rt::Scheduler sched(cfg);
    ASSERT_EQ(sched.num_workers(), kWorkers) << topo;
    // Prime: hold every task until the generator has spawned all of them,
    // so its pool already covers the largest live set a flood can have.
    // Without this a later flood whose thieves start late could carve
    // more than an earlier one for reasons that have nothing to do with
    // where freed descriptors go.
    std::atomic<bool> all_spawned{false};
    sched.run_single([&all_spawned] {
      for (int i = 0; i < kTasks; ++i) {
        rt::spawn(rt::Tiedness::untied, [&all_spawned] {
          while (!all_spawned.load(std::memory_order_acquire)) {
            std::this_thread::yield();
          }
        });
      }
      all_spawned.store(true, std::memory_order_release);
      rt::taskwait();
    });
    std::uint64_t fresh_at_10 = 0;
    for (int region = 1; region <= kRegions; ++region) {
      sched.run_single([] {
        for (int i = 0; i < kTasks; ++i) rt::spawn(rt::Tiedness::untied, [] {});
        rt::taskwait();
      });
      const auto t = sched.stats().total;
      ASSERT_EQ(t.pool_remote_frees, 0u) << topo << " region " << region;
      if (region == 10) fresh_at_10 = t.pool_fresh;
      // Between regions every descriptor rests in its owner's pool.
      for (const auto& n : sched.node_pool_snapshot()) {
        ASSERT_EQ(n.in_transit, 0u) << topo << " region " << region;
        ASSERT_EQ(n.cached + n.arena_free, n.arena_carved)
            << topo << " region " << region;
      }
    }
    EXPECT_LE(sched.stats().total.pool_fresh,
              fresh_at_10 + kWorkers * (kWorkers - 1) *
                                rt::RemoteStash::flush_batch)
        << topo << ": floods keep carving fresh descriptors";
  }
}

TEST(Properties, PrechargedSpawnSlotsSettleOnEveryExitPath) {
  // From its third spawn on, a task charges itself a batch of child slots
  // in one RMW and hands the unused ones back at its next settle point.
  // A slot that never came back would keep the task's reference count up
  // forever — its descriptor would never return to the pool — or keep a
  // request root's join waiting. Cover every way a spawning task can end:
  // returning without a taskwait, throwing, running in a region cancelled
  // mid-spawn, and being a TaskServer request root; for spawn counts below,
  // at and past the batch boundaries.
  const auto check = [](rt::Scheduler& sched, const std::string& what) {
    const auto t = sched.stats().total;
    EXPECT_EQ(t.pool_home_frees + t.pool_remote_frees,
              t.pool_reuse + t.pool_fresh)
        << what;
    EXPECT_EQ(t.tasks_executed + t.tasks_discarded, t.tasks_deferred) << what;
    for (const auto& n : sched.node_pool_snapshot()) {
      EXPECT_EQ(n.in_transit, 0u) << what;
      EXPECT_EQ(n.cached + n.arena_free, n.arena_carved) << what;
    }
  };
  for (const char* topo : {"1x4", "2x2"}) {
    rt::SchedulerConfig cfg;
    cfg.num_threads = 4;
    cfg.synthetic_topology = topo;
    cfg.cutoff = rt::CutoffPolicy::none;  // every spawn takes a descriptor
    cfg.use_task_pool = true;
    cfg.use_node_pools = true;
    cfg.fault_plan.clear();  // exact pool ledgers and the full team
    rt::Scheduler sched(cfg);
    ASSERT_EQ(sched.num_workers(), 4u) << topo;
    std::atomic<int> ran{0};
    const auto leaf = [&ran] { ran.fetch_add(1, std::memory_order_relaxed); };
    for (const int n : {1, 2, 3, 17, 40}) {
      const std::string what = std::string(topo) + " n=" + std::to_string(n);
      // The implicit task spawns four generators (so it batches too) and
      // both levels return without a taskwait: the generators settle at
      // body end, the implicit task at the region barrier.
      sched.run_single([&] {
        for (int g = 0; g < 4; ++g) {
          rt::spawn(rt::Tiedness::tied, [&, n] {
            for (int i = 0; i < n; ++i) rt::spawn(rt::Tiedness::tied, leaf);
          });
        }
      });
      check(sched, what + " return");
      EXPECT_THROW(sched.run_single([&] {
                     rt::spawn(rt::Tiedness::untied, [&, n] {
                       for (int i = 0; i < n; ++i) {
                         rt::spawn(rt::Tiedness::untied, leaf);
                       }
                       throw std::runtime_error("after spawns");
                     });
                   }),
                   std::runtime_error)
          << what;
      check(sched, what + " throw");
      const rt::RegionResult res = sched.run_single(
          [&, n] {
            rt::spawn(rt::Tiedness::tied, [&, n] {
              for (int i = 0; i < n; ++i) {
                if (i == n / 2) rt::cancel_region();
                rt::spawn(rt::Tiedness::tied, leaf);
              }
            });
          },
          std::chrono::milliseconds(0));
      EXPECT_EQ(res.status, rt::RegionStatus::cancelled) << what;
      check(sched, what + " cancel");
    }
    {
      rt::TaskServer server(sched, rt::ServerConfig{});
      std::vector<rt::RegionHandle> handles;
      for (const int n : {1, 2, 3, 17, 40}) {
        const rt::SubmitResult r = server.submit([&leaf, n] {
          for (int i = 0; i < n; ++i) rt::spawn(rt::Tiedness::tied, leaf);
        });
        ASSERT_TRUE(r.admitted) << topo << " n=" << n;
        handles.push_back(r.handle);
      }
      for (const auto& h : handles) {
        EXPECT_EQ(h.wait(), rt::RequestStatus::completed) << topo;
        EXPECT_TRUE(h.ledger_balanced()) << topo;
      }
      server.drain();
    }
    check(sched, std::string(topo) + " server");
  }
}

TEST(Properties, CountersAreReadableWhileARegionRuns) {
  // Any thread may read the counter block at any time. A reader thread
  // samples stats() and telemetry() throughout a fib, a single-generator
  // flood and a spawn_range region: no counter may ever go backwards
  // between two reads, and the read after the last region must match the
  // between-regions snapshot.
  const auto values = [](const rt::WorkerStats& s) {
    std::vector<std::uint64_t> v;
    s.for_each([&v](const char*, std::uint64_t x) { v.push_back(x); });
    return v;
  };
  const auto no_decrease = [&values](const rt::WorkerStats& before,
                                     const rt::WorkerStats& after) {
    const auto a = values(before), b = values(after);
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (b[i] < a[i]) return false;
    }
    return true;
  };
  for (const char* topo : {"1x4", "2x2"}) {
    rt::SchedulerConfig cfg;
    cfg.num_threads = 4;
    cfg.synthetic_topology = topo;
    cfg.fault_plan.clear();  // exact ledgers and the full team
    rt::Scheduler sched(cfg);
    ASSERT_EQ(sched.num_workers(), 4u) << topo;

    std::atomic<bool> done{false};
    std::atomic<std::uint64_t> reads{0};
    rt::StatsSnapshot last;
    bool monotone = true;
    std::thread reader([&] {
      rt::StatsSnapshot prev = sched.stats();
      rt::WorkerStats prev_total = sched.telemetry();
      bool finished = false;
      do {
        // Read `done` first: the read below then follows the last region.
        finished = done.load(std::memory_order_acquire);
        rt::StatsSnapshot cur = sched.stats();
        const rt::WorkerStats total = sched.telemetry();
        for (std::size_t i = 0; i < cur.per_worker.size(); ++i) {
          monotone = monotone && no_decrease(prev.per_worker[i],
                                             cur.per_worker[i]);
        }
        monotone = monotone && no_decrease(prev_total, total);
        prev = std::move(cur);
        prev_total = total;
        reads.fetch_add(1, std::memory_order_release);
      } while (!finished);
      last = std::move(prev);
    });
    // Called from inside each region while its tasks are in flight, so the
    // reader's samples land under a live region.
    const auto overlap_reads = [&reads] {
      const std::uint64_t start = reads.load(std::memory_order_acquire);
      while (reads.load(std::memory_order_acquire) < start + 2) {
        std::this_thread::yield();
      }
    };

    std::function<std::uint64_t(int)> fib = [&fib](int n) -> std::uint64_t {
      if (n < 2) return static_cast<std::uint64_t>(n);
      std::uint64_t a = 0, b = 0;
      rt::spawn([&, n] { a = fib(n - 1); });
      rt::spawn([&, n] { b = fib(n - 2); });
      rt::taskwait();
      return a + b;
    };
    std::uint64_t fib_result = 0;
    sched.run_single([&] {
      std::uint64_t a = 0, b = 0;
      rt::spawn([&] { a = fib(19); });
      rt::spawn([&] { b = fib(18); });
      overlap_reads();
      rt::taskwait();
      fib_result = a + b;
    });
    std::atomic<int> flood{0};
    sched.run_single([&] {
      for (int i = 0; i < 4096; ++i) {
        rt::spawn(rt::Tiedness::untied,
                  [&flood] { flood.fetch_add(1, std::memory_order_relaxed); });
        if (i == 2048) overlap_reads();
      }
      rt::taskwait();
    });
    std::atomic<std::uint64_t> range_sum{0};
    sched.run_single([&] {
      rt::spawn_range(0, 50000, 16, [&range_sum](std::int64_t i) {
        range_sum.fetch_add(static_cast<std::uint64_t>(i) & 1,
                            std::memory_order_relaxed);
      });
      overlap_reads();
      rt::taskwait();
    });
    done.store(true, std::memory_order_release);
    reader.join();

    EXPECT_EQ(fib_result, 6765u) << topo;
    EXPECT_EQ(flood.load(), 4096) << topo;
    EXPECT_EQ(range_sum.load(), 25000u) << topo;
    EXPECT_TRUE(monotone) << topo << ": a counter went backwards";
    const rt::StatsSnapshot after = sched.stats();
    EXPECT_EQ(last.per_worker, after.per_worker) << topo;
    EXPECT_EQ(last.total, after.total) << topo;
    EXPECT_EQ(after.total.tasks_executed + after.total.tasks_discarded,
              after.total.tasks_deferred)
        << topo;
  }
}

TEST(Properties, ReturnListHandsOutEachDescriptorExactlyOnce) {
  // The owner's lock-free return list under contention: three returner
  // threads splice chains back while the owner keeps allocating. A flag per
  // descriptor says "back in the pool": returners set it just before the
  // splice, the owner clears it on every hand-out. A hand-out that finds
  // the flag clear got a descriptor that was never given back (handed out
  // twice); a descriptor missing at the end was lost.
  constexpr std::size_t kDescriptors = 512;
  constexpr int kReturners = 3;
  constexpr int kHandOuts = 200000;
  rt::TaskPool pool;
  std::unordered_map<rt::Task*, std::size_t> index;
  for (std::size_t i = 0; i < kDescriptors; ++i) index[pool.carve(0)] = i;
  for (const auto& [t, i] : index) pool.recycle(t);
  std::vector<std::atomic<int>> in_pool(kDescriptors);
  for (auto& f : in_pool) f.store(1, std::memory_order_relaxed);

  struct Inbox {
    std::mutex mu;
    std::vector<rt::Task*> items;
  };
  std::vector<Inbox> inboxes(kReturners);
  std::atomic<bool> stop{false};
  std::atomic<int> bad_returns{0};
  std::vector<std::thread> returners;
  for (int r = 0; r < kReturners; ++r) {
    returners.emplace_back([&, r] {
      rt::RemoteStash stash;
      auto flush = [&] {
        if (stash.count == 0) return;
        // Walk `count` links, not to the null end: a descriptor handed out
        // twice can close the chain into a cycle.
        rt::Task* t = stash.head;
        for (std::uint32_t i = 0; i < stash.count; ++i, t = t->pool_next) {
          in_pool[index.at(t)].store(1, std::memory_order_relaxed);
        }
        pool.give_back(stash.head, stash.tail);
        stash = rt::RemoteStash{};
      };
      std::vector<rt::Task*> batch;
      for (;;) {
        const bool stopping = stop.load(std::memory_order_acquire);
        {
          std::lock_guard<std::mutex> lock(inboxes[r].mu);
          batch.swap(inboxes[r].items);
        }
        for (rt::Task* t : batch) {
          if (in_pool[index.at(t)].load(std::memory_order_relaxed) != 0) {
            bad_returns.fetch_add(1, std::memory_order_relaxed);
          }
          stash.push(t);
          if (stash.count >= rt::RemoteStash::flush_batch) flush();
        }
        // A partial stash goes back as soon as the inbox runs dry, so the
        // owner can never starve on descriptors parked here.
        if (batch.empty()) {
          flush();
          std::this_thread::yield();
        }
        batch.clear();
        if (stopping) {
          std::lock_guard<std::mutex> lock(inboxes[r].mu);
          if (inboxes[r].items.empty()) break;
        }
      }
      flush();
    });
  }

  int double_hand_outs = 0;
  for (int n = 0; n < kHandOuts; ++n) {
    rt::Task* t = pool.reuse();
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (t == nullptr && std::chrono::steady_clock::now() < give_up) {
      std::this_thread::yield();
      t = pool.reuse();
    }
    if (t == nullptr) break;  // descriptors were lost: reported below
    if (in_pool[index.at(t)].exchange(0, std::memory_order_relaxed) != 1) {
      ++double_hand_outs;
    }
    if (n % 5 == 0) {
      // The owner's own free: straight back onto its private freelist.
      in_pool[index.at(t)].store(1, std::memory_order_relaxed);
      pool.recycle(t);
    } else {
      Inbox& box = inboxes[static_cast<std::size_t>(n) % kReturners];
      std::lock_guard<std::mutex> lock(box.mu);
      box.items.push_back(t);
    }
  }
  stop.store(true, std::memory_order_release);
  for (auto& th : returners) th.join();

  EXPECT_EQ(double_hand_outs, 0);
  EXPECT_EQ(bad_returns.load(), 0);
  std::set<rt::Task*> back;
  // Bounded: a list that hands descriptors out twice may never run dry.
  for (std::size_t i = 0; i <= kDescriptors; ++i) {
    rt::Task* t = pool.reuse();
    if (t == nullptr) break;
    EXPECT_TRUE(back.insert(t).second) << "descriptor handed out twice";
  }
  EXPECT_EQ(back.size(), kDescriptors) << "descriptors lost";
}

TEST(Properties, InlinePathCountsCapturedEnvironmentBytes) {
  // Regression pin (ROADMAP: env_bytes on the zero-alloc inline path): a
  // construct that runs without a descriptor still captured its closure on
  // the parent's frame, so Table-II-style env statistics must be identical
  // whether the inline fast path is on or off. The max_depth cut-off makes
  // the inlined-vs-deferred partition deterministic, and both runs spawn
  // the identical closure types, so the byte totals must match exactly.
  auto env_bytes_with = [](bool inline_fast) {
    rt::SchedulerConfig cfg;
    cfg.num_threads = 2;
    cfg.cutoff = rt::CutoffPolicy::max_depth;
    cfg.cutoff_value = 3;
    cfg.use_inline_fast_path = inline_fast;
    // The exact inlined/deferred partition this test pins is meaningless
    // under injected allocation faults (CI's RT_FAULT_PLAN legs).
    cfg.fault_plan.clear();
    rt::Scheduler sched(cfg);
    std::atomic<std::uint64_t> leaves{0};
    std::function<void(int)> grow = [&](int d) {
      if (d == 0) {
        leaves.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      for (int i = 0; i < 3; ++i) {
        rt::spawn([&grow, d] { grow(d - 1); });
      }
      rt::spawn_if(false, [&leaves] {
        leaves.fetch_add(1, std::memory_order_relaxed);
      });
      rt::taskwait();
    };
    sched.run_single([&] { grow(6); });
    const auto t = sched.stats().total;
    EXPECT_EQ(leaves.load(),
              729u + 364u);  // 3^6 leaves + one spawn_if per interior call
    if (inline_fast) {
      EXPECT_GT(t.tasks_inlined_fast, 0u);
    } else {
      EXPECT_EQ(t.tasks_inlined_fast, 0u);
    }
    return t.env_bytes;
  };
  const std::uint64_t with_inline = env_bytes_with(true);
  const std::uint64_t without_inline = env_bytes_with(false);
  EXPECT_GT(with_inline, 0u);
  EXPECT_EQ(with_inline, without_inline)
      << "zero-alloc inlined constructs skipped the env_bytes counter";
}

TEST(Properties, DependenceEdgesResolveExactlyOnceOnDataflowApps) {
  // PR 8 conservation law, dynamic half: on any dependence-tracked run with
  // no recorded graphs, every successfully published edge is resolved by
  // the finish path exactly once — edges_resolved == deps_edges — on top of
  // the usual spawn/retire balance. Checked on every registered dataflow
  // kernel version (sparselu, strassen).
  for (const auto& app : core::apps()) {
    for (const auto& v : app.versions) {
      if (std::string_view(v.name).rfind("dataflow", 0) != 0) continue;
      rt::Scheduler sched(rt::SchedulerConfig{.num_threads = 8});
      const auto rep =
          app.run(core::InputClass::test, v.name, sched, true);
      EXPECT_EQ(rep.verified, core::Verified::ok) << app.name << "/" << v.name;
      const auto t = sched.stats().total;
      EXPECT_GT(t.deps_declared, 0u) << app.name << "/" << v.name;
      EXPECT_EQ(t.edges_resolved, t.deps_edges) << app.name << "/" << v.name;
      EXPECT_EQ(t.graphs_recorded, 0u) << app.name << "/" << v.name;
      EXPECT_EQ(t.tasks_created + t.range_splits,
                t.tasks_deferred + t.tasks_if_inlined + t.tasks_cutoff_inlined)
          << app.name << "/" << v.name;
      EXPECT_EQ(t.tasks_executed + t.tasks_discarded, t.tasks_deferred)
          << app.name << "/" << v.name;
    }
  }
}

TEST(Properties, ReplayLedgersReconcileWithGraphSize) {
  // PR 8 conservation law, replay half: after one record and K replays of a
  // frozen graph, the whole-run ledgers must reconcile with the graph's own
  // shape — (1 + K) × node_count descriptors deferred and executed, and
  //   edges_resolved == deps_edges + K × edge_count
  // (the record run resolves its dynamic edges; each replay resolves every
  // baked edge exactly once).
  rt::SchedulerConfig cfg;
  cfg.num_threads = 8;
  cfg.fault_plan.clear();  // exact counts; CI fault legs would abort records
  cfg.use_taskgraph_replay = true;
  rt::Scheduler sched(cfg);
  std::vector<std::uint64_t> cells(8, 0);
  rt::TaskGraph g;
  auto build = [&cells](rt::DepScope& sc) {
    auto& v = cells;
    sc.spawn({rt::out(v[0])}, [&v] { v[0] += 2; });
    for (std::size_t i = 1; i <= 6; ++i) {
      sc.spawn({rt::in(v[0]), rt::out(v[i])}, [&v, i] { v[i] = v[0] + i; });
    }
    sc.spawn({rt::in(v[1]), rt::in(v[2]), rt::in(v[3]), rt::in(v[4]),
              rt::in(v[5]), rt::in(v[6]), rt::inout(v[7])},
             [&v] { v[7] = v[1] + v[6]; });
  };
  constexpr std::uint64_t kRuns = 9;
  for (std::uint64_t run = 0; run < kRuns; ++run) {
    std::fill(cells.begin(), cells.end(), 0);
    sched.run_single([&] { rt::run_graph_region(sched, g, &cells, build); });
  }
  const auto t = sched.stats().total;
  ASSERT_TRUE(g.frozen());
  EXPECT_EQ(g.replays(), kRuns - 1);
  EXPECT_EQ(t.graphs_recorded, 1u);
  EXPECT_EQ(t.graphs_replayed, kRuns - 1);
  EXPECT_EQ(t.tasks_deferred, kRuns * g.node_count());
  EXPECT_EQ(t.tasks_executed, t.tasks_deferred);
  EXPECT_EQ(t.edges_resolved,
            t.deps_edges + (kRuns - 1) * g.edge_count());
  EXPECT_EQ(t.tasks_created + t.range_splits,
            t.tasks_deferred + t.tasks_if_inlined + t.tasks_cutoff_inlined);
}

// ---------------------------------------------------------------------------
// Determinism properties across thread counts (the paper's Section III-A
// indeterminism-handling contract, checked suite-wide).
// ---------------------------------------------------------------------------

TEST(Properties, DeterministicAppsAgreeAcrossThreadCounts) {
  // health: exact stats; uts: exact node count; nqueens: exact solutions —
  // whatever the team size.
  const auto hp = bots::health::params_for(core::InputClass::test);
  const auto up = bots::uts::params_for(core::InputClass::test);
  const bots::health::Stats href = bots::health::run_serial(hp);
  const std::uint64_t uref = bots::uts::run_serial(up);
  for (unsigned threads : {1u, 3u, 8u, 16u}) {
    rt::Scheduler sched(rt::SchedulerConfig{.num_threads = threads});
    EXPECT_EQ(bots::health::run_parallel(
                  hp, sched, {rt::Tiedness::untied, core::AppCutoff::none}),
              href)
        << threads;
    EXPECT_EQ(bots::uts::run_parallel(up, sched, {rt::Tiedness::untied}), uref)
        << threads;
  }
}

TEST(Properties, FloorplanOptimumIsScheduleInvariant) {
  const auto p = bots::floorplan::params_for(core::InputClass::test);
  const auto cells = bots::floorplan::make_input(p);
  const auto serial = bots::floorplan::run_serial(p, cells);
  std::set<std::uint64_t> node_counts;
  for (unsigned threads : {2u, 8u}) {
    rt::Scheduler sched(rt::SchedulerConfig{.num_threads = threads});
    for (int rep = 0; rep < 3; ++rep) {
      const auto r = bots::floorplan::run_parallel(
          p, cells, sched, {rt::Tiedness::untied, core::AppCutoff::manual});
      EXPECT_EQ(r.best_area, serial.best_area);
      node_counts.insert(r.nodes);
    }
  }
  // The node count is allowed (expected!) to vary; the optimum never.
  SUCCEED();
}

TEST(Properties, UtsDepthBoundIsMonotone) {
  bots::uts::Params p;
  p.root_children = 8;
  p.spawn_permille = 300;
  p.work_per_node = 4;
  std::uint64_t prev = 0;
  for (int depth : {0, 2, 4, 6, 8, 10}) {
    p.max_depth = depth;
    const std::uint64_t n = bots::uts::run_serial(p);
    EXPECT_GE(n, prev) << "depth " << depth;
    prev = n;
  }
}

TEST(Properties, FloorplanBestIsNeverWorseThanGreedySeed) {
  // run_serial seeds the bound with greedy-first-fit + 1; the optimum must
  // be <= the greedy area (the greedy plan itself is reachable).
  for (std::uint64_t seed : {0xF100Bull, 0xCAFEull, 0x777ull}) {
    bots::floorplan::Params p{8, 3, seed};
    const auto cells = bots::floorplan::make_input(p);
    const auto r = bots::floorplan::run_serial(p, cells);
    int total = 0;
    for (const auto& c : cells) total += c.area;
    EXPECT_GE(r.best_area, total);
    EXPECT_LE(r.best_area, bots::floorplan::board_dim *
                               bots::floorplan::board_dim);
  }
}

TEST(Properties, SortThresholdsDoNotChangeTheResult) {
  // Sorting must be invariant under every threshold configuration.
  bots::sort::Params base;
  base.n = 100'000;
  const auto expect = [&] {
    auto v = bots::sort::make_input(base);
    bots::sort::run_serial(base, v);
    return v;
  }();
  rt::Scheduler sched(rt::SchedulerConfig{.num_threads = 4});
  for (std::size_t quick : {64u, 1024u, 4096u}) {
    for (std::size_t merge : {64u, 4096u}) {
      bots::sort::Params p = base;
      p.quick_threshold = quick;
      p.merge_threshold = merge;
      auto v = bots::sort::make_input(p);
      bots::sort::run_parallel(p, v, sched, {rt::Tiedness::untied});
      ASSERT_EQ(v, expect) << "quick " << quick << " merge " << merge;
    }
  }
}

// ---------------------------------------------------------------------------
// Cut-off equivalence: every cut-off strategy must compute the same answer,
// only the task structure may differ.
// ---------------------------------------------------------------------------

TEST(Properties, CutoffStrategiesAgreeOnResults) {
  rt::Scheduler sched(rt::SchedulerConfig{.num_threads = 8});
  for (const char* name : {"fib", "nqueens", "floorplan", "health"}) {
    const auto* app = core::find_app(name);
    ASSERT_NE(app, nullptr);
    for (const auto& v : app->versions) {
      const auto rep = app->run(core::InputClass::test, v.name, sched, true);
      EXPECT_EQ(rep.verified, core::Verified::ok) << name << "/" << v.name;
    }
  }
}

TEST(Properties, RuntimeCutoffNeverChangesAnswers) {
  for (auto policy : {rt::CutoffPolicy::none, rt::CutoffPolicy::max_tasks,
                      rt::CutoffPolicy::max_depth, rt::CutoffPolicy::adaptive}) {
    for (std::uint32_t bound : {1u, 4u, 1000u}) {
      rt::SchedulerConfig cfg;
      cfg.num_threads = 4;
      cfg.cutoff = policy;
      cfg.cutoff_value = bound;
      rt::Scheduler sched(cfg);
      const auto* app = core::find_app("nqueens");
      const auto rep =
          app->run(core::InputClass::test, "untied", sched, true);
      EXPECT_EQ(rep.verified, core::Verified::ok)
          << to_string(policy) << "/" << bound;
    }
  }
}

}  // namespace
