// Worksharing-layer tests: splittable range tasks (spawn_range) under
// concurrent steals, and the first-arrival single_nowait gate.
#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/rt.hpp"

namespace rt = bots::rt;

namespace {

// ---------------------------------------------------------------------------
// Range tasks: no lost or duplicated iterations, any schedule.
// ---------------------------------------------------------------------------

struct RangeCase {
  unsigned threads;
  std::int64_t grain;
  rt::Tiedness tied;
};

class RangeSpawn : public ::testing::TestWithParam<RangeCase> {};

TEST_P(RangeSpawn, CoversEveryIterationExactlyOnceUnderStealStress) {
  const RangeCase rc = GetParam();
  rt::SchedulerConfig cfg;
  cfg.num_threads = rc.threads;
  rt::Scheduler s(cfg);
  constexpr std::int64_t n = 20000;
  std::vector<std::atomic<std::uint32_t>> hits(n);
  rt::SingleGate gate(s.num_workers());
  for (int round = 0; round < 6; ++round) {
    for (auto& h : hits) h.store(0, std::memory_order_relaxed);
    s.run_all([&](unsigned) {
      rt::single_nowait(gate, [&] {
        rt::spawn_range(rc.tied, 0, n, rc.grain, [&hits](std::int64_t i) {
          hits[static_cast<std::size_t>(i)].fetch_add(
              1, std::memory_order_relaxed);
        });
      });
      // The range and every split join at the region-end barrier.
    });
    for (std::int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1u)
          << "iteration " << i << " round " << round;
    }
  }
  const auto t = s.stats().total;
  // Every descriptor (the ranges plus every split) executed exactly once.
  EXPECT_EQ(t.tasks_executed, t.tasks_deferred);
  EXPECT_EQ(t.range_tasks, 6u);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, RangeSpawn,
    ::testing::Values(RangeCase{1u, 1, rt::Tiedness::tied},
                      RangeCase{2u, 1, rt::Tiedness::tied},
                      RangeCase{4u, 3, rt::Tiedness::tied},
                      RangeCase{8u, 1, rt::Tiedness::untied},
                      RangeCase{8u, 16, rt::Tiedness::tied},
                      RangeCase{8u, 30000, rt::Tiedness::tied}),
    [](const auto& info) {
      return "t" + std::to_string(info.param.threads) + "_g" +
             std::to_string(info.param.grain) + "_" +
             to_string(info.param.tied);
    });

TEST(RangeSpawn, SplitsFireWhenTheTeamIsHungry) {
  // Deterministic: with a team of two, the executing worker's deque is empty
  // at its first split check (the range was just popped), so at least one
  // half is split off for the thief.
  rt::Scheduler s(rt::SchedulerConfig{.num_threads = 2});
  std::atomic<std::int64_t> sum{0};
  rt::SingleGate gate(s.num_workers());
  s.run_all([&](unsigned) {
    rt::single_nowait(gate, [&] {
      rt::spawn_range(0, 1000, 1, [&sum](std::int64_t i) {
        sum.fetch_add(i, std::memory_order_relaxed);
      });
    });
  });
  EXPECT_EQ(sum.load(), 999L * 1000 / 2);
  EXPECT_GE(s.stats().total.range_splits, 1u);
}

TEST(RangeSpawn, SingleWorkerNeverSplits) {
  // A team of one has nobody to feed: the whole range must run out of the
  // one descriptor.
  rt::Scheduler s(rt::SchedulerConfig{.num_threads = 1});
  std::int64_t sum = 0;
  s.run_single([&] {
    rt::spawn_range(0, 5000, 1, [&sum](std::int64_t i) { sum += i; });
  });
  EXPECT_EQ(sum, 4999L * 5000 / 2);
  const auto t = s.stats().total;
  EXPECT_EQ(t.range_splits, 0u);
  EXPECT_EQ(t.tasks_deferred, 1u);
}

TEST(RangeSpawn, TaskwaitJoinsTheRangeAndEverySplit) {
  // Splits are published as SIBLINGS of the range (same parent), so the
  // spawner's taskwait covers the whole iteration space, not just the part
  // the original descriptor retained.
  rt::Scheduler s(rt::SchedulerConfig{.num_threads = 8});
  for (int round = 0; round < 20; ++round) {
    std::atomic<std::int64_t> done{0};
    std::int64_t observed = -1;
    s.run_single([&] {
      rt::spawn_range(0, 4000, 1, [&done](std::int64_t) {
        done.fetch_add(1, std::memory_order_relaxed);
      });
      rt::taskwait();
      observed = done.load(std::memory_order_relaxed);
    });
    ASSERT_EQ(observed, 4000) << "round " << round
                              << ": taskwait returned before a split finished";
  }
}

TEST(RangeSpawn, OutsideRegionRunsSerially) {
  std::int64_t sum = 0;
  rt::spawn_range(5, 10, 2, [&sum](std::int64_t i) { sum += i; });
  EXPECT_EQ(sum, 5 + 6 + 7 + 8 + 9);
}

TEST(RangeSpawn, EmptyAndNegativeRangesAreNoOps) {
  rt::Scheduler s(rt::SchedulerConfig{.num_threads = 2});
  int runs = 0;
  s.run_single([&] {
    rt::spawn_range(3, 3, 1, [&runs](std::int64_t) { ++runs; });
    rt::spawn_range(7, 2, 1, [&runs](std::int64_t) { ++runs; });
    rt::taskwait();
  });
  EXPECT_EQ(runs, 0);
  EXPECT_EQ(s.stats().total.tasks_created, 0u);
}

TEST(RangeSpawn, BodiesMaySpawnOrdinaryTasks) {
  // Range iterations are full task bodies: nested spawns inside them must
  // join at the region end like any other task.
  rt::Scheduler s(rt::SchedulerConfig{.num_threads = 4});
  std::atomic<int> inner{0};
  s.run_single([&] {
    rt::spawn_range(0, 200, 4, [&inner](std::int64_t) {
      rt::spawn([&inner] { inner.fetch_add(1, std::memory_order_relaxed); });
    });
  });
  EXPECT_EQ(inner.load(), 200);
}

TEST(RangeSpawn, HintPlacementPreservesCoverageAndKnobOffNeverMails) {
  // Range split publication now flows through the scheduler's placement
  // layer (publish_range_half): on a multi-node hierarchical box a half
  // may land in a remote node's mailbox instead of the splitter's deque.
  // Whatever the landing spots, iteration coverage must stay exactly-once,
  // and with the knob off the redirect counter must stay at hard zero.
  for (const bool placement : {true, false}) {
    rt::SchedulerConfig cfg;
    cfg.num_threads = 8;
    cfg.steal_policy = rt::StealPolicyKind::hierarchical;
    cfg.synthetic_topology = "2x4";
    cfg.use_hint_placement = placement;
    rt::Scheduler s(cfg);
    constexpr std::int64_t n = 50000;
    std::vector<std::atomic<std::uint8_t>> hits(n);
    for (int round = 0; round < 3; ++round) {
      for (auto& h : hits) h.store(0, std::memory_order_relaxed);
      s.run_single([&] {
        rt::spawn_range(rt::Tiedness::untied, 0, n, 1,
                        [&hits](std::int64_t i) {
                          hits[static_cast<std::size_t>(i)].fetch_add(
                              1, std::memory_order_relaxed);
                        });
        rt::taskwait();
      });
      for (std::int64_t i = 0; i < n; ++i) {
        ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1u)
            << "placement=" << placement << " round=" << round << " i=" << i;
      }
    }
    if (!placement) {
      EXPECT_EQ(s.stats().total.range_halves_redirected, 0u);
    }
  }
}

TEST(RangeSpawn, RangeNoLargerThanItsGrainNeverSplits) {
  // The caller's grain is the split floor: a range no larger than its grain
  // stays a single descriptor however hungry the team is.
  rt::SchedulerConfig cfg;
  cfg.num_threads = 4;
  rt::Scheduler s(cfg);
  std::int64_t sum = 0;
  rt::SingleGate gate(s.num_workers());
  s.run_all([&](unsigned) {
    rt::single_nowait(gate, [&] {
      rt::spawn_range(0, 3000, 4000, [&sum](std::int64_t i) { sum += i; });
    });
  });
  EXPECT_EQ(sum, 2999L * 3000 / 2);
  EXPECT_EQ(s.stats().total.range_splits, 0u);
  EXPECT_EQ(s.stats().total.tasks_deferred, 1u);
}

TEST(RangeSpawn, ThrowingBodyLeavesTheLedgerBalanced) {
  // A range body that throws still retires its descriptor and every half
  // split off it: the exception reaches the caller, the task ledger
  // balances, and the same scheduler keeps running ranges exactly once per
  // iteration afterwards.
  rt::SchedulerConfig cfg;
  cfg.num_threads = 2;
  rt::Scheduler s(cfg);
  EXPECT_THROW(
      {
        s.run_single([] {
          rt::spawn_range(0, 100, 1, [](std::int64_t i) {
            if (i == 3) throw std::runtime_error("range boom");
          });
        });
      },
      std::runtime_error);
  const rt::WorkerStats t = s.stats().total;
  EXPECT_EQ(t.tasks_executed + t.tasks_discarded, t.tasks_deferred);
  constexpr std::int64_t n = 500;
  std::vector<std::atomic<std::uint8_t>> hits(n);
  s.run_single([&hits] {
    rt::spawn_range(0, n, 1, [&hits](std::int64_t i) {
      hits[static_cast<std::size_t>(i)].fetch_add(1,
                                                  std::memory_order_relaxed);
    });
  });
  for (std::int64_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1u) << "i=" << i;
  }
}

// ---------------------------------------------------------------------------
// single_nowait: first-arrival claim semantics.
// ---------------------------------------------------------------------------

class SingleGateThreads : public ::testing::TestWithParam<unsigned> {};

TEST_P(SingleGateThreads, EachInstanceRunsExactlyOnce) {
  rt::Scheduler s(rt::SchedulerConfig{.num_threads = GetParam()});
  constexpr int instances = 50;
  rt::SingleGate gate(s.num_workers());
  std::vector<std::atomic<int>> runs(instances);
  s.run_all([&](unsigned) {
    for (int i = 0; i < instances; ++i) {
      rt::single_nowait(gate, [&runs, i] { runs[i].fetch_add(1); });
    }
    rt::barrier();
  });
  for (int i = 0; i < instances; ++i) {
    EXPECT_EQ(runs[i].load(), 1) << "instance " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, SingleGateThreads,
                         ::testing::Values(1u, 2u, 4u, 8u),
                         [](const auto& info) {
                           return "t" + std::to_string(info.param);
                         });

TEST(SingleGate, FirstArriverClaimsEvenWhenWorkerZeroIsLate) {
  // Regression: single_nowait used to bind statically to worker 0, so a late
  // worker 0 stalled task generation behind it — and this very scenario,
  // where worker 0 cannot arrive until the single has run, deadlocked.
  rt::Scheduler s(rt::SchedulerConfig{.num_threads = 2});
  rt::SingleGate gate(s.num_workers());
  std::atomic<bool> claimed{false};
  std::atomic<unsigned> claimer{~0u};
  s.run_all([&](unsigned id) {
    if (id == 0) {
      while (!claimed.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
    }
    rt::single_nowait(gate, [&] {
      claimer.store(rt::worker_id(), std::memory_order_relaxed);
      claimed.store(true, std::memory_order_release);
    });
    rt::barrier();
  });
  EXPECT_TRUE(claimed.load());
  EXPECT_EQ(claimer.load(), 1u);  // deterministically the non-blocked worker
}

TEST(SingleGate, InterleavesWithRangePhases) {
  // The SparseLU `for` pattern: a single elects a generator per phase, the
  // generator publishes a range, a barrier closes the phase. Values written
  // in phase k must be visible to every worker in phase k+1.
  rt::Scheduler s(rt::SchedulerConfig{.num_threads = 4});
  constexpr int phases = 25;
  constexpr std::int64_t width = 64;
  std::vector<std::int64_t> data(width, 0);
  std::atomic<bool> violation{false};
  rt::SingleGate gate(s.num_workers());
  s.run_all([&](unsigned) {
    for (int ph = 0; ph < phases; ++ph) {
      rt::single_nowait(gate, [&, ph] {
        rt::spawn_range(0, width, 1, [&data, &violation, ph](std::int64_t i) {
          if (data[static_cast<std::size_t>(i)] != ph) violation.store(true);
          ++data[static_cast<std::size_t>(i)];
        });
      });
      rt::barrier();
    }
  });
  EXPECT_FALSE(violation.load());
  for (const auto v : data) EXPECT_EQ(v, phases);
}

}  // namespace
