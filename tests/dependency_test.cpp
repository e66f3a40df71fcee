// Task-dependence and taskgraph record-and-replay tests (PR 8): the
// depend(in/out/inout) clause semantics, randomized DAG stress against a
// serial reference, record/replay identity with counter conservation,
// cancellation and deadlines mid-replay with balanced ledgers, the
// reconfigure/shrink graph-invalidation regression, and the server's
// submit_graph entry point. Everything runs the REAL scheduler.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.hpp"
#include "runtime/rt.hpp"

namespace rt = bots::rt;
namespace core = bots::core;

namespace {

// CI's fault legs export RT_FAULT_PLAN to the whole suite; tests that assert
// exact record/replay counter values must not see injected allocation
// faults (a fault mid-record aborts the recording and retries — correct,
// but it shifts graphs_recorded).
rt::SchedulerConfig clean_cfg(unsigned threads) {
  rt::SchedulerConfig cfg;
  cfg.num_threads = threads;
  cfg.fault_plan.clear();
  cfg.use_taskgraph_replay = true;  // pin against RT_TASKGRAPH_REPLAY=0 legs
  return cfg;
}

void expect_accounting_balanced(const rt::StatsSnapshot& st) {
  EXPECT_EQ(st.total.tasks_created + st.total.range_splits,
            st.total.tasks_deferred + st.total.tasks_if_inlined +
                st.total.tasks_cutoff_inlined);
  EXPECT_EQ(st.total.tasks_executed + st.total.tasks_discarded,
            st.total.tasks_deferred);
}

// ---------------------------------------------------------------------------
// Dependence semantics matrix.
// ---------------------------------------------------------------------------

TEST(Dependency, InWaitsForLastWriter) {
  rt::Scheduler s(clean_cfg(8));
  for (int round = 0; round < 50; ++round) {
    int x = 0;
    std::atomic<int> seen_a{-1}, seen_b{-1};
    s.run_single([&] {
      rt::DepScope sc;
      sc.spawn({rt::inout(x)}, [&] {
        // Slow writer: readers must still observe its result.
        for (int i = 0; i < 50'000; ++i) asm volatile("");
        x = 42;
      });
      sc.spawn({rt::in(x)}, [&] { seen_a.store(x); });
      sc.spawn({rt::in(x)}, [&] { seen_b.store(x); });
    });
    ASSERT_EQ(seen_a.load(), 42) << "round " << round;
    ASSERT_EQ(seen_b.load(), 42) << "round " << round;
  }
}

TEST(Dependency, WriterWaitsForReaders) {
  // Anti-dependence: an inout spawned after two in-readers must not run
  // until both readers observed the PREVIOUS value.
  rt::Scheduler s(clean_cfg(8));
  for (int round = 0; round < 50; ++round) {
    int x = 7;
    std::atomic<int> read_a{0}, read_b{0};
    s.run_single([&] {
      rt::DepScope sc;
      sc.spawn({rt::in(x)}, [&] {
        for (int i = 0; i < 20'000; ++i) asm volatile("");
        read_a.store(x);
      });
      sc.spawn({rt::in(x)}, [&] { read_b.store(x); });
      sc.spawn({rt::inout(x)}, [&] { x = 99; });
    });
    ASSERT_EQ(read_a.load(), 7) << "round " << round;
    ASSERT_EQ(read_b.load(), 7) << "round " << round;
    ASSERT_EQ(x, 99) << "round " << round;
  }
}

TEST(Dependency, InoutChainIsTotallyOrdered) {
  rt::Scheduler s(clean_cfg(8));
  constexpr int kChain = 64;
  std::uint64_t acc = 1;
  s.run_single([&] {
    rt::DepScope sc;
    for (int i = 0; i < kChain; ++i) {
      sc.spawn(i % 2 == 0 ? rt::Tiedness::tied : rt::Tiedness::untied,
               {rt::inout(acc)}, [&acc, i] { acc = acc * 31 + static_cast<std::uint64_t>(i); });
    }
  });
  std::uint64_t expect = 1;
  for (int i = 0; i < kChain; ++i) expect = expect * 31 + static_cast<std::uint64_t>(i);
  EXPECT_EQ(acc, expect);
  // Dynamic-only conservation: every successfully published edge is
  // resolved exactly once by the finish path.
  const auto t = s.stats().total;
  EXPECT_EQ(t.edges_resolved, t.deps_edges);
  EXPECT_EQ(t.deps_declared, static_cast<std::uint64_t>(kChain));
  expect_accounting_balanced(s.stats());
}

TEST(Dependency, IndependentAddressesDoNotSerialise) {
  // No ordering asserted — just that disjoint-address tasks all run and the
  // scope joins them (deps_edges may legitimately be zero).
  rt::Scheduler s(clean_cfg(4));
  std::vector<int> cells(32, 0);
  std::atomic<int> ran{0};
  s.run_single([&] {
    rt::DepScope sc;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      sc.spawn({rt::out(cells[i])}, [&, i] {
        cells[i] = static_cast<int>(i);
        ran.fetch_add(1, std::memory_order_relaxed);
      });
    }
  });
  EXPECT_EQ(ran.load(), 32);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i], static_cast<int>(i));
  }
}

TEST(Dependency, ScopeIsReusableAndOutsideRegionRunsInline) {
  rt::Scheduler s(clean_cfg(2));
  int x = 0;
  // Outside any region: program order satisfies everything.
  {
    rt::DepScope sc;
    sc.spawn({rt::inout(x)}, [&] { x = 1; });
    sc.spawn({rt::in(x)}, [&] { EXPECT_EQ(x, 1); });
  }
  EXPECT_EQ(x, 1);
  // Same scope object reused across two regions: wait() resets the table,
  // so the second region's deps relate only to its own spawns.
  rt::DepScope sc;
  for (int round = 0; round < 3; ++round) {
    s.run_single([&] {
      sc.spawn({rt::inout(x)}, [&] { ++x; });
      sc.spawn({rt::inout(x)}, [&] { ++x; });
      sc.wait();
    });
  }
  EXPECT_EQ(x, 7);
}

// ---------------------------------------------------------------------------
// Randomized DAG stress: dataflow execution must match serial program order.
// ---------------------------------------------------------------------------

// One randomly generated step: reads some cells, read-modify-writes one.
struct Step {
  std::vector<std::size_t> reads;
  std::size_t write = 0;
  bool write_is_inout = false;
  std::uint64_t salt = 0;
};

std::uint64_t step_value(const Step& st, const std::vector<std::uint64_t>& c) {
  std::uint64_t v = st.salt;
  for (std::size_t r : st.reads) v = v * 1099511628211ull + c[r];
  if (st.write_is_inout) v = v * 1099511628211ull + c[st.write];
  return v;
}

TEST(Dependency, RandomDagMatchesSerialReference) {
  rt::Scheduler s(clean_cfg(8));
  core::Xoshiro256 rng(0xDA6u);
  for (int round = 0; round < 12; ++round) {
    const std::size_t cells = 4 + rng.next_below(12);
    const std::size_t steps = 40 + rng.next_below(160);
    std::vector<Step> plan(steps);
    for (auto& st : plan) {
      const std::size_t nreads = rng.next_below(3);
      for (std::size_t r = 0; r < nreads; ++r) {
        st.reads.push_back(rng.next_below(cells));
      }
      st.write = rng.next_below(cells);
      st.write_is_inout = rng.next_below(2) == 0;
      st.salt = rng.next();
    }
    // Serial reference: program order.
    std::vector<std::uint64_t> ref(cells, 1);
    for (const auto& st : plan) ref[st.write] = step_value(st, ref);
    // Dataflow: declared deps only; the runtime must reconstruct program
    // order per cell.
    std::vector<std::uint64_t> got(cells, 1);
    s.run_single([&] {
      rt::DepScope sc;
      for (const auto& st : plan) {
        std::vector<rt::Dep> deps;
        for (std::size_t r : st.reads) deps.push_back(rt::in(got[r]));
        deps.push_back(st.write_is_inout ? rt::inout(got[st.write])
                                         : rt::out(got[st.write]));
        // initializer_list cannot be built dynamically; spawn via the
        // worst-case 4-clause shape with duplicates collapsing naturally.
        const rt::Dep d0 = deps[0];
        const rt::Dep d1 = deps.size() > 1 ? deps[1] : deps[0];
        const rt::Dep d2 = deps.size() > 2 ? deps[2] : deps[0];
        const rt::Dep d3 = deps.size() > 3 ? deps[3] : deps[0];
        sc.spawn({d0, d1, d2, d3},
                 [&got, &st] { got[st.write] = step_value(st, got); });
      }
    });
    ASSERT_EQ(got, ref) << "round " << round;
    const auto t = s.stats().total;
    ASSERT_EQ(t.edges_resolved, t.deps_edges) << "round " << round;
    expect_accounting_balanced(s.stats());
  }
}

TEST(Dependency, DataflowAgreesWithTaskwaitPhases) {
  // A/B identity on a phased wavefront: phase k writes cell k from cell
  // k-1. The taskwait version barriers between phases; the dataflow version
  // declares the chain. Results must be identical.
  rt::Scheduler s(clean_cfg(8));
  constexpr std::size_t kN = 48;
  auto taskwait_version = [&] {
    std::vector<std::uint64_t> v(kN, 0);
    v[0] = 17;
    s.run_single([&] {
      for (std::size_t i = 1; i < kN; ++i) {
        rt::spawn([&v, i] { v[i] = v[i - 1] * 31 + i; });
        rt::taskwait();
      }
    });
    return v;
  };
  auto dataflow_version = [&] {
    std::vector<std::uint64_t> v(kN, 0);
    v[0] = 17;
    s.run_single([&] {
      rt::DepScope sc;
      for (std::size_t i = 1; i < kN; ++i) {
        sc.spawn({rt::in(v[i - 1]), rt::out(v[i])},
                 [&v, i] { v[i] = v[i - 1] * 31 + i; });
      }
    });
    return v;
  };
  EXPECT_EQ(dataflow_version(), taskwait_version());
}

// ---------------------------------------------------------------------------
// Tentpole: record-and-replay.
// ---------------------------------------------------------------------------

// A reusable build function over an 8-cell buffer: one producer, six
// middle tasks fanning out from it, one combiner declaring every cell it
// reads. Re-runnable (record-mode rule) because every body captures only
// the stable buffer pointer.
std::function<void(rt::DepScope&)> diamond_build(std::vector<std::uint64_t>* c) {
  return [c](rt::DepScope& sc) {
    auto& v = *c;
    sc.spawn({rt::out(v[0])}, [&v] { v[0] += 5; });
    for (std::size_t i = 1; i <= 6; ++i) {
      sc.spawn({rt::in(v[0]), rt::out(v[i])},
               [&v, i] { v[i] = v[0] * i; });
    }
    sc.spawn(rt::Tiedness::untied,
             {rt::in(v[1]), rt::in(v[2]), rt::in(v[3]), rt::in(v[4]),
              rt::in(v[5]), rt::in(v[6]), rt::inout(v[7])},
             [&v] {
               std::uint64_t sum = 0;
               for (std::size_t i = 1; i <= 6; ++i) sum += v[i];
               v[7] = sum;
             });
  };
}

TEST(TaskGraphReplay, RecordOnceReplayManyIdenticalResults) {
  rt::Scheduler s(clean_cfg(8));
  constexpr std::size_t kCells = 8;
  std::vector<std::uint64_t> cells(kCells, 0);
  rt::TaskGraph g;
  const auto build = diamond_build(&cells);
  constexpr int kRuns = 6;
  std::vector<std::vector<std::uint64_t>> results;
  for (int run = 0; run < kRuns; ++run) {
    std::fill(cells.begin(), cells.end(), 0);
    s.run_single([&] { rt::run_graph_region(s, g, &cells, build); });
    results.push_back(cells);
  }
  for (int run = 1; run < kRuns; ++run) {
    ASSERT_EQ(results[static_cast<std::size_t>(run)], results[0]) << "run " << run;
  }
  EXPECT_TRUE(g.frozen());
  EXPECT_EQ(g.node_count(), 8u);  // producer + 6 mids + combiner
  EXPECT_EQ(g.replays(), static_cast<std::uint64_t>(kRuns - 1));
  const auto t = s.stats().total;
  EXPECT_EQ(t.graphs_recorded, 1u);
  EXPECT_EQ(t.graphs_replayed, static_cast<std::uint64_t>(kRuns - 1));
  // Conservation: dynamic edges (the record run) each resolved once, plus
  // every baked edge resolved once per replay.
  EXPECT_EQ(t.edges_resolved,
            t.deps_edges + g.replays() * g.edge_count());
  expect_accounting_balanced(s.stats());
}

TEST(TaskGraphReplay, KnobOffNeverRecordsAndMatchesKnobOn) {
  auto run_with = [&](bool knob) {
    rt::SchedulerConfig cfg = clean_cfg(4);
    cfg.use_taskgraph_replay = knob;
    rt::Scheduler s(cfg);
    std::vector<std::uint64_t> cells(8, 0);
    rt::TaskGraph g;
    const auto build = diamond_build(&cells);
    std::vector<std::uint64_t> last;
    for (int run = 0; run < 4; ++run) {
      std::fill(cells.begin(), cells.end(), 0);
      s.run_single([&] { rt::run_graph_region(s, g, &cells, build); });
      last = cells;
    }
    const auto t = s.stats().total;
    if (knob) {
      EXPECT_EQ(t.graphs_recorded, 1u);
      EXPECT_EQ(t.graphs_replayed, 3u);
    } else {
      EXPECT_EQ(t.graphs_recorded, 0u);
      EXPECT_EQ(t.graphs_replayed, 0u);
      EXPECT_FALSE(g.frozen());
      // Pure dynamic: published edges resolved exactly once, nothing baked.
      EXPECT_EQ(t.edges_resolved, t.deps_edges);
    }
    expect_accounting_balanced(s.stats());
    return last;
  };
  EXPECT_EQ(run_with(true), run_with(false));
}

TEST(TaskGraphReplay, DifferentKeyForcesReRecord) {
  // The key binds a recording to its buffers: replaying against different
  // storage must re-record, not touch stale addresses.
  rt::Scheduler s(clean_cfg(4));
  std::vector<std::uint64_t> a(8, 0), b(8, 0);
  rt::TaskGraph g;
  s.run_single([&] { rt::run_graph_region(s, g, &a, diamond_build(&a)); });
  EXPECT_TRUE(g.valid_for(s, &a));
  EXPECT_FALSE(g.valid_for(s, &b));
  s.run_single([&] { rt::run_graph_region(s, g, &b, diamond_build(&b)); });
  EXPECT_TRUE(g.valid_for(s, &b));
  EXPECT_EQ(s.stats().total.graphs_recorded, 2u);
  EXPECT_EQ(s.stats().total.graphs_replayed, 0u);
  EXPECT_EQ(a, b);
}

TEST(TaskGraphReplay, ReRecordingWaitsOutRaidsOnTheOldNodes) {
  // Worker 0 alternates keys, so every invocation re-records and frees the
  // previous recording's nodes. Worker 1 meanwhile waits in tied task W for
  // a child that worker 2 holds until the loop ends: its raids are
  // constrained by W and look at worker 0's queued nodes without ever
  // claiming one (no node descends from W), and nothing else it does
  // orders those looks before worker 0's next recording. The old nodes
  // must outlive every raid that may still read them: under TSAN a node
  // freed under a raid is a race with the free, under ASan a
  // heap-use-after-free.
  rt::SchedulerConfig cfg = clean_cfg(3);
  cfg.cutoff = rt::CutoffPolicy::none;
  rt::Scheduler s(cfg);
  ASSERT_EQ(s.num_workers(), 3u);
  // Few nodes, many recordings: TSAN checks a freed block's first KiB only.
  constexpr std::size_t kNodes = 4;
  constexpr int kRuns = 400;
  constexpr auto kLimit = std::chrono::seconds(10);
  const auto yield_until = [kLimit](const auto& done) {
    const auto until = std::chrono::steady_clock::now() + kLimit;
    while (!done() && std::chrono::steady_clock::now() < until) {
      std::this_thread::yield();
    }
  };
  std::vector<std::uint64_t> a(kNodes, 0), b(kNodes, 0);
  const auto wide = [](std::vector<std::uint64_t>* cells) {
    return [cells](rt::DepScope& sc) {
      auto& v = *cells;
      for (std::size_t i = 0; i < v.size(); ++i) {
        sc.spawn({rt::inout(v[i])}, [&v, i] {
          // Long enough that worker 1's raids find nodes queued.
          const auto until =
              std::chrono::steady_clock::now() + std::chrono::microseconds(20);
          while (std::chrono::steady_clock::now() < until) {
          }
          v[i] += 1;
        });
      }
    };
  };
  const std::function<void(rt::DepScope&)> build_a = wide(&a);
  const std::function<void(rt::DepScope&)> build_b = wide(&b);
  rt::TaskGraph g;
  std::atomic<bool> looping{true};
  std::atomic<bool> held{false};
  s.run_all([&](unsigned id) {
    if (id == 0) {
      yield_until([&] { return held.load(); });
      for (int run = 0; run < kRuns; ++run) {
        if (run % 2 == 0) {
          rt::run_graph_region(s, g, &a, build_a);
        } else {
          rt::run_graph_region(s, g, &b, build_b);
        }
      }
      looping.store(false);
    } else if (id == 1) {
      rt::spawn(rt::Tiedness::tied, [&] {  // W
        rt::spawn(rt::Tiedness::tied, [&] {
          held.store(true);
          yield_until([&] { return !looping.load(); });
        });
        rt::spawn(rt::Tiedness::tied, [] {});  // pushes the holder to the deque
        yield_until([&] { return held.load(); });
        rt::taskwait();
      });
      rt::taskwait();
    }
  });
  EXPECT_TRUE(held.load());
  EXPECT_GT(s.stats().per_worker[1].steal_attempts, 0u);
  const auto half = static_cast<std::uint64_t>(kRuns / 2);
  EXPECT_EQ(a, std::vector<std::uint64_t>(kNodes, half));
  EXPECT_EQ(b, std::vector<std::uint64_t>(kNodes, half));
  EXPECT_EQ(s.stats().total.graphs_recorded, static_cast<std::uint64_t>(kRuns));
  EXPECT_EQ(s.stats().total.graphs_replayed, 0u);
  expect_accounting_balanced(s.stats());
}

TEST(TaskGraphReplay, TagRegistryRoutesRepeatInvocations) {
  rt::Scheduler s(clean_cfg(4));
  std::vector<std::uint64_t> cells(8, 0);
  const auto build = diamond_build(&cells);
  std::vector<std::uint64_t> first;
  for (int run = 0; run < 3; ++run) {
    std::fill(cells.begin(), cells.end(), 0);
    s.run_single([&] { rt::graph_region("test.diamond", &cells, build); });
    if (run == 0) first = cells;
    ASSERT_EQ(cells, first) << "run " << run;
  }
  EXPECT_EQ(s.stats().total.graphs_recorded, 1u);
  EXPECT_EQ(s.stats().total.graphs_replayed, 2u);
}

// ---------------------------------------------------------------------------
// Satellite regression: reconfigure() must invalidate recorded graphs.
// Failing before the fix: the replay dispatched a graph recorded for the
// OLD team shape (stale placement decisions, stale worker count baked into
// the root frontier dispatch).
// ---------------------------------------------------------------------------

TEST(TaskGraphReplay, ReconfigureInvalidatesRecordedGraphs) {
  rt::Scheduler s(clean_cfg(8));
  std::vector<std::uint64_t> cells(8, 0);
  rt::TaskGraph g;
  const auto build = diamond_build(&cells);
  s.run_single([&] { rt::run_graph_region(s, g, &cells, build); });
  ASSERT_TRUE(g.valid_for(s, &cells));
  const auto before = cells;

  s.reconfigure(rt::StealPolicyKind::hierarchical, "2x4");
  // The epoch moved: the frozen graph must refuse to replay...
  EXPECT_FALSE(g.valid_for(s, &cells));
  // ...and the next invocation re-records against the new shape, then
  // replays that NEW recording.
  std::fill(cells.begin(), cells.end(), 0);
  s.run_single([&] { rt::run_graph_region(s, g, &cells, build); });
  EXPECT_EQ(cells, before);
  EXPECT_TRUE(g.valid_for(s, &cells));
  std::fill(cells.begin(), cells.end(), 0);
  s.run_single([&] { rt::run_graph_region(s, g, &cells, build); });
  EXPECT_EQ(cells, before);
  const auto t = s.stats().total;
  EXPECT_EQ(t.graphs_recorded, 2u);
  EXPECT_EQ(t.graphs_replayed, 1u);
  expect_accounting_balanced(s.stats());
}

/// Counts the copies of a recorded body and how many are alive.
struct CountedBody {
  static inline std::atomic<int> copies{0};
  static inline std::atomic<int> alive{0};
  static inline std::atomic<int> runs{0};
  CountedBody() { alive.fetch_add(1); }
  CountedBody(const CountedBody&) {
    copies.fetch_add(1);
    alive.fetch_add(1);
  }
  CountedBody(CountedBody&&) noexcept { alive.fetch_add(1); }
  CountedBody& operator=(const CountedBody&) = delete;
  ~CountedBody() { alive.fetch_sub(1); }
  void run() const { runs.fetch_add(1); }
};

TEST(TaskGraphReplay, RecordedClosuresLiveExactlyAsLongAsTheirRecording) {
  // A recorded body is copied into its node once at record (the live task
  // gets the moved original), invoked in place by every replay, and
  // destroyed exactly once: when the graph re-records — for a new key or
  // after an epoch bump — or when its owner (here the scheduler's tag
  // registry) dies.
  constexpr int kNodes = 3;
  CountedBody::copies = 0;
  CountedBody::alive = 0;
  CountedBody::runs = 0;
  const auto build_for = [](std::uint64_t* cell) {
    return [cell](rt::DepScope& sc) {
      for (int i = 0; i < kNodes; ++i) {
        sc.spawn({rt::inout(*cell)}, [cell, body = CountedBody{}] {
          body.run();
          ++*cell;
        });
      }
    };
  };
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  {
    rt::Scheduler s(clean_cfg(4));
    const auto invoke = [&](std::uint64_t* cell) {
      s.run_single([&] { rt::graph_region("test.counted", cell, build_for(cell)); });
    };
    invoke(&a);  // record
    EXPECT_EQ(CountedBody::copies.load(), kNodes);
    EXPECT_EQ(CountedBody::alive.load(), kNodes);
    EXPECT_EQ(CountedBody::runs.load(), kNodes);
    const std::uint64_t record_env = s.stats().total.env_bytes;
    EXPECT_GT(record_env, 0u);
    invoke(&a);  // replays run the graph's copies in place
    invoke(&a);
    EXPECT_EQ(CountedBody::copies.load(), kNodes);
    EXPECT_EQ(CountedBody::alive.load(), kNodes);
    EXPECT_EQ(CountedBody::runs.load(), 3 * kNodes);
    EXPECT_EQ(a, 3u * kNodes);
    // A replay captures the same environments as the run that recorded it.
    EXPECT_EQ(s.stats().total.env_bytes, 3 * record_env);

    invoke(&b);  // new key: re-record, the old copies die once
    EXPECT_EQ(CountedBody::copies.load(), 2 * kNodes);
    EXPECT_EQ(CountedBody::alive.load(), kNodes);
    EXPECT_EQ(CountedBody::runs.load(), 4 * kNodes);

    s.reconfigure(rt::StealPolicyKind::last_victim, "");
    invoke(&b);  // epoch invalidated: re-record again
    EXPECT_EQ(CountedBody::copies.load(), 3 * kNodes);
    EXPECT_EQ(CountedBody::alive.load(), kNodes);
    invoke(&b);  // and replay the new recording
    EXPECT_EQ(CountedBody::copies.load(), 3 * kNodes);
    EXPECT_EQ(CountedBody::runs.load(), 6 * kNodes);
    EXPECT_EQ(b, 3u * kNodes);
    const auto t = s.stats().total;
    EXPECT_EQ(t.graphs_recorded, 3u);
    EXPECT_EQ(t.graphs_replayed, 3u);
    expect_accounting_balanced(s.stats());
  }
  EXPECT_EQ(CountedBody::alive.load(), 0);  // the registry's graph died
}

// ---------------------------------------------------------------------------
// Cancellation and deadlines mid-replay: ledgers stay balanced, the graph
// stays reusable.
// ---------------------------------------------------------------------------

TEST(TaskGraphReplay, CancelMidReplayDrainsByDiscardsAndGraphSurvives) {
  rt::Scheduler s(clean_cfg(4));
  std::atomic<bool> cancel_mode{false};
  std::atomic<int> executed{0};
  // A chain: node 0 optionally cancels; nodes 1..N-1 depend transitively on
  // it, so on the cancel run they are discarded (their releases still fire,
  // or the region would deadlock).
  std::uint64_t acc = 0;
  auto build = [&](rt::DepScope& sc) {
    sc.spawn({rt::inout(acc)}, [&] {
      executed.fetch_add(1, std::memory_order_relaxed);
      if (cancel_mode.load(std::memory_order_relaxed)) rt::cancel_region();
      ++acc;
    });
    for (int i = 0; i < 40; ++i) {
      sc.spawn({rt::inout(acc)}, [&] {
        executed.fetch_add(1, std::memory_order_relaxed);
        ++acc;
      });
    }
  };
  rt::TaskGraph g;
  // Record run (clean) + one clean replay.
  s.run_single([&] { rt::run_graph_region(s, g, &acc, build); });
  ASSERT_EQ(acc, 41u);
  acc = 0;
  rt::RegionResult res =
      s.run_single([&] { rt::run_graph_region(s, g, &acc, build); },
                   std::chrono::milliseconds(0));
  ASSERT_EQ(res.status, rt::RegionStatus::completed);
  ASSERT_EQ(acc, 41u);
  // Cancelled replay: the region must terminate (discard-drain), ledgers
  // must balance, and executed+discarded must cover the whole graph.
  cancel_mode.store(true);
  acc = 0;
  executed.store(0);
  res = s.run_single([&] { rt::run_graph_region(s, g, &acc, build); },
                     std::chrono::milliseconds(0));
  EXPECT_EQ(res.status, rt::RegionStatus::cancelled);
  EXPECT_LT(executed.load(), 41);
  expect_accounting_balanced(s.stats());
  const auto t = s.stats().total;
  EXPECT_GT(t.tasks_discarded, 0u);
  // The graph replays cleanly again after a cancelled replay: every node,
  // the discarded ones included, was re-armed when its predecessor released
  // it, so the next replay runs the whole graph.
  cancel_mode.store(false);
  acc = 0;
  executed.store(0);
  res = s.run_single([&] { rt::run_graph_region(s, g, &acc, build); },
                     std::chrono::milliseconds(0));
  EXPECT_EQ(res.status, rt::RegionStatus::completed);
  EXPECT_EQ(executed.load(), 41);
  EXPECT_EQ(acc, 41u);
  EXPECT_EQ(s.stats().total.graphs_recorded, 1u);
  EXPECT_EQ(s.stats().total.graphs_replayed, 3u);
  expect_accounting_balanced(s.stats());
}

TEST(TaskGraphReplay, DeadlineMidReplayReportsAndRecovers) {
  rt::Scheduler s(clean_cfg(4));
  std::atomic<bool> slow{false};
  std::uint64_t acc = 0;
  auto build = [&](rt::DepScope& sc) {
    for (int i = 0; i < 16; ++i) {
      sc.spawn({rt::inout(acc)}, [&] {
        if (slow.load(std::memory_order_relaxed)) {
          const auto until =
              std::chrono::steady_clock::now() + std::chrono::milliseconds(20);
          while (std::chrono::steady_clock::now() < until &&
                 !rt::cancellation_point()) {
          }
        }
        ++acc;
      });
    }
  };
  rt::TaskGraph g;
  s.run_single([&] { rt::run_graph_region(s, g, &acc, build); });
  ASSERT_EQ(acc, 16u);
  slow.store(true);
  acc = 0;
  const rt::RegionResult res =
      s.run_single([&] { rt::run_graph_region(s, g, &acc, build); },
                   std::chrono::milliseconds(25));
  EXPECT_EQ(res.status, rt::RegionStatus::deadline_exceeded);
  expect_accounting_balanced(s.stats());
  // Recovers: next replay completes.
  slow.store(false);
  acc = 0;
  const rt::RegionResult ok =
      s.run_single([&] { rt::run_graph_region(s, g, &acc, build); },
                   std::chrono::milliseconds(0));
  EXPECT_EQ(ok.status, rt::RegionStatus::completed);
  EXPECT_EQ(acc, 16u);
  expect_accounting_balanced(s.stats());
}

// ---------------------------------------------------------------------------
// Server integration: submit_graph records on the first request, replays on
// repeats, falls back to dynamic tracking when the tag is busy.
// ---------------------------------------------------------------------------

TEST(TaskGraphReplay, ServerSubmitGraphRecordsThenReplays) {
  rt::Scheduler s(clean_cfg(4));
  rt::TaskServer server(s, rt::ServerConfig{});
  std::vector<std::uint64_t> cells(8, 0);
  const auto build = diamond_build(&cells);
  std::vector<std::uint64_t> first;
  constexpr int kReqs = 5;
  for (int i = 0; i < kReqs; ++i) {
    std::fill(cells.begin(), cells.end(), 0);
    auto res = server.submit_graph("req.diamond", build, &cells);
    ASSERT_TRUE(res.admitted);
    ASSERT_EQ(res.handle.wait(), rt::RequestStatus::completed);
    EXPECT_TRUE(res.handle.ledger_balanced());
    if (i == 0) first = cells;
    ASSERT_EQ(cells, first) << "request " << i;
  }
  server.drain();
  const auto t = s.stats().total;
  EXPECT_EQ(t.graphs_recorded, 1u);
  EXPECT_EQ(t.graphs_replayed, static_cast<std::uint64_t>(kReqs - 1));
  expect_accounting_balanced(s.stats());
}

TEST(TaskGraphReplay, ConcurrentSameTagRequestsAllComplete) {
  // Two requests on one tag racing: the loser of the busy flag falls back
  // to dynamic dependence tracking — both must complete with the right
  // answer, whatever the interleaving. Each request works on its own
  // buffer, so the shared-tag graph key is pinned to a stable dummy.
  rt::Scheduler s(clean_cfg(4));
  rt::TaskServer server(s, rt::ServerConfig{});
  constexpr int kReqs = 6;
  static std::uint64_t key_anchor = 0;
  std::array<std::vector<std::uint64_t>, kReqs> bufs;
  std::vector<rt::RegionHandle> handles;
  for (int i = 0; i < kReqs; ++i) {
    bufs[static_cast<std::size_t>(i)].assign(8, 0);
    auto* buf = &bufs[static_cast<std::size_t>(i)];
    // NOTE: all requests share tag+key, so only request shapes whose
    // recorded structure is buffer-independent may share a tag. Here every
    // body captures its own buffer pointer — the recorded bodies bind to
    // request 0's buffer, so a replayed request recomputes buffer 0 (same
    // values; idempotent diamond) while the dynamic fallback writes its
    // own. To keep the assertion exact we only check completion + ledgers.
    auto res = server.submit_graph(
        "req.race",
        [buf](rt::DepScope& sc) { diamond_build(buf)(sc); }, &key_anchor);
    ASSERT_TRUE(res.admitted);
    handles.push_back(res.handle);
  }
  for (auto& h : handles) {
    EXPECT_EQ(h.wait(), rt::RequestStatus::completed);
    EXPECT_TRUE(h.ledger_balanced());
  }
  server.drain();
  expect_accounting_balanced(s.stats());
}

// ---------------------------------------------------------------------------
// Replay under TSAN-visible load: many replays back to back on 8 threads.
// ---------------------------------------------------------------------------

TEST(TaskGraphReplay, ReplaySoakKeepsConservationLaw) {
  rt::Scheduler s(clean_cfg(8));
  std::vector<std::uint64_t> cells(16, 0);
  rt::TaskGraph g;
  // Wider diamond for real contention on the release paths.
  auto build = [&](rt::DepScope& sc) {
    auto& v = cells;
    sc.spawn({rt::out(v[0])}, [&v] { v[0] += 3; });
    for (std::size_t i = 1; i + 1 < v.size(); ++i) {
      sc.spawn({rt::in(v[0]), rt::out(v[i])}, [&v, i] { v[i] = v[0] + i; });
    }
    sc.spawn({rt::in(v[1]), rt::in(v[5]), rt::in(v[9]), rt::inout(v[15])},
             [&v] { v[15] = v[1] + v[5] + v[9]; });
  };
  constexpr int kRuns = 200;
  std::vector<std::uint64_t> first;
  for (int run = 0; run < kRuns; ++run) {
    std::fill(cells.begin(), cells.end(), 0);
    s.run_single([&] { rt::run_graph_region(s, g, &cells, build); });
    if (run == 0) first = cells;
    ASSERT_EQ(cells, first) << "run " << run;
  }
  const auto t = s.stats().total;
  EXPECT_EQ(t.graphs_recorded, 1u);
  EXPECT_EQ(t.graphs_replayed, static_cast<std::uint64_t>(kRuns - 1));
  EXPECT_EQ(t.edges_resolved, t.deps_edges + g.replays() * g.edge_count());
  expect_accounting_balanced(s.stats());
}

}  // namespace
