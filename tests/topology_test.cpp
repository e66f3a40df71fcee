// Topology/steal-policy layer tests: synthetic-topology determinism, the
// hierarchical policy's same-node-before-cross-node victim order, its
// single-node degeneration to last_victim, steal locality counters,
// owner-return descriptor pools (retirement to the carving worker, batched
// stash returns, the between-regions balance), hint-aware range placement
// (mailbox delivery, the placement plan, A/B output identity), and
// correctness of every policy under the usual workloads.
#include <algorithm>
#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "kernels/alignment/alignment.hpp"
#include "kernels/fft/fft.hpp"
#include "kernels/sort/sort.hpp"
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

rt::SchedulerConfig policy_cfg(unsigned threads, rt::StealPolicyKind kind,
                               const char* topo) {
  rt::SchedulerConfig cfg;
  cfg.num_threads = threads;
  cfg.steal_policy = kind;
  cfg.synthetic_topology = topo;
  // Every test here introspects the policy/topology structure of a team of
  // exactly `threads` workers; injected thread-spawn/pin/mailbox faults
  // (CI's RT_FAULT_PLAN legs) would reshape the very structure under test.
  cfg.fault_plan.clear();
  return cfg;
}

// ---------------------------------------------------------------------------
// Topology: synthetic specs are deterministic; bad specs fall through.
// ---------------------------------------------------------------------------

TEST(Topology, SyntheticSpecMapsWorkersBlockwise) {
  const rt::Topology t = rt::Topology::detect(8, "2x4");
  EXPECT_EQ(t.source(), "synthetic");
  EXPECT_EQ(t.num_nodes(), 2u);
  EXPECT_EQ(t.num_workers(), 8u);
  for (unsigned w = 0; w < 4; ++w) EXPECT_EQ(t.node_of(w), 0u) << w;
  for (unsigned w = 4; w < 8; ++w) EXPECT_EQ(t.node_of(w), 1u) << w;
  EXPECT_TRUE(t.same_node(1, 3));
  EXPECT_FALSE(t.same_node(3, 4));
  EXPECT_EQ(t.workers_on(0), (std::vector<unsigned>{0, 1, 2, 3}));
  EXPECT_EQ(t.workers_on(1), (std::vector<unsigned>{4, 5, 6, 7}));
}

TEST(Topology, OversubscribedTeamWrapsAroundNodes) {
  // More workers than nodes*cores: worker (w / cores) % nodes — worker 8 of
  // a 2x4 box lands back on node 0.
  const rt::Topology t = rt::Topology::detect(10, "2x4");
  EXPECT_EQ(t.node_of(8), 0u);
  EXPECT_EQ(t.node_of(9), 0u);
}

TEST(Topology, InvalidSpecsFallBackToDiscovery) {
  for (const char* bad : {"", "x", "2x", "x4", "0x4", "2x0", "2y4", "ax4",
                          "2x4x8", "-1x4"}) {
    unsigned n = 77, c = 77;
    EXPECT_FALSE(rt::Topology::parse_synthetic(bad, n, c)) << bad;
    EXPECT_EQ(n, 77u) << bad;  // outputs untouched on failure
  }
  unsigned n = 0, c = 0;
  EXPECT_TRUE(rt::Topology::parse_synthetic("2x4", n, c));
  EXPECT_EQ(n, 2u);
  EXPECT_EQ(c, 4u);
  const rt::Topology t = rt::Topology::detect(4, "not-a-spec");
  EXPECT_GE(t.num_nodes(), 1u);  // discovery or flat, never zero nodes
  EXPECT_EQ(t.num_workers(), 4u);
}

TEST(Topology, FlatFallbackPutsEveryoneOnOneNode) {
  // A spec the parser rejects on a (likely) single-node host: every worker
  // must land somewhere, and every node list must partition the team.
  const rt::Topology t = rt::Topology::detect(6, "");
  std::size_t listed = 0;
  for (unsigned node = 0; node < t.num_nodes(); ++node) {
    listed += t.workers_on(node).size();
  }
  EXPECT_EQ(listed, 6u);
}

TEST(Topology, SyntheticCpusetsAreTheNodeBlocks) {
  // Node n of an "NxM" spec owns the CPU block [n*M, (n+1)*M) — the cpuset
  // pin_workers pins that node's workers to. Every worker's computed
  // cpuset is its node's block.
  const rt::Topology t = rt::Topology::detect(8, "2x4");
  EXPECT_EQ(t.cpus_on(0), (std::vector<unsigned>{0, 1, 2, 3}));
  EXPECT_EQ(t.cpus_on(1), (std::vector<unsigned>{4, 5, 6, 7}));
  for (unsigned w = 0; w < 8; ++w) {
    const auto& cpus = t.cpus_on(t.node_of(w));
    ASSERT_EQ(cpus.size(), 4u) << "worker " << w;
    EXPECT_EQ(cpus.front(), t.node_of(w) * 4) << "worker " << w;
  }
  // Out-of-range nodes: empty, never a crash.
  EXPECT_TRUE(t.cpus_on(99).empty());
}

TEST(Topology, FlatTopologyHasNoCpusetToPinTo) {
  // The flat fallback carries no locality information: its cpuset is empty
  // and pinning against it is defined to be a clean no-op.
  const rt::Topology t = rt::Topology::detect(4, "not-a-spec");
  if (t.source() == "flat") {
    EXPECT_TRUE(t.cpus_on(0).empty());
  } else {
    // sysfs discovery on a genuinely multi-node host: every node a worker
    // lives on must expose a non-empty cpuset.
    for (unsigned w = 0; w < t.num_workers(); ++w) {
      EXPECT_FALSE(t.cpus_on(t.node_of(w)).empty()) << "worker " << w;
    }
  }
}

// ---------------------------------------------------------------------------
// Worker pinning (cfg.pin_workers / RT_PIN_WORKERS).
// ---------------------------------------------------------------------------

TEST(Pinning, AffinityHelperRejectsImpossibleCpusets) {
  // The unavailable-affinity path must fail CLEANLY: empty cpusets and
  // cpusets entirely outside the kernel's mask range return false and
  // leave the thread's affinity untouched.
  EXPECT_FALSE(rt::pin_current_thread({}));
  EXPECT_FALSE(rt::pin_current_thread({1u << 20}));
  std::vector<unsigned> before;
  if (rt::save_current_affinity(before)) {
    ASSERT_FALSE(before.empty());
    EXPECT_FALSE(rt::pin_current_thread({1u << 20}));
    std::vector<unsigned> after;
    ASSERT_TRUE(rt::save_current_affinity(after));
    EXPECT_EQ(before, after) << "a failed pin modified the thread's mask";
    // And a valid pin round-trips: pin to the saved mask itself.
    EXPECT_TRUE(rt::pin_current_thread(before));
  }
}

TEST(Pinning, PinnedTeamRunsCorrectlyAndReportsPlacement) {
  // A single-node synthetic topology covering the machine's real CPUs: the
  // pin must stick for every worker and be verified by observed placement
  // (stats.pinned records reality, not intent).
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  rt::SchedulerConfig cfg =
      policy_cfg(std::min(4u, hw), rt::StealPolicyKind::hierarchical, "");
  cfg.synthetic_topology = "1x" + std::to_string(hw);
  cfg.pin_workers = true;
  rt::Scheduler s(cfg);
  std::uint64_t r = 0;
  s.run_single([&] { r = fib_task(18, rt::Tiedness::tied); });
  EXPECT_EQ(r, fib_ref(18));
  const auto snap = s.stats();
  EXPECT_EQ(snap.total.pinned, static_cast<std::uint64_t>(s.num_workers()))
      << "a worker failed to pin to a cpuset its own machine exposes";
  for (const auto& per : snap.per_worker) EXPECT_EQ(per.pinned, 1u);
}

TEST(Pinning, MismatchedSyntheticTopologyFallsBackCleanly) {
  // A synthetic "2x4" box on whatever machine this runs on: node 1's CPUs
  // 4..7 may not exist. Pinning must never break execution — workers whose
  // cpuset the machine lacks simply stay unpinned and say so.
  rt::SchedulerConfig cfg = policy_cfg(8, rt::StealPolicyKind::hierarchical,
                                       "2x4");
  cfg.pin_workers = true;
  rt::Scheduler s(cfg);
  std::uint64_t r = 0;
  s.run_single([&] { r = fib_task(20, rt::Tiedness::tied); });
  EXPECT_EQ(r, fib_ref(20));
  const auto snap = s.stats();
  EXPECT_LE(snap.total.pinned, 8u);
  for (const auto& per : snap.per_worker) EXPECT_LE(per.pinned, 1u);
}

TEST(Pinning, ReconfigureRepinsWithHonestReporting) {
  // reconfigure() bumps the pin generation: every worker re-pins to the
  // NEW topology's cpusets at the next region entry. Workers whose new
  // cpuset the machine lacks must come out genuinely unpinned (stats 0,
  // pre-pin mask restored) — never silently left on the old cpuset.
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  rt::SchedulerConfig cfg =
      policy_cfg(4, rt::StealPolicyKind::hierarchical, "");
  cfg.synthetic_topology = "1x" + std::to_string(hw);
  cfg.pin_workers = true;
  rt::Scheduler s(cfg);
  std::uint64_t r = 0;
  s.run_single([&] { r = fib_task(16, rt::Tiedness::tied); });
  EXPECT_EQ(r, fib_ref(16));
  EXPECT_EQ(s.stats().total.pinned, 4u);
  // 64x1 puts worker w alone on node w (cpuset {w}): worker 0 always
  // re-pins (cpu 0 exists everywhere), workers beyond this machine's
  // CPUs exercise the failed-re-pin fallback.
  s.reconfigure(rt::StealPolicyKind::hierarchical, "64x1");
  s.reset_stats();
  s.run_single([&] { r = fib_task(16, rt::Tiedness::tied); });
  EXPECT_EQ(r, fib_ref(16));
  const auto snap = s.stats();
  EXPECT_EQ(snap.per_worker[0].pinned, 1u);
  for (const auto& per : snap.per_worker) EXPECT_LE(per.pinned, 1u);
}

TEST(Pinning, KnobOffReportsNobodyPinned) {
  rt::SchedulerConfig cfg = policy_cfg(4, rt::StealPolicyKind::hierarchical,
                                       "2x2");
  cfg.pin_workers = false;  // explicit: the suite may run under RT_PIN_WORKERS=1
  rt::Scheduler s(cfg);
  s.run_single([] {});
  EXPECT_EQ(s.stats().total.pinned, 0u);
}

// ---------------------------------------------------------------------------
// Victim order: the planning decision itself, fully deterministic.
// ---------------------------------------------------------------------------

TEST(StealPolicy, HierarchicalProbesWholeHomeNodeBeforeCrossing) {
  // Hints off: this test pins the raw tier contract — every round plans the
  // full team, home node strictly first. (With hints on, idle remote nodes
  // are skipped; that behaviour has its own tests below.)
  rt::SchedulerConfig cfg = policy_cfg(8, rt::StealPolicyKind::hierarchical, "2x4");
  cfg.use_node_work_hints = false;
  rt::Scheduler s(cfg);
  // Every planning round, for every worker, whatever the rng rotation:
  // the first three victims are exactly the home-node siblings, the last
  // four exactly the remote node.
  for (unsigned w = 0; w < 8; ++w) {
    const unsigned home = s.topology().node_of(w);
    for (int round = 0; round < 32; ++round) {
      const std::vector<unsigned> order = s.plan_steal_order(w);
      ASSERT_EQ(order.size(), 7u) << "worker " << w;
      std::set<unsigned> seen(order.begin(), order.end());
      ASSERT_EQ(seen.size(), 7u) << "duplicate victim for worker " << w;
      for (std::size_t k = 0; k < 3; ++k) {
        EXPECT_EQ(s.topology().node_of(order[k]), home)
            << "worker " << w << " probe " << k << " crossed early";
      }
      for (std::size_t k = 3; k < 7; ++k) {
        EXPECT_NE(s.topology().node_of(order[k]), home)
            << "worker " << w << " probe " << k << " re-visited home late";
      }
    }
  }
}

TEST(StealPolicy, EveryPolicyPlansAFullValidRound) {
  for (const rt::StealPolicyKind kind :
       {rt::StealPolicyKind::random, rt::StealPolicyKind::sequential,
        rt::StealPolicyKind::last_victim, rt::StealPolicyKind::hierarchical}) {
    rt::SchedulerConfig cfg = policy_cfg(6, kind, "3x2");
    cfg.use_node_work_hints = false;  // plan the full team unconditionally
    rt::Scheduler s(cfg);
    for (int round = 0; round < 16; ++round) {
      const std::vector<unsigned> order = s.plan_steal_order(2);
      ASSERT_EQ(order.size(), 5u) << to_string(kind);
      std::set<unsigned> seen(order.begin(), order.end());
      EXPECT_EQ(seen.size(), 5u) << to_string(kind);
      EXPECT_EQ(seen.count(2), 0u) << to_string(kind) << " listed self";
    }
  }
}

TEST(StealPolicy, HierarchicalOnOneNodeDegeneratesToLastVictim) {
  // Same seed, same team, single node: the hierarchical plan must be the
  // last_victim plan, round for round (the documented degeneration).
  rt::Scheduler hier(policy_cfg(4, rt::StealPolicyKind::hierarchical, "1x4"));
  rt::Scheduler last(policy_cfg(4, rt::StealPolicyKind::last_victim, "1x4"));
  for (int round = 0; round < 32; ++round) {
    EXPECT_EQ(hier.plan_steal_order(1), last.plan_steal_order(1))
        << "round " << round;
  }
}

TEST(StealPolicy, SequentialOrderIsTheNeighborRotation) {
  rt::Scheduler s(policy_cfg(4, rt::StealPolicyKind::sequential, "1x4"));
  EXPECT_EQ(s.plan_steal_order(1), (std::vector<unsigned>{2, 3, 0}));
  EXPECT_EQ(s.plan_steal_order(3), (std::vector<unsigned>{0, 1, 2}));
}

// ---------------------------------------------------------------------------
// Steal locality counters (the per-raid Topology classification).
// ---------------------------------------------------------------------------

/// Force at least one steal: worker 0 publishes a flag-setting task (plus a
/// second spawn so the first is evicted from the private LIFO slot into the
/// stealable deque) and then busy-waits on the flag WITHOUT reaching a task
/// scheduling point — it cannot run the task itself, so a thief must.
rt::StatsSnapshot run_forced_steal(rt::SchedulerConfig cfg) {
  cfg.cutoff = rt::CutoffPolicy::none;
  rt::Scheduler s(cfg);
  std::atomic<bool> stolen{false};
  s.run_single([&stolen] {
    rt::spawn(rt::Tiedness::untied,
              [&stolen] { stolen.store(true, std::memory_order_release); });
    rt::spawn(rt::Tiedness::untied, [] {});
    while (!stolen.load(std::memory_order_acquire)) std::this_thread::yield();
    rt::taskwait();
  });
  return s.stats();
}

TEST(StealPolicy, SingleNodeTopologyNeverCountsRemoteSteals) {
  const auto t =
      run_forced_steal(policy_cfg(4, rt::StealPolicyKind::hierarchical, "1x4"))
          .total;
  EXPECT_EQ(t.steals_remote_node, 0u);
  EXPECT_GT(t.steals_local_node, 0u);  // the forced steal, at least
}

TEST(StealPolicy, EveryWorkerItsOwnNodeCountsOnlyRemoteSteals) {
  // 4 nodes of 1 core: every victim is across the interconnect, so every
  // successful raid must land in steals_remote_node — the counter the
  // hierarchical policy exists to minimize.
  const auto t =
      run_forced_steal(policy_cfg(4, rt::StealPolicyKind::hierarchical, "4x1"))
          .total;
  EXPECT_EQ(t.steals_local_node, 0u);
  EXPECT_GT(t.steals_remote_node, 0u);
}

TEST(StealPolicy, HomeNodeFeedsItsOwnBeforeTheInterconnect) {
  // 2x2, generator on worker 0, with workers 2/3 (node 1) held OUT of the
  // steal race until the region's work is done: worker 1 shares node 0
  // with the generator, so every steal it lands is same-node. Its remote
  // counter must stay zero — under the hierarchical order it never probes
  // node 1 before its home node, and node 1 never has work anyway.
  rt::SchedulerConfig cfg =
      policy_cfg(4, rt::StealPolicyKind::hierarchical, "2x2");
  cfg.cutoff = rt::CutoffPolicy::none;
  rt::Scheduler s(cfg);
  std::atomic<bool> done{false};
  std::atomic<int> executed{0};
  s.run_all([&](unsigned id) {
    if (id >= 2) {
      while (!done.load(std::memory_order_acquire)) std::this_thread::yield();
      return;
    }
    if (id == 0) {
      for (int i = 0; i < 2000; ++i) {
        rt::spawn(rt::Tiedness::untied,
                  [&executed] { executed.fetch_add(1, std::memory_order_relaxed); });
      }
      rt::taskwait();
      done.store(true, std::memory_order_release);
    }
  });
  EXPECT_EQ(executed.load(), 2000);
  const auto per = s.stats().per_worker;
  EXPECT_EQ(per[1].steals_remote_node, 0u)
      << "worker 1 crossed the interconnect despite a loaded home node";
}

// ---------------------------------------------------------------------------
// Per-node has-work hints (cfg.use_node_work_hints): cross-node steal
// throttling with a liveness backoff.
// ---------------------------------------------------------------------------

TEST(StealHints, IdleRemoteNodeIsSkippedUntilTheBackoffRound) {
  // Fresh scheduler, hints on (the default): no node ever published work,
  // so planning rounds skip the whole remote node — except the periodic
  // unconditional round that bounds how long a stale hint can hide work.
  rt::Scheduler s(policy_cfg(8, rt::StealPolicyKind::hierarchical, "2x4"));
  ASSERT_TRUE(s.config().use_node_work_hints);
  int full_rounds = 0;
  int gated_rounds = 0;
  for (int round = 0; round < 40; ++round) {
    const std::vector<unsigned> order = s.plan_steal_order(0);
    if (order.size() == 7u) {
      ++full_rounds;  // the unconditional backoff round probes everyone
    } else {
      ASSERT_EQ(order.size(), 3u) << "round " << round;
      for (const unsigned v : order) {
        EXPECT_EQ(s.topology().node_of(v), s.topology().node_of(0u));
      }
      ++gated_rounds;
    }
  }
  EXPECT_GT(full_rounds, 0) << "no unconditional round: stale hints starve";
  EXPECT_GT(gated_rounds, 4 * full_rounds)
      << "gating saved too few probe rounds to be worth the hint word";
  EXPECT_GT(s.stats().total.remote_probes_skipped, 0u);
}

TEST(StealHints, OneNodeIdleSkipsRemoteProbesWithUnchangedResults) {
  // The acceptance scenario: 2x2 hierarchical, all work on node 0, node 1
  // held idle inside the region body. Node-0 workers must keep planning
  // without paying node-1 probes (remote_probes_skipped > 0) while the
  // computation is exactly as correct as without hints.
  rt::SchedulerConfig cfg =
      policy_cfg(4, rt::StealPolicyKind::hierarchical, "2x2");
  cfg.cutoff = rt::CutoffPolicy::none;
  ASSERT_TRUE(cfg.use_node_work_hints);
  rt::Scheduler s(cfg);
  std::atomic<bool> done{false};
  std::atomic<int> executed{0};
  s.run_all([&](unsigned id) {
    if (id >= 2) {  // node 1: idle until the work is gone
      while (!done.load(std::memory_order_acquire)) std::this_thread::yield();
      return;
    }
    if (id == 0) {
      for (int i = 0; i < 2000; ++i) {
        rt::spawn(rt::Tiedness::untied, [&executed] {
          executed.fetch_add(1, std::memory_order_relaxed);
        });
      }
      rt::taskwait();
      done.store(true, std::memory_order_release);
    }
  });
  EXPECT_EQ(executed.load(), 2000);
  EXPECT_GT(s.stats().total.remote_probes_skipped, 0u)
      << "an all-idle remote node was still probed every round";
}

TEST(StealHints, ForcedRemoteStealStillSucceedsWithHintsOn) {
  // Liveness: every-worker-its-own-node means the only way work moves is
  // across the interconnect. The generator's enqueue publishes its node's
  // hint, so remote thieves must still find it — the run completing at all
  // proves no hint-induced starvation.
  rt::SchedulerConfig cfg =
      policy_cfg(4, rt::StealPolicyKind::hierarchical, "4x1");
  ASSERT_TRUE(cfg.use_node_work_hints);
  const auto t = run_forced_steal(cfg).total;
  EXPECT_EQ(t.steals_local_node, 0u);
  EXPECT_GT(t.steals_remote_node, 0u);
}

TEST(StealHints, KnobOffNeverSkips) {
  rt::SchedulerConfig cfg =
      policy_cfg(4, rt::StealPolicyKind::hierarchical, "2x2");
  cfg.use_node_work_hints = false;
  rt::Scheduler s(cfg);
  for (int round = 0; round < 8; ++round) {
    EXPECT_EQ(s.plan_steal_order(0).size(), 3u);
  }
  EXPECT_EQ(s.stats().total.remote_probes_skipped, 0u);
}

// ---------------------------------------------------------------------------
// reconfigure(): policy/topology swap between regions must not leak stale
// per-worker victim state (the PR-4 bugfix).
// ---------------------------------------------------------------------------

TEST(StealPolicy, ReconfigureClearsStaleVictimHints) {
  // Sequential base rotation makes plans fully deterministic modulo the
  // affinity hint. Plant a hint (set_victim_hint, the introspection seam —
  // a hint earned by a real steal rarely survives the region-end idle
  // drain), verify it leads the plan, then reconfigure: the hint MUST be
  // dropped — a victim learned under the old configuration is meaningless
  // (or off-node, or out of range) under the new one.
  rt::SchedulerConfig cfg =
      policy_cfg(4, rt::StealPolicyKind::last_victim, "1x4");
  cfg.victim = rt::VictimPolicy::sequential;
  rt::Scheduler s(cfg);
  const auto rotation = [](unsigned w) {
    std::vector<unsigned> order;
    for (unsigned k = 0; k < 4; ++k) {
      const unsigned v = (w + 1 + k) % 4;
      if (v != w) order.push_back(v);
    }
    return order;
  };
  s.set_victim_hint(1, 3);
  ASSERT_EQ(s.plan_steal_order(1),
            (std::vector<unsigned>{3, 2, 0}))  // the hint leads the plan
      << "precondition: the planted hint should reorder the rotation";
  s.reconfigure(rt::StealPolicyKind::last_victim, "1x4");
  for (unsigned w = 0; w < 4; ++w) {
    EXPECT_EQ(s.plan_steal_order(w), rotation(w))
        << "worker " << w << " kept a stale victim across reconfigure";
  }
}

TEST(StealPolicy, ReconfigureResetsTheHintBackoffCounter) {
  // The hierarchical hint gate counts consecutive gated rounds per worker.
  // Reconfiguring swaps the hint array out from under that counter, so it
  // must restart: the first post-reconfigure rounds are all gated again
  // (16 of them before the next unconditional round).
  rt::Scheduler s(policy_cfg(8, rt::StealPolicyKind::hierarchical, "2x4"));
  ASSERT_TRUE(s.config().use_node_work_hints);
  for (int round = 0; round < 10; ++round) {
    ASSERT_EQ(s.plan_steal_order(0).size(), 3u);  // gated: counter at 10
  }
  s.reconfigure(rt::StealPolicyKind::hierarchical, "2x4");
  for (int round = 0; round < 16; ++round) {
    EXPECT_EQ(s.plan_steal_order(0).size(), 3u)
        << "round " << round
        << ": stale backoff state survived reconfigure";
  }
  EXPECT_EQ(s.plan_steal_order(0).size(), 7u);  // the 17th round is full
}

TEST(StealPolicy, ReconfigureRemapsWorkerNodesForLocalityCounters) {
  // 1x4 -> 4x1 between regions: every steal after the swap is cross-node.
  // Stale cached Worker::node ids would misclassify them (and address the
  // wrong has-work hint word).
  rt::SchedulerConfig cfg =
      policy_cfg(4, rt::StealPolicyKind::hierarchical, "1x4");
  cfg.cutoff = rt::CutoffPolicy::none;
  rt::Scheduler s(cfg);
  std::atomic<bool> warm{false};
  s.run_single([&warm] {
    rt::spawn(rt::Tiedness::untied,
              [&warm] { warm.store(true, std::memory_order_release); });
    rt::spawn(rt::Tiedness::untied, [] {});
    while (!warm.load(std::memory_order_acquire)) std::this_thread::yield();
    rt::taskwait();
  });
  s.reconfigure(rt::StealPolicyKind::hierarchical, "4x1");
  EXPECT_EQ(s.topology().num_nodes(), 4u);
  s.reset_stats();
  std::atomic<bool> stolen{false};
  s.run_single([&stolen] {
    rt::spawn(rt::Tiedness::untied,
              [&stolen] { stolen.store(true, std::memory_order_release); });
    rt::spawn(rt::Tiedness::untied, [] {});
    while (!stolen.load(std::memory_order_acquire)) std::this_thread::yield();
    rt::taskwait();
  });
  const auto t = s.stats().total;
  EXPECT_EQ(t.steals_local_node, 0u)
      << "a steal was classified with a stale pre-reconfigure node id";
  EXPECT_GT(t.steals_remote_node, 0u);
}

// ---------------------------------------------------------------------------
// Owner-return descriptor pools (cfg.use_node_pools / RT_NODE_POOLS): every
// freed descriptor goes back to the worker that carved it, through batched
// per-owner stashes, and the between-regions balance is exact.
// ---------------------------------------------------------------------------

/// Sum of a node-pool snapshot's resting places, asserting the between-
/// regions balance: nothing in transit, and every descriptor ever carved by
/// a node's workers resting in its owner's pool (freelist + return list) —
/// i.e. every free by a non-owner landed home.
void expect_pool_balance(const rt::Scheduler& s) {
  const auto snap = s.node_pool_snapshot();
  for (std::size_t n = 0; n < snap.size(); ++n) {
    EXPECT_EQ(snap[n].in_transit, 0u)
        << "node " << n << ": unflushed stash after region end";
    EXPECT_EQ(snap[n].cached + snap[n].arena_free, snap[n].arena_carved)
        << "node " << n << ": descriptors rest off their birth node";
  }
}

TEST(NodePools, SingleNodeTopologyReturnsDescriptorsToOwners) {
  // Owner-return is not a NUMA-only mode: on one locality domain stolen
  // descriptors still go back to the worker that carved them, so the
  // per-node balance view is live and exact on a flat box too.
  rt::SchedulerConfig cfg =
      policy_cfg(4, rt::StealPolicyKind::hierarchical, "1x4");
  cfg.cutoff = rt::CutoffPolicy::none;
  cfg.use_node_pools = true;  // pin against RT_NODE_POOLS=0 legs
  rt::Scheduler s(cfg);
  EXPECT_TRUE(s.node_pools_active());
  EXPECT_EQ(s.node_pool_snapshot().size(), 1u);
  std::uint64_t r = 0;
  s.run_single([&] { r = fib_task(18, rt::Tiedness::tied); });
  EXPECT_EQ(r, fib_ref(18));
  const auto t = s.stats().total;
  EXPECT_EQ(t.pool_home_frees, t.pool_reuse + t.pool_fresh);
  EXPECT_EQ(t.pool_remote_frees, 0u);
  expect_pool_balance(s);
}

TEST(NodePools, OneWorkerMatchesWorkerPoolsCounterForCounter) {
  // One worker: every free is by the owner, so the same deterministic
  // workload must produce the exact same pool counter stream with the knob
  // on and off — owner-return adds nothing to the owner's own frees.
  auto counters = [](bool node_pools) {
    rt::SchedulerConfig cfg =
        policy_cfg(1, rt::StealPolicyKind::hierarchical, "1x1");
    cfg.cutoff = rt::CutoffPolicy::none;
    cfg.use_node_pools = node_pools;
    rt::Scheduler s(cfg);
    std::uint64_t r = 0;
    s.run_single([&] { r = fib_task(16, rt::Tiedness::tied); });
    EXPECT_EQ(r, fib_ref(16));
    return s.stats().total;
  };
  const auto on = counters(true);
  const auto off = counters(false);
  EXPECT_EQ(on.pool_reuse, off.pool_reuse);
  EXPECT_EQ(on.pool_fresh, off.pool_fresh);
  EXPECT_EQ(on.pool_home_frees, off.pool_home_frees);
  EXPECT_EQ(on.pool_remote_frees, 0u);
  EXPECT_EQ(off.pool_remote_frees, 0u);
}

TEST(NodePools, CrossNodeStealRetiresDescriptorsToTheirBirthNode) {
  // Every worker its own node (4x1): any successful steal crosses the
  // interconnect, so the stolen task's descriptor dies on a foreign node.
  // With node pools ON it must go back to its owner through a stash — a
  // remote free never happens (the acceptance criterion and the CI
  // tripwire), the in-transit high-water shows the flight, and the
  // between-regions balance proves the landing.
  rt::SchedulerConfig cfg =
      policy_cfg(4, rt::StealPolicyKind::hierarchical, "4x1");
  cfg.cutoff = rt::CutoffPolicy::none;
  cfg.use_node_pools = true;  // pin against RT_NODE_POOLS=0 legs
  rt::Scheduler s(cfg);
  ASSERT_TRUE(s.node_pools_active());
  std::atomic<bool> stolen{false};
  s.run_single([&stolen] {
    rt::spawn(rt::Tiedness::untied,
              [&stolen] { stolen.store(true, std::memory_order_release); });
    rt::spawn(rt::Tiedness::untied, [] {});
    while (!stolen.load(std::memory_order_acquire)) std::this_thread::yield();
    rt::taskwait();
  });
  const auto t = s.stats().total;
  EXPECT_GT(t.steals_remote_node, 0u);  // the forced cross-node steal
  EXPECT_EQ(t.pool_remote_frees, 0u)
      << "a descriptor retired into a pool off its birth node";
  EXPECT_GT(t.pool_home_frees, 0u);
  EXPECT_GT(t.pool_migrations, 0u)
      << "a cross-node-finished descriptor never rode a stash";
  expect_pool_balance(s);
}

TEST(NodePools, WorkerPoolsCountTheDriftNodePoolsRemove) {
  // The same forced cross-node steal with the knob OFF: the thief recycles
  // the stolen descriptor into its own freelist, and the drift counter
  // must say so — this is the measurable difference the feature exists to
  // remove, and the A/B the ablation bench reports.
  rt::SchedulerConfig cfg =
      policy_cfg(4, rt::StealPolicyKind::hierarchical, "4x1");
  cfg.use_node_pools = false;
  const auto t = run_forced_steal(cfg).total;
  EXPECT_GT(t.steals_remote_node, 0u);
  EXPECT_GT(t.pool_remote_frees, 0u)
      << "knob off must reproduce (and count) the historical drift";
  EXPECT_EQ(t.pool_migrations, 0u);  // no stashes without node pools
}

TEST(NodePools, HeavyStealTrafficStaysBalancedAcrossRegions) {
  // A task flood across a 2x4 box, twice, with stats reset in between:
  // thousands of steals, every descriptor repeatedly reused — the balance
  // and the remote-free zero must hold after every region, and the second
  // region must be served mostly from recycled home memory (reuse >>
  // fresh).
  rt::SchedulerConfig cfg =
      policy_cfg(8, rt::StealPolicyKind::hierarchical, "2x4");
  cfg.cutoff = rt::CutoffPolicy::none;
  cfg.use_node_pools = true;
  rt::Scheduler s(cfg);
  ASSERT_TRUE(s.node_pools_active());
  for (int round = 0; round < 2; ++round) {
    std::uint64_t r = 0;
    s.run_single([&] { r = fib_task(21, rt::Tiedness::untied); });
    ASSERT_EQ(r, fib_ref(21));
    const auto t = s.stats().total;
    EXPECT_EQ(t.pool_remote_frees, 0u) << "round " << round;
    EXPECT_EQ(t.pool_home_frees, t.pool_reuse + t.pool_fresh)
        << "round " << round << ": an allocated descriptor was never freed";
    expect_pool_balance(s);
    s.reset_stats();
  }
}

TEST(NodePools, ProducerConsumerFlowKeepsCarvingBounded) {
  // Worker 0 generates waves of tasks and busy-waits them out (never
  // reaching a scheduling point), so its same-node sibling consumes them.
  // The sibling must hand the consumed descriptors back to the generator —
  // otherwise the generator finds its pool empty every wave and carves
  // fresh chunk slots at task scale (memory O(total tasks) instead of
  // O(peak live)). The bound is one-sided: whatever share the sibling
  // actually won, total carving must stay at stash scale.
  rt::SchedulerConfig cfg =
      policy_cfg(4, rt::StealPolicyKind::hierarchical, "2x2");
  cfg.cutoff = rt::CutoffPolicy::none;
  cfg.lifo_slot = false;  // a slot entry is invisible while the generator spins
  cfg.use_node_pools = true;
  rt::Scheduler s(cfg);
  ASSERT_TRUE(s.node_pools_active());
  constexpr int waves = 100;
  constexpr int per_wave = 40;
  std::atomic<bool> done{false};
  std::atomic<int> executed{0};
  s.run_all([&](unsigned id) {
    if (id >= 2) {  // node 1: held out — keep the flow intra-node
      while (!done.load(std::memory_order_acquire)) std::this_thread::yield();
      return;
    }
    if (id == 0) {
      for (int wv = 1; wv <= waves; ++wv) {
        for (int i = 0; i < per_wave; ++i) {
          rt::spawn(rt::Tiedness::untied, [&executed] {
            executed.fetch_add(1, std::memory_order_relaxed);
          });
        }
        while (executed.load(std::memory_order_acquire) < wv * per_wave) {
          std::this_thread::yield();
        }
      }
      rt::taskwait();
      done.store(true, std::memory_order_release);
    }
  });
  EXPECT_EQ(executed.load(), waves * per_wave);
  const auto snap = s.node_pool_snapshot();
  std::size_t carved = 0;
  for (const auto& e : snap) carved += e.arena_carved;
  EXPECT_LE(carved, 512u)
      << "pools grew at task scale: consumed descriptors are not going "
         "back to the generator";
  expect_pool_balance(s);
}

// ---------------------------------------------------------------------------
// Hint-aware range placement (cfg.use_hint_placement / RT_HINT_PLACEMENT).
// ---------------------------------------------------------------------------

TEST(HintPlacement, PlacementPlanFollowsTheHintWords) {
  // The deterministic pin on the decision rule itself: redirect exactly
  // when home advertises surplus AND a populated remote node's word is
  // clear; nearest such node wins. Driven between regions by setting the
  // NodeHints words directly.
  rt::Scheduler s(policy_cfg(6, rt::StealPolicyKind::hierarchical, "3x2"));
  auto* hints = s.node_hints();
  ASSERT_NE(hints, nullptr);
  // No local surplus: never redirect, whatever the remote words say.
  hints->clear(0);
  hints->clear(1);
  hints->clear(2);
  EXPECT_EQ(s.plan_range_placement(0), rt::StealPolicy::no_node);
  // Local surplus + both remotes clear: the nearest remote node wins.
  hints->publish(0);
  EXPECT_EQ(s.plan_range_placement(0), 1u);
  // Nearest remote fed, farther one hungry: skip to the hungry one.
  hints->publish(1);
  EXPECT_EQ(s.plan_range_placement(0), 2u);
  // Everybody fed: keep the half local.
  hints->publish(2);
  EXPECT_EQ(s.plan_range_placement(0), rt::StealPolicy::no_node);
  // The scan is relative to the splitter's home node (worker 2 lives on
  // node 1): its nearest hungry remote is node 2.
  hints->clear(2);
  hints->publish(1);
  EXPECT_EQ(s.plan_range_placement(2), 2u);
}

TEST(HintPlacement, NeverTargetsANodeWithoutWorkers) {
  // 8 nodes of 1 core but only 4 workers: nodes 4..7 exist in the spec but
  // hold nobody — nobody would ever drain their mailbox, so the placement
  // scan must skip them even though their hint words are clear.
  rt::Scheduler s(policy_cfg(4, rt::StealPolicyKind::hierarchical, "8x1"));
  auto* hints = s.node_hints();
  ASSERT_NE(hints, nullptr);
  hints->publish(0);  // local surplus on worker 0's node
  // All words clear: the nearest POPULATED node wins (1, not an empty one).
  EXPECT_EQ(s.plan_range_placement(0), 1u);
  // Every populated remote node fed: nodes 4..7 are clear but hold nobody,
  // so the plan must fall back to "keep it local", never a dead mailbox.
  hints->publish(1);
  hints->publish(2);
  hints->publish(3);
  EXPECT_EQ(s.plan_range_placement(0), rt::StealPolicy::no_node);
}

TEST(HintPlacement, InertWithoutHintsOrOffKnob) {
  // The placement layer piggybacks on NodeHints: hints off, single node,
  // or the placement knob itself off must all plan "keep it local".
  rt::SchedulerConfig no_hints =
      policy_cfg(4, rt::StealPolicyKind::hierarchical, "2x2");
  no_hints.use_node_work_hints = false;
  rt::Scheduler a(no_hints);
  EXPECT_EQ(a.plan_range_placement(0), rt::StealPolicy::no_node);

  rt::Scheduler b(policy_cfg(4, rt::StealPolicyKind::hierarchical, "1x4"));
  EXPECT_EQ(b.plan_range_placement(0), rt::StealPolicy::no_node);

  rt::SchedulerConfig off =
      policy_cfg(4, rt::StealPolicyKind::hierarchical, "2x2");
  off.use_hint_placement = false;
  rt::Scheduler c(off);
  if (c.node_hints() != nullptr) c.node_hints()->publish(0);
  // The introspection reflects what the scheduler would DO: knob off means
  // no mailboxes, so the plan is "keep it local" even though the policy's
  // hint rule would have preferred node 1.
  EXPECT_EQ(c.plan_range_placement(0), rt::StealPolicy::no_node);
  std::atomic<std::uint32_t> hits{0};
  c.run_single([&] {
    rt::spawn_range(rt::Tiedness::untied, 0, 5000, 1,
                    [&hits](std::int64_t) {
                      hits.fetch_add(1, std::memory_order_relaxed);
                    });
    rt::taskwait();
  });
  EXPECT_EQ(hits.load(), 5000u);
  EXPECT_EQ(c.stats().total.range_halves_redirected, 0u)
      << "knob off must never mail a half";
}

TEST(HintPlacement, RedirectsHalvesToTheIdleNodeWithExactCoverage) {
  // The acceptance scenario: a 2x2 box whose node-1 workers are held
  // inside the region body (they never steal, so node 1's word stays
  // clear) while node 0 chews a big range. Splits on the saturated node
  // must mail at least one half to node 1's mailbox — and every iteration
  // still runs exactly once, wherever the halves landed.
  rt::SchedulerConfig cfg =
      policy_cfg(4, rt::StealPolicyKind::hierarchical, "2x2");
  cfg.cutoff = rt::CutoffPolicy::none;
  ASSERT_TRUE(cfg.use_hint_placement);
  rt::Scheduler s(cfg);
  constexpr std::int64_t n = 20000;
  std::vector<std::atomic<std::uint8_t>> hits(n);
  std::atomic<bool> done{false};
  s.run_all([&](unsigned id) {
    if (id >= 2) {  // node 1: provably hungry, word never published
      while (!done.load(std::memory_order_acquire)) std::this_thread::yield();
      return;
    }
    if (id == 0) {
      rt::spawn_range(rt::Tiedness::untied, 0, n, 1,
                      [&hits](std::int64_t i) {
                        hits[static_cast<std::size_t>(i)].fetch_add(
                            1, std::memory_order_relaxed);
                      });
      rt::taskwait();  // joins the range and every mailed half (liveness:
                       // the idle sweep reaches remote mailboxes)
      done.store(true, std::memory_order_release);
    }
  });
  for (std::int64_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1u) << i;
  }
  EXPECT_GT(s.stats().total.range_halves_redirected, 0u)
      << "no half was mailed to the provably idle node";
}

TEST(HintPlacement, MailboxDeliversExactlyOnceUnderConcurrentDrain) {
  // The RangeMailbox contract in isolation: concurrent pushers and
  // drainers, every task delivered to exactly one drainer, none lost,
  // none duplicated, FIFO per producer not required — only exactly-once.
  constexpr std::size_t producers = 4;
  constexpr std::size_t per_producer = 512;
  constexpr std::size_t total = producers * per_producer;
  std::vector<rt::Task> tasks(total);
  std::vector<std::atomic<std::uint32_t>> seen(total);
  rt::RangeMailbox box;
  std::atomic<std::size_t> drained{0};
  std::vector<std::thread> threads;
  for (std::size_t p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      for (std::size_t i = 0; i < per_producer; ++i) {
        box.push(&tasks[p * per_producer + i]);
      }
    });
  }
  for (std::size_t c = 0; c < 4; ++c) {
    threads.emplace_back([&] {
      while (drained.load(std::memory_order_acquire) < total) {
        rt::Task* t = box.pop();
        if (t == nullptr) {
          std::this_thread::yield();
          continue;
        }
        const std::size_t idx = static_cast<std::size_t>(t - tasks.data());
        seen[idx].fetch_add(1, std::memory_order_relaxed);
        drained.fetch_add(1, std::memory_order_release);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_TRUE(box.empty());
  EXPECT_EQ(box.pop(), nullptr);
  for (std::size_t i = 0; i < total; ++i) {
    ASSERT_EQ(seen[i].load(), 1u) << "task " << i;
  }
}

// ---------------------------------------------------------------------------
// A/B output identity: both new knobs, across the three kernel shapes the
// issue names (alignment rows / sort merges / fft butterflies). The knobs
// move descriptor memory and half placement, never results.
// ---------------------------------------------------------------------------

/// Kernel outputs under a 2x4 hierarchical box with the given knob states.
struct KnobOutputs {
  std::vector<int> alignment;
  std::vector<bots::sort::Elm> sorted;
  std::vector<bots::fft::Complex> fft;
};

KnobOutputs kernel_outputs(bool node_pools, bool hint_placement) {
  rt::SchedulerConfig cfg =
      policy_cfg(8, rt::StealPolicyKind::hierarchical, "2x4");
  cfg.use_node_pools = node_pools;
  cfg.use_hint_placement = hint_placement;
  rt::Scheduler s(cfg);
  KnobOutputs out;
  {
    const auto p = bots::alignment::params_for(bots::core::InputClass::test);
    const auto seqs = bots::alignment::make_input(p);
    out.alignment = bots::alignment::run_parallel(p, seqs, s, {});
  }
  {
    const auto p = bots::sort::params_for(bots::core::InputClass::test);
    out.sorted = bots::sort::make_input(p);
    bots::sort::run_parallel(p, out.sorted, s, {});
  }
  {
    const auto p = bots::fft::params_for(bots::core::InputClass::test);
    out.fft = bots::fft::make_input(p);
    bots::fft::run_parallel(p, out.fft, s, {});
  }
  return out;
}

TEST(KnobIdentity, NodePoolsNeverChangeKernelOutputs) {
  const KnobOutputs on = kernel_outputs(true, true);
  const KnobOutputs off = kernel_outputs(false, true);
  EXPECT_EQ(on.alignment, off.alignment);
  EXPECT_EQ(on.sorted, off.sorted);
  EXPECT_EQ(on.fft, off.fft);  // bitwise: same per-element float operations
}

TEST(KnobIdentity, HintPlacementNeverChangesKernelOutputs) {
  const KnobOutputs on = kernel_outputs(true, true);
  const KnobOutputs off = kernel_outputs(true, false);
  EXPECT_EQ(on.alignment, off.alignment);
  EXPECT_EQ(on.sorted, off.sorted);
  EXPECT_EQ(on.fft, off.fft);
}

// ---------------------------------------------------------------------------
// Correctness sweeps: every policy, multi-node synthetic boxes, tied and
// untied, range tasks included.
// ---------------------------------------------------------------------------

struct PolicyTopoCase {
  rt::StealPolicyKind kind;
  const char* topo;
  rt::Tiedness tied;
};

class PolicyTopoMatrix : public ::testing::TestWithParam<PolicyTopoCase> {};

TEST_P(PolicyTopoMatrix, FibCorrect) {
  const PolicyTopoCase pc = GetParam();
  rt::Scheduler s(policy_cfg(8, pc.kind, pc.topo));
  std::uint64_t r = 0;
  s.run_single([&] { r = fib_task(20, pc.tied); });
  EXPECT_EQ(r, fib_ref(20));
}

TEST_P(PolicyTopoMatrix, RangeTasksCoverExactlyOnce) {
  const PolicyTopoCase pc = GetParam();
  rt::Scheduler s(policy_cfg(8, pc.kind, pc.topo));
  constexpr std::int64_t n = 10000;
  std::vector<std::atomic<std::uint32_t>> hits(n);
  rt::SingleGate gate(s.num_workers());
  s.run_all([&](unsigned) {
    rt::single_nowait(gate, [&] {
      rt::spawn_range(pc.tied, 0, n, 1, [&hits](std::int64_t i) {
        hits[static_cast<std::size_t>(i)].fetch_add(1,
                                                    std::memory_order_relaxed);
      });
    });
  });
  for (std::int64_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1u) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, PolicyTopoMatrix,
    ::testing::Values(
        PolicyTopoCase{rt::StealPolicyKind::random, "2x4",
                       rt::Tiedness::untied},
        PolicyTopoCase{rt::StealPolicyKind::sequential, "4x2",
                       rt::Tiedness::tied},
        PolicyTopoCase{rt::StealPolicyKind::last_victim, "2x4",
                       rt::Tiedness::tied},
        PolicyTopoCase{rt::StealPolicyKind::hierarchical, "2x4",
                       rt::Tiedness::untied},
        PolicyTopoCase{rt::StealPolicyKind::hierarchical, "2x4",
                       rt::Tiedness::tied},
        PolicyTopoCase{rt::StealPolicyKind::hierarchical, "8x1",
                       rt::Tiedness::tied},
        PolicyTopoCase{rt::StealPolicyKind::hierarchical, "3x3",
                       rt::Tiedness::untied}),
    [](const auto& info) {
      std::string topo = info.param.topo;
      std::replace(topo.begin(), topo.end(), 'x', '_');
      return std::string(to_string(info.param.kind)) + "_" + topo + "_" +
             to_string(info.param.tied);
    });

TEST(StealPolicy, LegacyKnobsStillSelectTheOldPolicies) {
  rt::SchedulerConfig cfg;
  cfg.steal_policy = rt::StealPolicyKind::legacy;
  cfg.victim_affinity = true;
  EXPECT_EQ(cfg.resolved_steal_policy(), rt::StealPolicyKind::last_victim);
  cfg.victim_affinity = false;
  cfg.victim = rt::VictimPolicy::sequential;
  EXPECT_EQ(cfg.resolved_steal_policy(), rt::StealPolicyKind::sequential);
  cfg.victim = rt::VictimPolicy::random;
  EXPECT_EQ(cfg.resolved_steal_policy(), rt::StealPolicyKind::random);
  cfg.steal_policy = rt::StealPolicyKind::hierarchical;
  EXPECT_EQ(cfg.resolved_steal_policy(), rt::StealPolicyKind::hierarchical);
}

}  // namespace
