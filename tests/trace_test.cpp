// Tracing + pathology-detection tests (PR 10, trace.hpp / pathology.hpp):
//
//  * TraceRing mechanics: wraparound overwrites oldest, drain is
//    exactly-once, dropped accounting,
//  * drained records against WorkerStats, per worker:
//    spawn records == tasks_deferred + tasks_inlined_fast,
//    sum of steal-hit args == tasks_stolen, park == tsc_parked,
//    unpark == parked_claimed, split == range_splits,
//  * the knob-off zero-cost baseline: RT_TRACE=0 allocates nothing and
//    leaves every Worker::ring null,
//  * one synthetic provocation per pathology detector — serialized creation
//    (spawn-from-root-only), depth-first starvation (max_depth cutoff
//    inlining everything), cross-node ping-pong (forced symmetric cross-node
//    mailing/stealing) — each asserting the detector FIRES,
//  * the same detectors staying QUIET on healthy default-config runs,
//  * the Chrome-trace exporter writing loadable JSON, and TaskServer
//    request slices (request_start == request_end).
#include <atomic>
#include <cstdio>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/rt.hpp"

namespace rt = bots::rt;

namespace {

std::uint64_t spawn_fib(int n) {
  if (n < 2) return static_cast<std::uint64_t>(n);
  std::uint64_t a = 0, b = 0;
  rt::spawn([&a, n] { a = spawn_fib(n - 1); });
  rt::spawn([&b, n] { b = spawn_fib(n - 2); });
  rt::taskwait();
  return a + b;
}

std::uint64_t fib_ref(int n) {
  std::uint64_t a = 0, b = 1;
  for (int i = 0; i < n; ++i) {
    const std::uint64_t t = a + b;
    a = b;
    b = t;
  }
  return a;
}

}  // namespace

// ---------------------------------------------------------------------------
// Ring mechanics.
// ---------------------------------------------------------------------------

TEST(TraceRing, DrainIsExactlyOnce) {
  rt::TraceRing ring(64);
  for (int i = 0; i < 10; ++i)
    ring.record(rt::TraceEvent::spawn, static_cast<std::uint64_t>(i));
  std::vector<rt::TraceRecord> out;
  ring.drain(out);
  ASSERT_EQ(out.size(), 10u);
  for (int i = 0; i < 10; ++i)
    EXPECT_EQ(out[static_cast<std::size_t>(i)].arg,
              static_cast<std::uint64_t>(i));
  // A second drain with nothing new yields nothing (exactly-once).
  out.clear();
  ring.drain(out);
  EXPECT_TRUE(out.empty());
  // New records after a drain surface exactly once too.
  ring.record(rt::TraceEvent::park, 99);
  ring.drain(out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].arg, 99u);
  EXPECT_EQ(ring.dropped(), 0u);
}

TEST(TraceRing, WraparoundKeepsNewestAndCountsDropped) {
  rt::TraceRing ring(16);  // capacity rounds to a power of two
  const std::uint64_t cap = ring.capacity();
  const std::uint64_t total = 3 * cap + 5;
  for (std::uint64_t i = 0; i < total; ++i)
    ring.record(rt::TraceEvent::spawn, i);
  std::vector<rt::TraceRecord> out;
  ring.drain(out);
  // The ring keeps exactly the newest `cap` records...
  ASSERT_EQ(out.size(), cap);
  for (std::uint64_t i = 0; i < cap; ++i)
    EXPECT_EQ(out[i].arg, total - cap + i);
  // ...and counts everything overwritten as dropped.
  EXPECT_EQ(ring.dropped(), total - cap);
}

// ---------------------------------------------------------------------------
// Conservation against WorkerStats, and the knob-off baseline.
// ---------------------------------------------------------------------------

TEST(TraceConservation, SpawnStealParkEventsMatchWorkerStats) {
  rt::SchedulerConfig cfg;
  cfg.num_threads = 4;
  cfg.trace = true;
  cfg.trace_buf = 1 << 18;  // room for a whole region: nothing is dropped
  rt::Scheduler sched(cfg);
  std::uint64_t got = 0;
  sched.run_single([&] { got = spawn_fib(22); });
  std::atomic<std::uint64_t> range_sum{0};
  sched.run_single([&] {
    rt::spawn_range(0, 50000, 16, [&](std::int64_t i) {
      range_sum.fetch_add(static_cast<std::uint64_t>(i) & 1,
                          std::memory_order_relaxed);
    });
    rt::taskwait();
  });
  EXPECT_EQ(got, fib_ref(22));
  EXPECT_EQ(range_sum.load(), 25000u);

  rt::TraceCollector* tc = sched.tracer();
  ASSERT_NE(tc, nullptr);
  tc->drain_all();
  ASSERT_EQ(tc->dropped(), 0u);
  const rt::StatsSnapshot snap = sched.stats();
  ASSERT_EQ(tc->num_workers(), snap.per_worker.size());
  std::uint64_t spawn_total = 0;
  for (unsigned i = 0; i < tc->num_workers(); ++i) {
    std::uint64_t spawn = 0, stolen = 0, park = 0, unpark = 0, split = 0;
    for (const rt::TraceRecord& r : tc->events(i)) {
      switch (static_cast<rt::TraceEvent>(r.type)) {
        case rt::TraceEvent::spawn: ++spawn; break;
        case rt::TraceEvent::steal_hit: stolen += r.arg; break;
        case rt::TraceEvent::park: ++park; break;
        case rt::TraceEvent::unpark: ++unpark; break;
        case rt::TraceEvent::split: ++split; break;
        default: break;
      }
    }
    spawn_total += spawn;
    const rt::WorkerStats& ws = snap.per_worker[i];
    // Every deferred or fast-inlined spawn left exactly one spawn record
    // (split halves included on the deferred side).
    EXPECT_EQ(spawn, ws.tasks_deferred + ws.tasks_inlined_fast)
        << "worker " << i;
    // A steal_hit record carries the raid's task count.
    EXPECT_EQ(stolen, ws.tasks_stolen) << "worker " << i;
    EXPECT_EQ(park, ws.tsc_parked) << "worker " << i;
    EXPECT_EQ(unpark, ws.parked_claimed) << "worker " << i;
    EXPECT_EQ(split, ws.range_splits) << "worker " << i;
  }
  EXPECT_EQ(spawn_total,
            snap.total.tasks_deferred + snap.total.tasks_inlined_fast);
}

TEST(TraceKnob, OffCostsNothingAndAllocatesNothing) {
  rt::SchedulerConfig cfg;
  cfg.num_threads = 4;
  cfg.trace = false;  // the default — pinned here against env drift
  rt::Scheduler sched(cfg);
  // Zero-cost baseline: no collector, no rings — every event site reduces
  // to one predictable null-pointer branch.
  EXPECT_EQ(sched.tracer(), nullptr);
  std::uint64_t got = 0;
  sched.run_single([&] { got = spawn_fib(20); });
  EXPECT_EQ(got, fib_ref(20));
  EXPECT_EQ(sched.tracer(), nullptr);
}

// ---------------------------------------------------------------------------
// Pathology provocations: each detector fires on its synthetic pattern.
// ---------------------------------------------------------------------------

TEST(TracePathology, CreationSerializationFiresOnRootOnlySpawns) {
  rt::SchedulerConfig cfg;
  cfg.num_threads = 4;
  cfg.trace = true;
  cfg.cutoff = rt::CutoffPolicy::none;  // every spawn defers — all from root
  rt::Scheduler sched(cfg);
  std::atomic<std::uint64_t> sum{0};
  sched.run_single([&] {
    // The serialized-creation pattern: ONE generator sources every
    // descriptor; the leaves are too small to keep three thieves fed, so
    // the team starves behind the generator.
    for (int i = 0; i < 4000; ++i) {
      rt::spawn([&sum] { sum.fetch_add(1, std::memory_order_relaxed); });
    }
    rt::taskwait();
  });
  EXPECT_EQ(sum.load(), 4000u);
  ASSERT_NE(sched.tracer(), nullptr);
  sched.tracer()->drain_all();
  const rt::PathologyReport rep =
      rt::analyze_pathologies(*sched.tracer(), sched.stats());
  EXPECT_TRUE(rep.creation_serialization.fired)
      << rep.creation_serialization.detail;
  EXPECT_GE(rep.creation_serialization.score, 0.9);
}

TEST(TracePathology, DepthFirstStarvationFiresOnTinyDepthCutoff) {
  rt::SchedulerConfig cfg;
  cfg.num_threads = 4;
  cfg.trace = true;
  // The starvation pattern: a depth cutoff this tight inlines essentially
  // the whole recursion on the encountering worker — nothing is ever
  // published, teammates spin hungry for the entire region.
  cfg.cutoff = rt::CutoffPolicy::max_depth;
  cfg.cutoff_value = 1;
  rt::Scheduler sched(cfg);
  std::uint64_t got = 0;
  sched.run_single([&] { got = spawn_fib(24); });
  EXPECT_EQ(got, fib_ref(24));
  ASSERT_NE(sched.tracer(), nullptr);
  sched.tracer()->drain_all();
  const rt::PathologyReport rep =
      rt::analyze_pathologies(*sched.tracer(), sched.stats());
  EXPECT_TRUE(rep.depth_first_starvation.fired)
      << rep.depth_first_starvation.detail;
}

TEST(TracePathology, CrossNodePingPongFiresOnForcedSymmetricMailing) {
  // Synthetic stream, detector-level: two workers on opposite nodes mailing
  // and stealing each other's descriptors in both directions at a rate
  // comparable to the spawn rate — the bounce pattern birth-node tags exist
  // to expose. (Healthy runs steal rarely relative to spawns and mostly in
  // one direction at a time; see the quiet tests below.)
  // The counters of the same window: each worker spawned 60 tasks, worker 1
  // stole 60.
  rt::StatsSnapshot stats;
  stats.per_worker.resize(2);
  stats.per_worker[0].tasks_deferred = 60;
  stats.per_worker[1].tasks_deferred = 60;
  stats.per_worker[1].tasks_stolen = 60;
  rt::TraceCollector tc(2, 256);
  for (int i = 0; i < 60; ++i) {
    // Worker 0 (node 0) spawns, worker 1 (node 1) steals it away...
    tc.ring(0)->record(rt::TraceEvent::spawn, 1, 1);
    tc.ring(1)->record(rt::TraceEvent::steal_hit, 1,
                       rt::trace_pack_nodes(0, 1));
    // ...then node 1 splits it and mails the half straight back home.
    tc.ring(1)->record(rt::TraceEvent::spawn, 1, 1);
    tc.ring(1)->record(rt::TraceEvent::mailbox, /*birth node=*/0,
                       rt::trace_pack_nodes(/*target=*/0, /*sender=*/1));
  }
  tc.drain_all();
  const rt::PathologyReport rep = rt::analyze_pathologies(tc, stats);
  EXPECT_TRUE(rep.cross_node_ping_pong.fired) << rep.cross_node_ping_pong.detail;

  // One-directional flow of the same volume is migration, not ping-pong.
  rt::StatsSnapshot oneway_stats;
  oneway_stats.per_worker.resize(2);
  oneway_stats.per_worker[0].tasks_deferred = 60;
  oneway_stats.per_worker[1].tasks_stolen = 60;
  rt::TraceCollector oneway(2, 256);
  for (int i = 0; i < 60; ++i) {
    oneway.ring(0)->record(rt::TraceEvent::spawn, 1, 1);
    oneway.ring(1)->record(rt::TraceEvent::steal_hit, 1,
                           rt::trace_pack_nodes(0, 1));
  }
  oneway.drain_all();
  EXPECT_FALSE(rt::analyze_pathologies(oneway, oneway_stats)
                   .cross_node_ping_pong.fired);
}

// ---------------------------------------------------------------------------
// ...and all three stay quiet on healthy default-config runs.
// ---------------------------------------------------------------------------

TEST(TracePathology, QuietOnHealthyFlatRun) {
  rt::SchedulerConfig cfg;
  cfg.num_threads = 4;
  cfg.trace = true;
  rt::Scheduler sched(cfg);
  std::uint64_t got = 0;
  sched.run_single([&] { got = spawn_fib(24); });
  EXPECT_EQ(got, fib_ref(24));
  sched.tracer()->drain_all();
  const rt::PathologyReport rep =
      rt::analyze_pathologies(*sched.tracer(), sched.stats());
  EXPECT_FALSE(rep.creation_serialization.fired)
      << rep.creation_serialization.detail;
  EXPECT_FALSE(rep.depth_first_starvation.fired)
      << rep.depth_first_starvation.detail;
  EXPECT_FALSE(rep.cross_node_ping_pong.fired)
      << rep.cross_node_ping_pong.detail;
}

TEST(TracePathology, QuietOnHealthyNumaRangeRun) {
  rt::SchedulerConfig cfg;
  cfg.num_threads = 8;
  cfg.trace = true;
  cfg.synthetic_topology = "2x4";
  rt::Scheduler sched(cfg);
  std::atomic<std::uint64_t> sum{0};
  sched.run_single([&] {
    rt::spawn_range(0, 200000, 16, [&](std::int64_t i) {
      sum.fetch_add(static_cast<std::uint64_t>(i) % 3,
                    std::memory_order_relaxed);
    });
    rt::taskwait();
  });
  sched.tracer()->drain_all();
  const rt::PathologyReport rep =
      rt::analyze_pathologies(*sched.tracer(), sched.stats());
  EXPECT_FALSE(rep.creation_serialization.fired)
      << rep.creation_serialization.detail;
  EXPECT_FALSE(rep.depth_first_starvation.fired)
      << rep.depth_first_starvation.detail;
  EXPECT_FALSE(rep.cross_node_ping_pong.fired)
      << rep.cross_node_ping_pong.detail;
}

// ---------------------------------------------------------------------------
// Exporter + server request slices.
// ---------------------------------------------------------------------------

TEST(TraceExport, WritesChromeTraceJson) {
  rt::SchedulerConfig cfg;
  cfg.num_threads = 4;
  cfg.trace = true;
  rt::Scheduler sched(cfg);
  std::uint64_t got = 0;
  sched.run_single([&] { got = spawn_fib(18); });
  EXPECT_EQ(got, fib_ref(18));
  sched.tracer()->drain_all();
  const std::string path =
      ::testing::TempDir() + "trace_export_test.json";
  ASSERT_TRUE(sched.tracer()->export_chrome_trace(path.c_str()));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string body = ss.str();
  EXPECT_EQ(body.front(), '{');
  EXPECT_NE(body.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(body.find("\"spawn\""), std::string::npos);
  EXPECT_NE(body.find("\"displayTimeUnit\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(TraceServer, RequestSlicesBalance) {
  rt::SchedulerConfig cfg;
  cfg.num_threads = 4;
  cfg.trace = true;
  cfg.trace_buf = 1 << 18;  // room for the whole server run: nothing dropped
  rt::Scheduler sched(cfg);
  {
    rt::ServerConfig sc;
    sc.queue_capacity = 32;
    rt::TaskServer server(sched, sc);
    std::vector<rt::RegionHandle> handles;
    for (int r = 0; r < 8; ++r) {
      auto res = server.submit([] { (void)spawn_fib(12); });
      ASSERT_TRUE(res.admitted);
      handles.push_back(res.handle);
    }
    for (auto& h : handles)
      EXPECT_EQ(h.wait(), rt::RequestStatus::completed);
    server.drain();
  }
  rt::TraceCollector* tc = sched.tracer();
  ASSERT_NE(tc, nullptr);
  tc->drain_all();
  ASSERT_EQ(tc->dropped(), 0u);
  std::uint64_t starts = 0, ends = 0;
  for (unsigned i = 0; i < tc->num_workers(); ++i) {
    for (const rt::TraceRecord& r : tc->events(i)) {
      const auto ev = static_cast<rt::TraceEvent>(r.type);
      starts += ev == rt::TraceEvent::request_start;
      ends += ev == rt::TraceEvent::request_end;
    }
  }
  // Every request that started also ended, on whatever worker ran it; the
  // exporter pairs these into perfetto "X" slices.
  EXPECT_EQ(starts, ends);
  EXPECT_GE(starts, 8u);
}
