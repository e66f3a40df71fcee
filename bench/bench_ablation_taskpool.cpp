// Section III-B ablation: pre-allocated task descriptors. The paper
// observes that captured environments are tiny for most benchmarks and
// concludes "implementations that pre-allocate small memory areas
// associated with tasks descriptors might avoid to allocate in most cases
// any data related to firstprivate and thus reducing the creation
// overheads". This bench measures exactly that: per-task cost with the
// per-worker descriptor pool vs plain heap allocation, on the two
// task-flood benchmarks (fib and uts, no application cut-off) — plus the
// retirement axis on top of pooling: owner-return (every freed descriptor
// goes back to the worker that carved it, RT_NODE_POOLS semantics) vs
// recycling into the freer's pool (stolen descriptors drift to the thief,
// counted across nodes in the remote_frees column). Set
// RT_SYNTHETIC_TOPOLOGY=NxM for a deterministic multi-node shape.
#include <benchmark/benchmark.h>

#include <atomic>
#include <iostream>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "kernels/fib/fib.hpp"
#include "kernels/uts/uts.hpp"

namespace core = bots::core;
namespace rt = bots::rt;
namespace bench = bots::bench;

namespace {

void record_pool_counters(benchmark::State& state, const rt::WorkerStats& t) {
  state.counters["tasks"] = static_cast<double>(t.tasks_created);
  state.counters["ns_per_task"] = benchmark::Counter(
      static_cast<double>(t.tasks_created),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
  state.counters["remote_frees"] = static_cast<double>(t.pool_remote_frees);
  state.counters["stash_high_water"] = static_cast<double>(t.pool_migrations);
}

void bm_fib(benchmark::State& state, rt::SchedulerConfig cfg) {
  bots::fib::Params p{27, 0};  // ~0.6M tasks, no application cut-off
  rt::WorkerStats total;
  for (auto _ : state) {
    cfg.cutoff = rt::CutoffPolicy::none;
    rt::Scheduler sched(cfg);
    sched.run_single([] {});
    core::Timer t;
    benchmark::DoNotOptimize(bots::fib::run_parallel(
        p, sched, {rt::Tiedness::untied, core::AppCutoff::none}));
    state.SetIterationTime(t.seconds());
    total = sched.stats().total;
  }
  record_pool_counters(state, total);
}

void bm_uts(benchmark::State& state, rt::SchedulerConfig cfg) {
  bots::uts::Params p = bots::uts::params_for(core::InputClass::small);
  rt::WorkerStats total;
  for (auto _ : state) {
    rt::Scheduler sched(cfg);
    sched.run_single([] {});
    core::Timer t;
    benchmark::DoNotOptimize(
        bots::uts::run_parallel(p, sched, {rt::Tiedness::untied}));
    state.SetIterationTime(t.seconds());
    total = sched.stats().total;
  }
  record_pool_counters(state, total);
}

// Contention axis for the PR 9 lock-free RangeMailbox (CAS-push stack with
// wholesale-drain pop, replacing the PR-3 mutex FIFO): N producers hammer
// ONE node mailbox while a single consumer drains — the real shape is
// many range-splitting workers mailing halves to one idle node, whose
// workers pop. Reports ns per delivered task end to end.
void bm_mailbox(benchmark::State& state) {
  const auto producers = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t per_producer = 4096;
  const std::size_t total = producers * per_producer;
  std::vector<rt::Task> tasks(total);
  for (auto _ : state) {
    rt::RangeMailbox box;
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    threads.reserve(producers);
    for (std::size_t p = 0; p < producers; ++p) {
      threads.emplace_back([&, p] {
        while (!go.load(std::memory_order_acquire)) {
        }
        for (std::size_t i = 0; i < per_producer; ++i) {
          box.push(&tasks[p * per_producer + i]);
        }
      });
    }
    core::Timer t;
    go.store(true, std::memory_order_release);
    std::size_t drained = 0;
    while (drained < total) {
      if (box.pop() != nullptr) ++drained;
    }
    state.SetIterationTime(t.seconds());
    for (auto& th : threads) th.join();
    if (!box.empty()) state.SkipWithError("mailbox not empty after drain");
  }
  state.counters["tasks"] = static_cast<double>(total);
  state.counters["ns_per_task"] = benchmark::Counter(
      static_cast<double>(total),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Sweep sweep = bench::sweep_from_env(core::InputClass::small);
  std::cout << "== Section III-B: task-descriptor pooling ablation ==\n"
               "pooled (per-worker freelist) vs heap (new/delete per task),\n"
               "task-flood benchmarks without application cut-off.\n";
  struct Variant {
    const char* label;
    bool pool;
    bool node_pools;
  };
  // heap vs worker-pooled at every thread point (the PR-1 axis), and on
  // top of pooling the retirement discipline A/B at the top thread count:
  // "pooled" here runs node pools OFF (descriptors drift to the thief,
  // remote_frees counts the cross-node share), "node-pooled" ON (owner-
  // return; remote_frees pinned at zero, stash_high_water shows the
  // batched returns to the owners).
  for (unsigned threads : {1u, sweep.threads.back()}) {
    std::vector<Variant> variants = {{"pooled", true, false},
                                     {"heap", false, false}};
    if (threads > 1) variants.push_back({"node-pooled", true, true});
    for (const Variant& v : variants) {
      rt::SchedulerConfig cfg;
      cfg.num_threads = threads;
      cfg.use_task_pool = v.pool;
      cfg.use_node_pools = v.node_pools;
      const std::string suffix =
          std::string(v.label) + "/t" + std::to_string(threads);
      benchmark::RegisterBenchmark(("fib_nocutoff/" + suffix).c_str(), bm_fib,
                                   cfg)
          ->UseManualTime()
          ->Iterations(1)
          ->Repetitions(sweep.reps + 1)
          ->Unit(benchmark::kMillisecond);
      benchmark::RegisterBenchmark(("uts/" + suffix).c_str(), bm_uts, cfg)
          ->UseManualTime()
          ->Iterations(1)
          ->Repetitions(sweep.reps + 1)
          ->Unit(benchmark::kMillisecond);
    }
  }
  // Mailbox contention sweep: producer counts from uncontended to heavily
  // contended, capped at the machine.
  const unsigned hw = sweep.threads.back();
  for (unsigned p : {1u, 2u, 4u, 8u}) {
    if (p > hw && p != 1u) break;
    benchmark::RegisterBenchmark(
        ("mailbox_contention/p" + std::to_string(p)).c_str(), bm_mailbox)
        ->Arg(static_cast<int>(p))
        ->UseManualTime()
        ->Iterations(1)
        ->Repetitions(sweep.reps + 1)
        ->Unit(benchmark::kMillisecond);
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  std::cout << "\nExpected shape: pooled descriptors cost measurably fewer\n"
               "ns/task than heap allocation, the gap widening with thread\n"
               "count (allocator contention) — the paper's pre-allocation\n"
               "recommendation. node-pooled should match or beat pooled\n"
               "while holding remote_frees at 0 (on a multi-node topology,\n"
               "pooled's remote_frees is the descriptor drift it removes).\n";
  return 0;
}
