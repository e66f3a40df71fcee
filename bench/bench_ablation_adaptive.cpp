// Runtime cut-off policy ablation (paper Section IV-D + reference [27],
// Duran et al., "An Adaptive Cut-off for Task Parallelism"): how the
// runtime-side policies behave when applications create unbounded tasks.
//
// Runs the no-cutoff versions of fib, floorplan and uts under each runtime
// policy (none / max_tasks / max_depth / adaptive) at the maximum thread
// count and compares against the best manual version.
#include <benchmark/benchmark.h>

#include <iostream>
#include <map>

#include "bench_common.hpp"

namespace core = bots::core;
namespace rt = bots::rt;
namespace bench = bots::bench;

namespace {

struct Key {
  std::string app;
  std::string policy;
  auto operator<=>(const Key&) const = default;
};

std::map<Key, bench::Measurement> g_results;

void bm_config(benchmark::State& state, const core::AppInfo* app,
               std::string version, std::string policy, rt::SchedulerConfig cfg,
               core::InputClass input) {
  for (auto _ : state) {
    rt::Scheduler sched(cfg);
    sched.run_single([] {});
    const auto rep = app->run(input, version, sched, /*verify=*/false);
    state.SetIterationTime(rep.seconds);
    g_results[{app->name, policy}].offer(rep);
  }
}

}  // namespace

int main(int argc, char** argv) {
  // fib's medium no-cutoff run would create billions of tasks under the
  // `none` policy; small keeps every cell of the matrix feasible.
  const bench::Sweep sweep = bench::sweep_from_env(core::InputClass::small);
  const unsigned threads = sweep.threads.back();
  // (app, unbounded version, manual reference version)
  const std::vector<std::array<std::string, 3>> apps = {
      {"fib", "untied", "manual-untied"},
      {"floorplan", "untied", "manual-untied"},
      {"uts", "untied", "untied"},  // uts has no manual version: same entry
  };
  struct Policy {
    std::string name;
    rt::CutoffPolicy policy;
  };
  const std::vector<Policy> policies = {
      {"none", rt::CutoffPolicy::none},
      {"max_tasks", rt::CutoffPolicy::max_tasks},
      {"max_depth", rt::CutoffPolicy::max_depth},
      {"adaptive", rt::CutoffPolicy::adaptive},
  };

  std::cout << "== Runtime cut-off policies on unbounded task creation ==\n"
            << "threads: " << threads
            << ", input class: " << to_string(sweep.input) << "\n";
  std::map<std::string, core::RunReport> serial;
  for (const auto& [name, unbounded, manual] : apps) {
    const auto* app = core::find_app(name);
    serial[name] = bench::serial_baseline(*app, sweep.input, sweep.reps);
  }

  for (const auto& [name, unbounded, manual] : apps) {
    const auto* app = core::find_app(name);
    for (const auto& pol : policies) {
      rt::SchedulerConfig cfg;
      cfg.num_threads = threads;
      cfg.cutoff = pol.policy;
      benchmark::RegisterBenchmark((name + "/" + pol.name).c_str(), bm_config,
                                   app, unbounded, pol.name, cfg, sweep.input)
          ->UseManualTime()
          ->Iterations(1)
          ->Repetitions(sweep.reps)
          ->Unit(benchmark::kMillisecond);
    }
    rt::SchedulerConfig cfg;
    cfg.num_threads = threads;
    benchmark::RegisterBenchmark((name + "/manual-app-cutoff").c_str(),
                                 bm_config, app, manual, "manual-app-cutoff",
                                 cfg, sweep.input)
        ->UseManualTime()
        ->Iterations(1)
        ->Repetitions(sweep.reps)
        ->Unit(benchmark::kMillisecond);
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  std::cout << "\nSpeed-up vs serial per runtime policy (no-cutoff app "
               "versions):\n";
  std::vector<std::string> headers{"policy"};
  for (const auto& [name, u, m] : apps) headers.push_back(name);
  core::TableWriter t(headers);
  for (const auto& pol : policies) {
    std::vector<std::string> row{pol.name};
    for (const auto& [name, u, m] : apps) {
      row.push_back(core::format_fixed(
          g_results[{name, pol.name}].best.speedup_vs(serial[name]), 2));
    }
    t.add_row(row);
  }
  {
    std::vector<std::string> row{"manual (app-level)"};
    for (const auto& [name, u, m] : apps) {
      row.push_back(core::format_fixed(
          g_results[{name, "manual-app-cutoff"}].best.speedup_vs(serial[name]),
          2));
    }
    t.add_row(row);
  }
  t.render(std::cout);
  std::cout << "\nExpected shape: 'none' collapses under task-flood (fib);\n"
               "max_tasks (the default: each spawner's queue bounded to its\n"
               "share) and adaptive (the same count with hysteresis) recover\n"
               "most of the manual cut-off's performance without touching\n"
               "the application — reference [27]'s thesis.\n";
  return 0;
}
