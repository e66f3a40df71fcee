// Figure 4 reproduction: "Queens benchmark using different cut-off
// mechanisms" — NQueens speed-ups with the manual cut-off, the if-clause
// cut-off and no application cut-off, which leaves pruning to the runtime's
// max_tasks policy: a spawn is deferred while the spawning worker's own
// queue holds fewer than its share of the bound (64 tasks by default) and
// run inline otherwise — a count of the tasks ready to be executed, one of
// the runtime mechanisms the paper names.
//
// Expected shape: manual >= if-clause >= no-cutoff ("programming a manual
// cut-off is more effective than using an if clause, or relying on their
// runtime cut-off"). Default input class: medium.
#include <benchmark/benchmark.h>

#include <iostream>
#include <map>

#include "bench_common.hpp"

namespace core = bots::core;
namespace bench = bots::bench;

namespace {

struct Key {
  std::string version;
  unsigned threads;
  auto operator<=>(const Key&) const = default;
};

std::map<Key, bench::Measurement> g_results;

void bm_config(benchmark::State& state, const core::AppInfo* app,
               std::string version, unsigned threads, core::InputClass input) {
  for (auto _ : state) {
    const auto rep = bench::parallel_best(*app, version, threads, input, 1);
    state.SetIterationTime(rep.seconds);
    g_results[{version, threads}].offer(rep);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Sweep sweep = bench::sweep_from_env(core::InputClass::medium);
  const auto* app = core::find_app("nqueens");
  // Untied variants, as in the paper's best configuration for NQueens.
  const std::vector<std::pair<std::string, std::string>> versions = {
      {"manual-untied", "with manual cut-off"},
      {"if-untied", "with if clause cut-off"},
      {"untied", "with no cut-off (runtime per-worker queue bound)"},
  };

  std::cout << "== Figure 4: NQueens with different cut-off mechanisms ==\n"
            << "input: " << app->describe_input(sweep.input) << " ("
            << to_string(sweep.input) << ")\n";
  const auto serial = bench::serial_baseline(*app, sweep.input, sweep.reps);
  std::cout << "serial baseline: " << core::format_fixed(serial.seconds, 3)
            << " s\n";
  std::cout.flush();

  for (const auto& [version, label] : versions) {
    for (unsigned t : sweep.threads) {
      const std::string name = "nqueens/" + version + "/t" + std::to_string(t);
      benchmark::RegisterBenchmark(name.c_str(), bm_config, app, version, t,
                                   sweep.input)
          ->UseManualTime()
          ->Iterations(1)
          ->Repetitions(sweep.reps)
          ->Unit(benchmark::kMillisecond);
    }
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  bench::SpeedupTable table(sweep.threads);
  for (const auto& [version, label] : versions) {
    std::vector<double> series;
    for (unsigned t : sweep.threads) {
      series.push_back(g_results[{version, t}].best.speedup_vs(serial));
    }
    table.add_series(label, series);
  }
  table.print("Figure 4: Queens benchmark using different cut-off mechanisms");

  const unsigned tmax = sweep.threads.back();
  const double manual =
      g_results[{"manual-untied", tmax}].best.speedup_vs(serial);
  const double ifc = g_results[{"if-untied", tmax}].best.speedup_vs(serial);
  const double none = g_results[{"untied", tmax}].best.speedup_vs(serial);
  std::cout << "\nShape check at " << tmax << " threads: manual "
            << core::format_fixed(manual, 2) << "x, if-clause "
            << core::format_fixed(ifc, 2) << "x, no-cutoff "
            << core::format_fixed(none, 2) << "x -> "
            << (manual >= ifc && ifc >= none * 0.95
                    ? "matches the paper's ordering (manual >= if >= none)"
                    : "ordering differs from the paper")
            << "\n";
  return 0;
}
