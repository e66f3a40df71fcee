// Figure 3 reproduction: "Benchmark suite results as base code" — speed-up
// of the best version of each application across the thread sweep, with the
// serial execution as the baseline (Floorplan uses nodes/second, Section IV
// footnote 5).
//
// Expected shape (paper, 32-cpu Altix): NQueens and SparseLU close to
// linear; Strassen, Health and FFT saturate early. Default input class:
// medium (override with BOTS_INPUT_CLASS).
#include <benchmark/benchmark.h>

#include <iostream>
#include <map>

#include "bench_common.hpp"

namespace core = bots::core;
namespace bench = bots::bench;

namespace {

struct SeriesKey {
  std::string app;
  unsigned threads;
  auto operator<=>(const SeriesKey&) const = default;
};

std::map<SeriesKey, bench::Measurement> g_results;
std::map<std::string, core::RunReport> g_serial;

void bm_config(benchmark::State& state, const core::AppInfo* app,
               std::string version, unsigned threads, core::InputClass input) {
  for (auto _ : state) {
    const auto rep = bench::parallel_best(*app, version, threads, input, 1);
    state.SetIterationTime(rep.seconds);
    g_results[{app->name, threads}].offer(rep);
  }
  state.counters["threads"] = threads;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Sweep sweep = bench::sweep_from_env(core::InputClass::medium);
  std::cout << "== Figure 3: speed-up of the best version of each "
               "application ==\n"
            << "input class: " << to_string(sweep.input)
            << ", repetitions: " << sweep.reps << "\n\nSerial baselines:\n";
  for (const auto& app : core::apps()) {
    const auto serial = bench::serial_baseline(app, sweep.input, sweep.reps);
    g_serial[app.name] = serial;
    std::cout << "  " << app.name << " (" << app.describe_input(sweep.input)
              << "): " << core::format_fixed(serial.seconds, 3) << " s"
              << (serial.metric > 0
                      ? ", " + core::format_count(static_cast<std::uint64_t>(
                                   serial.metric)) +
                            " " + serial.metric_name
                      : "")
              << "\n";
    std::cout.flush();
  }

  for (const auto& app : core::apps()) {
    const std::string version = app.best_version().name;
    for (unsigned t : sweep.threads) {
      const std::string name =
          app.name + "(" + version + ")/t" + std::to_string(t);
      benchmark::RegisterBenchmark(name.c_str(), bm_config, &app, version, t,
                                   sweep.input)
          ->UseManualTime()
          ->Iterations(1)
          ->Repetitions(sweep.reps)
          ->ReportAggregatesOnly(false)
          ->Unit(benchmark::kMillisecond);
    }
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  bench::SpeedupTable table(sweep.threads);
  for (const auto& app : core::apps()) {
    std::vector<double> series;
    for (unsigned t : sweep.threads) {
      series.push_back(
          g_results[{app.name, t}].best.speedup_vs(g_serial[app.name]));
    }
    std::string label = app.name + " (" + app.best_version().name + ")";
    if (app.extension) label += " [ext]";
    table.add_series(label, series);
  }
  table.print("Figure 3: speed-up of best versions (cf. paper Figure 3)");

  // Shape annotation: who is near-linear, who saturates (paper Section IV-A).
  std::cout << "\nShape summary at " << sweep.threads.back() << " threads:\n";
  for (const auto& app : core::apps()) {
    const double s = g_results[{app.name, sweep.threads.back()}].best.speedup_vs(
        g_serial[app.name]);
    const double frac = s / static_cast<double>(sweep.threads.back());
    std::cout << "  " << app.name << ": " << core::format_fixed(s, 2) << "x ("
              << (frac > 0.6   ? "near-linear"
                  : frac > 0.3 ? "sub-linear"
                               : "saturated")
              << ")\n";
  }

  return 0;
}
