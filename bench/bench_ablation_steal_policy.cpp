// Steal/placement policy ablation: the topology-aware scheduling layer's
// A/B bench. Crosses the pluggable StealPolicy implementations (random,
// sequential, last_victim, hierarchical) over benchmarks with different
// task shapes, at the sweep's top thread count, and reports speed-up vs
// serial plus the steal-locality split (steals_local_node vs
// steals_remote_node), the remote probes the has-work hints saved and how
// many workers were verifiably pinned. The hierarchical policy additionally
// runs a pinned × hint on/off axis (PR 4), so the cost/benefit of worker
// pinning and cross-node probe throttling is measurable in isolation.
//
// On a single-node host the hierarchical policy degenerates to
// last_victim, so for an interconnect-sensitive A/B set a synthetic
// topology first, e.g.:
//   RT_SYNTHETIC_TOPOLOGY=2x4 ./build/bench_ablation_steal_policy
// (Pinning against a synthetic topology only sticks where the node cpusets
// name CPUs this machine has; the `pinned` column reports reality.)
//
// Honours the usual BOTS_INPUT_CLASS / BOTS_MAX_THREADS / BOTS_BENCH_REPS.
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
  std::string config;
  auto operator<=>(const Key&) const = default;
};

struct Outcome {
  bench::Measurement m;
  std::uint64_t steals_local = 0;
  std::uint64_t steals_remote = 0;
  std::uint64_t probes_skipped = 0;
  std::uint64_t halves_redirected = 0;  ///< range halves mailed to idle nodes
  std::uint64_t remote_frees = 0;       ///< descriptor frees off the birth node
  std::uint64_t pinned = 0;  ///< verifiably pinned workers, last rep
};

std::map<Key, Outcome> g_results;

/// One policy configuration of the ablation axis: the four policies plus
/// the hierarchical pinned/hint crosses.
struct ConfigCase {
  std::string label;
  rt::StealPolicyKind kind;
  bool pin = false;
  bool hints = true;
};

void bm_config(benchmark::State& state, const core::AppInfo* app,
               std::string version, std::string config,
               rt::SchedulerConfig cfg, core::InputClass input) {
  for (auto _ : state) {
    rt::Scheduler sched(cfg);
    sched.run_single([] {});
    const auto rep = app->run(input, version, sched, /*verify=*/false);
    state.SetIterationTime(rep.seconds);
    Outcome& out = g_results[{app->name, config}];
    out.m.offer(rep);
    const auto t = sched.stats().total;
    out.steals_local += t.steals_local_node;
    out.steals_remote += t.steals_remote_node;
    out.probes_skipped += t.remote_probes_skipped;
    out.halves_redirected += t.range_halves_redirected;
    out.remote_frees += t.pool_remote_frees;
    out.pinned = t.pinned;
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Sweep sweep = bench::sweep_from_env(core::InputClass::medium);
  const unsigned threads = sweep.threads.back();
  const std::vector<std::pair<std::string, std::string>> apps = {
      {"fib", "manual-untied"},
      {"sort", "untied"},
      {"fft", "untied"},
      {"alignment", "tied"},
      {"sparselu", "for-tied"},
  };
  const std::vector<ConfigCase> configs = {
      {"random", rt::StealPolicyKind::random},
      {"sequential", rt::StealPolicyKind::sequential},
      {"last_victim", rt::StealPolicyKind::last_victim},
      {"hierarchical", rt::StealPolicyKind::hierarchical},
      // The PR-4 axis: what do pinning and probe throttling buy, alone and
      // together, on top of the hierarchical victim order?
      {"hier/nohint", rt::StealPolicyKind::hierarchical, false, false},
      {"hier/pin", rt::StealPolicyKind::hierarchical, true, true},
      {"hier/pin+nohint", rt::StealPolicyKind::hierarchical, true, false},
  };

  {
    rt::SchedulerConfig probe;
    probe.num_threads = threads;
    rt::Scheduler s(probe);
    std::cout << "== Steal-policy ablation at " << threads << " threads, "
              << to_string(sweep.input) << " inputs ==\n"
              << "topology: " << s.topology().describe() << " ("
              << s.topology().num_nodes() << " node(s); set "
              << "RT_SYNTHETIC_TOPOLOGY=NxM to override; RT_PIN_WORKERS=1 "
              << "pins every configuration)\n";
  }

  std::map<std::string, core::RunReport> serial;
  for (const auto& [name, version] : apps) {
    const auto* app = core::find_app(name);
    serial[name] = bench::serial_baseline(*app, sweep.input, sweep.reps);
  }

  for (const auto& [name, version] : apps) {
    const auto* app = core::find_app(name);
    for (const ConfigCase& cc : configs) {
      rt::SchedulerConfig cfg;
      cfg.num_threads = threads;
      cfg.steal_policy = cc.kind;
      cfg.pin_workers = cfg.pin_workers || cc.pin;
      cfg.use_node_work_hints = cc.hints;
      benchmark::RegisterBenchmark((name + "/" + cc.label).c_str(), bm_config,
                                   app, version, cc.label, cfg, sweep.input)
          ->UseManualTime()
          ->Iterations(1)
          ->Repetitions(sweep.reps)
          ->Unit(benchmark::kMillisecond);
    }
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  std::cout << "\nSpeed-up vs serial per steal policy configuration:\n";
  std::vector<std::string> headers{"config"};
  for (const auto& [name, version] : apps) headers.push_back(name);
  core::TableWriter t(headers);
  for (const ConfigCase& cc : configs) {
    std::vector<std::string> row{cc.label};
    for (const auto& [name, version] : apps) {
      row.push_back(core::format_fixed(
          g_results[{name, cc.label}].m.best.speedup_vs(serial[name]), 2));
    }
    t.add_row(row);
  }
  t.render(std::cout);

  std::cout << "\nSteal locality (successful raids, summed over reps), "
               "skipped remote probes, mailed range halves, off-birth-node "
               "descriptor frees and pinned workers:\n";
  core::TableWriter loc({"app", "config", "steals local", "steals remote",
                         "probes skipped", "halves mailed", "remote frees",
                         "pinned"});
  for (const auto& [key, out] : g_results) {
    loc.add_row({key.app, key.config, std::to_string(out.steals_local),
                 std::to_string(out.steals_remote),
                 std::to_string(out.probes_skipped),
                 std::to_string(out.halves_redirected),
                 std::to_string(out.remote_frees),
                 std::to_string(out.pinned) + "/" + std::to_string(threads)});
  }
  loc.render(std::cout);
  std::cout << "\nExpected shape: on a multi-node topology, hierarchical\n"
               "shifts the raid mix toward steals-local and should match or\n"
               "beat last_victim (identical on one node by construction);\n"
               "hints should show probes-skipped > 0 whenever a node idles\n"
               "with no speed-up loss, and pinning only reports workers the\n"
               "machine could actually place on their node's cpuset.\n"
               "Hint placement mails halves only under the hierarchical\n"
               "configs with hints on (halves-mailed column), and remote\n"
               "frees stay 0 everywhere node pools are active (the default;\n"
               "RT_NODE_POOLS=0 exposes the historical descriptor drift).\n";
  return 0;
}
