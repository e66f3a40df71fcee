// Taskgraph record-and-replay ablation (PR 8): what does a region's task
// DISCOVERY actually cost, and how much of it does replay amortise away?
//
// Three execution modes over the same kernels (sparselu, strassen):
//   taskwait  the classic 3-phase / recursive taskwait-barrier version —
//             the paper's structure, discovery cost paid every run.
//   record    dependence-tracked dataflow with a FRESH graph tag per rep:
//             every rep pays closure+descriptor allocation, tracker hash
//             lookups, edge pushes, AND the recording capture.
//   replay    one recording up front, then reps that replay the frozen
//             graph: pre-resolved predecessor counts, descriptors reset in
//             place, one bulk parent RMW, workers started from the
//             recorded root frontier.
//
// Each mode reports best-of/mean wall time, tasks per rep, ns/task and
// dependence edges resolved as one "GRAPHREPLAY: {json}" line. Results are
// verified against the serial reference after every mode — a fast wrong
// answer is a failure, and the process exits non-zero.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/input_class.hpp"
#include "core/report.hpp"
#include "kernels/sparselu/sparselu.hpp"
#include "kernels/strassen/strassen.hpp"
#include "runtime/rt.hpp"

namespace core = bots::core;
namespace rt = bots::rt;

namespace {

int g_failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", what);
    ++g_failures;
  }
}

struct ModeResult {
  std::string kernel;
  std::string variant;
  int reps = 0;
  double ms_best = 0.0;
  double ms_mean = 0.0;
  std::uint64_t tasks_per_rep = 0;
  std::uint64_t edges_per_rep = 0;
  std::uint64_t graphs_recorded = 0;
  std::uint64_t graphs_replayed = 0;
};

/// Run `reps` timed repetitions of `body` (after `reset` each time, which
/// is NOT timed) and fold the scheduler-stats delta into per-rep numbers.
template <class Reset, class Body>
ModeResult measure(const char* kernel, const char* variant, int reps,
                   rt::Scheduler& sched, Reset&& reset, Body&& body) {
  ModeResult r;
  r.kernel = kernel;
  r.variant = variant;
  r.reps = reps;
  const rt::WorkerStats before = sched.stats().total;
  double sum = 0.0;
  double best = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    reset(rep);
    core::Timer t;
    body(rep);
    const double ms = t.seconds() * 1e3;
    sum += ms;
    best = std::min(best, ms);
  }
  const rt::WorkerStats after = sched.stats().total;
  r.ms_best = best;
  r.ms_mean = sum / reps;
  r.tasks_per_rep =
      (after.tasks_deferred - before.tasks_deferred) / static_cast<std::uint64_t>(reps);
  r.edges_per_rep =
      (after.edges_resolved - before.edges_resolved) / static_cast<std::uint64_t>(reps);
  r.graphs_recorded = after.graphs_recorded - before.graphs_recorded;
  r.graphs_replayed = after.graphs_replayed - before.graphs_replayed;
  return r;
}

void emit(const ModeResult& r, unsigned threads) {
  const double ns_per_task =
      r.tasks_per_rep == 0
          ? 0.0
          : r.ms_best * 1e6 / static_cast<double>(r.tasks_per_rep);
  std::printf(
      "GRAPHREPLAY: {\"kernel\":\"%s\",\"variant\":\"%s\",\"threads\":%u,"
      "\"reps\":%d,\"ms_best\":%.3f,\"ms_mean\":%.3f,\"tasks_per_rep\":%llu,"
      "\"ns_per_task_best\":%.1f,\"edges_resolved_per_rep\":%llu,"
      "\"graphs_recorded\":%llu,\"graphs_replayed\":%llu}\n",
      r.kernel.c_str(), r.variant.c_str(), threads, r.reps, r.ms_best,
      r.ms_mean, static_cast<unsigned long long>(r.tasks_per_rep),
      ns_per_task, static_cast<unsigned long long>(r.edges_per_rep),
      static_cast<unsigned long long>(r.graphs_recorded),
      static_cast<unsigned long long>(r.graphs_replayed));
}

}  // namespace

int main(int argc, char** argv) {
  unsigned threads = 8;
  int reps = 5;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--threads" && i + 1 < argc) {
      threads = static_cast<unsigned>(std::atoi(argv[++i]));
    } else if (arg == "--reps" && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr, "usage: %s [--threads N] [--reps R]\n", argv[0]);
      return 2;
    }
  }
  const core::InputClass input =
      core::input_class_from_env(core::InputClass::test);
  rt::SchedulerConfig cfg;
  cfg.num_threads = threads;
  cfg.fault_plan.clear();     // measure the mechanism, not injected faults
  cfg.use_taskgraph_replay = true;
  rt::Scheduler sched(cfg);
  sched.run_single([] {});  // warm the team

  std::printf("== taskgraph record/replay ablation (t=%u, reps=%d) ==\n",
              threads, reps);

  // -- sparselu -------------------------------------------------------------
  // Discovery-bound shape: many small blocks, so per-task body work does
  // not drown the per-task discovery cost this ablation isolates (the
  // registry input classes size blocks for BODY-bound figure benches).
  bots::sparselu::Params sp = bots::sparselu::params_for(input);
  sp.nb = std::max<std::size_t>(sp.nb, 16);
  sp.bs = 8;
  bots::sparselu::BlockMatrix m = bots::sparselu::make_input(sp);
  const rt::Tiedness tied = rt::Tiedness::tied;
  auto reset_m = [&](int) { bots::sparselu::reset_values(sp, m); };

  const ModeResult sp_taskwait =
      measure("sparselu", "taskwait", reps, sched, reset_m, [&](int) {
        bots::sparselu::run_parallel(sp, m, sched,
                                     {tied, core::Generator::single_gen, false});
      });
  check(bots::sparselu::verify(sp, m), "sparselu taskwait verify");

  const ModeResult sp_record =
      measure("sparselu", "record", reps, sched, reset_m, [&](int rep) {
        // Fresh tag per rep: every invocation records from scratch — the
        // full discovery + capture bill, the cost replay amortises.
        const std::string tag = "ablation.sparselu.rec" + std::to_string(rep);
        bots::sparselu::factor_dataflow(m, sched, tied, tag.c_str());
      });
  check(bots::sparselu::verify(sp, m), "sparselu record verify");
  check(sp_record.graphs_recorded == static_cast<std::uint64_t>(reps),
        "sparselu record mode recorded once per rep");

  // One untimed recording, then replay-only repetitions.
  bots::sparselu::reset_values(sp, m);
  bots::sparselu::factor_dataflow(m, sched, tied, "ablation.sparselu.replay");
  const ModeResult sp_replay =
      measure("sparselu", "replay", reps, sched, reset_m, [&](int) {
        bots::sparselu::factor_dataflow(m, sched, tied,
                                        "ablation.sparselu.replay");
      });
  check(bots::sparselu::verify(sp, m), "sparselu replay verify");
  check(sp_replay.graphs_replayed == static_cast<std::uint64_t>(reps),
        "sparselu replay mode replayed once per rep");
  check(sp_replay.graphs_recorded == 0, "sparselu replay mode re-recorded");

  emit(sp_taskwait, threads);
  emit(sp_record, threads);
  emit(sp_replay, threads);

  // -- strassen -------------------------------------------------------------
  const auto st = bots::strassen::params_for(input);
  const std::vector<double> a = bots::strassen::make_matrix(st, 1);
  const std::vector<double> b = bots::strassen::make_matrix(st, 2);
  std::vector<double> c(st.n * st.n, 0.0);
  auto no_reset = [](int) {};

  const ModeResult st_taskwait =
      measure("strassen", "taskwait", reps, sched, no_reset, [&](int) {
        const auto r = bots::strassen::run_parallel(
            st, a, b, sched, {rt::Tiedness::tied, core::AppCutoff::manual});
        c = r;
      });
  check(bots::strassen::verify(st, a, b, c), "strassen taskwait verify");

  const ModeResult st_record =
      measure("strassen", "record", reps, sched, no_reset, [&](int rep) {
        const std::string tag = "ablation.strassen.rec" + std::to_string(rep);
        bots::strassen::multiply_dataflow(st, a.data(), b.data(), c.data(),
                                          sched, tied, tag.c_str());
      });
  check(bots::strassen::verify(st, a, b, c), "strassen record verify");

  bots::strassen::multiply_dataflow(st, a.data(), b.data(), c.data(), sched,
                                    tied, "ablation.strassen.replay");
  const ModeResult st_replay =
      measure("strassen", "replay", reps, sched, no_reset, [&](int) {
        bots::strassen::multiply_dataflow(st, a.data(), b.data(), c.data(),
                                          sched, tied,
                                          "ablation.strassen.replay");
      });
  check(bots::strassen::verify(st, a, b, c), "strassen replay verify");
  check(st_replay.graphs_replayed == static_cast<std::uint64_t>(reps),
        "strassen replay mode replayed once per rep");

  emit(st_taskwait, threads);
  emit(st_record, threads);
  emit(st_replay, threads);

  // Global accounting must balance whatever mode mix ran.
  const rt::WorkerStats t = sched.stats().total;
  check(t.tasks_created + t.range_splits ==
            t.tasks_deferred + t.tasks_if_inlined + t.tasks_cutoff_inlined,
        "spawn accounting balances");
  check(t.tasks_executed + t.tasks_discarded == t.tasks_deferred,
        "retire accounting balances");

  const double vs_record = sp_record.ms_best / sp_replay.ms_best;
  const double vs_taskwait = sp_taskwait.ms_best / sp_replay.ms_best;
  std::printf(
      "\nsparselu replay speedup: %.2fx vs record, %.2fx vs taskwait\n"
      "strassen replay speedup: %.2fx vs record, %.2fx vs taskwait\n",
      vs_record, vs_taskwait, st_record.ms_best / st_replay.ms_best,
      st_taskwait.ms_best / st_replay.ms_best);
  if (g_failures != 0) {
    std::fprintf(stderr, "\n%d check(s) FAILED\n", g_failures);
    return 1;
  }
  std::printf("all checks passed\n");
  return 0;
}
