// `tasks` workload: runtime overhead with no user work. Three phases (tree,
// flood, dag; see phases.hpp) at T workers, each against the same work done
// by plain serial code, and at one worker for the scaling of the overhead.
#include <algorithm>
#include <memory>
#include <sstream>
#include <string>

#include "bench.hpp"
#include "mix.hpp"
#include "phases.hpp"
#include "runtime/rt.hpp"

namespace perfbench {

namespace {

constexpr int kSetupPasses = 5;
constexpr int kMinRounds = 5;
constexpr const char* kPhase[3] = {"tree", "flood", "dag"};

PhaseRep run_phase(int phase, rt::Scheduler& s, Dag& dag) {
  switch (phase) {
    case 0: return run_tree(s);
    case 1: return run_flood(s);
    default: return dag.run(s);
  }
}

PhaseRep serial_phase(int phase, Dag& dag) {
  switch (phase) {
    case 0: return serial_tree();
    case 1: return serial_flood();
    default: return dag.run_serial();
  }
}

double ns_per_task(const PhaseRep& p) {
  return p.seconds * 1e9 / static_cast<double>(std::max<std::uint64_t>(1, p.tasks));
}

// The single-threaded references, plain serial code and one-worker reps, on
// one lane per worker CPU (see Lanes), each lane with its own dag input and
// one-worker scheduler.
struct Refs {
  Refs(const std::vector<int>& cpus, const rt::SchedulerConfig& cfg1)
      : lanes(cpus), dags(lanes.size()), scheds(lanes.size()), out(lanes.size()) {
    lanes.run([&](std::size_t i) {
      dags[i] = std::make_unique<Dag>();
      scheds[i] = std::make_unique<rt::Scheduler>(cfg1);
    });
  }

  /// Runs `phase` on every lane at once, as plain serial code or on the
  /// lane's one-worker scheduler. The time is the lanes' harmonic mean; the
  /// answer is right only if every lane's is.
  PhaseRep run(int phase, bool serial) {
    lanes.run([&](std::size_t i) {
      out[i] = serial ? serial_phase(phase, *dags[i]) : run_phase(phase, *scheds[i], *dags[i]);
    });
    PhaseRep m;
    m.ok = true;
    std::vector<double> secs;
    for (const PhaseRep& p : out) {
      secs.push_back(p.seconds);
      m.ok = m.ok && p.ok && p.seconds > 0;
      m.tasks = p.tasks;
    }
    m.seconds = harmonic_mean(secs);
    return m;
  }

  Lanes lanes;
  std::vector<std::unique_ptr<Dag>> dags;
  std::vector<std::unique_ptr<rt::Scheduler>> scheds;
  std::vector<PhaseRep> out;
};

}  // namespace

void run_tasks(const Options& o, Report& r) {
  const rt::SchedulerConfig cfg = make_config(o.workers, rt::CutoffPolicy::none);
  const rt::SchedulerConfig cfg1 = make_config(1, rt::CutoffPolicy::none);
  const std::vector<int> lane_cpus(o.cpus.begin(), o.cpus.begin() + o.workers);

  // Set-up: the team, the lanes, the dag input of each with its serial
  // reference, and the graph record on every scheduler.
  std::vector<double> setup;
  std::unique_ptr<rt::Scheduler> sched;
  std::unique_ptr<Refs> refs;
  std::unique_ptr<Dag> dag;
  for (int pass = 0; pass < kSetupPasses; ++pass) {
    const std::int64_t t0 = now_ns();
    sched.reset();
    refs.reset();
    dag.reset();
    dag = std::make_unique<Dag>();
    sched = std::make_unique<rt::Scheduler>(cfg);
    refs = std::make_unique<Refs>(lane_cpus, cfg1);
    sched->run_single([] {});
    r.attempt(dag->run(*sched).ok, "dag record: result differs from serial LU");
    r.attempt(refs->run(2, false).ok,
              "dag record (1 worker): result differs from serial LU");
    setup.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }

  // Rounds until the window closes, phases in a seeded order. Each T-worker
  // rep follows the same work run as plain serial code on the lanes, and
  // every other round also runs the phases at one worker on the lanes. A
  // rep's stretch is relative to the phase's median one-worker time: runtime
  // code against runtime code, which drifts alike.
  std::vector<double> secs[3], secs1[3], serial[3], ns[3], ns1[3];
  std::uint64_t tasks_per_rep[3] = {0, 0, 0};
  std::vector<double> all_ms;
  int order[3] = {0, 1, 2};
  std::uint64_t rng = o.seed;
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(o.seconds * 1e9);
  for (int round = 0; round < kMinRounds || now_ns() < deadline; ++round) {
    for (int i = 3; i > 1; --i) std::swap(order[i - 1], order[mix64(rng) % static_cast<unsigned>(i)]);
    for (int ph : order) {
      const PhaseRep s = refs->run(ph, true);
      r.attempt(s.ok, std::string(kPhase[ph]) + " (serial): wrong answer");
      const PhaseRep p = run_phase(ph, *sched, *dag);
      r.attempt(p.ok && p.tasks > 0, std::string(kPhase[ph]) + ": wrong answer");
      serial[ph].push_back(s.seconds);
      secs[ph].push_back(p.seconds);
      ns[ph].push_back(ns_per_task(p));
      tasks_per_rep[ph] = p.tasks;
      all_ms.push_back(p.seconds * 1e3);
    }
    if (round % 2 == 0) {
      for (int ph : order) {
        const PhaseRep p = refs->run(ph, false);
        r.attempt(p.ok && p.tasks > 0, std::string(kPhase[ph]) + " (1 worker): wrong answer");
        secs1[ph].push_back(p.seconds);
        ns1[ph].push_back(ns_per_task(p));
      }
    }
  }

  {
    const rt::WorkerStats t = sched->stats().total;
    check_laws(r, t, t.graphs_replayed * dag->graph_edges(*sched), "tasks");
  }
  for (std::size_t i = 0; i < refs->lanes.size(); ++i) {
    rt::Scheduler& s = *refs->scheds[i];
    const rt::WorkerStats t = s.stats().total;
    check_laws(r, t, t.graphs_replayed * refs->dags[i]->graph_edges(s), "tasks (1 worker)");
  }

  double wall = 0;
  double tasks = 0;
  std::vector<double> speedups, scaling, stretch;
  for (int ph = 0; ph < 3; ++ph) {
    const double med = median_of(secs[ph]);
    const double ref = median_of(serial[ph]);
    wall += med;
    tasks += static_cast<double>(tasks_per_rep[ph]);
    speedups.push_back(ref / med);
    const double one = median_of(secs1[ph]);
    scaling.push_back(one / med);
    for (double s : secs[ph]) stretch.push_back(s / one);
  }

  const Summary st = summarize(stretch);
  const Summary lat = summarize(all_ms);
  r.metric("setup_s", "s", summarize(setup));
  r.metric("speedup_geomean", "x", geomean(speedups), 3);
  r.metric("stretch_p50", "x", st);
  r.detail("stretch_p99", "x", st.p99, st.n);
  std::ostringstream per;
  per << "{";
  for (int ph = 0; ph < 3; ++ph) {
    const std::string name = kPhase[ph];
    r.detail(name + "_ns_per_task", "ns", summarize(ns[ph]));
    r.detail(name + "_t1_ns_per_task", "ns", summarize(ns1[ph]));
    r.detail(name + "_serial_us", "us", median_of(serial[ph]) * 1e6, serial[ph].size());
    per << (ph ? "," : "") << json_str(name) << ":" << tasks_per_rep[ph];
  }
  per << "}";
  r.detail("wall_s", "s", wall, all_ms.size());
  r.detail("ns_per_task", "ns", wall * 1e9 / std::max(1.0, tasks), all_ms.size());
  r.detail("worker_scaling", "x", geomean(scaling), 3);
  r.detail("p50_ms", "ms", lat);
  r.detail("p99_ms", "ms", lat.p99, lat.n);
  r.detail("peak_rss_mb", "MB", peak_rss_mb());
  r.note("tasks_per_rep", per.str());
  r.note("dag_input", json_str(dag->describe()));
  r.note("scheduler_config", config_json(cfg));
}

}  // namespace perfbench
