// `suite` workload: the ten kernels in their Figure-3 best versions at T
// workers, each against its serial reference timed in the same process.
#include <algorithm>
#include <memory>
#include <numeric>
#include <sstream>

#include "bench.hpp"
#include "kernels.hpp"
#include "mix.hpp"
#include "runtime/rt.hpp"

namespace perfbench {

namespace {
constexpr int kSetupPasses = 5;
constexpr std::size_t kMinReps = 3;
}  // namespace

void run_suite(const Options& o, Report& r) {
  const rt::SchedulerConfig cfg = make_config(o.workers, rt::CutoffPolicy::max_tasks);

  // Set-up, repeated so its time is a median: inputs, scheduler, team wake.
  // Each pass makes the inputs on the next CPU in turn, so the median does
  // not follow the speed of the one CPU this thread happens to run on (see
  // Lanes); the team is built with the full mask again.
  std::vector<double> setup;
  std::vector<KernelOp> ks;
  std::unique_ptr<rt::Scheduler> sched;
  for (int pass = 0; pass < kSetupPasses; ++pass) {
    const std::int64_t t0 = now_ns();
    sched.reset();
    ks.clear();
    pin_current_thread({o.cpus[static_cast<std::size_t>(pass) % o.cpus.size()]});
    ks = make_kernels(o.seed);
    pin_current_thread(o.cpus);
    sched = std::make_unique<rt::Scheduler>(cfg);
    sched->run_single([] {});
    setup.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }

  // Kernel by kernel, in a seeded order: timed serial reference runs (the
  // first also yields the output every parallel run is checked against),
  // parallel runs for a tenth of the window, and more serial runs. The
  // serial runs go to the T worker CPUs one at a time, half of them before
  // the parallel runs and half after: each kernel's serial time is their
  // harmonic mean, so it neither follows the speed of one CPU (see Lanes)
  // nor the host's drift over the kernel's turn, and it stays the time of
  // the kernel running alone, as in the paper's Figure 3.
  Lanes lanes(std::vector<int>(o.cpus.begin(), o.cpus.begin() + o.workers));
  std::vector<std::size_t> order(ks.size());
  std::iota(order.begin(), order.end(), 0);
  std::uint64_t rng = o.seed;
  for (std::size_t i = ks.size(); i > 1; --i) {
    std::swap(order[i - 1], order[mix64(rng) % i]);
  }
  const auto share = static_cast<std::int64_t>(o.seconds * 1e9 / static_cast<double>(ks.size()));
  const auto timed = [](auto&& fn) {
    const std::int64_t t0 = now_ns();
    fn();
    return static_cast<double>(now_ns() - t0) * 1e-9;
  };
  std::vector<double> serial_s(ks.size());
  std::vector<std::vector<double>> times(ks.size());
  std::vector<std::vector<double>> tasks(ks.size());
  std::vector<double> all_ms, stretch;
  const auto serial_on = [&](KernelOp& op, std::size_t cpu, std::vector<double>& out) {
    lanes.run([&](std::size_t lane) {
      if (lane == cpu) out.push_back(timed(op.serial));
    });
  };
  const std::size_t half = (lanes.size() + 1) / 2;
  for (std::size_t k : order) {
    KernelOp& op = ks[k];
    std::vector<double> serial;
    for (std::size_t cpu = 0; cpu < half; ++cpu) serial_on(op, cpu, serial);
    const std::int64_t deadline = now_ns() + share;
    while (times[k].size() < kMinReps || now_ns() < deadline) {
      op.reset();
      sched->reset_stats();
      times[k].push_back(timed([&] { op.parallel(*sched); }));
      const rt::WorkerStats t = sched->stats().total;
      r.attempt(op.check(), op.name + ": output differs from the serial reference");
      check_laws(r, t, 0, op.name);
      tasks[k].push_back(static_cast<double>(t.tasks_deferred));
      all_ms.push_back(times[k].back() * 1e3);
    }
    for (std::size_t cpu = half; cpu < lanes.size(); ++cpu) serial_on(op, cpu, serial);
    serial_s[k] = harmonic_mean(serial);
    for (double t : times[k]) stretch.push_back(t / serial_s[k]);
  }

  double wall = 0;
  double deferred = 0;
  std::vector<double> speedups;
  std::ostringstream per;
  per << "{";
  for (std::size_t k = 0; k < ks.size(); ++k) {
    const Summary s = summarize(times[k]);
    wall += s.median;
    deferred += median_of(tasks[k]);
    speedups.push_back(serial_s[k] / s.median);
    per << (k ? "," : "") << json_str(ks[k].name) << ":{\"version\":"
        << json_str(ks[k].version) << ",\"input\":" << json_str(ks[k].input)
        << ",\"serial_s\":" << json_num(serial_s[k])
        << ",\"median_s\":" << json_num(s.median) << ",\"q1_s\":" << json_num(s.q1)
        << ",\"q3_s\":" << json_num(s.q3) << ",\"n\":" << s.n
        << ",\"speedup\":" << json_num(speedups.back())
        << ",\"deferred_tasks\":" << json_num(median_of(tasks[k])) << "}";
  }
  per << "}";

  const Summary st = summarize(stretch);
  const Summary lat = summarize(all_ms);
  r.metric("setup_s", "s", summarize(setup));
  r.metric("speedup_geomean", "x", geomean(speedups), ks.size());
  r.metric("stretch_p50", "x", st);
  r.detail("stretch_p99", "x", st.p99, st.n);
  r.detail("wall_s", "s", wall, all_ms.size());
  r.detail("ns_per_task", "ns", wall * 1e9 / std::max(1.0, deferred), all_ms.size());
  r.detail("p50_ms", "ms", lat);
  r.detail("p99_ms", "ms", lat.p99, lat.n);
  r.detail("peak_rss_mb", "MB", peak_rss_mb());
  r.note("kernels", per.str());
  r.note("scheduler_config", config_json(cfg));
}

}  // namespace perfbench
