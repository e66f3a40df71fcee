// `server` workload: a resident TaskServer with host_cpus - 1 workers fed by
// one submitter on its own core. An open loop at a fixed offered rate gives
// request latency; a closed loop with 2 x team requests in flight gives
// capacity.
#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "serve.hpp"

namespace perfbench {

namespace {
constexpr int kSetupPasses = 5;
constexpr int kSegments = 20;
constexpr int kSerialPasses = 4;  // of Mix::balanced(), 32 requests each
}  // namespace

ServerRig::ServerRig(const Options& o, std::uint64_t seed)
    : mix(seed), all_cpus_(o.cpus) {
  if (all_cpus_.size() < 2) {
    throw std::runtime_error("server workload needs at least 2 CPUs");
  }
  team = static_cast<unsigned>(all_cpus_.size() - 1);
  cfg = make_config(team, rt::CutoffPolicy::max_tasks);
  scfg.queue_capacity = 4096;
  scfg.max_live = 0;
  scfg.fairness = rt::ServerFairness::fifo;
  scfg.shed_on_overload = false;
  scfg.default_deadline_ms = 0;
  scfg.watchdog_ms = 0;
  scfg.retune_ms = 0;
  // Threads inherit the creator's mask: build the team on the worker CPUs,
  // then move the submitter (this thread) to the CPU left over.
  const std::vector<int> workers(all_cpus_.begin(), all_cpus_.end() - 1);
  pin_current_thread(workers);
  sched = std::make_unique<rt::Scheduler>(cfg);
  server = std::make_unique<rt::TaskServer>(*sched, scfg);
  pin_current_thread({all_cpus_.back()});
  auto wake = server->submit([] {});
  wake.handle.wait();
}

ServerRig::~ServerRig() {
  if (server) server->drain();
  server.reset();
  sched.reset();
  pin_current_thread(all_cpus_);
}

void ServerRig::submit(const Mix::Req& req, ReqStamp& st) {
  ReqStamp* s = &st;
  const Mix* m = &mix;
  st.call = now_ns();
  auto res = server->submit([s, m, req] {
    s->start.store(now_ns(), std::memory_order_relaxed);
    const bool ok = m->run(req);
    s->end.store(now_ns(), std::memory_order_relaxed);
    s->ok.store(ok, std::memory_order_release);
  });
  st.ret = now_ns();
  st.h = res.handle;
}

void ServerRig::finish(Report& r) {
  if (finished_) return;
  finished_ = true;
  server->drain();
  const rt::ServerStats ss = server->stats();
  r.attempt(ss.submitted == ss.completed + ss.cancelled + ss.deadline_exceeded + ss.rejected,
        "server: submitted != completed + cancelled + deadline_exceeded + rejected");
  server.reset();
  check_laws(r, sched->stats().total, 0, "server");
}

void settle(ReqStamp& st, Report& r) {
  const bool ok = st.h.wait() == rt::RequestStatus::completed &&
                  st.ok.load(std::memory_order_acquire) && st.h.ledger_balanced();
  r.attempt(ok, "server: request not completed, wrong answer or unbalanced ledger");
  st.deferred = st.h.tasks_deferred();
}

void open_loop(ServerRig& rig, double rps, double seconds, std::uint64_t& rng,
               std::deque<ReqStamp>& out, Report& r) {
  const auto n = static_cast<std::size_t>(rps * seconds);
  const double gap_ns = 1e9 / rps;
  const std::size_t first = out.size();
  const std::int64_t t0 = now_ns();
  for (std::size_t i = 0; i < n; ++i) {
    ReqStamp& st = out.emplace_back();
    st.due = t0 + static_cast<std::int64_t>(static_cast<double>(i) * gap_ns);
    const Mix::Req req = rig.mix.draw(rng);
    while (now_ns() < st.due) rt::cpu_relax();
    rig.submit(req, st);
  }
  for (std::size_t i = first; i < out.size(); ++i) settle(out[i], r);
}

double closed_loop(ServerRig& rig, unsigned outstanding, double seconds,
                   std::uint64_t& rng, std::deque<ReqStamp>& out, Report& r) {
  const std::size_t first = out.size();
  std::size_t oldest = first;
  const std::int64_t t0 = now_ns();
  const std::int64_t deadline = t0 + static_cast<std::int64_t>(seconds * 1e9);
  while (now_ns() < deadline) {
    if (out.size() - oldest < outstanding) {
      ReqStamp& st = out.emplace_back();
      st.due = now_ns();
      rig.submit(rig.mix.draw(rng), st);
    } else {
      out[oldest].h.wait();
      out[oldest].waited = now_ns();
      ++oldest;
    }
  }
  for (; oldest < out.size(); ++oldest) {
    out[oldest].h.wait();
    out[oldest].waited = now_ns();
  }
  const double elapsed = static_cast<double>(now_ns() - t0) * 1e-9;
  for (std::size_t i = first; i < out.size(); ++i) settle(out[i], r);
  return static_cast<double>(out.size() - first) / elapsed;
}

void run_server(const Options& o, Report& r) {
  std::vector<double> setup;
  std::unique_ptr<ServerRig> rig;
  for (int pass = 0; pass < kSetupPasses; ++pass) {
    const std::int64_t t0 = now_ns();
    rig.reset();
    rig = std::make_unique<ServerRig>(o, o.seed);
    setup.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }

  // Segments of an open loop and a closed loop, with a serial reference
  // batch before and after each loop: the mix's balanced batch run inline,
  // outside any region, where every spawn executes at once, on one lane per
  // worker CPU. Each loop's ratio uses the mean of the two batches around
  // it, so it holds while the host's speed drifts.
  Lanes lanes(std::vector<int>(o.cpus.begin(), o.cpus.begin() + rig->team));
  const std::vector<Mix::Req> batch = rig->mix.balanced();
  const std::size_t per_lane = kSerialPasses * batch.size();
  std::vector<double> serial_ms;
  // Seconds per request on the lanes (their harmonic mean).
  const auto serial_batch = [&] {
    std::vector<double> lane_s(lanes.size());
    std::vector<std::size_t> lane_ok(lanes.size(), 0);
    lanes.run([&](std::size_t lane) {
      const std::int64_t start = now_ns();
      for (int pass = 0; pass < kSerialPasses; ++pass) {
        for (const Mix::Req& req : batch) lane_ok[lane] += rig->mix.run(req) ? 1 : 0;
      }
      lane_s[lane] = static_cast<double>(now_ns() - start) * 1e-9;
    });
    for (std::size_t lane = 0; lane < lanes.size(); ++lane) {
      for (std::size_t i = 0; i < per_lane; ++i) {
        r.attempt(i < lane_ok[lane], "server: serial reference request gave a wrong answer");
      }
    }
    const double serial = harmonic_mean(lane_s) / static_cast<double>(per_lane);
    serial_ms.push_back(serial * 1e3);
    return serial;
  };

  std::uint64_t rng = o.seed * 0x2545F4914F6CDD1DULL + 1;
  std::deque<ReqStamp> open, closed;
  std::vector<double> speedups, stretch, lat_ms, late_ms;
  double closed_s = 0;
  double before = serial_batch();
  for (int seg = 0; seg < kSegments; ++seg) {
    const std::size_t first = open.size();
    open_loop(*rig, kOpenLoopRps, o.seconds * 0.6 / kSegments, rng, open, r);
    const double mid = serial_batch();
    const double open_ref = (before + mid) / 2;
    for (std::size_t i = first; i < open.size(); ++i) {
      const ReqStamp& st = open[i];
      const double lat_s = static_cast<double>(st.ret - st.due) * 1e-9 +
                           static_cast<double>(st.h.latency().count()) * 1e-6;
      lat_ms.push_back(lat_s * 1e3);
      stretch.push_back(lat_s / open_ref);
      late_ms.push_back(static_cast<double>(st.call - st.due) * 1e-6);
    }

    const std::int64_t t0 = now_ns();
    const double rps = closed_loop(*rig, 2 * rig->team, o.seconds * 0.4 / kSegments,
                                   rng, closed, r);
    closed_s += static_cast<double>(now_ns() - t0) * 1e-9;
    const double after = serial_batch();
    speedups.push_back(rps * (mid + after) / 2);
    before = after;
  }
  const double capacity = static_cast<double>(closed.size()) / closed_s;
  rig->finish(r);

  double deferred = 0;
  for (const ReqStamp& st : closed) deferred += static_cast<double>(st.deferred);
  deferred /= static_cast<double>(std::max<std::size_t>(1, closed.size()));

  const Summary st = summarize(stretch);
  const Summary lat = summarize(lat_ms);
  const Summary late = summarize(late_ms);
  r.metric("setup_s", "s", summarize(setup));
  r.metric("speedup_geomean", "x", summarize(speedups));
  r.metric("stretch_p50", "x", st);
  r.detail("stretch_p99", "x", st.p99, st.n);
  r.detail("capacity_rps", "1/s", capacity, closed.size());
  r.detail("wall_s", "s", 1000.0 / capacity, closed.size());
  r.detail("ns_per_task", "ns", 1e9 / capacity / std::max(1.0, deferred), closed.size());
  r.detail("p50_ms", "ms", lat);
  r.detail("p99_ms", "ms", lat.p99, lat.n);
  r.detail("serial_ms_per_request", "ms", summarize(serial_ms));
  r.detail("gen_late_p99_ms", "ms", late.p99, late.n);
  r.detail("peak_rss_mb", "MB", peak_rss_mb());

  std::ostringstream s;
  s << "{\"offered_rps\":" << json_num(kOpenLoopRps)
    << ",\"open_requests\":" << open.size()
    << ",\"closed_requests\":" << closed.size()
    << ",\"outstanding\":" << 2 * rig->team
    << ",\"deferred_per_request\":" << json_num(deferred) << "}";
  r.note("server", s.str());
  r.note("scheduler_config", config_json(rig->cfg));
  r.note("server_config", server_config_json(rig->scfg));
  if (late.p99 > 1.0) {
    std::printf("warning: the submitter ran late (p99 %.3f ms); p99_ms is not valid\n",
                late.p99);
  }
}

}  // namespace perfbench
