// bots_run: the generic suite driver (the bots_main equivalent).
//
//   $ ./examples/bots_run -l                      # list apps and versions
//   $ ./examples/bots_run -a nqueens              # best version, small input
//   $ ./examples/bots_run -a sort -v tied -i medium -t 16 -r 3
//   $ ./examples/bots_run -a fib --serial -i small
//   $ ./examples/bots_run -a health --all-versions -i test
//
// Every run self-verifies unless --no-verify is given; the report prints
// elapsed time, the app metric when there is one (Floorplan nodes/s) and
// the scheduler's task counters.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/registry.hpp"
#include "runtime/rt.hpp"

namespace core = bots::core;
namespace rt = bots::rt;

namespace {

void usage() {
  std::puts(
      "usage: bots_run [options]\n"
      "  -l, --list            list applications and versions\n"
      "  -a <app>              application to run (required unless -l)\n"
      "  -v <version>          version name (default: the Figure 3 best)\n"
      "      --all-versions    run every version of the app\n"
      "      --serial          run the serial reference instead\n"
      "  -i <class>            input class: test|small|medium|large\n"
      "                        (default small)\n"
      "  -t <threads>          team size (default: hardware)\n"
      "  -r <reps>             repetitions, best-of (default 1)\n"
      "      --no-verify       skip self-verification\n"
      "      --stats           print per-worker scheduler counters\n"
      "      --deadline-ms <n> cancel any region still running after n ms\n"
      "                        (reported as status=deadline_exceeded)\n"
      "      --watchdog-ms <n> arm the stall watchdog: dump per-worker state\n"
      "                        to stderr when no task progresses for n ms\n"
      "      --fault-plan <s>  deterministic fault injection, e.g.\n"
      "                        'seed=7,all=0.02' or 'task_body=0.05'\n"
      "                        (sites: descriptor_alloc arena_carve\n"
      "                        thread_spawn pin mailbox_push task_body)\n"
      "      --tripwire-pool-locality\n"
      "                        exit nonzero if any descriptor retired into\n"
      "                        a pool off its birth node (pool_remote_frees\n"
      "                        > 0) or rests outside its owner's pool after\n"
      "                        a region — the CI locality guardrail for\n"
      "                        RT_NODE_POOLS=1 runs on any topology\n"
      "                        (implies --stats)\n"
      "      --trace-out <f>   write the per-worker event trace as\n"
      "                        Chrome-trace/perfetto JSON to <f> (implies\n"
      "                        RT_TRACE=1; also --trace-out=<f>)\n"
      "      --tripwire-pathology\n"
      "                        run the scheduling-pathology analyzers\n"
      "                        (creation-serialization, depth-first\n"
      "                        starvation, cross-node ping-pong) over the\n"
      "                        trace and exit nonzero if any fires\n"
      "                        (implies RT_TRACE=1)\n"
      "      --server --mix    persistent server mode: bring up a resident\n"
      "                        TaskServer and fire a seeded mixed-kernel\n"
      "                        request stream at it (no -a needed); also\n"
      "                        honours RT_SERVER_* (see README)\n"
      "      --rps <n>         server mode: target arrival rate (0 = closed\n"
      "                        loop, the default)\n"
      "      --requests <n>    server mode: request count (default 32)\n"
      "      --queue <n>       server mode: admission queue capacity\n");
}

void print_report(const core::RunReport& rep, bool with_stats) {
  std::printf("%-10s %-16s %-7s t=%-3u %8.3f s  verify=%s", rep.app.c_str(),
              rep.version.c_str(), to_string(rep.input), rep.threads,
              rep.seconds, to_string(rep.verified));
  if (rep.metric > 0.0) {
    std::printf("  %s=%s", rep.metric_name.c_str(),
                core::format_count(static_cast<std::uint64_t>(rep.metric))
                    .c_str());
  }
  std::printf("\n");
  if (!with_stats) return;
  // Every non-zero scheduler counter as name=value, in declaration order.
  std::string line;
  rep.runtime_stats.for_each([&line](const char* name, std::uint64_t v) {
    if (v == 0) return;
    const std::string item = std::string(name) + "=" + std::to_string(v);
    if (!line.empty() && line.size() + 1 + item.size() > 66) {
      std::printf("           %s\n", line.c_str());
      line.clear();
    }
    line += (line.empty() ? "" : " ") + item;
  });
  if (!line.empty()) std::printf("           %s\n", line.c_str());
}

// Region-level fault state, printed on the --stats channel only when
// something happened (the fault counters themselves print with the rest).
void print_fault_report(const rt::Scheduler& sched) {
  const std::uint64_t stalls = sched.stalls_detected();
  if (stalls == 0 && !sched.team_degraded() &&
      sched.last_region_status() == rt::RegionStatus::completed) {
    return;
  }
  std::printf("           faults: stalls=%llu team-degraded=%s status=%s\n",
              static_cast<unsigned long long>(stalls),
              sched.team_degraded() ? "yes" : "no",
              rt::to_string(sched.last_region_status()));
}

// ---------------------------------------------------------------------------
// --server --mix: resident TaskServer fed a seeded mixed request stream.
// Each request is an in-region task recursion (the kernels' own run()
// entries open their own region and cannot nest inside the resident one).
// ---------------------------------------------------------------------------

std::uint64_t mix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t x = state;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t mix_fib(int n) {
  if (n < 2) return static_cast<std::uint64_t>(n);
  std::uint64_t a = 0, b = 0;
  rt::spawn([&a, n] { a = mix_fib(n - 1); });
  rt::spawn([&b, n] { b = mix_fib(n - 2); });
  rt::taskwait();
  return a + b;
}

bool mix_request(std::uint64_t seed) {
  switch (seed % 3) {
    case 0: {  // fib with a known answer
      const int n = 14 + static_cast<int>(seed % 4);
      std::uint64_t a = 0, b = 1;
      for (int i = 0; i < n; ++i) { const std::uint64_t t = a + b; a = b; b = t; }
      return mix_fib(n) == a;
    }
    case 1: {  // spawn-sorted block, verified
      std::vector<std::uint32_t> v(4096);
      std::uint64_t s = seed, sum = 0;
      for (auto& x : v) { x = static_cast<std::uint32_t>(mix64(s)); sum += x; }
      std::function<void(std::size_t, std::size_t)> sort_rec =
          [&](std::size_t lo, std::size_t hi) {
            if (hi - lo <= 256) {
              std::sort(v.begin() + static_cast<std::ptrdiff_t>(lo),
                        v.begin() + static_cast<std::ptrdiff_t>(hi));
              return;
            }
            const std::size_t mid = lo + (hi - lo) / 2;
            rt::spawn([&, lo, mid] { sort_rec(lo, mid); });
            rt::spawn([&, mid, hi] { sort_rec(mid, hi); });
            rt::taskwait();
            std::inplace_merge(v.begin() + static_cast<std::ptrdiff_t>(lo),
                               v.begin() + static_cast<std::ptrdiff_t>(mid),
                               v.begin() + static_cast<std::ptrdiff_t>(hi));
          };
      sort_rec(0, v.size());
      std::uint64_t sum2 = 0;
      bool sorted = true;
      for (std::size_t i = 0; i < v.size(); ++i) {
        sorted = sorted && (i == 0 || v[i - 1] <= v[i]);
        sum2 += v[i];
      }
      return sorted && sum == sum2;
    }
    default: {  // alignment-style range scoring
      std::atomic<std::uint64_t> total{0};
      rt::spawn_range(0, 20000, 64, [&](std::int64_t i) {
        total.fetch_add(static_cast<std::uint64_t>(i) % 7,
                        std::memory_order_relaxed);
      });
      rt::taskwait();
      std::uint64_t expect = 0;
      for (std::int64_t i = 0; i < 20000; ++i) expect += static_cast<std::uint64_t>(i) % 7;
      return total.load() == expect;
    }
  }
}

// Drain every ring into the archive (between regions — idempotent with the
// per-worker region-exit drains) and write the Chrome-trace JSON.
int export_trace(rt::Scheduler& sched, const std::string& path) {
  rt::TraceCollector* tc = sched.tracer();
  if (tc == nullptr) {
    std::fprintf(stderr, "bots_run: --trace-out requires tracing (RT_TRACE=1 "
                 "or the flag itself should have forced it)\n");
    return 1;
  }
  tc->drain_all();
  if (!tc->export_chrome_trace(path.c_str())) {
    std::fprintf(stderr, "bots_run: failed to write trace to '%s'\n",
                 path.c_str());
    return 1;
  }
  std::printf("trace: wrote %s (%llu events archived, %llu dropped)\n",
              path.c_str(),
              static_cast<unsigned long long>(tc->total_events_drained()),
              static_cast<unsigned long long>(tc->dropped()));
  return 0;
}

void print_pathology_finding(const char* name,
                             const rt::PathologyFinding& f) {
  std::printf("pathology: %-24s %s%s%s\n", name,
              f.fired ? "FIRED" : "quiet",
              f.detail.empty() ? "" : " — ", f.detail.c_str());
}

// The pathology guardrail mirroring --tripwire-pool-locality: nonzero exit
// when any detector fires — and when the check would be vacuous (no trace,
// no events) because a silently empty trace must trip, not pass.
int run_pathology_tripwire(rt::Scheduler& sched,
                           const rt::StatsSnapshot& window, bool fail_on_fire) {
  rt::TraceCollector* tc = sched.tracer();
  if (tc == nullptr) {
    std::fprintf(stderr,
                 "TRIPWIRE: tracing is INACTIVE — the pathology check would "
                 "be vacuous. Run with RT_TRACE=1 (the --tripwire-pathology "
                 "flag forces it; check knob plumbing).\n");
    return 1;
  }
  tc->drain_all();
  if (fail_on_fire &&
      window.total.tasks_deferred + window.total.tasks_inlined_fast == 0) {
    std::fprintf(stderr,
                 "TRIPWIRE: the run counted zero spawns — the pathology "
                 "check would be vacuous (did the run spawn any tasks?)\n");
    return 1;
  }
  const rt::PathologyReport rep = rt::analyze_pathologies(*tc, window);
  print_pathology_finding("creation-serialization", rep.creation_serialization);
  print_pathology_finding("depth-first-starvation", rep.depth_first_starvation);
  print_pathology_finding("cross-node-ping-pong", rep.cross_node_ping_pong);
  if (rep.any()) {
    if (!fail_on_fire) return 0;  // RT_PATHOLOGY report mode: advisory only
    std::fprintf(stderr,
                 "TRIPWIRE: scheduling pathology detected (see report above) "
                 "— the run exhibits a detrimental execution pattern\n");
    return 1;
  }
  if (fail_on_fire) {
    std::printf("tripwire ok: all pathology detectors quiet (%llu events, "
                "%llu dropped)\n",
                static_cast<unsigned long long>(tc->total_events_drained()),
                static_cast<unsigned long long>(tc->dropped()));
  }
  return 0;
}

int run_server_mix(unsigned threads, unsigned requests, unsigned rps,
                   std::uint32_t queue, std::uint32_t deadline_ms,
                   const std::string& fault_plan,
                   const std::string& trace_out) {
  rt::SchedulerConfig cfg;
  cfg.num_threads = threads;
  if (!fault_plan.empty()) cfg.fault_plan = fault_plan;
  if (!trace_out.empty()) cfg.trace = true;
  rt::Scheduler sched(cfg);
  rt::ServerConfig sc = rt::ServerConfig::from_env();
  if (queue > 0) sc.queue_capacity = queue;
  if (deadline_ms > 0) sc.default_deadline_ms = deadline_ms;
  rt::TaskServer server(sched, sc);

  std::vector<rt::RegionHandle> handles(requests);
  auto ok = std::make_shared<std::vector<std::atomic<bool>>>(requests);
  std::uint64_t rng = 12345;
  const auto t0 = std::chrono::steady_clock::now();
  double due_us = 0;
  for (unsigned i = 0; i < requests; ++i) {
    const std::uint64_t seed = mix64(rng);
    auto res = server.submit([ok, i, seed] {
      (*ok)[i].store(mix_request(seed), std::memory_order_release);
    });
    handles[i] = res.handle;
    if (rps == 0) {
      handles[i].wait();
    } else {
      due_us += 1e6 / rps;
      std::this_thread::sleep_until(
          t0 + std::chrono::microseconds(static_cast<std::int64_t>(due_us)));
    }
  }
  std::uint64_t completed = 0, cancelled = 0, deadline = 0, rejected = 0,
                 wrong = 0, nonterminal = 0;
  std::vector<double> lat_ms;
  for (unsigned i = 0; i < requests; ++i) {
    switch (handles[i].wait()) {
      case rt::RequestStatus::completed:
        ++completed;
        if (!(*ok)[i].load(std::memory_order_acquire)) ++wrong;
        lat_ms.push_back(static_cast<double>(handles[i].latency().count()) / 1e3);
        break;
      case rt::RequestStatus::cancelled: ++cancelled; break;
      case rt::RequestStatus::deadline_exceeded: ++deadline; break;
      case rt::RequestStatus::rejected_overload: ++rejected; break;
      case rt::RequestStatus::pending: ++nonterminal; break;
    }
    if (!handles[i].ledger_balanced()) ++wrong;
  }
  server.drain();
  const rt::ServerStats st = server.stats();
  double p50 = 0, p99 = 0;
  if (!lat_ms.empty()) {
    std::sort(lat_ms.begin(), lat_ms.end());
    p50 = lat_ms[lat_ms.size() / 2];
    p99 = lat_ms[std::min(lat_ms.size() - 1, lat_ms.size() * 99 / 100)];
  }
  std::printf(
      "server-mix t=%-3u requests=%u rps=%u queue=%u  completed=%llu "
      "cancelled=%llu deadline=%llu rejected=%llu shed=%llu  p50=%.3fms "
      "p99=%.3fms\n",
      threads, requests, rps, sc.queue_capacity,
      static_cast<unsigned long long>(completed),
      static_cast<unsigned long long>(cancelled),
      static_cast<unsigned long long>(deadline),
      static_cast<unsigned long long>(rejected),
      static_cast<unsigned long long>(st.shed), p50, p99);
  if (!trace_out.empty() && export_trace(sched, trace_out) != 0) return 1;
  const bool conserved =
      completed + cancelled + deadline + rejected == requests &&
      st.submitted == st.completed + st.cancelled + st.deadline_exceeded +
                          st.rejected;
  if (nonterminal != 0 || wrong != 0 || !conserved) {
    std::fprintf(stderr,
                 "server-mix FAILED: nonterminal=%llu wrong=%llu conserved=%s\n",
                 static_cast<unsigned long long>(nonterminal),
                 static_cast<unsigned long long>(wrong),
                 conserved ? "yes" : "no");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string app_name;
  std::optional<std::string> version;
  core::InputClass input = core::InputClass::small;
  unsigned threads = std::thread::hardware_concurrency();
  int reps = 1;
  bool list = false;
  bool serial = false;
  bool all_versions = false;
  bool verify = true;
  bool stats = false;
  bool tripwire_pool_locality = false;
  bool tripwire_pathology = false;
  std::string trace_out;
  std::uint32_t deadline_ms = 0;
  std::uint32_t watchdog_ms = 0;
  std::string fault_plan;
  bool server_mode = false;
  bool mix = false;
  unsigned rps = 0;
  unsigned server_requests = 32;
  std::uint32_t server_queue = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage();
        std::exit(2);
      }
      return argv[++i];
    };
    // Numeric option values share the runtime's hardened env parser: a
    // malformed count is a usage error, never UB or a silent zero.
    auto next_u32 = [&](const char* what) -> std::uint32_t {
      const char* v = next();
      std::uint32_t out = 0;
      if (!rt::parse_u32(v, out)) {
        std::fprintf(stderr, "bots_run: invalid %s '%s' (expected an "
                     "unsigned integer)\n", what, v);
        std::exit(2);
      }
      return out;
    };
    if (arg == "-l" || arg == "--list") {
      list = true;
    } else if (arg == "-a") {
      app_name = next();
    } else if (arg == "-v") {
      version = next();
    } else if (arg == "--all-versions") {
      all_versions = true;
    } else if (arg == "--serial") {
      serial = true;
    } else if (arg == "-i") {
      const auto parsed = core::parse_input_class(next());
      if (!parsed) {
        std::fprintf(stderr, "unknown input class\n");
        return 2;
      }
      input = *parsed;
    } else if (arg == "-t") {
      threads = next_u32("thread count");
    } else if (arg == "-r") {
      reps = static_cast<int>(next_u32("repetition count"));
    } else if (arg == "--deadline-ms") {
      deadline_ms = next_u32("deadline");
    } else if (arg == "--watchdog-ms") {
      watchdog_ms = next_u32("watchdog interval");
    } else if (arg == "--fault-plan") {
      fault_plan = next();
    } else if (arg == "--no-verify") {
      verify = false;
    } else if (arg == "--stats") {
      stats = true;
    } else if (arg == "--tripwire-pool-locality") {
      tripwire_pool_locality = true;
      stats = true;
    } else if (arg == "--trace-out") {
      trace_out = next();
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      trace_out = arg.substr(std::strlen("--trace-out="));
    } else if (arg == "--tripwire-pathology") {
      tripwire_pathology = true;
    } else if (arg == "--server") {
      server_mode = true;
    } else if (arg == "--mix") {
      mix = true;
    } else if (arg == "--rps") {
      rps = next_u32("arrival rate");
    } else if (arg == "--requests") {
      server_requests = next_u32("request count");
    } else if (arg == "--queue") {
      server_queue = next_u32("queue capacity");
    } else {
      usage();
      return arg == "-h" || arg == "--help" ? 0 : 2;
    }
  }

  if (list) {
    for (const auto& app : core::apps()) {
      std::printf("%-10s %s%s\n  versions:", app.name.c_str(),
                  app.domain.c_str(), app.extension ? " [extension]" : "");
      for (const auto& v : app.versions) {
        std::printf(" %s%s", v.name.c_str(), v.paper_best ? "*" : "");
      }
      std::printf("\n  inputs: test=%s small=%s medium=%s large=%s\n",
                  app.describe_input(core::InputClass::test).c_str(),
                  app.describe_input(core::InputClass::small).c_str(),
                  app.describe_input(core::InputClass::medium).c_str(),
                  app.describe_input(core::InputClass::large).c_str());
    }
    return 0;
  }

  if (server_mode) {
    if (!mix) {
      std::fprintf(stderr,
                   "bots_run: --server currently requires --mix (the seeded "
                   "mixed-kernel request stream)\n");
      return 2;
    }
    return run_server_mix(threads, server_requests, rps, server_queue,
                          deadline_ms, fault_plan, trace_out);
  }

  const auto* app = core::find_app(app_name);
  if (app == nullptr) {
    std::fprintf(stderr, "unknown application '%s' (use -l to list)\n",
                 app_name.c_str());
    return 2;
  }

  if (serial) {
    core::RunReport best;
    for (int r = 0; r < reps; ++r) {
      auto rep = app->run_serial(input);
      if (r == 0 || rep.seconds < best.seconds) best = rep;
    }
    print_report(best, false);
    return best.verified == core::Verified::failed ? 1 : 0;
  }

  std::vector<std::string> to_run;
  if (all_versions) {
    for (const auto& v : app->versions) to_run.push_back(v.name);
  } else {
    to_run.push_back(version.value_or(app->best_version().name));
  }

  rt::SchedulerConfig cfg;
  cfg.num_threads = threads;
  if (deadline_ms > 0) cfg.region_deadline_ms = deadline_ms;
  if (watchdog_ms > 0) cfg.watchdog_ms = watchdog_ms;
  if (!fault_plan.empty()) cfg.fault_plan = fault_plan;
  // Both trace consumers force the producer on — a trace flag that silently
  // produced an empty file would be worse than an error.
  if (!trace_out.empty() || tripwire_pathology) cfg.trace = true;
  rt::Scheduler sched(cfg);
  int exit_code = 0;
  // Counters across every rep, not just the best: each run resets them, and
  // the pathology check needs the window the whole trace covers.
  rt::StatsSnapshot window;
  for (const auto& v : to_run) {
    core::RunReport best;
    for (int r = 0; r < reps; ++r) {
      auto rep = app->run(input, v, sched, verify);
      window += sched.stats();
      if (r == 0 || rep.seconds < best.seconds) best = rep;
    }
    print_report(best, stats);
    if (stats) print_fault_report(sched);
    // A deadline-cancelled run produced a truncated (unverifiable) answer;
    // report it as a failure distinct from a verify mismatch.
    if (sched.last_region_status() != rt::RegionStatus::completed) {
      std::fprintf(stderr, "bots_run: region ended with status=%s\n",
                   rt::to_string(sched.last_region_status()));
      exit_code = 1;
    }
    if (best.verified == core::Verified::failed) exit_code = 1;
  }
  if (!trace_out.empty() && export_trace(sched, trace_out) != 0) {
    exit_code = 1;
  }
  if (tripwire_pool_locality) {
    // The locality guardrail mirroring bench_spawn_overhead's zero-alloc
    // tripwire: with owner-return active, a descriptor retiring into a pool
    // off its birth node is a regression of the whole mechanism — fail
    // loudly so CI trips instead of the next paper-figure rerun. Owner-
    // return is active on every topology, so only broken knob plumbing
    // (RT_NODE_POOLS=0, a use_task_pool regression) can make the checks
    // below vacuous — and that is a trip too.
    if (!sched.node_pools_active()) {
      std::fprintf(stderr,
                   "TRIPWIRE: node pools are INACTIVE — the locality "
                   "guardrail would be vacuous. Run with RT_NODE_POOLS=1 "
                   "and pooling on.\n");
      return 1;
    }
    const std::uint64_t remote_frees = window.total.pool_remote_frees;
    if (remote_frees > 0) {
      std::fprintf(stderr,
                   "TRIPWIRE: pool-locality regression — %llu descriptor "
                   "free(s) landed off their birth node (pool_remote_frees "
                   "must be 0 while node pools are on; node_pools_active=%s)\n",
                   static_cast<unsigned long long>(remote_frees),
                   sched.node_pools_active() ? "yes" : "no");
      return 1;
    }
    // The counter above guards the retire ROUTING knob; the resting-place
    // balance guards the routing ITSELF (e.g. a stash spliced into the
    // wrong owner's pool keeps the counter at zero but breaks this):
    // between regions, every descriptor carved by a node's workers must
    // rest in its owner's pool, with nothing left in transit.
    const auto snap = sched.node_pool_snapshot();
    for (std::size_t n = 0; n < snap.size(); ++n) {
      if (snap[n].in_transit != 0 ||
          snap[n].cached + snap[n].arena_free != snap[n].arena_carved) {
        std::fprintf(stderr,
                     "TRIPWIRE: pool-locality imbalance on node %zu — "
                     "cached=%zu arena_free=%zu in_transit=%zu != "
                     "carved=%zu (descriptors rest outside their owner's "
                     "pool)\n",
                     n, snap[n].cached, snap[n].arena_free,
                     snap[n].in_transit, snap[n].arena_carved);
        return 1;
      }
    }
    std::printf("tripwire ok: pool_remote_frees=0 and per-node pool balance "
                "exact across %d rep(s) (node_pools_active=%s)\n",
                reps, sched.node_pools_active() ? "yes" : "no");
  }
  if (tripwire_pathology || sched.config().pathology) {
    const int rc = run_pathology_tripwire(sched, window, tripwire_pathology);
    if (rc != 0) return rc;
  }
  return exit_code;
}
