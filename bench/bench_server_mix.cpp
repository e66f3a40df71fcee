// Server-mix benchmark (PR 7): a seeded mixed-kernel request stream —
// fib recursion, spawn-based mergesort, alignment-style pair scoring —
// fired at the resident TaskServer at a configurable arrival rate.
//
// Protocol, three legs over the same scheduler:
//   calibrate  closed-loop (submit, wait, repeat): measures mean service
//              time and derives the saturation rate sat_rps ~= team /
//              mean_service.
//   normal     open-loop arrivals at 0.5 x sat_rps, no deadlines: the
//              server should complete essentially everything.
//   overload   open-loop arrivals at 2.0 x sat_rps with a per-request
//              deadline: proves smooth degradation — excess load turns
//              into bounded-latency rejects/sheds/deadline kills, never
//              into unbounded queueing or lost requests.
//
// Every leg reports p50/p99 admission-to-terminal latency, the p50/p99 of
// its queue-wait part (admission to pickup), throughput and the
// terminal-state tally as one "SERVERMIX: {json}" line, and the process
// exits non-zero if ANY robustness invariant fails:
//   * every submitted request reaches exactly one terminal state
//   * per-request ledgers balance (executed + discarded == deferred)
//   * no request's queue wait exceeds its latency
//   * completed requests produced the right answers
//   * global per-worker accounting balances after drain
//   * node pools balance after drain (when active)
//   * overload p99 stays bounded (deadline + slack)
//
// Runs under the CI TSAN soak and under RT_FAULT_PLAN legs unchanged: the
// conservation law must hold with faults injected too.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "runtime/rt.hpp"

namespace rt = bots::rt;

namespace {

int g_failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", what);
    ++g_failures;
  }
}

// splitmix64: the bench's only randomness, fully determined by --seed.
std::uint64_t mix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t x = state;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// ---------------------------------------------------------------------------
// Request kernels — in-region task recursions, each with a built-in answer
// check so a completed-but-wrong request is caught.
// ---------------------------------------------------------------------------

std::uint64_t fib_ref(int n) {
  std::uint64_t a = 0, b = 1;
  for (int i = 0; i < n; ++i) {
    const std::uint64_t t = a + b;
    a = b;
    b = t;
  }
  return a;
}

std::uint64_t fib_task(int n) {
  if (n < 2) return static_cast<std::uint64_t>(n);
  std::uint64_t a = 0, b = 0;
  rt::spawn([&a, n] { a = fib_task(n - 1); });
  rt::spawn([&b, n] { b = fib_task(n - 2); });
  rt::taskwait();
  return a + b;
}

bool req_fib(std::uint64_t seed) {
  const int n = 14 + static_cast<int>(seed % 4);  // 14..17
  return fib_task(n) == fib_ref(n);
}

void msort(std::vector<std::uint32_t>& v, std::vector<std::uint32_t>& tmp,
           std::size_t lo, std::size_t hi) {
  if (hi - lo <= 64) {
    std::sort(v.begin() + static_cast<std::ptrdiff_t>(lo),
              v.begin() + static_cast<std::ptrdiff_t>(hi));
    return;
  }
  const std::size_t mid = lo + (hi - lo) / 2;
  rt::spawn([&v, &tmp, lo, mid] { msort(v, tmp, lo, mid); });
  rt::spawn([&v, &tmp, mid, hi] { msort(v, tmp, mid, hi); });
  rt::taskwait();
  std::merge(v.begin() + static_cast<std::ptrdiff_t>(lo),
             v.begin() + static_cast<std::ptrdiff_t>(mid),
             v.begin() + static_cast<std::ptrdiff_t>(mid),
             v.begin() + static_cast<std::ptrdiff_t>(hi),
             tmp.begin() + static_cast<std::ptrdiff_t>(lo));
  std::copy(tmp.begin() + static_cast<std::ptrdiff_t>(lo),
            tmp.begin() + static_cast<std::ptrdiff_t>(hi),
            v.begin() + static_cast<std::ptrdiff_t>(lo));
}

bool req_sort(std::uint64_t seed) {
  const std::size_t n = 8192 + (seed % 4096);
  std::vector<std::uint32_t> v(n);
  std::vector<std::uint32_t> tmp(n);
  std::uint64_t s = seed;
  std::uint64_t sum = 0;
  for (auto& x : v) {
    x = static_cast<std::uint32_t>(mix64(s));
    sum += x;
  }
  msort(v, tmp, 0, n);
  std::uint64_t sum2 = v[0];
  bool sorted = true;
  for (std::size_t i = 1; i < n; ++i) {
    sorted = sorted && v[i - 1] <= v[i];
    sum2 += v[i];
  }
  return sorted && sum == sum2;  // sorted AND a permutation of the input
}

// Alignment-flavoured kernel: score every sequence pair (i, j) with a tiny
// rolling comparison, summed via spawn_range — the worksharing path under
// server multiplexing.
bool req_align(std::uint64_t seed) {
  constexpr std::int64_t kSeqs = 48;
  constexpr int kLen = 64;
  std::vector<std::uint8_t> seqs(static_cast<std::size_t>(kSeqs) * kLen);
  std::uint64_t s = seed;
  for (auto& c : seqs) c = static_cast<std::uint8_t>(mix64(s) % 20);
  auto score_pair = [&seqs](std::int64_t i, std::int64_t j) {
    std::uint64_t sc = 0;
    for (int k = 0; k < kLen; ++k) {
      const std::uint8_t a = seqs[static_cast<std::size_t>(i) * kLen +
                                  static_cast<std::size_t>(k)];
      const std::uint8_t b = seqs[static_cast<std::size_t>(j) * kLen +
                                  static_cast<std::size_t>(k)];
      sc += a == b ? 3u : (a % 4 == b % 4 ? 1u : 0u);
    }
    return sc;
  };
  std::atomic<std::uint64_t> total{0};
  rt::spawn_range(0, kSeqs * kSeqs, 8, [&](std::int64_t idx) {
    total.fetch_add(score_pair(idx / kSeqs, idx % kSeqs),
                    std::memory_order_relaxed);
  });
  rt::taskwait();
  std::uint64_t expect = 0;
  for (std::int64_t i = 0; i < kSeqs; ++i) {
    for (std::int64_t j = 0; j < kSeqs; ++j) expect += score_pair(i, j);
  }
  return total.load() == expect;
}

// ---------------------------------------------------------------------------
// Leg driver.
// ---------------------------------------------------------------------------

struct LegResult {
  std::string name;
  double target_rps = 0;  // 0 = closed loop
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t deadline_exceeded = 0;
  std::uint64_t rejected = 0;
  std::uint64_t shed = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double queue_wait_p50_ms = 0;  // admission to pickup; shed requests read 0
  double queue_wait_p99_ms = 0;
  double throughput_rps = 0;
  double wall_s = 0;
  double mean_service_us = 0;  // completed requests only
};

struct Options {
  unsigned threads = std::thread::hardware_concurrency();
  unsigned requests = 96;  // per open-loop leg
  unsigned queue = 32;
  std::uint64_t seed = 42;
  unsigned overload_deadline_ms = 500;
  /// Live-reconfiguration churn (PR 9): a background thread hot-swaps the
  /// steal policy every this-many ms across ALL legs (0 = off). Every
  /// invariant above must hold unchanged under churn — the CI soak runs
  /// this at 10ms. Also settable via RT_BENCH_CHURN_MS.
  unsigned churn_ms = 0;
};

// Fire `n` requests at the server. interarrival_us == 0 -> closed loop
// (wait for each before the next); otherwise open loop with +-50% seeded
// jitter around the given mean gap.
LegResult run_leg(rt::TaskServer& server, const char* name, unsigned n,
                  double interarrival_us, unsigned deadline_ms,
                  std::uint64_t seed) {
  LegResult r;
  r.name = name;
  r.target_rps = interarrival_us > 0 ? 1e6 / interarrival_us : 0;
  const rt::ServerStats before = server.stats();

  std::vector<rt::RegionHandle> handles(n);
  // One result slot per request, written by the body, read only after the
  // handle is terminal.
  auto ok_flags = std::make_shared<std::vector<std::atomic<bool>>>(n);
  std::uint64_t rng = seed;

  const auto t0 = std::chrono::steady_clock::now();
  // Open-loop pacing against an ABSOLUTE schedule: each arrival has a fixed
  // due time, and a submitter that falls behind bursts to catch up instead
  // of silently degrading the target rate (sleep_for overhead would
  // otherwise clamp high rates to the service rate and no overload would
  // ever materialize).
  double due_us = 0;
  for (unsigned i = 0; i < n; ++i) {
    const std::uint64_t req_seed = mix64(rng);
    const unsigned kind = static_cast<unsigned>(req_seed % 3);
    auto body = [ok_flags, i, kind, req_seed] {
      bool ok = false;
      switch (kind) {
        case 0: ok = req_fib(req_seed); break;
        case 1: ok = req_sort(req_seed); break;
        default: ok = req_align(req_seed); break;
      }
      (*ok_flags)[i].store(ok, std::memory_order_release);
    };
    auto res = server.submit(std::move(body),
                             {.weight = 1, .deadline_ms = deadline_ms});
    handles[i] = res.handle;
    if (interarrival_us <= 0) {
      handles[i].wait();
    } else {
      const double jitter = 0.5 + static_cast<double>(mix64(rng) % 1000) / 1000.0;
      due_us += interarrival_us * jitter;
      std::this_thread::sleep_until(
          t0 + std::chrono::microseconds(static_cast<std::int64_t>(due_us)));
    }
  }
  // Every handle terminal before the clock stops — admitted or rejected,
  // nothing may be left pending.
  std::vector<double> lat_ms;
  std::vector<double> wait_ms;
  lat_ms.reserve(n);
  wait_ms.reserve(n);
  std::uint64_t service_sum_us = 0;
  for (unsigned i = 0; i < n; ++i) {
    const rt::RequestStatus st = handles[i].wait();
    check(handles[i].done(), "request left non-terminal");
    check(handles[i].ledger_balanced(), "per-request ledger imbalance");
    switch (st) {
      case rt::RequestStatus::completed:
        ++r.completed;
        check((*ok_flags)[i].load(std::memory_order_acquire),
              "completed request produced a wrong answer");
        service_sum_us += static_cast<std::uint64_t>(handles[i].latency().count());
        break;
      case rt::RequestStatus::cancelled: ++r.cancelled; break;
      case rt::RequestStatus::deadline_exceeded: ++r.deadline_exceeded; break;
      case rt::RequestStatus::rejected_overload: ++r.rejected; break;
      case rt::RequestStatus::pending: check(false, "pending after wait()"); break;
    }
    if (st != rt::RequestStatus::rejected_overload) {
      lat_ms.push_back(static_cast<double>(handles[i].latency().count()) / 1e3);
      wait_ms.push_back(static_cast<double>(handles[i].queue_wait().count()) / 1e3);
      check(handles[i].queue_wait() <= handles[i].latency(),
            "queue wait longer than latency");
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  r.wall_s = std::chrono::duration<double>(t1 - t0).count();
  r.submitted = n;
  check(r.completed + r.cancelled + r.deadline_exceeded + r.rejected == n,
        "terminal-state tally != submitted (lost request)");
  const rt::ServerStats after = server.stats();
  r.shed = after.shed - before.shed;
  const auto quantile = [](std::vector<double>& v, std::size_t num,
                           std::size_t den) {
    std::sort(v.begin(), v.end());
    return v[std::min(v.size() - 1, v.size() * num / den)];
  };
  if (!lat_ms.empty()) {
    r.p50_ms = quantile(lat_ms, 1, 2);
    r.p99_ms = quantile(lat_ms, 99, 100);
    r.queue_wait_p50_ms = quantile(wait_ms, 1, 2);
    r.queue_wait_p99_ms = quantile(wait_ms, 99, 100);
  }
  if (r.completed > 0) {
    r.mean_service_us =
        static_cast<double>(service_sum_us) / static_cast<double>(r.completed);
  }
  r.throughput_rps = r.wall_s > 0 ? static_cast<double>(r.completed) / r.wall_s : 0;
  return r;
}

void print_leg(const LegResult& r) {
  std::printf(
      "SERVERMIX: {\"leg\":\"%s\",\"target_rps\":%.1f,\"submitted\":%llu,"
      "\"completed\":%llu,\"cancelled\":%llu,\"deadline_exceeded\":%llu,"
      "\"rejected\":%llu,\"shed\":%llu,\"p50_ms\":%.3f,\"p99_ms\":%.3f,"
      "\"queue_wait_p50_ms\":%.3f,\"queue_wait_p99_ms\":%.3f,"
      "\"throughput_rps\":%.1f,\"wall_s\":%.3f}\n",
      r.name.c_str(), r.target_rps,
      static_cast<unsigned long long>(r.submitted),
      static_cast<unsigned long long>(r.completed),
      static_cast<unsigned long long>(r.cancelled),
      static_cast<unsigned long long>(r.deadline_exceeded),
      static_cast<unsigned long long>(r.rejected),
      static_cast<unsigned long long>(r.shed), r.p50_ms, r.p99_ms,
      r.queue_wait_p50_ms, r.queue_wait_p99_ms, r.throughput_rps, r.wall_s);
  std::fflush(stdout);
}

void post_drain_checks(rt::Scheduler& s) {
  const rt::StatsSnapshot st = s.stats();
  check(st.total.tasks_executed + st.total.tasks_discarded ==
            st.total.tasks_deferred,
        "global executed + discarded != deferred");
  check(st.total.pool_home_frees + st.total.pool_remote_frees ==
            st.total.pool_reuse + st.total.pool_fresh,
        "global pool frees != pool allocations");
  // Empty only with RT_NODE_POOLS=0; owner-return balances on every
  // topology, flat included.
  for (const auto& n : s.node_pool_snapshot()) {
    check(n.arena_carved == n.arena_free + n.cached + n.in_transit,
          "node-pool balance broken after drain");
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    auto want = [&](const char* flag) {
      return std::strcmp(argv[i], flag) == 0 && i + 1 < argc;
    };
    if (want("--threads")) { opt.threads = static_cast<unsigned>(std::atoi(argv[++i])); }
    else if (want("--requests")) { opt.requests = static_cast<unsigned>(std::atoi(argv[++i])); }
    else if (want("--queue")) { opt.queue = static_cast<unsigned>(std::atoi(argv[++i])); }
    else if (want("--seed")) { opt.seed = static_cast<std::uint64_t>(std::atoll(argv[++i])); }
    else if (want("--overload-deadline-ms")) { opt.overload_deadline_ms = static_cast<unsigned>(std::atoi(argv[++i])); }
    else if (want("--churn-ms")) { opt.churn_ms = static_cast<unsigned>(std::atoi(argv[++i])); }
    else {
      std::fprintf(stderr,
                   "usage: %s [--threads N] [--requests N] [--queue N] "
                   "[--seed S] [--overload-deadline-ms N] [--churn-ms N]\n",
                   argv[0]);
      return 2;
    }
  }
  if (opt.threads == 0) opt.threads = 4;
  if (const char* e = std::getenv("RT_BENCH_CHURN_MS"); e != nullptr) {
    opt.churn_ms = static_cast<unsigned>(std::atoi(e));
  }

  // SchedulerConfig's defaults consult the RT_* environment, so the CI
  // matrix legs (topology / policy / pinning / fault plan) apply here
  // exactly as they do to the tests.
  rt::SchedulerConfig cfg;
  cfg.num_threads = opt.threads;
  rt::Scheduler sched(cfg);
  if (sched.fault_plan().active()) {
    std::fprintf(stderr, "fault plan active: %s\n",
                 sched.fault_plan().describe().c_str());
  }

  rt::ServerConfig sc;
  sc.queue_capacity = opt.queue;
  sc.shed_on_overload = true;

  // Live-reconfiguration churn across every leg: swap the steal policy on a
  // fixed cadence while requests fly. The bench's entire invariant set —
  // exactly-one-terminal-state, balanced ledgers, right answers, bounded
  // overload latency — must hold exactly as without churn.
  std::atomic<bool> churn_stop{false};
  std::thread churn;
  std::uint64_t churn_swaps = 0;
  if (opt.churn_ms > 0 && sched.config().live_reconfigure) {
    churn = std::thread([&] {
      bool flip = false;
      while (!churn_stop.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(opt.churn_ms));
        sched.reconfigure_live(flip ? rt::StealPolicyKind::hierarchical
                                    : rt::StealPolicyKind::last_victim);
        flip = !flip;
        ++churn_swaps;
      }
    });
    std::fprintf(stderr, "policy churn active: swap every %u ms\n",
                 opt.churn_ms);
  }
  struct ChurnJoin {
    std::atomic<bool>& stop;
    std::thread& t;
    ~ChurnJoin() {
      stop.store(true, std::memory_order_release);
      if (t.joinable()) t.join();
    }
  } churn_join{churn_stop, churn};

  // -- leg 1: closed-loop calibration ---------------------------------------
  // Closed-loop throughput IS the saturation rate: each request already
  // parallelizes over the whole team, so multiplexing cannot push the
  // server past "team continuously busy". (Deriving saturation from
  // team/mean_latency instead would overestimate it by ~the per-request
  // speedup and turn the "normal" leg into an overload.)
  double sat_rps;
  {
    rt::TaskServer server(sched, sc);
    const unsigned n = std::max(12u, opt.requests / 8);
    LegResult cal = run_leg(server, "calibrate", n, 0, 0, opt.seed);
    server.drain();
    print_leg(cal);
    post_drain_checks(sched);
    // Injected admission faults can reject closed-loop requests; calibrate
    // from whatever completed, with a floor so the rates stay sane.
    sat_rps = cal.throughput_rps > 20 ? cal.throughput_rps : 20;
  }

  // -- leg 2: 0.5x saturation (normal operation) ----------------------------
  {
    rt::TaskServer server(sched, sc);
    LegResult normal = run_leg(server, "normal", opt.requests,
                               1e6 / (0.5 * sat_rps), 0, opt.seed + 1);
    server.drain();
    print_leg(normal);
    post_drain_checks(sched);
  }

  // -- leg 3: 2x saturation (overload, per-request deadlines) ---------------
  {
    rt::TaskServer server(sched, sc);
    LegResult over = run_leg(server, "overload", opt.requests,
                             1e6 / (2.0 * sat_rps), opt.overload_deadline_ms,
                             opt.seed + 2);
    server.drain();
    print_leg(over);
    post_drain_checks(sched);
    // Smooth degradation: admitted-request latency stays bounded by the
    // deadline plus scheduling slack — overload turns into rejects, sheds
    // and deadline kills, never into unbounded queueing.
    const double bound_ms = static_cast<double>(opt.overload_deadline_ms) + 2000.0;
    check(over.p99_ms <= bound_ms, "overload p99 latency unbounded");
    check(over.completed > 0, "overload leg completed nothing");
  }

  churn_stop.store(true, std::memory_order_release);
  if (churn.joinable()) churn.join();
  if (opt.churn_ms > 0) {
    std::printf("policy churn: %llu live swaps during the run\n",
                static_cast<unsigned long long>(churn_swaps));
  }
  if (g_failures != 0) {
    std::fprintf(stderr, "bench_server_mix: %d invariant failure(s)\n",
                 g_failures);
    return 1;
  }
  std::printf("bench_server_mix: all invariants held\n");
  return 0;
}
