// Live-reconfiguration ablation (PR 9): what does hot-swapping the steal
// policy buy on a workload whose best policy CHANGES mid-stream?
//
// The two-phase stream, served by the resident TaskServer:
//   phase 1  a fib burst — a task flood with no locality structure, where
//            last_victim's steal-burst affinity wins and hierarchical's
//            node tiering + hint gating is pure overhead;
//   phase 2  block-LU dataflow requests (sparselu's dependence shape:
//            lu0 -> fwd/bdiv -> bmod per iteration) — panel-reuse traffic
//            where the hierarchical policy's same-node-first order and
//            cross-node batch damping pay on a multi-node topology.
//
// Modes, one RECONF: JSON line each:
//   fixed_last_victim    no swap: phase 2 runs on phase 1's policy
//   fixed_hierarchical   no swap: phase 1 runs on phase 2's policy
//   oracle               TaskServer::retune() exactly at the phase boundary
//                        (the upper bound an online detector can reach)
//   detector             RT_SERVER_RETUNE_MS-style automatic phase
//                        detection over the scheduler's steal telemetry
//
// On a flat (single-node) topology hierarchical degenerates to last_victim
// and all four modes should tie within noise; set RT_SYNTHETIC_TOPOLOGY
// (e.g. 2x4) to expose the gap. Exits non-zero if any request fails,
// misanswers, or leaves an unbalanced ledger — swaps must move time, never
// results.
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

std::uint64_t mix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t x = state;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// ---------------------------------------------------------------------------
// Phase 1 kernel: fib burst.
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

// ---------------------------------------------------------------------------
// Phase 2 kernel: dense block-LU with sparselu's dataflow shape. Blocks are
// the dependence keys; every op has exclusive access to its inout block
// under the declared edges, so the parallel result is bitwise equal to the
// serial elimination order.
// ---------------------------------------------------------------------------

constexpr std::size_t kNb = 5;   // blocks per side
constexpr std::size_t kBs = 20;  // elements per block side

void lu0(float* d) {
  for (std::size_t k = 0; k < kBs; ++k) {
    for (std::size_t i = k + 1; i < kBs; ++i) {
      d[i * kBs + k] /= d[k * kBs + k];
      for (std::size_t j = k + 1; j < kBs; ++j) {
        d[i * kBs + j] -= d[i * kBs + k] * d[k * kBs + j];
      }
    }
  }
}

void fwd(const float* diag, float* b) {
  for (std::size_t k = 0; k < kBs; ++k) {
    for (std::size_t i = k + 1; i < kBs; ++i) {
      for (std::size_t j = 0; j < kBs; ++j) {
        b[i * kBs + j] -= diag[i * kBs + k] * b[k * kBs + j];
      }
    }
  }
}

void bdiv(const float* diag, float* b) {
  for (std::size_t i = 0; i < kBs; ++i) {
    for (std::size_t k = 0; k < kBs; ++k) {
      b[i * kBs + k] /= diag[k * kBs + k];
      for (std::size_t j = k + 1; j < kBs; ++j) {
        b[i * kBs + j] -= b[i * kBs + k] * diag[k * kBs + j];
      }
    }
  }
}

void bmod(const float* row, const float* col, float* inner) {
  for (std::size_t i = 0; i < kBs; ++i) {
    for (std::size_t k = 0; k < kBs; ++k) {
      for (std::size_t j = 0; j < kBs; ++j) {
        inner[i * kBs + j] -= row[i * kBs + k] * col[k * kBs + j];
      }
    }
  }
}

using Matrix = std::vector<float>;  // kNb*kNb blocks of kBs*kBs, row-major

float* blk(Matrix& m, std::size_t i, std::size_t j) {
  return m.data() + (i * kNb + j) * kBs * kBs;
}

Matrix make_matrix(std::uint64_t seed) {
  Matrix m(kNb * kNb * kBs * kBs);
  std::uint64_t s = seed;
  for (auto& v : m) {
    v = 0.5f + static_cast<float>(mix64(s) % 1000) / 1000.0f;
  }
  // Diagonal dominance keeps the pivotless elimination well-conditioned.
  for (std::size_t d = 0; d < kNb; ++d) {
    float* b = blk(m, d, d);
    for (std::size_t e = 0; e < kBs; ++e) b[e * kBs + e] += 64.0f;
  }
  return m;
}

void factor_serial(Matrix& m) {
  for (std::size_t kk = 0; kk < kNb; ++kk) {
    lu0(blk(m, kk, kk));
    for (std::size_t jj = kk + 1; jj < kNb; ++jj) fwd(blk(m, kk, kk), blk(m, kk, jj));
    for (std::size_t ii = kk + 1; ii < kNb; ++ii) bdiv(blk(m, kk, kk), blk(m, ii, kk));
    for (std::size_t ii = kk + 1; ii < kNb; ++ii) {
      for (std::size_t jj = kk + 1; jj < kNb; ++jj) {
        bmod(blk(m, ii, kk), blk(m, kk, jj), blk(m, ii, jj));
      }
    }
  }
}

void factor_dataflow(Matrix& m) {
  rt::DepScope sc;
  for (std::size_t kk = 0; kk < kNb; ++kk) {
    float* diag = blk(m, kk, kk);
    sc.spawn({rt::inout(diag)}, [diag] { lu0(diag); });
    for (std::size_t jj = kk + 1; jj < kNb; ++jj) {
      float* b = blk(m, kk, jj);
      sc.spawn({rt::in(diag), rt::inout(b)}, [diag, b] { fwd(diag, b); });
    }
    for (std::size_t ii = kk + 1; ii < kNb; ++ii) {
      float* b = blk(m, ii, kk);
      sc.spawn({rt::in(diag), rt::inout(b)}, [diag, b] { bdiv(diag, b); });
    }
    for (std::size_t ii = kk + 1; ii < kNb; ++ii) {
      for (std::size_t jj = kk + 1; jj < kNb; ++jj) {
        float* r = blk(m, ii, kk);
        float* c = blk(m, kk, jj);
        float* t = blk(m, ii, jj);
        sc.spawn({rt::in(r), rt::in(c), rt::inout(t)},
                 [r, c, t] { bmod(r, c, t); });
      }
    }
  }
  sc.wait();
}

bool req_lu(std::uint64_t seed) {
  Matrix m = make_matrix(seed);
  Matrix ref = m;
  factor_dataflow(m);
  factor_serial(ref);
  return std::memcmp(m.data(), ref.data(), m.size() * sizeof(float)) == 0;
}

// ---------------------------------------------------------------------------
// Mode driver.
// ---------------------------------------------------------------------------

struct Options {
  unsigned threads = std::thread::hardware_concurrency();
  unsigned fib_requests = 48;
  unsigned fib_n = 18;
  unsigned lu_requests = 48;
  std::uint64_t seed = 42;
  unsigned detector_ms = 2;
};

struct ModeResult {
  double phase_fib_s = 0;
  double phase_lu_s = 0;
  std::uint64_t completed = 0;
  std::uint64_t retunes = 0;
};

/// Submit one phase as a closed batch (all in flight together, wait all) and
/// verify every answer.
template <class MakeBody>
double run_phase(rt::TaskServer& server, unsigned n, ModeResult& r,
                 MakeBody&& make_body) {
  auto ok_flags = std::make_shared<std::vector<std::atomic<bool>>>(n);
  std::vector<rt::RegionHandle> handles(n);
  const auto t0 = std::chrono::steady_clock::now();
  for (unsigned i = 0; i < n; ++i) {
    handles[i] = server.submit(make_body(i, ok_flags), {}).handle;
  }
  for (unsigned i = 0; i < n; ++i) {
    const rt::RequestStatus st = handles[i].wait();
    check(st == rt::RequestStatus::completed, "request not completed");
    check(handles[i].ledger_balanced(), "per-request ledger imbalance");
    if (st == rt::RequestStatus::completed) {
      ++r.completed;
      check((*ok_flags)[i].load(std::memory_order_acquire),
            "completed request produced a wrong answer");
    }
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

ModeResult run_mode(const Options& opt, const char* mode) {
  rt::SchedulerConfig cfg;
  cfg.num_threads = opt.threads;
  const bool fixed_hier = std::strcmp(mode, "fixed_hierarchical") == 0;
  cfg.steal_policy = fixed_hier ? rt::StealPolicyKind::hierarchical
                                : rt::StealPolicyKind::last_victim;
  rt::Scheduler sched(cfg);

  rt::ServerConfig sc;
  sc.queue_capacity = std::max(opt.fib_requests, opt.lu_requests) + 1;
  if (std::strcmp(mode, "detector") == 0) sc.retune_ms = opt.detector_ms;
  rt::TaskServer server(sched, sc);

  ModeResult r;
  std::uint64_t rng = opt.seed;
  const unsigned fib_n = opt.fib_n;
  r.phase_fib_s = run_phase(
      server, opt.fib_requests, r, [&rng, fib_n](unsigned i, auto flags) {
        const std::uint64_t seed = mix64(rng);
        const int n = static_cast<int>(fib_n + seed % 3);
        return [flags, i, n] {
          (*flags)[i].store(fib_task(n) == fib_ref(n),
                            std::memory_order_release);
        };
      });
  if (std::strcmp(mode, "oracle") == 0) {
    // The boundary is known here and nowhere else: swap exactly once.
    check(server.retune(rt::StealPolicyKind::hierarchical),
          "oracle retune refused (RT_LIVE_RECONF=0?)");
  }
  r.phase_lu_s = run_phase(
      server, opt.lu_requests, r, [&rng](unsigned i, auto flags) {
        const std::uint64_t seed = mix64(rng);
        return [flags, i, seed] {
          (*flags)[i].store(req_lu(seed), std::memory_order_release);
        };
      });
  r.retunes = server.stats().retunes;
  server.drain();

  const rt::StatsSnapshot st = sched.stats();
  check(st.total.tasks_executed + st.total.tasks_discarded ==
            st.total.tasks_deferred,
        "global executed + discarded != deferred");
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    auto want = [&](const char* flag) {
      return std::strcmp(argv[i], flag) == 0 && i + 1 < argc;
    };
    if (want("--threads")) { opt.threads = static_cast<unsigned>(std::atoi(argv[++i])); }
    else if (want("--fib-requests")) { opt.fib_requests = static_cast<unsigned>(std::atoi(argv[++i])); }
    else if (want("--lu-requests")) { opt.lu_requests = static_cast<unsigned>(std::atoi(argv[++i])); }
    else if (want("--seed")) { opt.seed = static_cast<std::uint64_t>(std::atoll(argv[++i])); }
    else if (want("--detector-ms")) { opt.detector_ms = static_cast<unsigned>(std::atoi(argv[++i])); }
    else {
      std::fprintf(stderr,
                   "usage: %s [--threads N] [--fib-requests N] "
                   "[--lu-requests N] [--seed S] [--detector-ms N]\n",
                   argv[0]);
      return 2;
    }
  }
  if (opt.threads == 0) opt.threads = 4;

  for (const char* mode : {"fixed_last_victim", "fixed_hierarchical",
                           "oracle", "detector"}) {
    const ModeResult r = run_mode(opt, mode);
    std::printf(
        "RECONF: {\"mode\":\"%s\",\"threads\":%u,\"wall_s\":%.3f,"
        "\"phase_fib_s\":%.3f,\"phase_lu_s\":%.3f,\"completed\":%llu,"
        "\"retunes\":%llu}\n",
        mode, opt.threads, r.phase_fib_s + r.phase_lu_s, r.phase_fib_s,
        r.phase_lu_s, static_cast<unsigned long long>(r.completed),
        static_cast<unsigned long long>(r.retunes));
    std::fflush(stdout);
  }

  if (g_failures != 0) {
    std::fprintf(stderr, "bench_ablation_reconf: %d failure(s)\n", g_failures);
    return 1;
  }
  std::printf("bench_ablation_reconf: all checks held\n");
  return 0;
}
