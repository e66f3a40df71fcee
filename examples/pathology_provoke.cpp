// Deliberately-pathological workload driver for the nightly pathology legs.
//
// The creation-serialization and depth-first-starvation detectors can be
// provoked through bots_run with real BOTS kernels (sparselu single-tied is
// the paper's serial task generator; RT_CUTOFF=max_depth RT_CUTOFF_VALUE=1
// starves thieves under any recursive kernel). Cross-node ping-pong cannot:
// a healthy work-stealing runtime keeps bounce ratios under ~10% on every
// BOTS kernel no matter how adversarial the knobs, which is exactly why the
// detector's 25% threshold stays quiet on them. This driver builds the
// workload that DOES bounce — a serial dependency chain with tail work:
//
//   each link spawns its successor and then keeps computing (the tail), so
//   the only ready task in the system sits in a busy worker's deque and the
//   other node's idle worker steals it; by the time the next link spawns,
//   the roles have swapped. Every link crosses the node boundary, in
//   alternating directions — the textbook socket ping-pong of a pipelined
//   workload scheduled placement-blind.
//
// The tail must dwarf the idle-side park cadence (the hungry worker backs
// off into ~ms sleeps between probe rounds) or the spawner pops its own
// successor before the other node wakes; the 4 ms default gives the thief
// several probe rounds per link and yields a >90% bounce ratio in practice.
//
// Run on a multi-node topology with one worker per node so every steal is a
// cross-node steal:
//
//   RT_SYNTHETIC_TOPOLOGY=2x1 RT_STEAL_POLICY=random \
//     ./pathology_provoke --trace-out=pingpong.json
//
// Exits 0 only if the cross-node-ping-pong detector FIRED (this binary
// exists to prove the detector catches the pattern; a quiet run is the
// failure), nonzero on a quiet detector, a single-node topology (the check
// would be vacuous) or an export error.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "runtime/rt.hpp"

namespace rt = bots::rt;

namespace {

/// Busy tail work: keeps the spawner occupied long enough for the other
/// node's hungry worker to win the race for the freshly-spawned link.
void spin_us(unsigned us) {
  const auto t0 = std::chrono::steady_clock::now();
  while (std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - t0)
             .count() < us) {
    asm volatile("");
  }
}

struct Chain {
  unsigned tail_us;
  std::atomic<std::uint64_t> done{0};

  void link(unsigned left) {
    if (left > 0) {
      rt::spawn(rt::Tiedness::untied, [this, left] { link(left - 1); });
    }
    spin_us(tail_us);
    done.fetch_add(1, std::memory_order_relaxed);
  }
};

void print_finding(const char* name, const rt::PathologyFinding& f) {
  std::printf("pathology: %-24s %s%s%s\n", name, f.fired ? "FIRED" : "quiet",
              f.detail.empty() ? "" : " — ", f.detail.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  unsigned links = 150;
  unsigned tail_us = 4000;
  unsigned threads = 2;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "pathology_provoke: %s needs a value\n", what);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--links") {
      links = static_cast<unsigned>(std::strtoul(next("--links"), nullptr, 10));
    } else if (arg == "--tail-us") {
      tail_us =
          static_cast<unsigned>(std::strtoul(next("--tail-us"), nullptr, 10));
    } else if (arg == "-t" || arg == "--threads") {
      threads = static_cast<unsigned>(std::strtoul(next("-t"), nullptr, 10));
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      trace_out = arg.substr(std::strlen("--trace-out="));
    } else if (arg == "--trace-out") {
      trace_out = next("--trace-out");
    } else {
      std::fprintf(stderr,
                   "usage: pathology_provoke [--links N] [--tail-us N] "
                   "[-t threads] [--trace-out f.json]\n");
      return 2;
    }
  }

  rt::SchedulerConfig cfg;
  cfg.num_threads = threads;
  cfg.trace = true;  // the whole point; never run this driver blind
  // The private LIFO slot parks the newest spawn where thieves cannot see
  // it — with it on, a lone chain successor would simply be popped back by
  // its spawner and the chain would never migrate. Turning it off models
  // the placement-blind runtime the pattern comes from: every spawn lands
  // in the public deque, and whichever node's worker gets there first owns
  // the next link.
  cfg.lifo_slot = false;
  rt::Scheduler sched(cfg);

  if (sched.topology().num_nodes() < 2) {
    std::fprintf(stderr,
                 "pathology_provoke: single-node topology — every transfer "
                 "would be node-local and the ping-pong check vacuous. Run "
                 "with RT_SYNTHETIC_TOPOLOGY=2x1 (one worker per node).\n");
    return 1;
  }

  Chain chain{tail_us, {}};
  sched.run_single([&] { chain.link(links); });
  const std::uint64_t expect = links + 1ULL;
  if (chain.done.load(std::memory_order_relaxed) != expect) {
    std::fprintf(stderr, "pathology_provoke: chain lost links (%llu of %llu)\n",
                 static_cast<unsigned long long>(chain.done.load()),
                 static_cast<unsigned long long>(expect));
    return 1;
  }

  rt::TraceCollector* tc = sched.tracer();
  tc->drain_all();
  const rt::PathologyReport rep = rt::analyze_pathologies(*tc, sched.stats());
  print_finding("creation-serialization", rep.creation_serialization);
  print_finding("depth-first-starvation", rep.depth_first_starvation);
  print_finding("cross-node-ping-pong", rep.cross_node_ping_pong);

  if (!trace_out.empty()) {
    if (!tc->export_chrome_trace(trace_out.c_str())) {
      std::fprintf(stderr, "pathology_provoke: cannot write '%s'\n",
                   trace_out.c_str());
      return 1;
    }
    std::printf("trace: wrote %s (%llu events archived, %llu dropped)\n",
                trace_out.c_str(),
                static_cast<unsigned long long>(tc->total_events_drained()),
                static_cast<unsigned long long>(tc->dropped()));
  }

  if (!rep.cross_node_ping_pong.fired) {
    std::fprintf(stderr,
                 "pathology_provoke: cross-node-ping-pong stayed QUIET on the "
                 "provocation chain — the detector lost the pattern\n");
    return 1;
  }
  std::printf("provocation ok: ping-pong detector fired (score %.2f)\n",
              rep.cross_node_ping_pong.score);
  return 0;
}
