// The three runtime-overhead phases of the `tasks` workload, shared with
// the traced layer run:
//   tree   fib with a spawn per call and no cut-off: deferred tied tasks that
//          workers mostly pop from their own queue;
//   flood  one generator spawning empty tasks joined by one taskwait: nearly
//          every task is stolen and freed away from where it was allocated;
//   dag    a fixed block-LU dependence graph (sparselu::factor_dataflow),
//          recorded once and replayed by every timed rep.
#pragma once

#include <cstdint>
#include <string>

#include "kernels/sparselu/sparselu.hpp"
#include "runtime/scheduler.hpp"

namespace perfbench {

inline constexpr int kTreeN = 22;                  // fib(22): 57 312 deferred tasks
inline constexpr std::int64_t kFloodTasks = 4096;

/// Outcome of one timed phase rep: wall time, the deferred tasks it ran and
/// whether its answer was right.
struct PhaseRep {
  double seconds = 0;
  std::uint64_t tasks = 0;
  bool ok = false;
};

/// fib(n) by spawn-per-call recursion; call inside a region.
[[nodiscard]] std::uint64_t tree_fib(int n);
[[nodiscard]] std::uint64_t fib_closed(int n);

[[nodiscard]] PhaseRep run_tree(bots::rt::Scheduler& s, int n = kTreeN);
/// The tree and flood work as plain serial code with no task runtime: the
/// same recursion, and the flood's closure called inline (seconds per
/// flood).
[[nodiscard]] PhaseRep serial_tree(int n = kTreeN);
[[nodiscard]] PhaseRep serial_flood(std::int64_t n = kFloodTasks);
[[nodiscard]] PhaseRep run_flood(bots::rt::Scheduler& s,
                                 std::int64_t n = kFloodTasks);

/// Block-LU dependence graph on one persistent matrix with a serially
/// factored reference. reset() restores the input values (untimed); the
/// graph keeps the matrix's block addresses, so it stays replayable.
class Dag {
 public:
  Dag();
  void reset();
  /// Record (first call on a scheduler) or replay the tagged graph.
  [[nodiscard]] PhaseRep run(bots::rt::Scheduler& s);
  /// The same factorization without a graph tag (dynamic discovery).
  [[nodiscard]] PhaseRep run_dynamic(bots::rt::Scheduler& s);
  /// The same factorization by plain serial code.
  [[nodiscard]] PhaseRep run_serial();
  /// The same input through the taskwait-based `for-tied` version.
  [[nodiscard]] PhaseRep run_taskwait(bots::rt::Scheduler& s);
  [[nodiscard]] bool check() const;
  /// Edges of the recorded graph on `s` (0 before it is recorded).
  [[nodiscard]] std::uint64_t graph_edges(bots::rt::Scheduler& s) const;
  [[nodiscard]] std::string describe() const;
  static constexpr const char* tag = "perfbench/dag";

 private:
  template <class F>
  PhaseRep timed(bots::rt::Scheduler& s, F&& f);

  bots::sparselu::Params p_;
  bots::sparselu::BlockMatrix m_;
  bots::sparselu::BlockMatrix ref_;
};

}  // namespace perfbench
