// The ten BOTS kernels as benchmark operations: each one prepares a fixed
// input, runs its serial reference once to get the reference output, and
// then runs its Figure-3 best version as often as asked, checking every
// output against the serial one.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "runtime/scheduler.hpp"

namespace perfbench {

struct KernelOp {
  std::string name;
  std::string version;  ///< the registry's Figure-3 best version
  std::string input;    ///< input description
  /// Run the serial reference and keep its output (the reference).
  std::function<void()> serial;
  /// Restore any input the parallel run mutates. Never timed.
  std::function<void()> reset;
  /// Run the best version on `sched`.
  std::function<void(bots::rt::Scheduler&)> parallel;
  /// Compare the last parallel output with the serial reference.
  std::function<bool()> check;
};

/// All ten kernels, in registry order, with the inputs the suite uses:
/// medium class, small for sort and uts. `seed` only changes data whose
/// values do not change the amount of work (sort keys, FFT samples).
[[nodiscard]] std::vector<KernelOp> make_kernels(std::uint64_t seed);

}  // namespace perfbench
