// Shared harness glue for kernel entry points: timing, scheduler stats
// collection and verification bookkeeping for one benchmark execution.
#pragma once

#include <string>
#include <utility>

#include "core/input_class.hpp"
#include "core/report.hpp"
#include "runtime/scheduler.hpp"

namespace bots::core {

/// Runs `work` once under the timer, then verifies with `check` when asked.
/// `check` is only invoked when `verify` is true and must return bool.
template <class Work, class Check>
[[nodiscard]] RunReport run_and_report(std::string app, std::string version,
                                       InputClass input, rt::Scheduler& sched,
                                       bool verify, Work&& work,
                                       Check&& check) {
  RunReport rep;
  rep.app = std::move(app);
  rep.version = std::move(version);
  rep.input = input;
  rep.threads = sched.num_workers();
  sched.reset_stats();
  Timer timer;
  work();
  rep.seconds = timer.seconds();
  rep.runtime_stats = sched.stats().total;
  rep.verified = verify ? (check() ? Verified::ok : Verified::failed)
                        : Verified::not_checked;
  return rep;
}

/// Serial-run variant (no scheduler involved).
template <class Work, class Check>
[[nodiscard]] RunReport run_serial_and_report(std::string app,
                                              InputClass input, bool verify,
                                              Work&& work, Check&& check) {
  RunReport rep;
  rep.app = std::move(app);
  rep.version = "serial";
  rep.input = input;
  rep.threads = 1;
  Timer timer;
  work();
  rep.seconds = timer.seconds();
  rep.verified = verify ? (check() ? Verified::ok : Verified::failed)
                        : Verified::not_checked;
  return rep;
}

}  // namespace bots::core
