// A resident TaskServer fed by one submitter thread with a core of its own,
// plus the open- and closed-loop senders the `server` workload and the
// traced layer run share.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>

#include "bench.hpp"
#include "mix.hpp"
#include "runtime/rt.hpp"

namespace perfbench {

/// Per-request timestamps (steady clock, ns). The submitter writes due,
/// call and ret; the body wrapper writes start and end.
struct ReqStamp {
  std::int64_t due = 0;     ///< scheduled send time (open loop)
  std::int64_t call = 0;    ///< submit() called
  std::int64_t ret = 0;     ///< submit() returned
  std::int64_t waited = 0;  ///< wait() returned (closed loops only)
  std::atomic<std::int64_t> start{0};
  std::atomic<std::int64_t> end{0};
  std::atomic<bool> ok{false};
  std::uint64_t deferred = 0;  ///< tasks the request deferred (after wait)
  bots::rt::RegionHandle h;
};

class ServerRig {
 public:
  /// Team of host_cpus - 1 workers on all CPUs but the last; the calling
  /// (submitter) thread is moved to the last CPU. Throws with fewer than
  /// two CPUs.
  ServerRig(const Options& o, std::uint64_t seed);
  ~ServerRig();
  ServerRig(const ServerRig&) = delete;
  ServerRig& operator=(const ServerRig&) = delete;

  /// Submit `req` with a body that stamps `st` and records its answer.
  void submit(const Mix::Req& req, ReqStamp& st);
  /// Drain the server and check the request and runtime conservation laws.
  void finish(Report& r);

  Mix mix;
  unsigned team = 1;
  bots::rt::SchedulerConfig cfg;
  bots::rt::ServerConfig scfg;
  std::unique_ptr<bots::rt::Scheduler> sched;
  std::unique_ptr<bots::rt::TaskServer> server;

 private:
  std::vector<int> all_cpus_;
  bool finished_ = false;
};

/// Wait for `st`'s request, check its outcome and fill `deferred`.
void settle(ReqStamp& st, Report& r);

/// Open loop at a fixed offered rate for `seconds`: request i is due at
/// t0 + i / rps whatever happened to earlier requests.
void open_loop(ServerRig& rig, double rps, double seconds, std::uint64_t& rng,
               std::deque<ReqStamp>& out, Report& r);

/// Closed loop keeping `outstanding` requests in flight for `seconds`.
/// Returns completed requests per second.
double closed_loop(ServerRig& rig, unsigned outstanding, double seconds,
                   std::uint64_t& rng, std::deque<ReqStamp>& out, Report& r);

/// Offered rate of the open loop, fixed once: about a third of the 8-10 K/s
/// closed-loop capacity this mix reaches with three workers on a 4-vCPU
/// Xeon VM, so the load stays under half even when the host runs slow.
inline constexpr double kOpenLoopRps = 3000;

}  // namespace perfbench
