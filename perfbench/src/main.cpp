// perfbench: one workload per process.
//
//   perfbench --workload suite|tasks|server --seed N --seconds S --trace 0|1
//             [--trace-out FILE] [--commit SHA] [--source-digest HEX]
//
// --trace 0 measures the workload's end-to-end metrics with spans off.
// --trace 1 runs the per-layer probes with the benchmark's spans recorded
// around every call into a layer and writes them to --trace-out as
// Chrome-trace JSON. The last line of stdout is the result object; the line
// before it, `PERFBENCH_RECORD {...}`, carries quartiles, sample counts and
// the run record. Exit status is non-zero when any check failed.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <sstream>
#include <string>

#include "bench.hpp"

namespace {

constexpr unsigned kMaxWorkers = 4;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload suite|tasks|server --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE] [--commit SHA] "
               "[--source-digest HEX]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Options o;
  o.start_ns = now_ns();
  std::string commit = "unknown";
  std::string digest = "unknown";
  for (int i = 1; i < argc; ++i) {
    const auto want = [&](const char* flag) {
      return std::strcmp(argv[i], flag) == 0 && i + 1 < argc;
    };
    if (want("--workload")) o.workload = argv[++i];
    else if (want("--seed")) o.seed = std::strtoull(argv[++i], nullptr, 10);
    else if (want("--seconds")) o.seconds = std::strtod(argv[++i], nullptr);
    else if (want("--trace")) o.trace = std::strcmp(argv[++i], "0") != 0;
    else if (want("--trace-out")) o.trace_out = argv[++i];
    else if (want("--commit")) commit = argv[++i];
    else if (want("--source-digest")) digest = argv[++i];
    else return usage();
  }
  if (o.workload != "suite" && o.workload != "tasks" && o.workload != "server") {
    return usage();
  }
  if (!(o.seconds > 0 && o.seconds <= 600)) return usage();

  o.cpus = allowed_cpus();
  o.host_cpus = static_cast<unsigned>(o.cpus.size());
  if (o.host_cpus == 0) {
    std::fprintf(stderr, "perfbench: cannot read the CPU affinity mask\n");
    return 2;
  }
  o.workers = o.host_cpus < kMaxWorkers ? o.host_cpus : kMaxWorkers;
  if (o.workload == "server" && o.host_cpus < 2) {
    std::fprintf(stderr,
                 "perfbench: the server workload needs a core for the submitter "
                 "besides at least one worker core\n");
    return 2;
  }

  Report r;
  try {
    if (o.trace) {
      spans_enable(true);
      run_layers(o, r);
    } else if (o.workload == "suite") {
      run_suite(o, r);
    } else if (o.workload == "tasks") {
      run_tasks(o, r);
    } else {
      run_server(o, r);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  std::ostringstream run;
  run << "{\"workload\":" << json_str(o.workload) << ",\"seed\":" << o.seed
      << ",\"check_seed\":1001,\"seconds\":" << json_num(o.seconds)
      << ",\"trace\":" << (o.trace ? 1 : 0) << ",\"host_cpus\":" << o.host_cpus
      << ",\"workers\":" << o.workers
      << ",\"server_workers\":" << (o.host_cpus > 1 ? o.host_cpus - 1 : 0)
      << ",\"compiler\":" << json_str(__VERSION__)
      << ",\"build_type\":" << json_str(PERFBENCH_BUILD_TYPE)
      << ",\"commit\":" << json_str(commit)
      << ",\"source_digest\":" << json_str(digest)
      << ",\"process_s\":" << json_num(static_cast<double>(now_ns() - o.start_ns) * 1e-9)
      << "}";
  r.note("run", run.str());
  if (o.trace && !o.trace_out.empty() && !spans_write_chrome(o.trace_out)) {
    r.attempt(false, "could not write the span trace to " + o.trace_out);
  }
  r.print(stdout);
  return r.failed() == 0 && r.attempted() > 0 ? 0 : 1;
}
