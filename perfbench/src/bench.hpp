// Shared plumbing of the perfbench binary: clocks, order statistics, the
// benchmark's own spans, the explicit runtime configuration, CPU placement
// and the report every workload fills in.
#pragma once

#include <barrier>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "runtime/config.hpp"

namespace bots::rt {
struct ServerConfig;
struct WorkerStats;
}

namespace perfbench {

namespace rt = bots::rt;

[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Order statistics. Quartiles use the same "exclusive" method as Python's
// statistics.quantiles(values, n=4), so in-process spreads and the spreads a
// caller computes over run results mean the same thing.
// ---------------------------------------------------------------------------
struct Summary {
  double median = 0;
  double q1 = 0;
  double q3 = 0;
  double p99 = 0;  ///< nearest-rank 99th percentile
  std::size_t n = 0;
};

[[nodiscard]] Summary summarize(std::vector<double> v);
[[nodiscard]] double median_of(std::vector<double> v);
/// Nearest-rank percentile, p in (0, 100].
[[nodiscard]] double percentile(std::vector<double> v, double p);
[[nodiscard]] double geomean(const std::vector<double>& v);

// ---------------------------------------------------------------------------
// Spans: the benchmark's own trace, recorded around each call into a layer
// when --trace 1 is given (a no-op otherwise). Kept in memory and written
// out as Chrome-trace JSON when the run ends.
// ---------------------------------------------------------------------------
void spans_enable(bool on);
/// Record a finished span. `parent` is a span id (0 = none); `req` groups
/// the spans of one server request (0 = not a request).
std::uint64_t span_record(const char* name, std::int64_t start_ns,
                          std::int64_t end_ns, std::uint64_t parent,
                          std::uint64_t req = 0);
/// Id of the innermost open ScopedSpan on this thread (0 = none).
[[nodiscard]] std::uint64_t span_current() noexcept;
bool spans_write_chrome(const std::string& path);
/// A span name that lives as long as the process (for names built at run
/// time, such as "kernel.fib.serial").
[[nodiscard]] const char* intern(const std::string& name);

class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  std::int64_t start_ = 0;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
};

// ---------------------------------------------------------------------------
// Runtime configuration. Every field is set here instead of inheriting the
// RT_* environment that SchedulerConfig's defaults read, so a stray RT_TRACE
// or RT_CUTOFF cannot change what is measured.
// ---------------------------------------------------------------------------
[[nodiscard]] rt::SchedulerConfig make_config(unsigned threads,
                                              rt::CutoffPolicy cutoff);
[[nodiscard]] std::string config_json(const rt::SchedulerConfig& c);
[[nodiscard]] std::string server_config_json(const rt::ServerConfig& c);

// ---------------------------------------------------------------------------
// CPU placement.
// ---------------------------------------------------------------------------
/// CPUs this process may run on (its affinity mask at start).
[[nodiscard]] std::vector<int> allowed_cpus();
/// Restrict the calling thread to `cpus`. Threads it creates afterwards
/// inherit the mask.
bool pin_current_thread(const std::vector<int>& cpus);

/// One thread pinned to each of `cpus`, kept for the object's life, for
/// timing single-threaded references. On a shared host the CPUs' speeds
/// differ by up to half and change within seconds, so a reference timed on
/// one CPU follows whichever CPU it landed on, while the team it is compared
/// with runs on all of them. Run on every team CPU at once, under the same
/// load as the team, the reference drifts with the team and their ratio
/// holds.
class Lanes {
 public:
  explicit Lanes(std::vector<int> cpus);
  ~Lanes();
  Lanes(const Lanes&) = delete;
  Lanes& operator=(const Lanes&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return cpus_.size(); }
  /// Calls fn(lane) on every lane at once; returns when all have returned.
  void run(const std::function<void(std::size_t)>& fn);

 private:
  void loop(std::size_t lane);

  std::vector<int> cpus_;
  std::barrier<> sync_;
  const std::function<void(std::size_t)>* fn_ = nullptr;
  std::vector<std::thread> threads_;
};

/// Harmonic mean: the time each of several lanes would take at their mean
/// rate.
[[nodiscard]] double harmonic_mean(const std::vector<double>& v);

// ---------------------------------------------------------------------------
// The report a workload fills in.
// ---------------------------------------------------------------------------
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  unsigned host_cpus = 1;
  std::vector<int> cpus;    ///< the allowed CPU ids
  unsigned workers = 1;     ///< T = min(4, host_cpus)
  std::int64_t start_ns = 0;  ///< process start, for setup time
};

class Report {
 public:
  /// A metric measured as a distribution of in-run samples: the value is
  /// the median; quartiles and sample count go to the run record.
  void metric(const std::string& name, const std::string& unit,
              const Summary& s);
  /// A metric derived from several distributions (its value only).
  void metric(const std::string& name, const std::string& unit, double value,
              std::size_t n = 1);
  /// A reading kept in the table and the run record but not in the result
  /// object: absolute times, which the host's speed drift moves (README).
  void detail(const std::string& name, const std::string& unit,
              const Summary& s);
  void detail(const std::string& name, const std::string& unit, double value,
              std::size_t n = 1);

  /// Count one checked operation; a false `ok` counts it as failed.
  void attempt(bool ok, const std::string& what);

  void note(const std::string& key, const std::string& json_value);

  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }

  /// Print the human table, one `PERFBENCH_RECORD {...}` line and, last,
  /// the result object {"correct", "attempted", "failed", "metrics"}.
  void print(std::FILE* out) const;

 private:
  struct Entry {
    std::string name;
    std::string unit;
    Summary s;
    bool dist = false;
    bool result = true;
  };
  std::vector<Entry> entries_;
  std::vector<std::pair<std::string, std::string>> notes_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> first_failures_;
};

/// The runtime's conservation laws over the counters of whole regions:
/// executed + discarded == deferred, pool frees == pool allocations, and
/// edges_resolved == dynamic edges + `baked_edges` (edges of replayed
/// graphs, once per replay).
void check_laws(Report& r, const rt::WorkerStats& t, std::uint64_t baked_edges,
                const std::string& where);

[[nodiscard]] std::string json_str(const std::string& s);
[[nodiscard]] std::string json_num(double v);

/// Peak resident set size of this process in MB.
[[nodiscard]] double peak_rss_mb();

// Workloads (one translation unit each) and the traced layer run.
void run_suite(const Options& o, Report& r);
void run_tasks(const Options& o, Report& r);
void run_server(const Options& o, Report& r);
void run_layers(const Options& o, Report& r);

}  // namespace perfbench
