// Run reports and table rendering (the bots_main-style output harness).
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/input_class.hpp"
#include "runtime/stats.hpp"

namespace bots::core {

/// Wall-clock timer (steady clock).
class Timer {
 public:
  Timer() : start_(clock::now()) {}
  void reset() { start_ = clock::now(); }
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

enum class Verified : std::int8_t { not_checked = -1, failed = 0, ok = 1 };

[[nodiscard]] constexpr const char* to_string(Verified v) noexcept {
  switch (v) {
    case Verified::not_checked: return "n/a";
    case Verified::failed: return "FAILED";
    case Verified::ok: return "ok";
  }
  return "?";
}

/// Result of one benchmark execution (serial or parallel).
struct RunReport {
  std::string app;
  std::string version;  ///< "serial" or a version-matrix name
  InputClass input = InputClass::small;
  unsigned threads = 1;
  double seconds = 0.0;
  /// Application throughput metric. For Floorplan the paper uses nodes/s
  /// ("the number of nodes per second should increase ... even if it takes
  /// more time to find a solution"); other apps leave this 0 and compare
  /// times directly.
  double metric = 0.0;
  std::string metric_name;
  Verified verified = Verified::not_checked;
  rt::WorkerStats runtime_stats;  ///< aggregated scheduler counters
  /// Converged grain per spawn site after the run (GrainTable::describe,
  /// e.g. "global=1 sort/merge=8"); empty for serial runs. Printed by
  /// `bots_run --stats`.
  std::string grain_sites;

  /// Speed-up versus a serial baseline, using the metric when present
  /// (Floorplan) and elapsed time otherwise.
  [[nodiscard]] double speedup_vs(const RunReport& serial) const {
    if (metric > 0.0 && serial.metric > 0.0) return metric / serial.metric;
    if (seconds > 0.0) return serial.seconds / seconds;
    return 0.0;
  }
};

/// Fixed-width ASCII table writer used by the bench harnesses to print
/// paper-style rows; also emits CSV for plotting.
class TableWriter {
 public:
  explicit TableWriter(std::vector<std::string> headers);

  void add_row(std::vector<std::string> cells);
  void render(std::ostream& os) const;
  void render_csv(std::ostream& os) const;

  [[nodiscard]] std::size_t rows() const noexcept { return rows_.size(); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Number formatting helpers matching the paper's table style.
[[nodiscard]] std::string format_count(std::uint64_t n);      // "~ 40 G"
[[nodiscard]] std::string format_bytes(std::uint64_t bytes);  // "3.2 MB"
[[nodiscard]] std::string format_fixed(double v, int precision);

}  // namespace bots::core
