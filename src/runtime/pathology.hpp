// Scheduling-pathology analyzers over the trace layer (arXiv 2406.03077:
// "Detrimental task execution patterns in mainstream OpenMP runtimes").
//
// Three detectors score a drained TraceCollector together with the worker
// counters (stats.hpp) of the same window:
//   - creation-serialization: one worker sources nearly all task descriptors
//     while the rest of the team runs hungry waiting on the generator.
//   - depth-first starvation: a cutoff (or tiny grain) inlines nearly every
//     spawn, so no work is ever published for teammates to steal — sustained
//     hungry rounds with almost no steal hits.
//   - cross-node ping-pong: descriptors bounce between a node pair in both
//     directions (steal_hit node pairs + mailbox birth-node tags) at a rate
//     comparable to the spawn rate.
//
// All thresholds live in PathologyConfig so tests and the nightly provocation
// legs can tighten/loosen them; defaults are tuned to stay silent on healthy
// default-config BOTS runs (distributed spawns, high deferred share, steals
// rare relative to spawns).
//
// PhaseDetector (bottom) is the online sibling: the EWMA phase signal the
// TaskServer monitor feeds each retune window from the live worker counters
// (remote-steal churn or serialized creation -> hierarchical, settled local
// phase -> last_victim).
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>

#include "runtime/config.hpp"
#include "runtime/stats.hpp"
#include "runtime/trace.hpp"

namespace bots::rt {

struct PathologyConfig {
  // creation-serialization
  double creation_top_share = 0.90;       // top worker's share of spawn events
  std::uint64_t creation_min_spawns = 512;
  double creation_min_hungry_per_other = 8.0;  // avg hungry rounds, non-top workers
  // depth-first starvation
  std::uint64_t starve_min_spawns = 256;
  double starve_max_deferred_share = 0.25;  // deferred / (deferred + inlined)
  double starve_min_hungry_per_other = 16.0;
  double starve_max_hits_per_worker = 2.0;
  // cross-node ping-pong
  std::uint64_t pingpong_min_transfers = 64;  // cross-node descriptor moves
  double pingpong_min_bounce_ratio = 0.25;    // transfers / spawns
  double pingpong_min_symmetry = 0.25;        // 2*min(fwd,rev)/(fwd+rev), worst pair
};

struct PathologyFinding {
  bool fired = false;
  double score = 0.0;  // how far past the gate; 0 when quiet
  std::string detail;
};

struct PathologyReport {
  PathologyFinding creation_serialization;
  PathologyFinding depth_first_starvation;
  PathologyFinding cross_node_ping_pong;
  bool any() const noexcept {
    return creation_serialization.fired || depth_first_starvation.fired ||
           cross_node_ping_pong.fired;
  }
};

// Analyze a drained collector. `stats` must cover the same window as the
// drained records (e.g. Scheduler::stats() after the traced regions, with no
// reset_stats() in between): spawn, hungry and steal-hit totals come from
// the counters, which are exact even when the ring dropped records; the
// records supply the deferred share and the node pairs of the ping-pong
// detector.
inline PathologyReport analyze_pathologies(const TraceCollector& tc,
                                           const StatsSnapshot& stats,
                                           const PathologyConfig& cfg = {}) {
  PathologyReport rep;
  const unsigned n = static_cast<unsigned>(stats.per_worker.size());
  if (n == 0) return rep;

  std::uint64_t spawn_total = 0, hungry_total = 0, hits_total = 0;
  std::uint64_t spawn_top = 0;
  unsigned top_worker = 0;
  std::uint64_t deferred_events = 0, inlined_events = 0;
  for (unsigned i = 0; i < n; ++i) {
    const WorkerStats& ws = stats.per_worker[i];
    const std::uint64_t s = ws.tasks_deferred + ws.tasks_inlined_fast;
    spawn_total += s;
    if (s > spawn_top) {
      spawn_top = s;
      top_worker = i;
    }
    hungry_total += ws.hungry_rounds;
    hits_total += ws.tasks_stolen;
  }
  // Deferred-vs-inlined split needs the per-record flag (arg2), so it comes
  // from the drained stream; on very long runs wraparound undercounts both
  // sides equally, which keeps the share estimate usable.
  for (unsigned i = 0; i < tc.num_workers(); ++i)
    for (const TraceRecord& r : tc.events(i))
      if (static_cast<TraceEvent>(r.type) == TraceEvent::spawn)
        (r.arg2 != 0 ? deferred_events : inlined_events) += 1;

  // --- creation-serialization -------------------------------------------
  if (n >= 2 && spawn_total >= cfg.creation_min_spawns) {
    const double share =
        static_cast<double>(spawn_top) / static_cast<double>(spawn_total);
    const std::uint64_t hungry_others =
        hungry_total - stats.per_worker[top_worker].hungry_rounds;
    const double hungry_per_other =
        static_cast<double>(hungry_others) / static_cast<double>(n - 1);
    if (share >= cfg.creation_top_share &&
        hungry_per_other >= cfg.creation_min_hungry_per_other) {
      rep.creation_serialization.fired = true;
      rep.creation_serialization.score = share;
    }
    rep.creation_serialization.detail =
        "top worker " + std::to_string(top_worker) + " sourced " +
        std::to_string(static_cast<int>(share * 100.0)) + "% of " +
        std::to_string(spawn_total) + " spawns; avg hungry rounds/other=" +
        std::to_string(static_cast<std::uint64_t>(hungry_per_other));
  }

  // --- depth-first starvation -------------------------------------------
  if (n >= 2 && spawn_total >= cfg.starve_min_spawns) {
    const std::uint64_t seen = deferred_events + inlined_events;
    const double deferred_share =
        seen == 0 ? 1.0
                  : static_cast<double>(deferred_events) /
                        static_cast<double>(seen);
    const double hungry_per_other =
        static_cast<double>(hungry_total) / static_cast<double>(n - 1);
    const double hits_per_worker =
        static_cast<double>(hits_total) / static_cast<double>(n);
    if (deferred_share <= cfg.starve_max_deferred_share &&
        hungry_per_other >= cfg.starve_min_hungry_per_other &&
        hits_per_worker <= cfg.starve_max_hits_per_worker) {
      rep.depth_first_starvation.fired = true;
      rep.depth_first_starvation.score = 1.0 - deferred_share;
    }
    rep.depth_first_starvation.detail =
        "deferred share " +
        std::to_string(static_cast<int>(deferred_share * 100.0)) + "% of " +
        std::to_string(seen) + " spawns; hungry/other=" +
        std::to_string(static_cast<std::uint64_t>(hungry_per_other)) +
        ", steal hits/worker=" +
        std::to_string(static_cast<std::uint64_t>(hits_per_worker));
  }

  // --- cross-node ping-pong ---------------------------------------------
  // Directed transfer counts per node pair: steal hits carry
  // (victim_node, thief_node); mailbox records carry (sender, target) with
  // the descriptor's birth node in arg. A move AWAY from the birth node and
  // a later move BACK show up as the two directions of one pair.
  {
    std::map<std::pair<unsigned, unsigned>, std::uint64_t> dir;
    std::uint64_t transfers = 0;
    for (unsigned i = 0; i < tc.num_workers(); ++i) {
      for (const TraceRecord& r : tc.events(i)) {
        const auto ev = static_cast<TraceEvent>(r.type);
        unsigned from = 0, to = 0;
        std::uint64_t weight = 1;
        if (ev == TraceEvent::steal_hit) {
          from = trace_node_hi(r.arg2);
          to = trace_node_lo(r.arg2);
          weight = std::max<std::uint64_t>(r.arg, 1);
        } else if (ev == TraceEvent::mailbox) {
          from = trace_node_lo(r.arg2);
          to = trace_node_hi(r.arg2);
        } else {
          continue;
        }
        if (from == to) continue;
        dir[{from, to}] += weight;
        transfers += weight;
      }
    }
    double worst_symmetry = 0.0;
    std::pair<unsigned, unsigned> worst_pair{0, 0};
    std::uint64_t worst_volume = 0;
    for (const auto& [key, fwd] : dir) {
      if (key.first > key.second) continue;  // visit each pair once
      auto it = dir.find({key.second, key.first});
      const std::uint64_t rev = it == dir.end() ? 0 : it->second;
      if (fwd + rev == 0) continue;
      const double sym = 2.0 * static_cast<double>(std::min(fwd, rev)) /
                         static_cast<double>(fwd + rev);
      if (fwd + rev > worst_volume ||
          (fwd + rev == worst_volume && sym > worst_symmetry)) {
        worst_volume = fwd + rev;
        worst_symmetry = sym;
        worst_pair = key;
      }
    }
    const double bounce_ratio =
        spawn_total == 0 ? 0.0
                         : static_cast<double>(transfers) /
                               static_cast<double>(spawn_total);
    if (transfers >= cfg.pingpong_min_transfers &&
        bounce_ratio >= cfg.pingpong_min_bounce_ratio &&
        worst_symmetry >= cfg.pingpong_min_symmetry) {
      rep.cross_node_ping_pong.fired = true;
      rep.cross_node_ping_pong.score = bounce_ratio * worst_symmetry;
    }
    if (transfers > 0) {
      rep.cross_node_ping_pong.detail =
          std::to_string(transfers) + " cross-node transfers (bounce ratio " +
          std::to_string(static_cast<int>(bounce_ratio * 100.0)) +
          "% of spawns); worst pair " + std::to_string(worst_pair.first) +
          "<->" + std::to_string(worst_pair.second) + " symmetry " +
          std::to_string(static_cast<int>(worst_symmetry * 100.0)) + "%";
    }
  }
  return rep;
}

// ---------------------------------------------------------------------------
// Online phase detection for TaskServer retuning.
//
// Fed one PhaseSample per retune window: per-window deltas of the live
// worker counters (stats.hpp), whether tracing is on or off.
struct PhaseSample {
  double d_remote = 0.0;  // remote steal hits this window
  double d_skip = 0.0;    // hint-gated probes skipped this window
  double d_hungry = 0.0;  // fruitless find_work rounds this window
  double d_spawn = 0.0;   // deferred + fast-inlined spawns this window
  double spawn_top_share = 0.0;  // top worker's share of this window's spawns
};

class PhaseDetector {
 public:
  explicit PhaseDetector(double team) : team_(team < 1.0 ? 1.0 : team) {}

  // Returns the policy to retune to, or nullopt to hold.
  std::optional<StealPolicyKind> update(const PhaseSample& s,
                                        StealPolicyKind current) noexcept {
    auto ewma = [](double ew, double d) { return (7.0 * ew + d) / 8.0; };
    ew_remote_ = ewma(ew_remote_, s.d_remote);
    ew_skip_ = ewma(ew_skip_, s.d_skip);
    ew_hungry_ = ewma(ew_hungry_, s.d_hungry);
    ew_spawn_ = ewma(ew_spawn_, s.d_spawn);
    ew_share_ = ewma(ew_share_, s.spawn_top_share);

    // Remote churn: cross-node steals dominating -> node-tiered probing.
    const bool remote_churn = ew_remote_ > 4.0 * team_;
    // Serialized-creation phase: one worker sources nearly all
    // spawns while the team runs hungry -> hierarchical keeps the probe
    // storm off the generator's node until its own tier is dry.
    const bool creation_phase = ew_share_ > 0.85 && ew_spawn_ > 4.0 * team_ &&
                                ew_hungry_ > team_;
    if (current != StealPolicyKind::hierarchical &&
        (remote_churn || creation_phase)) {
      return StealPolicyKind::hierarchical;
    }
    // Settled local phase: little cross-node traffic, hints mostly warm,
    // team rarely hungry -> cheap sticky victims win.
    if (current == StealPolicyKind::hierarchical && !creation_phase &&
        ew_remote_ + ew_skip_ < team_ && ew_hungry_ < team_) {
      return StealPolicyKind::last_victim;
    }
    return std::nullopt;
  }

  double ew_remote() const noexcept { return ew_remote_; }
  double ew_hungry() const noexcept { return ew_hungry_; }
  double ew_share() const noexcept { return ew_share_; }

 private:
  double team_;
  double ew_remote_ = 0.0;
  double ew_skip_ = 0.0;
  double ew_hungry_ = 0.0;
  double ew_spawn_ = 0.0;
  double ew_share_ = 0.0;
};

}  // namespace bots::rt
