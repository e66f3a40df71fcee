// Adaptive grain control for splittable range tasks (rt::spawn_range).
//
// Kernels historically hardcoded grain = 1 ("let the runtime figure it
// out"), which makes every split check eligible and — under heavy thief
// demand — fragments a range into descriptors that carry almost no work.
// The GrainController turns grain into a runtime decision: it watches the
// same stats the split machinery already produces (iterations executed vs
// descriptors materialized, i.e. range_splits) plus a cheap starvation
// signal from the idle path, and retunes a grain estimate:
//
//   * dense splits  — descriptors average fewer than `grow_floor`
//     iterations each: splitting is costing a descriptor + steal transfer
//     for very little work, so the grain doubles (amortizing the split
//     checks and fattening every half).
//   * starvation    — workers keep reporting empty find_work rounds while
//     the live ranges produced NO split at all (a remainder that never
//     exceeds the grain cannot split, whatever the per-iteration cost):
//     the grain halves to re-expose the only parallelism ranges offer.
//     Keying the shrink on splits-impossible rather than on an absolute
//     iteration count matters for chunk-granular ranges (Sort's merges:
//     ~200 heavy iterations per range) — an iteration-count gate would
//     leave a grown grain unrecoverable there and ratchet the merge
//     phases serial. The two rules are mutually exclusive per window
//     (S > 0 grows, S == 0 shrinks), so the estimate at worst oscillates
//     by one factor of two around the boundary where ranges just barely
//     split — the right scale.
//
// Scope of an estimate — two axes, both closing PR-3 gaps:
//
//   * Per spawn site. One scheduler-global estimate mis-serves workloads
//     that mix cheap and expensive iterations (SparseLU's phases vs
//     Alignment's rows): whichever shape closes more windows drags the
//     shared estimate its way. Call sites therefore tag their ranges with
//     a RangeSite and the GrainTable gives every tagged site its own
//     controller (a small fixed-size hash table; colliding sites share a
//     slot, which only costs precision, never correctness). Untagged
//     sites — and everything when SchedulerConfig::use_site_grain is off
//     — fall back to the global controller, the PR-3 behaviour.
//   * Per region, with a region-start reset. Retuned state does NOT
//     persist across run_region calls: at region start every controller's
//     estimate drops back to its seeded base (1 unless seed() raised it),
//     so a region that converged coarse on huge cheap iterations cannot
//     poison the next region's first splits (cross-region bleed). The
//     window accumulators DO persist, so short repeated regions still
//     learn — just within each region's own estimate. spawn_range treats
//     the caller's grain as a floor either way: a kernel that *knows* its
//     per-iteration cost (FFT's data-motion chunks) keeps its floor.
//
// Gated by SchedulerConfig::use_adaptive_grain (+ use_site_grain).
//
// All counter state is relaxed atomics: signals are statistical, a lost
// update only delays a retune by one window. TSAN-clean by construction.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>

namespace bots::rt {

/// Compile-time tag for a spawn_range call site. Construct one constexpr
/// instance per lexical call site from a string literal (kept for
/// observability — GrainTable::describe names converged sites with it):
///
///   constexpr rt::RangeSite kMergeSite{"sort/merge"};
///   rt::spawn_range(kMergeSite, tied, 0, n, 1, body);
///
/// A default-constructed RangeSite (id 0) is "untagged" and maps to the
/// scheduler-global controller.
struct RangeSite {
  const char* name = nullptr;
  std::uint32_t id = 0;

  constexpr RangeSite() = default;
  explicit constexpr RangeSite(const char* n)
      : name(n), id(fnv1a(n) == 0 ? 1u : fnv1a(n)) {}

  /// FNV-1a over the site name (0 is reserved for "untagged", so a hash of
  /// exactly 0 is nudged to 1 above — full 32-bit spread is kept otherwise;
  /// forcing bits here would bias the GrainTable's slot index).
  [[nodiscard]] static constexpr std::uint32_t fnv1a(const char* s) noexcept {
    std::uint32_t h = 2166136261u;
    for (; *s != '\0'; ++s) {
      h ^= static_cast<std::uint32_t>(static_cast<unsigned char>(*s));
      h *= 16777619u;
    }
    return h;
  }
};

class GrainController {
 public:
  /// One retune per this many executed iterations (accumulated across
  /// ranges and regions, so short regions still learn — just more slowly).
  static constexpr std::int64_t retune_window = 1024;
  /// Grow when descriptors average fewer iterations than this (and at
  /// least one split happened — without splits there is nothing to
  /// amortize and growing cannot help).
  static constexpr std::int64_t grow_floor = 64;
  /// Hungry find_work rounds per team member per window that count as
  /// starvation. Deliberately low: the idle path's sleep backoff caps the
  /// note rate at a few hundred per second on a contended box, and the
  /// real guard is the S == 0 condition — while ranges are splitting at
  /// all, hunger never shrinks the grain (the splits themselves are the
  /// feed); only a window whose live ranges could not split once is
  /// treated as grain-blocked.
  static constexpr std::uint64_t hungry_floor = 4;
  static constexpr std::int64_t max_grain = 1 << 16;

  GrainController() noexcept = default;
  explicit GrainController(unsigned team) noexcept
      : team_(team == 0 ? 1 : team) {}

  /// Table construction seam: GrainTable default-constructs its slots and
  /// then sets the team size (std::array cannot forward ctor arguments).
  void set_team(unsigned team) noexcept { team_ = team == 0 ? 1 : team; }

  /// Current grain estimate (>= 1). spawn_range uses
  /// max(caller grain, grain()) when use_adaptive_grain is on.
  [[nodiscard]] std::int64_t grain() const noexcept {
    return grain_.load(std::memory_order_relaxed);
  }

  /// Set the estimate AND the base the estimate resets to at every region
  /// start — a warm start survives regions, a retune does not (retuned
  /// state is what cross-region bleed is made of). Tests use this to put
  /// the controller into a known state, and reconfigure_live uses it to
  /// reseed the live generation (base_ is an atomic so a live seed CASes
  /// cleanly against a concurrent region-start reset).
  void seed(std::int64_t g) noexcept {
    const std::int64_t c = clamp(g);
    base_.store(c, std::memory_order_relaxed);
    grain_.store(c, std::memory_order_relaxed);
  }

  /// Region-start reset: drop the estimate back to the seeded base so a
  /// coarse estimate learned on one region's workload cannot poison the
  /// next region's first splits. Window accumulators are kept — partial
  /// windows keep accumulating across short regions. Called by run_region
  /// (between regions; no worker is concurrently retuning — but a live
  /// reseed may race it, hence the atomic base).
  void on_region_start() noexcept {
    grain_.store(base_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
  }

  /// Retunes applied so far (observability; bench_ablation_steal_policy
  /// prints it next to the converged grain).
  [[nodiscard]] std::uint64_t retunes() const noexcept {
    return retunes_.load(std::memory_order_relaxed);
  }

  /// Published-but-unfinished range descriptors. Zero whenever the
  /// scheduler is quiescent — a nonzero value between regions means a
  /// completion report leaked (asserted by tests around throwing bodies).
  [[nodiscard]] std::int64_t live_ranges() const noexcept {
    return live_ranges_.load(std::memory_order_relaxed);
  }

  /// A range descriptor (an original range or a split-off half) was
  /// published. Keeps `live_ranges_` matched with on_range_complete so the
  /// starvation signal below is scoped to windows where range work
  /// actually exists.
  void range_published() noexcept {
    live_ranges_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Idle path signal: a find_work round found nothing anywhere. Counted
  /// only while a range descriptor is live — hunger during range-free
  /// phases (a fib burst, a region-end barrier tail after the last range
  /// finished) says nothing about grain, and letting it accumulate
  /// between retune windows would force a spurious shrink of a healthy
  /// converged grain the next time a window closes.
  void note_hungry() noexcept {
    if (live_ranges_.load(std::memory_order_relaxed) > 0) {
      hungry_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// A range descriptor (an original range or a split-off half) finished:
  /// it executed `iters` iterations and split `splits` halves off itself.
  void on_range_complete(std::int64_t iters, std::int64_t splits) noexcept {
    live_ranges_.fetch_sub(1, std::memory_order_relaxed);
    iters_.fetch_add(iters, std::memory_order_relaxed);
    splits_.fetch_add(splits, std::memory_order_relaxed);
    descs_.fetch_add(1, std::memory_order_relaxed);
    if (iters_.load(std::memory_order_relaxed) < retune_window) return;
    // Claim the whole window; a racing claimant that grabs a short remnant
    // returns it, so exactly one retune sees the full window.
    const std::int64_t iters_seen = iters_.exchange(0, std::memory_order_relaxed);
    if (iters_seen < retune_window) {
      iters_.fetch_add(iters_seen, std::memory_order_relaxed);
      return;
    }
    const std::int64_t splits_seen =
        splits_.exchange(0, std::memory_order_relaxed);
    const std::int64_t descs_seen = descs_.exchange(0, std::memory_order_relaxed);
    const std::uint64_t hungry_seen =
        hungry_.exchange(0, std::memory_order_relaxed);
    const std::int64_t d = descs_seen > 0 ? descs_seen : 1;
    const std::int64_t g = grain_.load(std::memory_order_relaxed);
    std::int64_t next = g;
    if (splits_seen > 0 && iters_seen < grow_floor * d) {
      next = g * 2;  // dense splits: descriptors too lean, amortize harder
    } else if (splits_seen == 0 && descs_seen > 0 &&
               hungry_seen > hungry_floor * team_) {
      next = g / 2;  // hungry workers + ranges that could not split once:
                     // the grain is blocking the parallelism, walk it back
    }
    next = clamp(next);
    if (next != g) {
      grain_.store(next, std::memory_order_relaxed);
      retunes_.fetch_add(1, std::memory_order_relaxed);
    }
  }

 private:
  [[nodiscard]] static std::int64_t clamp(std::int64_t g) noexcept {
    if (g < 1) return 1;
    if (g > max_grain) return max_grain;
    return g;
  }

  std::atomic<std::int64_t> grain_{1};
  std::atomic<std::int64_t> iters_{0};
  std::atomic<std::int64_t> splits_{0};
  std::atomic<std::int64_t> descs_{0};
  std::atomic<std::int64_t> live_ranges_{0};
  std::atomic<std::uint64_t> hungry_{0};
  std::atomic<std::uint64_t> retunes_{0};
  /// Region-start reset target. Usually written between regions (seed /
  /// construction), but reconfigure_live may reseed it while the server's
  /// resident region runs — relaxed atomic so that write never races
  /// on_region_start's read.
  std::atomic<std::int64_t> base_{1};
  unsigned team_ = 1;
};

/// The scheduler's grain estimates: one global controller (untagged sites,
/// and everything when per-site keying is disabled) plus a small fixed-size
/// table of per-site controllers keyed by RangeSite id. Sites hashing to
/// the same slot share a controller — precision degrades, nothing breaks —
/// and the first name to claim a slot labels it in describe().
class GrainTable {
 public:
  /// Prime, and comfortably larger than the number of tagged sites the
  /// kernels ship (8), so the folded hash spreads collision-free in
  /// practice — verified for every in-tree site name. ~5 KB of slots.
  static constexpr std::size_t site_slots = 61;

  explicit GrainTable(unsigned team, bool per_site = true) noexcept
      : per_site_(per_site), global_(team) {
    for (Slot& s : sites_) s.ctrl.set_team(team);
  }

  [[nodiscard]] GrainController& global() noexcept { return global_; }

  /// The controller serving `site`: the global one for untagged sites (and
  /// for every site when per-site keying is off), the site's hash slot
  /// otherwise.
  [[nodiscard]] GrainController& for_site(RangeSite site) noexcept {
    if (site.id == 0 || !per_site_) return global_;
    // Fold the high half in before the modulo: FNV-1a's low bits alone
    // cluster for short strings, and a biased index quietly merges sites
    // (colliding sites share one estimate AND one describe() label).
    const std::uint32_t mixed = site.id ^ (site.id >> 16);
    Slot& s = sites_[mixed % site_slots];
    if (s.name.load(std::memory_order_relaxed) == nullptr) {
      s.name.store(site.name, std::memory_order_relaxed);
    }
    return s.ctrl;
  }

  /// Idle-path fan-out: each controller's live-range gate decides whether
  /// the hunger concerns it, so forwarding to all of them is both correct
  /// and cheap (one relaxed load per idle round per slot).
  void note_hungry() noexcept {
    global_.note_hungry();
    for (Slot& s : sites_) s.ctrl.note_hungry();
  }

  void on_region_start() noexcept {
    global_.on_region_start();
    for (Slot& s : sites_) s.ctrl.on_region_start();
  }

  /// "global=G site=G ..." for every site that has bound a slot — printed
  /// by bench_ablation_steal_policy and `bots_run --stats` so per-site
  /// convergence stays visible.
  [[nodiscard]] std::string describe() const {
    std::ostringstream os;
    os << "global=" << global_.grain();
    for (const Slot& s : sites_) {
      if (const char* n = s.name.load(std::memory_order_relaxed)) {
        os << ' ' << n << '=' << s.ctrl.grain();
      }
    }
    return os.str();
  }

 private:
  struct Slot {
    std::atomic<const char*> name{nullptr};  ///< first site literal bound here
    GrainController ctrl;
  };

  bool per_site_;
  GrainController global_;
  std::array<Slot, site_slots> sites_;
};

}  // namespace bots::rt
