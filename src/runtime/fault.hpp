// Deterministic fault injection for the runtime.
//
// A FaultPlan is a seeded, per-site probabilistic failure schedule parsed
// from a compact string (env var RT_FAULT_PLAN or SchedulerConfig::
// fault_plan).  Grammar, comma-separated, order-insensitive:
//
//   seed=N          64-bit decimal seed (default 1)
//   all=P           probability in [0,1] applied to every site
//   <site>=P        per-site override; sites: descriptor_alloc, arena_carve,
//                   thread_spawn, pin, mailbox_push, task_body, server_admit
//
// e.g. RT_FAULT_PLAN="seed=7,all=0.02,thread_spawn=0"
//
// Decisions are a pure function of (seed, site, per-site draw index), so a
// given plan replays identically across runs regardless of thread
// interleaving *per site*: the i-th draw at a site always returns the same
// verdict.  Malformed entries are skipped with one stderr warning; a plan
// string that yields no valid entry leaves the plan inactive.
//
// Injected task-body faults throw FaultInjected, which the scheduler
// catches and retries (OMPC-style task re-execution) — it is never surfaced
// to user code and never triggers cancel_on_exception.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <string>
#include <string_view>

namespace bots::rt {

enum class FaultSite : int {
  descriptor_alloc = 0,  // TaskPool descriptor hand-out
  arena_carve,           // TaskPool fresh carve (simulated bad_alloc)
  thread_spawn,          // worker std::jthread construction
  pin,                   // worker CPU pinning
  mailbox_push,          // hint-directed RangeMailbox push
  task_body,             // transient throw before a deferred body runs
  server_admit,          // TaskServer::submit admission (transient reject)
  count_,
};

inline constexpr int fault_site_count = static_cast<int>(FaultSite::count_);

[[nodiscard]] inline const char* to_string(FaultSite s) {
  switch (s) {
    case FaultSite::descriptor_alloc: return "descriptor_alloc";
    case FaultSite::arena_carve: return "arena_carve";
    case FaultSite::thread_spawn: return "thread_spawn";
    case FaultSite::pin: return "pin";
    case FaultSite::mailbox_push: return "mailbox_push";
    case FaultSite::task_body: return "task_body";
    case FaultSite::server_admit: return "server_admit";
    case FaultSite::count_: break;
  }
  return "?";
}

// Thrown (and always caught inside the runtime) for task_body injections.
struct FaultInjected : std::exception {
  [[nodiscard]] const char* what() const noexcept override {
    return "rt: injected transient task fault";
  }
};

class FaultPlan {
 public:
  FaultPlan() = default;

  // Re-initialises this plan from `spec` (counters and verdict history
  // reset); an empty string leaves the plan inactive.  Malformed entries
  // warn on stderr and are otherwise ignored.
  void parse(std::string_view spec) {
    seed_ = 1;
    for (int i = 0; i < fault_site_count; ++i) {
      threshold_[i] = 0;
      counter_[i].store(0, std::memory_order_relaxed);
      injected_[i].store(0, std::memory_order_relaxed);
    }
    std::size_t pos = 0;
    while (pos <= spec.size()) {
      std::size_t comma = spec.find(',', pos);
      if (comma == std::string_view::npos) comma = spec.size();
      std::string_view entry = spec.substr(pos, comma - pos);
      pos = comma + 1;
      if (entry.empty()) continue;
      if (!apply_entry(entry)) {
        std::fprintf(stderr,
                     "rt: warning: ignoring malformed fault-plan entry '%.*s'\n",
                     static_cast<int>(entry.size()), entry.data());
      }
    }
  }

  // True if any site has a non-zero probability.
  [[nodiscard]] bool active() const {
    for (const auto& t : threshold_)
      if (t != 0) return true;
    return false;
  }

  [[nodiscard]] bool site_active(FaultSite s) const {
    return threshold_[index(s)] != 0;
  }

  // Deterministic verdict for the next draw at `site`.  Thread-safe; the
  // i-th draw at a site is a pure function of (seed, site, i).
  [[nodiscard]] bool should_fail(FaultSite s) {
    const int i = index(s);
    if (threshold_[i] == 0) return false;
    const std::uint64_t draw =
        counter_[i].fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t h =
        mix(seed_ ^ (static_cast<std::uint64_t>(i + 1) * 0x9e3779b97f4a7c15ULL)
                  ^ draw);
    if (h >= threshold_[i]) return false;
    injected_[i].fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  [[nodiscard]] std::uint64_t injected(FaultSite s) const {
    return injected_[index(s)].load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t total_injected() const {
    std::uint64_t n = 0;
    for (const auto& c : injected_) n += c.load(std::memory_order_relaxed);
    return n;
  }

  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  // Human-readable one-liner, e.g. "seed=7 task_body=0.02".
  [[nodiscard]] std::string describe() const {
    std::string out = "seed=" + std::to_string(seed_);
    for (int i = 0; i < fault_site_count; ++i) {
      if (threshold_[i] == 0) continue;
      char buf[64];
      std::snprintf(buf, sizeof buf, " %s=%g",
                    to_string(static_cast<FaultSite>(i)),
                    static_cast<double>(threshold_[i]) / two64());
      out += buf;
    }
    return out;
  }

 private:
  static constexpr int index(FaultSite s) { return static_cast<int>(s); }

  static constexpr double two64() { return 18446744073709551616.0; }

  // splitmix64 finalizer: decorrelates (seed, site, draw) into a uniform
  // 64-bit hash without any shared RNG state.
  static std::uint64_t mix(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  [[nodiscard]] static bool parse_u64(std::string_view s, std::uint64_t& out) {
    if (s.empty() || s.size() > 20) return false;
    std::uint64_t v = 0;
    for (char c : s) {
      if (c < '0' || c > '9') return false;
      v = v * 10 + static_cast<std::uint64_t>(c - '0');
    }
    out = v;
    return true;
  }

  [[nodiscard]] static bool parse_prob(std::string_view s, std::uint64_t& out) {
    // Accepts a decimal in [0,1] like "0.02", "1", ".5".  No exponents.
    if (s.empty() || s.size() > 32) return false;
    double v = 0.0, scale = 1.0;
    std::size_t i = 0;
    for (; i < s.size() && s[i] != '.'; ++i) {
      if (s[i] < '0' || s[i] > '9') return false;
      v = v * 10.0 + (s[i] - '0');
    }
    if (i < s.size()) {  // fractional part
      for (++i; i < s.size(); ++i) {
        if (s[i] < '0' || s[i] > '9') return false;
        scale *= 0.1;
        v += (s[i] - '0') * scale;
      }
    }
    if (v < 0.0 || v > 1.0) return false;
    out = v >= 1.0 ? ~0ULL
                   : static_cast<std::uint64_t>(v * two64());
    return true;
  }

  [[nodiscard]] bool apply_entry(std::string_view entry) {
    const std::size_t eq = entry.find('=');
    if (eq == std::string_view::npos || eq == 0) return false;
    const std::string_view key = entry.substr(0, eq);
    const std::string_view val = entry.substr(eq + 1);
    if (key == "seed") return parse_u64(val, seed_);
    std::uint64_t thr = 0;
    if (!parse_prob(val, thr)) return false;
    if (key == "all") {
      for (auto& t : threshold_) t = thr;
      return true;
    }
    for (int i = 0; i < fault_site_count; ++i) {
      if (key == to_string(static_cast<FaultSite>(i))) {
        threshold_[i] = thr;
        return true;
      }
    }
    return false;
  }

  std::uint64_t seed_ = 1;
  std::array<std::uint64_t, fault_site_count> threshold_{};
  std::array<std::atomic<std::uint64_t>, fault_site_count> counter_{};
  std::array<std::atomic<std::uint64_t>, fault_site_count> injected_{};
};

}  // namespace bots::rt
