#include "runtime/steal_policy.hpp"

#include <algorithm>

#include "runtime/scheduler.hpp"

namespace bots::rt {

namespace {

/// Rotation start for the base victim order of `w` over `n` workers.
[[nodiscard]] unsigned rotation_start(Worker& w, VictimPolicy base,
                                      unsigned n) noexcept {
  return base == VictimPolicy::random
             ? static_cast<unsigned>(w.rng_next() % n)
             : (w.id + 1) % n;
}

/// random / sequential: a plain rotation, no memory between rounds.
class RotationPolicy final : public StealPolicy {
 public:
  RotationPolicy(const Topology& topo, VictimPolicy base) noexcept
      : StealPolicy(topo), base_(base) {}

  [[nodiscard]] const char* name() const noexcept override {
    return base_ == VictimPolicy::random ? "random" : "sequential";
  }

  unsigned victim_order(Worker& w, unsigned* order) override {
    const unsigned n = topo_.num_workers();
    const unsigned start = rotation_start(w, base_, n);
    unsigned cnt = 0;
    for (unsigned k = 0; k < n; ++k) {
      const unsigned v = (start + k) % n;
      if (v != w.id) order[cnt++] = v;
    }
    return cnt;
  }

 private:
  VictimPolicy base_;
};

/// last_victim: the remembered last successful victim first (steals come
/// in bursts from the same loaded worker), then the base rotation.
class LastVictimPolicy : public StealPolicy {
 public:
  LastVictimPolicy(const Topology& topo, VictimPolicy base) noexcept
      : StealPolicy(topo), base_(base) {}

  [[nodiscard]] const char* name() const noexcept override {
    return "last_victim";
  }

  unsigned victim_order(Worker& w, unsigned* order) override {
    const unsigned n = topo_.num_workers();
    const unsigned hint = w.last_victim;
    unsigned cnt = 0;
    if (hint < n && hint != w.id) order[cnt++] = hint;
    const unsigned start = rotation_start(w, base_, n);
    for (unsigned k = 0; k < n; ++k) {
      const unsigned v = (start + k) % n;
      if (v != w.id && v != hint) order[cnt++] = v;
    }
    return cnt;
  }

  void raided(Worker& w, unsigned v, bool success) noexcept override {
    if (success) {
      w.last_victim = v;
    } else if (w.last_victim == v) {
      w.last_victim = Worker::no_victim;  // the burst is over
    }
  }

 private:
  VictimPolicy base_;
};

/// hierarchical: same-node victims (affinity hint kept while on-node)
/// before any cross-node probe; cross-node raids carry smaller batches and
/// remote nodes whose has-work hint is clear are skipped entirely (with a
/// periodic unconditional round so a stale hint cannot starve anyone).
class HierarchicalPolicy final : public LastVictimPolicy {
 public:
  /// Cross-node steal-half raids take base / this (>= 1) tasks: a raid
  /// over the interconnect drags every stolen task's working set across
  /// it, so a miss there should cost less speculation than a local one.
  static constexpr std::size_t cross_node_batch_scale = 4;

  /// After this many consecutive hint-gated planning rounds the next round
  /// is unconditional (every remote node probed, hints ignored). This is
  /// the liveness bound for a stale clear hint: work sitting on a node the
  /// hints call idle is reached by remote thieves within at most this many
  /// rounds — and the node's own workers never consult hints for their
  /// home node at all.
  static constexpr std::uint32_t hint_backoff_rounds = 16;

  HierarchicalPolicy(const Topology& topo, VictimPolicy base,
                     NodeHints* hints) noexcept
      : LastVictimPolicy(topo, base), hints_(hints) {}

  [[nodiscard]] const char* name() const noexcept override {
    return "hierarchical";
  }

  unsigned victim_order(Worker& w, unsigned* order) override {
    const unsigned nodes = topo_.num_nodes();
    if (nodes <= 1) {
      // Single locality domain: exactly last_victim (the documented
      // degeneration — no interconnect to respect).
      return LastVictimPolicy::victim_order(w, order);
    }
    const unsigned n = topo_.num_workers();
    const unsigned home = topo_.node_of(w.id);
    unsigned cnt = 0;
    // Tier 1: the affinity hint, but only while it stays on-node — a
    // cross-node burst is re-earned every round against local victims.
    const unsigned hint = w.last_victim;
    const bool hint_local =
        hint < n && hint != w.id && topo_.node_of(hint) == home;
    if (hint_local) order[cnt++] = hint;
    // Tier 2: the rest of the home node, rotated so contention spreads.
    append_node(w, home, hint_local ? hint : Worker::no_victim, order, cnt);
    // Tier 3: remote nodes, nearest-numbered first, workers rotated
    // within each. Only reached when the whole home node came up empty —
    // and, with hints, only for nodes that advertise work, except on the
    // periodic unconditional round that bounds the cost of a stale hint.
    const bool gate =
        hints_ != nullptr && w.gated_rounds < hint_backoff_rounds;
    if (!gate) w.gated_rounds = 0;
    bool skipped = false;
    for (unsigned dn = 1; dn < nodes; ++dn) {
      const unsigned node = (home + dn) % nodes;
      if (gate && !hints_->has_work(node)) {
        w.stats.remote_probes_skipped += topo_.workers_on(node).size();
        skipped = true;
        continue;
      }
      append_node(w, node, Worker::no_victim, order, cnt);
    }
    if (skipped) ++w.gated_rounds;
    return cnt;
  }

  void raided(Worker& w, unsigned v, bool success) noexcept override {
    if (success) w.gated_rounds = 0;  // fed again: restart the hint gate
    LastVictimPolicy::raided(w, v, success);
  }

  unsigned place_range_half(Worker& w) noexcept override {
    // Redirect only on the exact signal pair the hints already maintain:
    // home advertises surplus (a local thief has nearer work than this
    // half) AND some remote node is provably hungry (word clear: every
    // enqueue there would have set it). Without hints — or with every
    // remote node fed — the half stays local, the PR-3 behaviour.
    const unsigned nodes = topo_.num_nodes();
    if (hints_ == nullptr || nodes <= 1) return no_node;
    const unsigned home = topo_.node_of(w.id);
    if (!hints_->has_work(home)) return no_node;  // no local surplus
    for (unsigned dn = 1; dn < nodes; ++dn) {
      const unsigned node = (home + dn) % nodes;
      if (!topo_.has_workers(node)) continue;  // nobody to drain a mailbox
      if (!hints_->has_work(node)) return node;
    }
    return no_node;
  }

  [[nodiscard]] std::size_t batch_cap(
      const Worker& w, unsigned v, std::size_t base) const noexcept override {
    if (topo_.same_node(w.id, v)) return base;
    return std::max<std::size_t>(1, base / cross_node_batch_scale);
  }

 private:
  void append_node(Worker& w, unsigned node, unsigned skip, unsigned* order,
                   unsigned& cnt) const {
    const std::vector<unsigned>& members = topo_.workers_on(node);
    if (members.empty()) return;
    const std::size_t size = members.size();
    const std::size_t start = static_cast<std::size_t>(w.rng_next() % size);
    for (std::size_t k = 0; k < size; ++k) {
      const unsigned v = members[(start + k) % size];
      if (v != w.id && v != skip) order[cnt++] = v;
    }
  }

  NodeHints* hints_;  ///< null when cfg.use_node_work_hints is off
};

}  // namespace

std::unique_ptr<StealPolicy> make_steal_policy(const SchedulerConfig& cfg,
                                               const Topology& topo,
                                               NodeHints* hints) {
  switch (cfg.resolved_steal_policy()) {
    case StealPolicyKind::random:
      return std::make_unique<RotationPolicy>(topo, VictimPolicy::random);
    case StealPolicyKind::sequential:
      return std::make_unique<RotationPolicy>(topo, VictimPolicy::sequential);
    case StealPolicyKind::last_victim:
    case StealPolicyKind::legacy:  // resolved_steal_policy never returns this
      return std::make_unique<LastVictimPolicy>(topo, cfg.victim);
    case StealPolicyKind::hierarchical:
      return std::make_unique<HierarchicalPolicy>(topo, cfg.victim, hints);
  }
  return std::make_unique<LastVictimPolicy>(topo, cfg.victim);
}

}  // namespace bots::rt
