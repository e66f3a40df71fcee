// Locality domains for topology-aware scheduling.
//
// A Topology maps every worker of a team onto a locality domain ("node" —
// a NUMA node on real hardware). The hierarchical steal policy
// (steal_policy.hpp) consults it to probe same-node victims before crossing
// the interconnect, to shrink cross-node steal batches, and — through the
// victim order — to keep freshly split range halves on the node that
// produced them (a same-node thief reaches them first). The node map also
// groups the per-worker descriptor pools into the per-node balance view
// (Scheduler::node_pool_snapshot) and addresses the per-node RangeMailbox
// hint-aware placement delivers split halves through.
//
// Three sources, in precedence order:
//   1. A synthetic "NxM" spec (N nodes of M cores) from
//      SchedulerConfig::synthetic_topology or the RT_SYNTHETIC_TOPOLOGY
//      environment variable. Fully deterministic: worker w lives on node
//      (w / M) % N. This is what tests and CI use — policy behaviour must
//      not depend on the machine the suite happens to run on.
//   2. sysfs discovery (/sys/devices/system/node/node*/cpulist). Workers
//      are mapped to CPUs round-robin by id (worker w -> cpu w % ncpus).
//   3. Flat fallback: one node holding every worker (single-socket boxes,
//      containers without sysfs). The hierarchical policy then degenerates
//      to last-victim stealing — there is no interconnect to respect.
//
// Each node also carries the cpuset backing it (cpus_on): the sysfs cpulist
// for discovered topologies, the deterministic block [n*M, (n+1)*M) for a
// synthetic "NxM" spec, and empty for the flat fallback (nothing to pin
// against). With SchedulerConfig::pin_workers the scheduler pins every
// worker to its node's cpuset at region entry (affinity.hpp), turning the
// map from an affinity *hint* into enforced placement; without pinning —
// or when the cpuset does not match the real machine — the map stays a
// hint and the worker runs unpinned.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "runtime/config.hpp"

namespace bots::rt {

class Topology {
 public:
  /// Build the worker -> node map for a team of `workers`. `synthetic` is
  /// the "NxM" override ("" consults RT_SYNTHETIC_TOPOLOGY, then sysfs).
  [[nodiscard]] static Topology detect(unsigned workers,
                                       const std::string& synthetic) {
    Topology t;
    t.node_of_.assign(workers == 0 ? 1 : workers, 0);
    std::string spec = synthetic;
    if (spec.empty()) {
      if (const char* env = std::getenv("RT_SYNTHETIC_TOPOLOGY")) spec = env;
    }
    unsigned nodes = 0;
    unsigned cores = 0;
    // A non-empty spec that does not parse falls through to sysfs/flat like
    // the unset case — but loudly: a typo'd RT_SYNTHETIC_TOPOLOGY silently
    // running flat would invalidate whatever locality experiment asked for
    // it (same malformed-env contract as config.hpp's env_* helpers).
    if (!spec.empty() && !parse_synthetic(spec, nodes, cores)) {
      warn_malformed_env("RT_SYNTHETIC_TOPOLOGY", spec.c_str());
    }
    if (parse_synthetic(spec, nodes, cores)) {
      t.source_ = "synthetic";
      for (unsigned w = 0; w < t.node_of_.size(); ++w) {
        t.node_of_[w] = (w / cores) % nodes;
      }
      t.build_node_lists();
      // Node n of an "NxM" spec stands for the CPU block [n*M, (n+1)*M).
      // Whether those CPUs exist on this machine is the pinning layer's
      // problem (affinity.hpp falls back cleanly when they do not).
      t.node_cpus_.assign(t.nodes_.size(), {});
      for (unsigned n = 0; n < t.node_cpus_.size(); ++n) {
        for (unsigned c = 0; c < cores; ++c) t.node_cpus_[n].push_back(n * cores + c);
      }
    } else if (std::vector<unsigned> cpu_node = read_sysfs_nodes();
               !cpu_node.empty()) {
      t.source_ = "sysfs";
      for (unsigned w = 0; w < t.node_of_.size(); ++w) {
        t.node_of_[w] = cpu_node[w % cpu_node.size()];
      }
      t.build_node_lists();
      t.node_cpus_.assign(t.nodes_.size(), {});
      for (unsigned cpu = 0; cpu < cpu_node.size(); ++cpu) {
        if (cpu_node[cpu] < t.node_cpus_.size()) {
          t.node_cpus_[cpu_node[cpu]].push_back(cpu);
        }
      }
    } else {
      t.source_ = "flat";
      t.build_node_lists();
      t.node_cpus_.assign(t.nodes_.size(), {});  // flat: nothing to pin against
    }
    return t;
  }

  /// "NxM": N locality domains of M cores each. Returns false (and leaves
  /// the outputs untouched) on anything that is not two positive integers
  /// around a single 'x'.
  [[nodiscard]] static bool parse_synthetic(const std::string& spec,
                                            unsigned& nodes, unsigned& cores) {
    const std::size_t x = spec.find('x');
    if (x == std::string::npos || x == 0 || x + 1 >= spec.size()) return false;
    unsigned n = 0;
    unsigned c = 0;
    for (std::size_t i = 0; i < x; ++i) {
      if (spec[i] < '0' || spec[i] > '9') return false;
      n = n * 10 + static_cast<unsigned>(spec[i] - '0');
    }
    for (std::size_t i = x + 1; i < spec.size(); ++i) {
      if (spec[i] < '0' || spec[i] > '9') return false;
      c = c * 10 + static_cast<unsigned>(spec[i] - '0');
    }
    if (n == 0 || c == 0) return false;
    nodes = n;
    cores = c;
    return true;
  }

  [[nodiscard]] unsigned num_workers() const noexcept {
    return static_cast<unsigned>(node_of_.size());
  }
  [[nodiscard]] unsigned num_nodes() const noexcept {
    return static_cast<unsigned>(nodes_.size());
  }
  [[nodiscard]] unsigned node_of(unsigned worker) const noexcept {
    return worker < node_of_.size() ? node_of_[worker] : 0u;
  }
  [[nodiscard]] bool same_node(unsigned a, unsigned b) const noexcept {
    return node_of(a) == node_of(b);
  }
  /// Worker ids living on `node` (ascending). Empty for out-of-range nodes.
  [[nodiscard]] const std::vector<unsigned>& workers_on(
      unsigned node) const noexcept {
    static const std::vector<unsigned> empty;
    return node < nodes_.size() ? nodes_[node] : empty;
  }
  /// Whether any worker lives on `node`. Nodes can be empty when the team
  /// is smaller than the machine (an 8-node box running 4 workers): such a
  /// node is never a steal tier, never owns live descriptors, and must
  /// never be a placement target — nobody would drain its mailbox.
  [[nodiscard]] bool has_workers(unsigned node) const noexcept {
    return node < nodes_.size() && !nodes_[node].empty();
  }
  /// CPU ids backing `node` — the cpuset pin_workers pins that node's
  /// workers to. Empty for the flat fallback and out-of-range nodes (no
  /// locality information means nothing worth pinning to).
  [[nodiscard]] const std::vector<unsigned>& cpus_on(
      unsigned node) const noexcept {
    static const std::vector<unsigned> empty;
    return node < node_cpus_.size() ? node_cpus_[node] : empty;
  }
  /// "synthetic", "sysfs" or "flat".
  [[nodiscard]] const std::string& source() const noexcept { return source_; }

  /// Human-readable summary, e.g. "2x4 (synthetic)" — printed by
  /// bench_ablation_steal_policy so its numbers name the box they ran on.
  [[nodiscard]] std::string describe() const {
    std::ostringstream os;
    os << num_nodes() << 'x'
       << (num_nodes() > 0 ? (num_workers() + num_nodes() - 1) / num_nodes()
                           : num_workers())
       << " (" << source_ << ')';
    return os.str();
  }

 private:
  /// cpu -> node map from sysfs; empty when unavailable or single-node
  /// (a single node carries no locality information — use the flat path).
  /// Enumerates the directory instead of probing node0, node1, ... so
  /// sparse node numbering (offlined nodes, CXL/sub-NUMA ids) is kept.
  [[nodiscard]] static std::vector<unsigned> read_sysfs_nodes() {
    std::vector<unsigned> cpu_node;
    unsigned nodes_seen = 0;
    try {
      std::error_code ec;
      std::filesystem::directory_iterator dir("/sys/devices/system/node", ec);
      if (ec) return {};
      for (const auto& entry : dir) {
        const std::string name = entry.path().filename().string();
        if (name.size() <= 4 || name.compare(0, 4, "node") != 0) continue;
        unsigned node = 0;
        bool numeric = true;
        for (std::size_t i = 4; i < name.size(); ++i) {
          if (name[i] < '0' || name[i] > '9') {
            numeric = false;
            break;
          }
          node = node * 10 + static_cast<unsigned>(name[i] - '0');
        }
        if (!numeric || node >= 4096) continue;
        std::ifstream in(entry.path() / "cpulist");
        if (!in.is_open()) continue;
        std::string list;
        std::getline(in, list);
        ++nodes_seen;
        std::istringstream ss(list);
        std::string part;
        while (std::getline(ss, part, ',')) {
          const std::size_t dash = part.find('-');
          unsigned lo = 0;
          unsigned hi = 0;
          if (dash == std::string::npos) {
            lo = hi = static_cast<unsigned>(std::stoul(part));
          } else {
            lo = static_cast<unsigned>(std::stoul(part.substr(0, dash)));
            hi = static_cast<unsigned>(std::stoul(part.substr(dash + 1)));
          }
          if (hi >= 4096 || lo > hi) return {};
          if (hi >= cpu_node.size()) cpu_node.resize(hi + 1, 0);
          for (unsigned cpu = lo; cpu <= hi; ++cpu) cpu_node[cpu] = node;
        }
      }
    } catch (...) {
      return {};  // unreadable/unparseable sysfs: fall back to flat
    }
    if (nodes_seen <= 1) return {};
    return cpu_node;
  }

  void build_node_lists() {
    unsigned max_node = 0;
    for (const unsigned n : node_of_) max_node = n > max_node ? n : max_node;
    nodes_.assign(max_node + 1, {});
    for (unsigned w = 0; w < node_of_.size(); ++w) {
      nodes_[node_of_[w]].push_back(w);
    }
  }

  std::vector<unsigned> node_of_;            ///< worker id -> node id
  std::vector<std::vector<unsigned>> nodes_; ///< node id -> worker ids
  std::vector<std::vector<unsigned>> node_cpus_;  ///< node id -> cpu ids
  std::string source_ = "flat";
};

}  // namespace bots::rt
