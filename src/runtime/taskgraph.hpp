// Taskgraph record-and-replay (PR 8): pay a region's discovery cost once.
//
// A dependence-tracked region rebuilt identically on every invocation —
// SparseLU factoring the same block structure, a server re-answering the
// same request shape — re-pays the whole discovery bill each time: closure
// allocation, descriptor allocation, tracker hash lookups, edge pushes,
// per-spawn parent RMWs. Record-and-replay amortises all of it. The FIRST
// execution of a region wrapped in rt::graph_region(tag, key, build) runs
// the build function under a recording DepScope and freezes the structure
// it produced — task bodies, tiedness, every dependence edge — into a
// TaskGraph with a CSR successor table and pre-counted predecessor
// counters. Every LATER invocation replays the frozen graph:
//
//   * no tracker: predecessor counts are baked (DepNode::pending is a
//     store, not a hash probe + edge push),
//   * no descriptor or closure allocation: each node owns its Task
//     descriptor (TaskStorage::graph), nodes sit in contiguous chunks, and
//     the recorded closure lives in the node's own environment — copied
//     once at record, invoked once per replay, destroyed when the graph
//     re-records or dies,
//   * no per-replay reset pass: a node is re-armed on release (links,
//     state word, pending count for the next replay) by whoever releases
//     it — the replaying thread for roots, the finishing predecessor
//     otherwise,
//   * no per-spawn parent traffic: ONE add_children_bulk RMW charges the
//     parent for the whole graph, and workers fold their nodes' completion
//     announcements into one RMW per Worker::fold_batch,
//   * workers start from the recorded ROOT frontier; interior nodes are
//     released by the ordinary finish-path successor walk.
//
// Validity. A frozen graph bakes decisions that depend on the scheduler's
// shape (team size, topology, placement), so Scheduler::reconfigure() and
// team-shrink degradation bump a graph epoch that invalidates every
// recorded graph; the next invocation re-records. The caller-supplied
// `key` binds the recording to its buffers (same tag ⇒ same live buffers
// contract): replay with a different key re-records instead of touching
// stale addresses. A recording that degraded mid-build (fault injection
// driving alloc_task to the inline rung) is discarded un-frozen and simply
// retried on the next invocation.
//
// Concurrency. One graph supports ONE record or replay in flight at a time
// (replay re-arms node state in place). Concurrent invocations of the same
// tag must be serialised by the caller; TaskServer::submit_graph does this
// with a per-tag busy flag, falling back to plain dynamic dependence
// tracking for the loser.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "runtime/dependency.hpp"
#include "runtime/scheduler.hpp"

namespace bots::rt {

class TaskGraph final : public GraphRecorder {
 public:
  TaskGraph() = default;
  TaskGraph(const TaskGraph&) = delete;
  TaskGraph& operator=(const TaskGraph&) = delete;
  /// A graph that has run must die before the scheduler it ran under:
  /// freeing its nodes waits out that scheduler's raids.
  ~TaskGraph() { clear_nodes(); }

  [[nodiscard]] bool frozen() const noexcept { return frozen_; }
  /// A frozen graph is replayable only for the scheduler shape and buffer
  /// binding it was recorded against.
  [[nodiscard]] bool valid_for(const Scheduler& s, const void* key) const noexcept {
    return frozen_ && epoch_ == s.graph_epoch() && key_ == key;
  }
  [[nodiscard]] std::size_t node_count() const noexcept { return count_; }
  [[nodiscard]] std::size_t edge_count() const noexcept {
    return succ_storage_.size();
  }
  [[nodiscard]] std::uint64_t replays() const noexcept { return replays_; }

  /// Drop any previous contents and start capturing a new recording bound
  /// to `key`, dispatched by `w`'s scheduler.
  void begin_record(Worker& w, const void* key);
  /// Bake the captured structure: CSR successor table, predecessor counts,
  /// root frontier, environment bytes, epoch + key stamp. No-op (stays
  /// un-frozen) when the recording aborted.
  void freeze(Worker& w);
  /// Dispatch the frozen graph under the caller's current task and join it.
  void replay(Worker& w);
  /// Finish-path hook: release the baked successors of `n`'s task (called
  /// for execute AND discard retirements, so a cancelled replay drains).
  void release_baked(Worker& w, DepNode& n) noexcept;

  // -- GraphRecorder (driven by the recording DepScope) -----------------------
  NodeSlot record_node(Tiedness t) override;
  void record_edge(std::uint32_t pred, std::uint32_t succ) override;
  void record_abort() noexcept override;

 private:
  struct Node {
    Task task;    ///< owned descriptor; its environment is the recorded body
    DepNode dep;  ///< baked-successor span + pending counter
    std::uint32_t npred = 0;  ///< baked predecessor count
  };
  /// Nodes are immovable (atomics, Task), so they live in fixed chunks.
  static constexpr std::uint32_t chunk_shift = 6;
  static constexpr std::uint32_t chunk_nodes = 1u << chunk_shift;

  [[nodiscard]] Node& node(std::uint32_t i) noexcept {
    return chunks_[i >> chunk_shift][i & (chunk_nodes - 1)];
  }
  /// Set node `n` up for this replay's dispatch; its releaser calls this
  /// just before enqueueing it.
  void arm(Node& n) noexcept;
  /// Destroy every recorded closure and drop the nodes, once no raid of
  /// the scheduler that dispatched them can still be reading one.
  void clear_nodes() noexcept;

  std::vector<std::unique_ptr<Node[]>> chunks_;
  std::uint32_t count_ = 0;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> rec_edges_;
  std::vector<std::uint32_t> succ_storage_;  ///< CSR payload for baked_succs
  std::vector<std::uint32_t> roots_;         ///< nodes with npred == 0
  std::uint64_t env_bytes_ = 0;  ///< summed closure sizes, charged per replay
  /// Where the current replay hangs its nodes: the replaying task, the
  /// depth below it and its request context (copied here so re-arming a
  /// node never reads the parent's descriptor, whose state word the nodes'
  /// completions keep busy). Written before any root is published.
  Task* replay_parent_ = nullptr;
  RegionCtx* replay_ctx_ = nullptr;
  std::uint32_t replay_depth_ = 0;
  Scheduler* sched_ = nullptr;  ///< the scheduler that last dispatched nodes
  const void* key_ = nullptr;
  std::uint64_t epoch_ = 0;
  std::uint64_t replays_ = 0;
  bool frozen_ = false;
  bool aborted_ = false;
};

/// Run one dependence-tracked region through `g`: replay when the graph is
/// frozen and valid for (scheduler shape, key); otherwise run `build` under
/// a recording scope and freeze the result. With use_taskgraph_replay off
/// (RT_TASKGRAPH_REPLAY=0) or outside a region, `build` runs under a plain
/// dynamic DepScope every time — the A/B knob the identity tests flip.
void run_graph_region(Scheduler& s, TaskGraph& g, const void* key,
                      const std::function<void(DepScope&)>& build);

/// Tag-registry convenience: look the graph up (or create it) in the
/// calling scheduler's per-tag registry. Callable only from inside a region
/// (it needs a scheduler); outside one it degrades to a plain dynamic scope.
void graph_region(const char* tag, const void* key,
                  const std::function<void(DepScope&)>& build);

}  // namespace bots::rt
