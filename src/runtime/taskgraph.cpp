#include "runtime/taskgraph.hpp"

#include <cstddef>
#include <memory>
#include <mutex>

namespace bots::rt {

// ---------------------------------------------------------------------------
// Recording
// ---------------------------------------------------------------------------

void TaskGraph::begin_record(const void* key) {
  clear_nodes();
  rec_edges_.clear();
  succ_storage_.clear();
  roots_.clear();
  env_bytes_ = 0;
  key_ = key;
  epoch_ = 0;
  frozen_ = false;
  aborted_ = false;
}

void TaskGraph::clear_nodes() noexcept {
  for (std::uint32_t i = 0; i < count_; ++i) node(i).task.destroy_graph_env();
  chunks_.clear();
  count_ = 0;
}

GraphRecorder::NodeSlot TaskGraph::record_node(Tiedness t) {
  if ((count_ >> chunk_shift) == chunks_.size()) {
    chunks_.push_back(std::make_unique<Node[]>(chunk_nodes));
  }
  Node& n = node(count_);
  n.task.set_links(nullptr, 0, t, TaskStorage::graph);
  return {&n.task, count_++};
}

void TaskGraph::record_edge(std::uint32_t pred, std::uint32_t succ) {
  rec_edges_.emplace_back(pred, succ);
}

void TaskGraph::record_abort() noexcept { aborted_ = true; }

void TaskGraph::freeze(Worker& w) {
  if (aborted_) {
    // The executed structure diverged from the recorded one (a spawn
    // degraded to inline under allocation failure): the recording is void.
    // Stay un-frozen; the next invocation simply records again.
    clear_nodes();
    rec_edges_.clear();
    return;
  }
  const std::uint32_t n = count_;
  // Bake the edge list into CSR successor spans + predecessor counts. The
  // edges came from the tracker's PREDECESSOR computation (structural), not
  // from which pushes raced a finishing task, so the baked graph is
  // independent of record-time scheduling.
  std::vector<std::uint32_t> offset(n + 1, 0);
  for (const auto& e : rec_edges_) ++offset[e.first + 1];
  for (std::uint32_t i = 0; i < n; ++i) offset[i + 1] += offset[i];
  succ_storage_.assign(rec_edges_.size(), 0);
  std::vector<std::uint32_t> cursor(offset.begin(), offset.end() - 1);
  for (const auto& e : rec_edges_) {
    succ_storage_[cursor[e.first]++] = e.second;
    ++node(e.second).npred;
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    Node& nd = node(i);
    nd.dep.task = &nd.task;
    nd.dep.graph = this;
    nd.dep.baked_succs = succ_storage_.data() + offset[i];
    nd.dep.baked_count = offset[i + 1] - offset[i];
    // Armed for the first replay; each release re-arms it for the next.
    nd.dep.pending.store(nd.npred, std::memory_order_relaxed);
    nd.task.set_dep(&nd.dep);
    env_bytes_ += nd.task.env_bytes();
    if (nd.npred == 0) roots_.push_back(i);
  }
  rec_edges_.clear();
  rec_edges_.shrink_to_fit();
  // Structure-relevance fold (PR 9): graph_epoch() moves only on changes
  // that invalidate a recorded shape — reconfigure() / shrink_team (team
  // size, topology, node mapping). reconfigure_live() deliberately does
  // NOT bump it: a steal-policy or tunable hot-swap changes WHERE tasks
  // run, never the recorded task set or its edges, so frozen graphs stay
  // replayable across any number of live swaps and re-record exactly when
  // structure-relevant configuration changed.
  epoch_ = w.sched->graph_epoch();
  frozen_ = true;
  ++w.stats.graphs_recorded;
}

// ---------------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------------

void TaskGraph::arm(Node& n) noexcept {
  // The node's previous dispatch is over (the previous replay joined it),
  // and this replay's predecessors have all released it: nobody else
  // touches it until the enqueue that follows publishes it.
  n.task.rearm(replay_parent_, replay_depth_, replay_ctx_);
  n.dep.pending.store(n.npred, std::memory_order_relaxed);
}

void TaskGraph::replay(Worker& w) {
  Scheduler& s = *w.sched;
  ++w.stats.graphs_replayed;
  ++replays_;
  if (count_ == 0) return;
  const std::uint64_t n = count_;
  Task* parent = w.current;
  replay_parent_ = parent;
  replay_depth_ = parent->depth() + 1 + w.inline_depth;
  replay_ctx_ = parent->ctx();
  // One RMW charges the parent every child + reference of the whole graph —
  // the per-spawn parent-cacheline traffic a replay exists to avoid.
  parent->add_children_bulk(n);
  // Bulk spawn-side accounting, BEFORE any root is published: the creation
  // invariant (created == deferred on this path) and the request's ledger.
  w.stats.tasks_created += n;
  w.stats.tasks_deferred += n;
  w.stats.env_bytes += env_bytes_;
  // One record for the whole replayed graph (payload = node count).
  trace_record(w.ring, TraceEvent::spawn, n, 1);
  if (replay_ctx_ != nullptr) replay_ctx_->note_deferred_bulk(n);
  // Workers start from the recorded root frontier; interior nodes surface
  // through the finish-path successor walk exactly as their predecessors
  // retire (execute or discard — a cancelled replay drains by discards, and
  // re-arms every node on the way).
  for (std::uint32_t r : roots_) {
    Node& root = node(r);
    arm(root);
    s.enqueue_released(w, root.task);
  }
  s.taskwait_from(w);
}

void TaskGraph::release_baked(Worker& w, DepNode& n) noexcept {
  w.stats.edges_resolved += n.baked_count;
  for (std::uint32_t i = 0; i < n.baked_count; ++i) {
    Node& succ = node(n.baked_succs[i]);
    if (succ.dep.pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      arm(succ);
      w.sched->enqueue_released(w, succ.task);
    }
  }
}

// ---------------------------------------------------------------------------
// Region drivers
// ---------------------------------------------------------------------------

void run_graph_region(Scheduler& s, TaskGraph& g, const void* key,
                      const std::function<void(DepScope&)>& build) {
  Worker* w = detail::tls_worker;
  if (w == nullptr || !s.config().use_taskgraph_replay) {
    DepScope sc;
    build(sc);
    sc.wait();
    return;
  }
  if (g.valid_for(s, key)) {
    g.replay(*w);
    return;
  }
  g.begin_record(key);
  {
    DepScope sc(&g);
    build(sc);
    sc.wait();
  }
  g.freeze(*w);
}

void graph_region(const char* tag, const void* key,
                  const std::function<void(DepScope&)>& build) {
  Worker* w = detail::tls_worker;
  if (w == nullptr) {
    DepScope sc;
    build(sc);
    sc.wait();
    return;
  }
  Scheduler& s = *w->sched;
  run_graph_region(s, s.find_or_create_graph(tag), key, build);
}

// ---------------------------------------------------------------------------
// Scheduler-side registry (here so scheduler.cpp stays graph-agnostic apart
// from the finish hook and epoch bumps)
// ---------------------------------------------------------------------------

TaskGraph& Scheduler::find_or_create_graph(const std::string& tag) {
  std::lock_guard<std::mutex> lock(graphs_mutex_);
  auto& slot = graphs_[tag];
  if (!slot) slot = std::make_unique<TaskGraph>();
  return *slot;
}

}  // namespace bots::rt
