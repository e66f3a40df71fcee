// The traced run (--trace 1): per-layer metrics, measured from outside by
// timing calls into the public functions of src/kernels and src/runtime and
// by reading the runtime's public counters, with the benchmark's own spans
// recorded around every call.
#include <algorithm>
#include <atomic>
#include <deque>
#include <functional>
#include <memory>

#include "bench.hpp"
#include "kernels.hpp"
#include "phases.hpp"
#include "serve.hpp"

namespace perfbench {

namespace {

double ns_since(std::int64_t t0) { return static_cast<double>(now_ns() - t0); }

double per_k(std::uint64_t count, std::uint64_t tasks) {
  return 1000.0 * static_cast<double>(count) /
         static_cast<double>(std::max<std::uint64_t>(1, tasks));
}

double ratio(std::uint64_t a, std::uint64_t b) {
  return static_cast<double>(a) / static_cast<double>(std::max<std::uint64_t>(1, b));
}

// Kernels: serial reference, 1-worker and T-worker run of each, one sample
// each (the `suite` workload measures the same ratios with medians).
void kernel_layer(const Options& o, Report& r) {
  ScopedSpan layer("layer.kernels");
  std::vector<KernelOp> ks = make_kernels(o.seed);
  rt::Scheduler s1(make_config(1, rt::CutoffPolicy::max_tasks));
  rt::Scheduler st(make_config(o.workers, rt::CutoffPolicy::max_tasks));
  for (KernelOp& k : ks) {
    const auto timed = [&](const char* what, auto&& fn) {
      ScopedSpan span(intern("kernel." + k.name + "." + what));
      const std::int64_t t0 = now_ns();
      fn();
      return ns_since(t0) * 1e-9;
    };
    const double serial = timed("serial", [&] { k.serial(); });
    k.reset();
    const double t1 = timed("t1", [&] { k.parallel(s1); });
    r.attempt(k.check(), k.name + " (1 worker): output differs from serial");
    k.reset();
    const double tt = timed("tT", [&] { k.parallel(st); });
    r.attempt(k.check(), k.name + ": output differs from serial");
    r.metric("kernels." + k.name + ".speedup", "x", serial / tt);
    r.metric("kernels." + k.name + ".t1_ratio", "x", t1 / serial);
  }
  check_laws(r, s1.stats().total, 0, "kernels (1 worker)");
  check_laws(r, st.stats().total, 0, "kernels");
}

// Scheduler constructs: EPCC-style loops around the public task API.
void scheduler_layer(const Options& o, Report& r) {
  ScopedSpan layer("layer.scheduler");
  rt::Scheduler s(make_config(o.workers, rt::CutoffPolicy::none));
  s.run_single([] {});

  std::vector<double> region_us;
  for (int i = 0; i < 2000; ++i) {
    ScopedSpan span("scheduler.run_single");
    const std::int64_t t0 = now_ns();
    s.run_single([] {});
    region_us.push_back(ns_since(t0) * 1e-3);
  }
  r.metric("scheduler.region_us", "us", summarize(region_us));

  std::vector<double> barrier_us;
  {
    ScopedSpan span("scheduler.run_all");
    s.run_all([&](unsigned id) {
      for (int i = 0; i < 2000; ++i) {
        const std::int64_t t0 = now_ns();
        rt::barrier();
        if (id == 0) barrier_us.push_back(ns_since(t0) * 1e-3);
      }
    });
  }
  r.metric("scheduler.barrier_us", "us", summarize(barrier_us));

  // Per-construct cost: median over batches of `inner` constructs.
  const auto batches = [&](const char* name, int inner, auto&& construct) {
    std::vector<double> ns;
    ScopedSpan span(name);
    s.run_single([&] {
      for (int b = 0; b < 200; ++b) {
        const std::int64_t t0 = now_ns();
        for (int i = 0; i < inner; ++i) construct();
        ns.push_back(ns_since(t0) / inner);
      }
    });
    return summarize(ns);
  };
  std::atomic<std::uint64_t> sink{0};
  const auto touch = [&sink] { sink.fetch_add(1, std::memory_order_relaxed); };
  r.metric("scheduler.spawn_wait_ns", "ns",
           batches("scheduler.spawn_wait", 50, [&] {
             rt::spawn(rt::Tiedness::tied, touch);
             rt::taskwait();
           }));
  r.metric("scheduler.nested4_ns", "ns",
           batches("scheduler.nested4", 20, [&] {
             rt::spawn(rt::Tiedness::tied, [&] {
               rt::spawn(rt::Tiedness::tied, [&] {
                 rt::spawn(rt::Tiedness::tied, [&] {
                   rt::spawn(rt::Tiedness::tied, touch);
                   rt::taskwait();
                 });
                 rt::taskwait();
               });
               rt::taskwait();
             });
             rt::taskwait();
           }));
  r.metric("scheduler.inline_ns", "ns",
           batches("scheduler.inline", 1000,
                   [&] { rt::spawn_if(false, rt::Tiedness::tied, touch); }));

  // Worksharing: an empty-body range at grain 1.
  constexpr std::int64_t kIters = 1 << 14;
  const rt::WorkerStats before = s.stats().total;
  std::vector<double> iter_ns;
  for (int rep = 0; rep < 100; ++rep) {
    ScopedSpan span("range.spawn_range");
    const std::int64_t t0 = now_ns();
    s.run_single([&] {
      rt::spawn_range(0, kIters, 1, [&](std::int64_t) { touch(); });
      rt::taskwait();
    });
    iter_ns.push_back(ns_since(t0) / kIters);
  }
  const rt::WorkerStats after = s.stats().total;
  r.metric("range.ns_per_iter", "ns", summarize(iter_ns));
  r.metric("range.splits_per_range", "count",
           ratio(after.range_splits - before.range_splits,
                 after.range_tasks - before.range_tasks));

  // Dependences: an inout chain under a dynamic DepScope.
  constexpr int kChain = 2000;
  std::vector<double> chain_ns;
  std::uint64_t cell = 0;
  for (int rep = 0; rep < 50; ++rep) {
    ScopedSpan span("dep.chain");
    const std::int64_t t0 = now_ns();
    s.run_single([&] {
      rt::DepScope sc;
      for (int i = 0; i < kChain; ++i) {
        sc.spawn(rt::Tiedness::tied, {rt::inout(cell)}, [&cell] { ++cell; });
      }
      sc.wait();
    });
    chain_ns.push_back(ns_since(t0) / kChain);
  }
  r.attempt(cell == 50u * kChain, "dep chain: wrong number of ordered updates");
  const rt::WorkerStats dep = s.stats().total;
  r.metric("dep.chain_ns_per_task", "ns", summarize(chain_ns));
  r.metric("dep.edges_per_task", "count",
           ratio(dep.deps_edges - after.deps_edges,
                 dep.tasks_deferred - after.tasks_deferred));
  check_laws(r, dep, 0, "scheduler probes");
}

// Task descriptors and queues: the tasks phases on a fresh team, read
// through the counters, plus the flood at 1, 2 and 4 workers.
void queue_layer(const Options& o, Report& r, Dag& dag) {
  ScopedSpan layer("layer.task_queue");
  {
    rt::Scheduler s(make_config(o.workers, rt::CutoffPolicy::none));
    const std::uint64_t hungry0 = s.telemetry().hungry_rounds;
    for (int rep = 0; rep < 10; ++rep) {
      {
        ScopedSpan span("phase.tree");
        r.attempt(run_tree(s).ok, "tree: wrong answer");
      }
      {
        ScopedSpan span("phase.flood");
        r.attempt(run_flood(s).ok, "flood: wrong answer");
      }
      {
        ScopedSpan span(rep == 0 ? "graph.record" : "graph.replay");
        r.attempt(dag.run(s).ok, "dag: result differs from serial LU");
      }
    }
    const rt::WorkerStats t = s.stats().total;
    const std::uint64_t hungry = s.telemetry().hungry_rounds - hungry0;
    check_laws(r, t, t.graphs_replayed * dag.graph_edges(s), "task/queue probes");
    r.metric("scheduler.acct_flushes_per_ktask", "count", per_k(t.acct_flushes, t.tasks_deferred));
    r.metric("scheduler.tsc_parked_per_ktask", "count", per_k(t.tsc_parked, t.tasks_deferred));
    r.metric("task.pool_fresh_per_ktask", "count", per_k(t.pool_fresh, t.tasks_deferred));
    r.metric("queue.steal_hit_ratio", "ratio", ratio(t.tasks_stolen, t.steal_attempts));
    r.metric("queue.stolen_frac", "ratio", ratio(t.tasks_stolen, t.tasks_executed));
    r.metric("queue.hungry_per_ktask", "count", per_k(hungry, t.tasks_deferred));
  }
  const struct {
    unsigned workers;
    const char* metric;
    const char* span;
  } sweep[] = {{1, "task.flood_t1_ns", "phase.flood.t1"},
               {2, "queue.flood_ns_t2", "phase.flood.t2"},
               {4, "queue.flood_ns_t4", "phase.flood.t4"}};
  for (const auto& w : sweep) {
    rt::Scheduler s(make_config(std::min(w.workers, o.host_cpus), rt::CutoffPolicy::none));
    std::vector<double> ns;
    for (int rep = 0; rep < 40; ++rep) {
      ScopedSpan span(w.span);
      const PhaseRep p = run_flood(s);
      r.attempt(p.ok, "flood: wrong answer");
      ns.push_back(p.seconds * 1e9 / static_cast<double>(std::max<std::uint64_t>(1, p.tasks)));
    }
    check_laws(r, s.stats().total, 0, w.metric);
    r.metric(w.metric, "ns", summarize(ns));
  }
}

// Taskgraph: the `dag` input recorded, replayed, discovered dynamically and
// run through the taskwait-based for-tied version.
void graph_layer(const Options& o, Report& r, Dag& dag) {
  ScopedSpan layer("layer.graph");
  std::vector<double> rec, rep, dyn, tw;
  for (int i = 0; i < 5; ++i) {  // a record needs a scheduler without the graph
    rt::Scheduler s(make_config(o.workers, rt::CutoffPolicy::none));
    s.run_single([] {});
    ScopedSpan span("graph.record");
    const PhaseRep p = dag.run(s);
    r.attempt(p.ok, "dag record: result differs from serial LU");
    rec.push_back(p.seconds * 1e3);
  }
  rt::Scheduler s(make_config(o.workers, rt::CutoffPolicy::none));
  r.attempt(dag.run(s).ok, "dag record: result differs from serial LU");
  for (int i = 0; i < 30; ++i) {
    PhaseRep p;
    {
      ScopedSpan span("graph.replay");
      p = dag.run(s);
    }
    r.attempt(p.ok, "dag replay: result differs from serial LU");
    rep.push_back(p.seconds * 1e3);
    {
      ScopedSpan span("graph.dynamic");
      p = dag.run_dynamic(s);
    }
    r.attempt(p.ok, "dag dynamic: result differs from serial LU");
    dyn.push_back(p.seconds * 1e3);
    {
      ScopedSpan span("graph.taskwait");
      p = dag.run_taskwait(s);
    }
    r.attempt(p.ok, "dag for-tied: result differs from serial LU");
    tw.push_back(p.seconds * 1e3);
  }
  const rt::WorkerStats t = s.stats().total;
  check_laws(r, t, t.graphs_replayed * dag.graph_edges(s), "graph probes");
  r.metric("graph.record_ms", "ms", summarize(rec));
  r.metric("graph.replay_ms", "ms", summarize(rep));
  r.metric("graph.dynamic_ms", "ms", summarize(dyn));
  r.metric("graph.taskwait_ms", "ms", summarize(tw));
}

// Record the four spans of one request: submit, queue wait, run and the
// wait to its terminal state.
void request_spans(const ReqStamp& st, std::uint64_t parent, std::uint64_t id,
                   std::int64_t terminal) {
  span_record("request.submit", st.call, st.ret, parent, id);
  const std::int64_t start = st.start.load(std::memory_order_relaxed);
  const std::int64_t end = st.end.load(std::memory_order_relaxed);
  span_record("request.queue", st.ret, start, parent, id);
  span_record("request.run", start, end, parent, id);
  span_record("request.terminal", end, std::max(end, terminal), parent, id);
}

void server_layer(const Options& o, Report& r) {
  ScopedSpan layer("layer.server");
  ServerRig rig(o, o.seed);
  std::uint64_t rng = o.seed * 0x2545F4914F6CDD1DULL + 7;

  // Round trip of an empty request, one outstanding.
  std::vector<double> rtt_us;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t t0 = now_ns();
    auto res = rig.server->submit([] {});
    r.attempt(res.handle.wait() == rt::RequestStatus::completed, "empty request not completed");
    const std::int64_t t1 = now_ns();
    span_record("request.rtt_empty", t0, t1, span_current(), res.handle.id());
    rtt_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
  }
  r.metric("server.rtt_empty_us", "us", summarize(rtt_us));

  // Open loop at the workload's offered rate, split by the body stamps.
  std::deque<ReqStamp> open;
  {
    ScopedSpan span("server.open_loop");
    open_loop(rig, kOpenLoopRps, 2.0, rng, open, r);
    std::uint64_t id = 0;
    for (const ReqStamp& st : open) {
      request_spans(st, span_current(), ++id,
                    st.ret + st.h.latency().count() * 1000);
    }
  }
  std::vector<double> admit, queue, run, late;
  for (const ReqStamp& st : open) {
    admit.push_back(static_cast<double>(st.ret - st.call) * 1e-3);
    queue.push_back(static_cast<double>(st.start.load() - st.ret) * 1e-6);
    run.push_back(static_cast<double>(st.end.load() - st.start.load()) * 1e-6);
    late.push_back(static_cast<double>(st.call - st.due) * 1e-6);
  }
  const Summary a = summarize(admit), q = summarize(queue), x = summarize(run);
  r.metric("server.admit_us", "us", a);
  r.metric("server.admit_p99_us", "us", a.p99, a.n);
  r.metric("server.queue_wait_ms", "ms", q);
  r.metric("server.queue_wait_p99_ms", "ms", q.p99, q.n);
  r.metric("server.run_ms", "ms", x);
  r.metric("server.run_p99_ms", "ms", x.p99, x.n);
  r.metric("server.gen_late_p99_ms", "ms", percentile(late, 99), late.size());

  // Body end to wait() return, one mixed request outstanding.
  std::deque<ReqStamp> closed;
  {
    ScopedSpan span("server.closed_loop");
    closed_loop(rig, 1, 1.0, rng, closed, r);
    std::uint64_t id = open.size();
    for (const ReqStamp& st : closed) request_spans(st, span_current(), ++id, st.waited);
  }
  std::vector<double> notify;
  for (const ReqStamp& st : closed) {
    notify.push_back(static_cast<double>(st.waited - st.end.load()) * 1e-3);
  }
  r.metric("server.notify_us", "us", summarize(notify));
  rig.finish(r);
}

// Cost of the runtime's own trace rings: the tree phase with
// SchedulerConfig::trace on against off.
void trace_layer(const Options& o, Report& r) {
  ScopedSpan layer("layer.trace");
  rt::SchedulerConfig on_cfg = make_config(o.workers, rt::CutoffPolicy::none);
  on_cfg.trace = true;
  rt::Scheduler off(make_config(o.workers, rt::CutoffPolicy::none));
  rt::Scheduler on(on_cfg);
  std::vector<double> off_ns, on_ns;
  for (int rep = 0; rep < 30; ++rep) {
    for (rt::Scheduler* s : {&off, &on}) {
      ScopedSpan span(s == &on ? "phase.tree.traced" : "phase.tree");
      const PhaseRep p = run_tree(*s);
      r.attempt(p.ok, "tree: wrong answer");
      (s == &on ? on_ns : off_ns).push_back(p.seconds * 1e9 / static_cast<double>(p.tasks));
    }
  }
  r.metric("trace.armed_pct", "%", 100.0 * (median_of(on_ns) / median_of(off_ns) - 1.0));
}

// What the benchmark's spans cost: the workload's unit operation with
// span recording on against off, alternating.
void span_overhead(const Options& o, Report& r) {
  std::vector<double> off_s, on_s;
  std::function<double()> op;
  std::vector<KernelOp> ks;
  std::unique_ptr<rt::Scheduler> s;
  std::unique_ptr<ServerRig> rig;
  if (o.workload == "suite") {
    ks = make_kernels(o.seed);
    s = std::make_unique<rt::Scheduler>(make_config(o.workers, rt::CutoffPolicy::max_tasks));
    KernelOp& fib = *std::find_if(ks.begin(), ks.end(),
                                  [](const KernelOp& k) { return k.name == "fib"; });
    fib.serial();
    op = [&] {
      ScopedSpan span("kernel.fib.tT");
      const std::int64_t t0 = now_ns();
      fib.parallel(*s);
      const double t = ns_since(t0);
      r.attempt(fib.check(), "fib: output differs from serial");
      return t;
    };
  } else if (o.workload == "tasks") {
    s = std::make_unique<rt::Scheduler>(make_config(o.workers, rt::CutoffPolicy::none));
    op = [&] {
      ScopedSpan span("phase.tree");
      const PhaseRep p = run_tree(*s);
      r.attempt(p.ok, "tree: wrong answer");
      return p.seconds;
    };
  } else {
    rig = std::make_unique<ServerRig>(o, o.seed);
    op = [&] {
      double total = 0;
      for (int i = 0; i < 100; ++i) {
        ReqStamp st;
        rig->submit({0, 0}, st);
        settle(st, r);
        st.waited = now_ns();
        total += static_cast<double>(st.waited - st.call);
        request_spans(st, span_current(), 0, st.waited);
      }
      return total;
    };
  }
  for (int rep = 0; rep < 12; ++rep) {
    spans_enable(rep % 2 == 1);
    (rep % 2 == 1 ? on_s : off_s).push_back(op());
  }
  spans_enable(true);
  if (rig) rig->finish(r);
  r.metric("bench.span_overhead_pct", "%", 100.0 * (median_of(on_s) / median_of(off_s) - 1.0));
}

}  // namespace

void run_layers(const Options& o, Report& r) {
  Dag dag;
  kernel_layer(o, r);
  scheduler_layer(o, r);
  queue_layer(o, r, dag);
  graph_layer(o, r, dag);
  server_layer(o, r);
  trace_layer(o, r);
  span_overhead(o, r);
  r.note("dag_input", json_str(dag.describe()));
  r.note("scheduler_config", config_json(make_config(o.workers, rt::CutoffPolicy::none)));
}

}  // namespace perfbench
