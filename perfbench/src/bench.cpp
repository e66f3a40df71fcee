#include "bench.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "runtime/server.hpp"

namespace perfbench {

// ---------------------------------------------------------------------------
// Order statistics.
// ---------------------------------------------------------------------------

Summary summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  s.median = n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
  s.p99 = v[static_cast<std::size_t>(std::ceil(0.99 * static_cast<double>(n))) - 1];
  if (n < 2) {
    s.q1 = s.q3 = v[0];
    return s;
  }
  // statistics.quantiles(method="exclusive"): m = n + 1, cut i of 4 at
  // position i*m/4 (1-based), clamped to [1, n-1], linearly interpolated.
  const auto cut = [&](std::size_t i) {
    const std::size_t m = n + 1;
    std::size_t j = i * m / 4;
    j = std::clamp<std::size_t>(j, 1, n - 1);
    const double delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    return (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
  };
  s.q1 = cut(1);
  s.q3 = cut(3);
  return s;
}

double median_of(std::vector<double> v) { return summarize(std::move(v)).median; }

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double acc = 0;
  for (double x : v) acc += std::log(x);
  return std::exp(acc / static_cast<double>(v.size()));
}

// ---------------------------------------------------------------------------
// Spans.
// ---------------------------------------------------------------------------

namespace {

struct SpanRec {
  const char* name;
  std::int64_t start;
  std::int64_t end;
  std::uint64_t id;
  std::uint64_t parent;
  std::uint64_t req;
  unsigned tid;
};

struct SpanStore {
  std::mutex mu;
  std::vector<SpanRec> spans;  // guarded by mu
  std::uint64_t next_id = 0;   // guarded by mu
  std::unordered_map<std::thread::id, unsigned> tids;  // guarded by mu
};

SpanStore& store() {
  static SpanStore s;
  return s;
}

bool g_spans_on = false;
thread_local std::uint64_t t_current_span = 0;

}  // namespace

void spans_enable(bool on) { g_spans_on = on; }
std::uint64_t span_current() noexcept { return t_current_span; }

std::uint64_t span_record(const char* name, std::int64_t start_ns,
                          std::int64_t end_ns, std::uint64_t parent,
                          std::uint64_t req) {
  if (!g_spans_on) return 0;
  SpanStore& s = store();
  std::lock_guard<std::mutex> lock(s.mu);
  auto [it, fresh] = s.tids.try_emplace(std::this_thread::get_id(),
                                        static_cast<unsigned>(s.tids.size()));
  (void)fresh;
  const std::uint64_t id = ++s.next_id;
  s.spans.push_back({name, start_ns, end_ns, id, parent, req, it->second});
  return id;
}

ScopedSpan::ScopedSpan(const char* name) : name_(name) {
  if (!g_spans_on) return;
  parent_ = t_current_span;
  {
    SpanStore& s = store();
    std::lock_guard<std::mutex> lock(s.mu);
    id_ = ++s.next_id;
  }
  t_current_span = id_;
  start_ = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (id_ == 0) return;
  const std::int64_t end = now_ns();
  t_current_span = parent_;
  SpanStore& s = store();
  std::lock_guard<std::mutex> lock(s.mu);
  auto [it, fresh] = s.tids.try_emplace(std::this_thread::get_id(),
                                        static_cast<unsigned>(s.tids.size()));
  (void)fresh;
  s.spans.push_back({name_, start_, end, id_, parent_, 0, it->second});
}

const char* intern(const std::string& name) {
  static std::mutex mu;
  static std::deque<std::string> names;
  std::lock_guard<std::mutex> lock(mu);
  for (const auto& n : names) {
    if (n == name) return n.c_str();
  }
  return names.emplace_back(name).c_str();
}

bool spans_write_chrome(const std::string& path) {
  SpanStore& s = store();
  std::lock_guard<std::mutex> lock(s.mu);
  std::ofstream f(path);
  if (!f) return false;
  std::int64_t t0 = 0;
  for (const auto& sp : s.spans) {
    if (t0 == 0 || sp.start < t0) t0 = sp.start;
  }
  f << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  for (const auto& sp : s.spans) {
    f << (first ? "\n" : ",\n");
    first = false;
    f << "{\"name\":" << json_str(sp.name) << ",\"ph\":\"X\",\"pid\":1,\"tid\":"
      << sp.tid << ",\"ts\":" << json_num(static_cast<double>(sp.start - t0) / 1e3)
      << ",\"dur\":" << json_num(static_cast<double>(sp.end - sp.start) / 1e3)
      << ",\"args\":{\"id\":" << sp.id << ",\"parent\":" << sp.parent;
    if (sp.req != 0) f << ",\"req\":" << sp.req;
    f << "}}";
  }
  f << "\n]}\n";
  return static_cast<bool>(f);
}

// ---------------------------------------------------------------------------
// Configuration.
// ---------------------------------------------------------------------------

rt::SchedulerConfig make_config(unsigned threads, rt::CutoffPolicy cutoff) {
  rt::SchedulerConfig c;
  c.num_threads = threads;
  c.local_order = rt::LocalOrder::lifo;
  c.victim = rt::VictimPolicy::random;
  c.cutoff = cutoff;
  c.cutoff_value = 0;
  c.use_task_pool = true;
  c.batch_accounting = true;
  c.accounting_batch = 32;
  c.steal_half = true;
  c.steal_batch_max = 16;
  c.victim_affinity = true;
  c.distributed_parking = true;
  c.lifo_slot = true;
  c.fused_finish = true;
  c.use_inline_fast_path = true;
  c.use_range_tasks = true;
  c.steal_policy = rt::StealPolicyKind::legacy;
  c.synthetic_topology = "1x" + std::to_string(threads);
  c.pin_workers = false;
  c.use_node_work_hints = true;
  c.use_adaptive_grain = true;
  c.use_node_pools = true;
  c.use_hint_placement = true;
  c.use_taskgraph_replay = true;
  c.use_site_grain = true;
  c.cancel_on_exception = false;
  c.region_deadline_ms = 0;
  c.watchdog_ms = 0;
  c.watchdog_cancel = false;
  c.fault_plan.clear();
  c.live_reconfigure = true;
  c.trace = false;
  c.trace_buf = 1u << 14;
  c.pathology = false;
  return c;
}

std::string config_json(const rt::SchedulerConfig& c) {
  std::ostringstream o;
  const auto b = [](bool v) { return v ? "true" : "false"; };
  o << "{\"num_threads\":" << c.num_threads
    << ",\"local_order\":" << json_str(rt::to_string(c.local_order))
    << ",\"victim\":" << json_str(rt::to_string(c.victim))
    << ",\"cutoff\":" << json_str(rt::to_string(c.cutoff))
    << ",\"cutoff_bound\":" << c.resolved_cutoff_bound()
    << ",\"use_task_pool\":" << b(c.use_task_pool)
    << ",\"batch_accounting\":" << b(c.batch_accounting)
    << ",\"accounting_batch\":" << c.accounting_batch
    << ",\"steal_half\":" << b(c.steal_half)
    << ",\"steal_batch_max\":" << c.steal_batch_max
    << ",\"victim_affinity\":" << b(c.victim_affinity)
    << ",\"distributed_parking\":" << b(c.distributed_parking)
    << ",\"lifo_slot\":" << b(c.lifo_slot)
    << ",\"fused_finish\":" << b(c.fused_finish)
    << ",\"use_inline_fast_path\":" << b(c.use_inline_fast_path)
    << ",\"use_range_tasks\":" << b(c.use_range_tasks)
    << ",\"steal_policy\":" << json_str(rt::to_string(c.resolved_steal_policy()))
    << ",\"synthetic_topology\":" << json_str(c.synthetic_topology)
    << ",\"pin_workers\":" << b(c.pin_workers)
    << ",\"use_node_work_hints\":" << b(c.use_node_work_hints)
    << ",\"use_adaptive_grain\":" << b(c.use_adaptive_grain)
    << ",\"use_node_pools\":" << b(c.use_node_pools)
    << ",\"use_hint_placement\":" << b(c.use_hint_placement)
    << ",\"use_taskgraph_replay\":" << b(c.use_taskgraph_replay)
    << ",\"use_site_grain\":" << b(c.use_site_grain)
    << ",\"cancel_on_exception\":" << b(c.cancel_on_exception)
    << ",\"region_deadline_ms\":" << c.region_deadline_ms
    << ",\"watchdog_ms\":" << c.watchdog_ms
    << ",\"fault_plan\":" << json_str(c.fault_plan)
    << ",\"live_reconfigure\":" << b(c.live_reconfigure)
    << ",\"trace\":" << b(c.trace) << ",\"trace_buf\":" << c.trace_buf
    << ",\"pathology\":" << b(c.pathology) << "}";
  return o.str();
}

std::string server_config_json(const rt::ServerConfig& c) {
  std::ostringstream o;
  o << "{\"queue_capacity\":" << c.queue_capacity
    << ",\"max_live\":" << c.max_live
    << ",\"fairness\":" << json_str(rt::to_string(c.fairness))
    << ",\"shed_on_overload\":" << (c.shed_on_overload ? "true" : "false")
    << ",\"default_deadline_ms\":" << c.default_deadline_ms
    << ",\"watchdog_ms\":" << c.watchdog_ms
    << ",\"retune_ms\":" << c.retune_ms << "}";
  return o.str();
}

// ---------------------------------------------------------------------------
// CPU placement.
// ---------------------------------------------------------------------------

std::vector<int> allowed_cpus() {
  std::vector<int> out;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return out;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) out.push_back(c);
  }
  return out;
}

bool pin_current_thread(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0;
}

Lanes::Lanes(std::vector<int> cpus)
    : cpus_(std::move(cpus)), sync_(static_cast<std::ptrdiff_t>(cpus_.size() + 1)) {
  for (std::size_t i = 0; i < cpus_.size(); ++i) {
    threads_.emplace_back([this, i] { loop(i); });
  }
}

Lanes::~Lanes() {
  fn_ = nullptr;  // tells the lanes to exit
  sync_.arrive_and_wait();
  for (std::thread& t : threads_) t.join();
}

void Lanes::run(const std::function<void(std::size_t)>& fn) {
  fn_ = &fn;
  sync_.arrive_and_wait();  // start
  sync_.arrive_and_wait();  // every lane done
}

void Lanes::loop(std::size_t lane) {
  pin_current_thread({cpus_[lane]});
  for (;;) {
    sync_.arrive_and_wait();
    if (fn_ == nullptr) return;
    (*fn_)(lane);
    sync_.arrive_and_wait();
  }
}

double harmonic_mean(const std::vector<double>& v) {
  double rate = 0;
  for (double x : v) rate += 1.0 / x;
  return static_cast<double>(v.size()) / rate;
}

// ---------------------------------------------------------------------------
// Report.
// ---------------------------------------------------------------------------

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

namespace {
Summary single(double value, std::size_t n) {
  Summary s;
  s.median = s.q1 = s.q3 = s.p99 = value;
  s.n = n;
  return s;
}
}  // namespace

void Report::metric(const std::string& name, const std::string& unit,
                    const Summary& s) {
  entries_.push_back({name, unit, s, true, true});
}

void Report::metric(const std::string& name, const std::string& unit,
                    double value, std::size_t n) {
  entries_.push_back({name, unit, single(value, n), false, true});
}

void Report::detail(const std::string& name, const std::string& unit,
                    const Summary& s) {
  entries_.push_back({name, unit, s, true, false});
}

void Report::detail(const std::string& name, const std::string& unit,
                    double value, std::size_t n) {
  entries_.push_back({name, unit, single(value, n), false, false});
}

void Report::attempt(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (first_failures_.size() < 8) first_failures_.push_back(what);
  std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
}

void Report::note(const std::string& key, const std::string& json_value) {
  notes_.emplace_back(key, json_value);
}

void Report::print(std::FILE* out) const {
  std::fprintf(out, "%-34s %-6s %14s %14s %14s %7s\n", "metric", "unit",
               "median", "q1", "q3", "n");
  const auto row = [out](const Entry& e) {
    if (e.dist) {
      std::fprintf(out, "%-34s %-6s %14.6g %14.6g %14.6g %7zu\n",
                   e.name.c_str(), e.unit.c_str(), e.s.median, e.s.q1, e.s.q3,
                   e.s.n);
    } else {
      std::fprintf(out, "%-34s %-6s %14.6g %14s %14s %7zu\n", e.name.c_str(),
                   e.unit.c_str(), e.s.median, "-", "-", e.s.n);
    }
  };
  for (const auto& e : entries_) {
    if (e.result) row(e);
  }
  bool heading = false;
  for (const auto& e : entries_) {
    if (e.result) continue;
    if (!heading) std::fprintf(out, "-- in the run record only --\n");
    heading = true;
    row(e);
  }
  const double failed_frac =
      attempted_ == 0 ? 1.0
                      : static_cast<double>(failed_) / static_cast<double>(attempted_);
  std::fprintf(out, "%-34s %-6s %14.6g   (%llu of %llu operations)\n",
               "failed_frac", "ratio", failed_frac,
               static_cast<unsigned long long>(failed_),
               static_cast<unsigned long long>(attempted_));

  std::ostringstream rec;
  rec << "{\"failed_frac\":" << json_num(failed_frac) << ",\"failures\":[";
  for (std::size_t i = 0; i < first_failures_.size(); ++i) {
    rec << (i ? "," : "") << json_str(first_failures_[i]);
  }
  rec << "],\"metrics\":{";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const auto& e = entries_[i];
    rec << (i ? "," : "") << json_str(e.name) << ":{\"value\":"
        << json_num(e.s.median) << ",\"unit\":" << json_str(e.unit);
    if (e.dist) {
      rec << ",\"q1\":" << json_num(e.s.q1) << ",\"q3\":" << json_num(e.s.q3);
    }
    rec << ",\"n\":" << e.s.n << "}";
  }
  rec << "}";
  for (const auto& [k, v] : notes_) rec << "," << json_str(k) << ":" << v;
  rec << "}";
  std::fprintf(out, "PERFBENCH_RECORD %s\n", rec.str().c_str());

  std::ostringstream res;
  res << "{\"correct\":" << (failed_ == 0 && attempted_ > 0 ? "true" : "false")
      << ",\"attempted\":" << attempted_ << ",\"failed\":" << failed_
      << ",\"metrics\":{";
  bool first = true;
  for (const auto& e : entries_) {
    if (!e.result) continue;
    res << (first ? "" : ",") << json_str(e.name) << ":{\"value\":"
        << json_num(e.s.median) << ",\"unit\":" << json_str(e.unit) << "}";
    first = false;
  }
  res << "}}";
  std::fprintf(out, "%s\n", res.str().c_str());
  std::fflush(out);
}

void check_laws(Report& r, const rt::WorkerStats& t, std::uint64_t baked_edges,
                const std::string& where) {
  r.attempt(t.tasks_executed + t.tasks_discarded == t.tasks_deferred,
        where + ": tasks_executed + tasks_discarded != tasks_deferred");
  r.attempt(t.pool_home_frees + t.pool_remote_frees == t.pool_reuse + t.pool_fresh,
        where + ": pool frees != pool allocations");
  r.attempt(t.edges_resolved == t.deps_edges + baked_edges,
        where + ": edges_resolved != deps_edges + replayed graph edges");
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

}  // namespace perfbench
