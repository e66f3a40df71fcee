#include "phases.hpp"

#include <algorithm>
#include <cmath>

#include "bench.hpp"
#include "runtime/rt.hpp"

namespace perfbench {

namespace sl = bots::sparselu;

std::uint64_t tree_fib(int n) {
  if (n < 2) return static_cast<std::uint64_t>(n);
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  rt::spawn(rt::Tiedness::tied, [&a, n] { a = tree_fib(n - 1); });
  rt::spawn(rt::Tiedness::tied, [&b, n] { b = tree_fib(n - 2); });
  rt::taskwait();
  return a + b;
}

std::uint64_t fib_closed(int n) {
  std::uint64_t a = 0;
  std::uint64_t b = 1;
  for (int i = 0; i < n; ++i) {
    const std::uint64_t t = a + b;
    a = b;
    b = t;
  }
  return a;
}

namespace {

template <class F>
PhaseRep timed_region(rt::Scheduler& s, F&& f) {
  PhaseRep r;
  const std::uint64_t before = s.stats().total.tasks_deferred;
  const std::int64_t t0 = now_ns();
  r.ok = f();
  r.seconds = static_cast<double>(now_ns() - t0) * 1e-9;
  r.tasks = s.stats().total.tasks_deferred - before;
  return r;
}

}  // namespace

PhaseRep run_tree(rt::Scheduler& s, int n) {
  return timed_region(s, [&] {
    std::uint64_t v = 0;
    s.run_single([&] { v = tree_fib(n); });
    return v == fib_closed(n);
  });
}

namespace {
[[gnu::noinline]] std::uint64_t fib_plain(int n) {
  return n < 2 ? static_cast<std::uint64_t>(n) : fib_plain(n - 1) + fib_plain(n - 2);
}
}  // namespace

PhaseRep serial_tree(int n) {
  volatile int vn = n;  // keeps the recursion from being folded at compile time
  PhaseRep r;
  const std::int64_t t0 = now_ns();
  const std::uint64_t v = fib_plain(vn);
  r.seconds = static_cast<double>(now_ns() - t0) * 1e-9;
  r.ok = v == fib_closed(n);
  return r;
}

PhaseRep serial_flood(std::int64_t n) {
  // One flood is a few microseconds of serial work: time several, divide.
  constexpr int kPasses = 16;
  std::atomic<std::int64_t> ran{0};
  const auto body = [&ran] { ran.fetch_add(1, std::memory_order_relaxed); };
  PhaseRep r;
  const std::int64_t t0 = now_ns();
  for (int pass = 0; pass < kPasses; ++pass) {
    for (std::int64_t i = 0; i < n; ++i) body();
  }
  r.seconds = static_cast<double>(now_ns() - t0) * 1e-9 / kPasses;
  r.ok = ran.load() == n * kPasses;
  return r;
}

PhaseRep run_flood(rt::Scheduler& s, std::int64_t n) {
  return timed_region(s, [&] {
    std::atomic<std::int64_t> ran{0};
    s.run_single([&] {
      for (std::int64_t i = 0; i < n; ++i) {
        rt::spawn(rt::Tiedness::tied,
                  [&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
      }
      rt::taskwait();
    });
    return ran.load() == n;
  });
}

// 32x32 blocks of 8x8 floats: ~55% of blocks present plus fill-in, about
// ten thousand tasks whose bodies are short enough that the dependence and
// graph layers, not the arithmetic, dominate a rep.
Dag::Dag() : p_{32, 8, 0x10Fu}, m_(sl::make_input(p_)), ref_(sl::make_input(p_)) {
  sl::run_serial(p_, ref_);
}

void Dag::reset() { sl::reset_values(p_, m_); }

template <class F>
PhaseRep Dag::timed(rt::Scheduler& s, F&& f) {
  reset();
  PhaseRep r = timed_region(s, [&] {
    f();
    return true;
  });
  r.ok = check();
  return r;
}

PhaseRep Dag::run(rt::Scheduler& s) {
  return timed(s, [&] { sl::factor_dataflow(m_, s, rt::Tiedness::tied, tag); });
}

PhaseRep Dag::run_serial() {
  reset();
  PhaseRep r;
  const std::int64_t t0 = now_ns();
  sl::run_serial(p_, m_);
  r.seconds = static_cast<double>(now_ns() - t0) * 1e-9;
  r.ok = check();
  return r;
}

PhaseRep Dag::run_dynamic(rt::Scheduler& s) {
  return timed(s, [&] { sl::factor_dataflow(m_, s, rt::Tiedness::tied); });
}

PhaseRep Dag::run_taskwait(rt::Scheduler& s) {
  return timed(s, [&] {
    sl::run_parallel(p_, m_, s,
                     {rt::Tiedness::tied, bots::core::Generator::multiple_gen, false});
  });
}

bool Dag::check() const {
  const std::size_t bs2 = p_.bs * p_.bs;
  for (std::size_t i = 0; i < p_.nb; ++i) {
    for (std::size_t j = 0; j < p_.nb; ++j) {
      const float* a = ref_.block(i, j);
      const float* b = m_.block(i, j);
      if (a == nullptr || b == nullptr) {
        if (a != b) return false;
        continue;
      }
      for (std::size_t e = 0; e < bs2; ++e) {
        const float scale = std::max(1.0f, std::fabs(a[e]));
        if (std::fabs(a[e] - b[e]) > 1e-4f * scale) return false;
      }
    }
  }
  return true;
}

std::uint64_t Dag::graph_edges(rt::Scheduler& s) const {
  rt::TaskGraph& g = s.find_or_create_graph(tag);
  return g.frozen() ? g.edge_count() : 0;
}

std::string Dag::describe() const { return sl::describe(p_); }

}  // namespace perfbench
