#include "kernels/sparselu/sparselu.hpp"

#include <cmath>
#include <cstring>
#include <stdexcept>

#include "core/kernel_glue.hpp"
#include "core/rng.hpp"
#include "runtime/dependency.hpp"
#include "runtime/taskgraph.hpp"
#include "runtime/worksharing.hpp"

namespace bots::sparselu {

namespace {

// The four BOTS block kernels. All operate on bs x bs row-major blocks.

/// Unblocked LU (no pivoting) of the diagonal block.
template <class Prof>
void lu0(float* diag, std::size_t bs) {
  for (std::size_t k = 0; k < bs; ++k) {
    for (std::size_t i = k + 1; i < bs; ++i) {
      diag[i * bs + k] /= diag[k * bs + k];
      Prof::ops(1);
      Prof::write_shared(1);
      const float lik = diag[i * bs + k];
      for (std::size_t j = k + 1; j < bs; ++j) {
        diag[i * bs + j] -= lik * diag[k * bs + j];
      }
      Prof::ops(2 * (bs - k - 1));
      Prof::write_shared(bs - k - 1);
    }
  }
}

/// Forward elimination of a row-panel block: col = L(diag)^-1 * col.
template <class Prof>
void fwd(const float* diag, float* col, std::size_t bs) {
  for (std::size_t k = 0; k < bs; ++k) {
    for (std::size_t i = k + 1; i < bs; ++i) {
      const float lik = diag[i * bs + k];
      for (std::size_t j = 0; j < bs; ++j) {
        col[i * bs + j] -= lik * col[k * bs + j];
      }
      Prof::ops(2 * bs);
      Prof::write_shared(bs);
    }
  }
}

/// Backward division of a column-panel block: row = row * U(diag)^-1.
template <class Prof>
void bdiv(const float* diag, float* row, std::size_t bs) {
  for (std::size_t i = 0; i < bs; ++i) {
    for (std::size_t k = 0; k < bs; ++k) {
      row[i * bs + k] /= diag[k * bs + k];
      Prof::ops(1);
      Prof::write_shared(1);
      const float rik = row[i * bs + k];
      for (std::size_t j = k + 1; j < bs; ++j) {
        row[i * bs + j] -= rik * diag[k * bs + j];
      }
      Prof::ops(2 * (bs - k - 1));
      Prof::write_shared(bs - k - 1);
    }
  }
}

/// Schur update: target -= row * col.
template <class Prof>
void bmod(const float* row, const float* col, float* target, std::size_t bs) {
  for (std::size_t i = 0; i < bs; ++i) {
    for (std::size_t k = 0; k < bs; ++k) {
      const float rik = row[i * bs + k];
      for (std::size_t j = 0; j < bs; ++j) {
        target[i * bs + j] -= rik * col[k * bs + j];
      }
      Prof::ops(2 * bs);
      Prof::write_shared(bs);
    }
  }
}

template <class Prof>
void factor_serial(BlockMatrix& m, bool mark_task_sites) {
  const std::size_t nb = m.nb();
  const std::size_t bs = m.bs();
  const std::uint64_t env = 3 * sizeof(void*);
  for (std::size_t kk = 0; kk < nb; ++kk) {
    lu0<Prof>(m.ensure(kk, kk), bs);
    for (std::size_t jj = kk + 1; jj < nb; ++jj) {
      if (!m.empty(kk, jj)) {
        if (mark_task_sites) Prof::task(env);
        fwd<Prof>(m.block(kk, kk), m.block(kk, jj), bs);
      }
    }
    for (std::size_t ii = kk + 1; ii < nb; ++ii) {
      if (!m.empty(ii, kk)) {
        if (mark_task_sites) Prof::task(env);
        bdiv<Prof>(m.block(kk, kk), m.block(ii, kk), bs);
      }
    }
    if (mark_task_sites) Prof::taskwait();
    for (std::size_t ii = kk + 1; ii < nb; ++ii) {
      if (m.empty(ii, kk)) continue;
      for (std::size_t jj = kk + 1; jj < nb; ++jj) {
        if (m.empty(kk, jj)) continue;
        if (mark_task_sites) Prof::task(env + sizeof(void*));
        bmod<Prof>(m.block(ii, kk), m.block(kk, jj), m.ensure(ii, jj), bs);
      }
    }
    if (mark_task_sites) Prof::taskwait();
  }
}

/// Single-generator parallel version: the whole phase loop runs inside a
/// `single`; one task per non-empty block per phase, taskwait between the
/// panel phase and the update phase.
void factor_single(BlockMatrix& m, rt::Scheduler& sched, rt::Tiedness tied) {
  const std::size_t nb = m.nb();
  const std::size_t bs = m.bs();
  sched.run_single([&] {
    for (std::size_t kk = 0; kk < nb; ++kk) {
      lu0<prof::NoProf>(m.ensure(kk, kk), bs);
      const float* diag = m.block(kk, kk);
      for (std::size_t jj = kk + 1; jj < nb; ++jj) {
        if (!m.empty(kk, jj)) {
          float* blk = m.block(kk, jj);
          rt::spawn(tied, [diag, blk, bs] { fwd<prof::NoProf>(diag, blk, bs); });
        }
      }
      for (std::size_t ii = kk + 1; ii < nb; ++ii) {
        if (!m.empty(ii, kk)) {
          float* blk = m.block(ii, kk);
          rt::spawn(tied, [diag, blk, bs] { bdiv<prof::NoProf>(diag, blk, bs); });
        }
      }
      rt::taskwait();
      for (std::size_t ii = kk + 1; ii < nb; ++ii) {
        if (m.empty(ii, kk)) continue;
        for (std::size_t jj = kk + 1; jj < nb; ++jj) {
          if (m.empty(kk, jj)) continue;
          const float* row = m.block(ii, kk);
          const float* col = m.block(kk, jj);
          float* target = m.ensure(ii, jj);  // fill-in by the generator
          rt::spawn(tied, [row, col, target, bs] {
            bmod<prof::NoProf>(row, col, target, bs);
          });
        }
      }
      rt::taskwait();
    }
  });
}

/// Multiple-generator parallel version. With use_range_tasks (the default)
/// each phase publishes ONE splittable range task over its block loop — the
/// first-arriving worker factors the diagonal and spawns the ranges, the
/// rest are already at the phase barrier stealing halves — so descriptor
/// count per phase drops from one-per-nonempty-block to one-plus-splits.
/// With the knob off, each phase's task-creating loop is a static `for`
/// worksharing construct across the team (one descriptor per block, the
/// paper's scheme). Phases are separated by team barriers, which complete
/// all tasks as OpenMP guarantees.
void factor_for(BlockMatrix& m, rt::Scheduler& sched, rt::Tiedness tied) {
  const std::size_t nb = m.nb();
  const std::size_t bs = m.bs();
  const bool ranges = sched.config().use_range_tasks;
  rt::SingleGate gate(sched.num_workers());
  sched.run_all([&](unsigned) {
    for (std::size_t kk = 0; kk < nb; ++kk) {
      const auto lo = static_cast<std::int64_t>(kk) + 1;
      const auto hi = static_cast<std::int64_t>(nb);
      if (ranges) {
        rt::single_nowait(gate, [&] {
          lu0<prof::NoProf>(m.ensure(kk, kk), bs);
          const float* diag = m.block(kk, kk);
          rt::spawn_range(tied, lo, hi, 1,
                          [&m, diag, bs, kk](std::int64_t jj) {
            const auto j = static_cast<std::size_t>(jj);
            if (!m.empty(kk, j)) fwd<prof::NoProf>(diag, m.block(kk, j), bs);
          });
          rt::spawn_range(tied, lo, hi, 1,
                          [&m, diag, bs, kk](std::int64_t ii) {
            const auto i = static_cast<std::size_t>(ii);
            if (!m.empty(i, kk)) bdiv<prof::NoProf>(diag, m.block(i, kk), bs);
          });
        });
        rt::barrier();
        rt::single_nowait(gate, [&] {
          rt::spawn_range(tied, lo, hi, 1,
                          [&m, bs, kk, nb](std::int64_t ii) {
            const auto i = static_cast<std::size_t>(ii);
            if (m.empty(i, kk)) return;
            const float* row = m.block(i, kk);
            for (std::size_t jj = kk + 1; jj < nb; ++jj) {
              if (m.empty(kk, jj)) continue;
              // Fill-in by the (unique) iteration owning row i.
              bmod<prof::NoProf>(row, m.block(kk, jj), m.ensure(i, jj), bs);
            }
          });
        });
        rt::barrier();
        continue;
      }
      rt::single_nowait(gate,
                        [&] { lu0<prof::NoProf>(m.ensure(kk, kk), bs); });
      rt::barrier();
      const float* diag = m.block(kk, kk);
      rt::for_static(lo, hi, [&](std::int64_t jj) {
        if (!m.empty(kk, static_cast<std::size_t>(jj))) {
          float* blk = m.block(kk, static_cast<std::size_t>(jj));
          rt::spawn(tied, [diag, blk, bs] { fwd<prof::NoProf>(diag, blk, bs); });
        }
      });
      rt::for_static(lo, hi, [&](std::int64_t ii) {
        if (!m.empty(static_cast<std::size_t>(ii), kk)) {
          float* blk = m.block(static_cast<std::size_t>(ii), kk);
          rt::spawn(tied, [diag, blk, bs] { bdiv<prof::NoProf>(diag, blk, bs); });
        }
      });
      rt::barrier();
      rt::for_static(lo, hi, [&](std::int64_t ii) {
        const auto i = static_cast<std::size_t>(ii);
        if (m.empty(i, kk)) return;
        for (std::size_t jj = kk + 1; jj < nb; ++jj) {
          if (m.empty(kk, jj)) continue;
          const float* row = m.block(i, kk);
          const float* col = m.block(kk, jj);
          float* target = m.ensure(i, jj);  // unique generator per (i,*)
          rt::spawn(tied, [row, col, target, bs] {
            bmod<prof::NoProf>(row, col, target, bs);
          });
        }
      });
      rt::barrier();
    }
  });
}

}  // namespace

void factor_dataflow(BlockMatrix& m, rt::Scheduler& sched, rt::Tiedness tied,
                     const char* graph_tag) {
  const std::size_t nb = m.nb();
  const std::size_t bs = m.bs();
  sched.run_single([&] {
    // One dependence-tracked region for the WHOLE factorization: true edges
    // replace both per-iteration taskwaits, so a bmod waits only on its own
    // row/column panels and iteration kk+1's panel work overlaps the tail
    // of iteration kk's updates. Addresses are the dependence keys: the
    // kk diagonal chains lu0 -> {fwd,bdiv} (in after inout), every panel
    // block chains its fwd/bdiv to the bmods reading it, and each bmod
    // target chains update-to-update across iterations — including into the
    // iteration where it becomes the diagonal or a panel itself.
    auto build = [&m, nb, bs, tied](rt::DepScope& sc) {
      for (std::size_t kk = 0; kk < nb; ++kk) {
        float* diag = m.ensure(kk, kk);
        sc.spawn(tied, {rt::inout(diag)},
                 [diag, bs] { lu0<prof::NoProf>(diag, bs); });
        for (std::size_t jj = kk + 1; jj < nb; ++jj) {
          if (m.empty(kk, jj)) continue;
          float* blk = m.block(kk, jj);
          sc.spawn(tied, {rt::in(diag), rt::inout(blk)},
                   [diag, blk, bs] { fwd<prof::NoProf>(diag, blk, bs); });
        }
        for (std::size_t ii = kk + 1; ii < nb; ++ii) {
          if (m.empty(ii, kk)) continue;
          float* blk = m.block(ii, kk);
          sc.spawn(tied, {rt::in(diag), rt::inout(blk)},
                   [diag, blk, bs] { bdiv<prof::NoProf>(diag, blk, bs); });
        }
        for (std::size_t ii = kk + 1; ii < nb; ++ii) {
          if (m.empty(ii, kk)) continue;
          for (std::size_t jj = kk + 1; jj < nb; ++jj) {
            if (m.empty(kk, jj)) continue;
            const float* row = m.block(ii, kk);
            const float* col = m.block(kk, jj);
            // Fill-in is decided at BUILD time (by the generator), so the
            // recorded graph's shape and addresses are replay-stable.
            float* target = m.ensure(ii, jj);
            sc.spawn(tied, {rt::in(row), rt::in(col), rt::inout(target)},
                     [row, col, target, bs] {
                       bmod<prof::NoProf>(row, col, target, bs);
                     });
          }
        }
      }
    };
    if (graph_tag != nullptr) {
      rt::graph_region(graph_tag, &m, build);
    } else {
      rt::DepScope sc;
      build(sc);
      sc.wait();
    }
  });
}

Params params_for(core::InputClass c) {
  switch (c) {
    case core::InputClass::test: return {12, 32, 0x10Fu};
    case core::InputClass::small: return {24, 48, 0x10Fu};
    case core::InputClass::medium: return {32, 64, 0x10Fu};
    case core::InputClass::large: return {48, 64, 0x10Fu};
  }
  throw std::invalid_argument("sparselu: bad input class");
}

std::string describe(const Params& p) {
  const std::size_t n = p.nb * p.bs;
  return std::to_string(n) + "x" + std::to_string(n) + " sparse matrix of " +
         std::to_string(p.bs) + "x" + std::to_string(p.bs) + " blocks";
}

BlockMatrix make_input(const Params& p) {
  BlockMatrix m(p.nb, p.bs);
  core::Xoshiro256 structure(p.seed);
  for (std::size_t ii = 0; ii < p.nb; ++ii) {
    for (std::size_t jj = 0; jj < p.nb; ++jj) {
      const bool present = ii == jj || structure.next_double() < 0.55;
      if (!present) continue;
      float* b = m.ensure(ii, jj);
      core::Xoshiro256 vals(p.seed ^ (ii * 7919 + jj * 104729 + 13));
      for (std::size_t k = 0; k < p.bs * p.bs; ++k) {
        b[k] = static_cast<float>(vals.next_double() - 0.5);
      }
      if (ii == jj) {
        // Diagonal dominance keeps the pivot-free factorization stable.
        for (std::size_t d = 0; d < p.bs; ++d) {
          b[d * p.bs + d] += static_cast<float>(p.bs);
        }
      }
    }
  }
  return m;
}

void reset_values(const Params& p, BlockMatrix& m) {
  // Mirrors make_input's structure walk exactly (same rng consumption), but
  // writes into the EXISTING blocks: input blocks get their pristine values
  // back, blocks that only exist as fill-in from a previous factorization
  // are zeroed (the state bmod fill-in starts from).
  core::Xoshiro256 structure(p.seed);
  for (std::size_t ii = 0; ii < p.nb; ++ii) {
    for (std::size_t jj = 0; jj < p.nb; ++jj) {
      const bool present = ii == jj || structure.next_double() < 0.55;
      float* b = m.block(ii, jj);
      if (b == nullptr) continue;
      if (!present) {
        std::memset(b, 0, p.bs * p.bs * sizeof(float));
        continue;
      }
      core::Xoshiro256 vals(p.seed ^ (ii * 7919 + jj * 104729 + 13));
      for (std::size_t k = 0; k < p.bs * p.bs; ++k) {
        b[k] = static_cast<float>(vals.next_double() - 0.5);
      }
      if (ii == jj) {
        for (std::size_t d = 0; d < p.bs; ++d) {
          b[d * p.bs + d] += static_cast<float>(p.bs);
        }
      }
    }
  }
}

void run_serial(const Params& p, BlockMatrix& m) {
  (void)p;
  factor_serial<prof::NoProf>(m, false);
}

void run_parallel(const Params& p, BlockMatrix& m, rt::Scheduler& sched,
                  const VersionOpts& opts) {
  (void)p;
  if (opts.dataflow) {
    factor_dataflow(m, sched, opts.tied);
  } else if (opts.generator == core::Generator::single_gen) {
    factor_single(m, sched, opts.tied);
  } else {
    factor_for(m, sched, opts.tied);
  }
}

bool verify(const Params& p, const BlockMatrix& factored) {
  BlockMatrix ref = make_input(p);
  factor_serial<prof::NoProf>(ref, false);
  if (ref.nb() != factored.nb() || ref.bs() != factored.bs()) return false;
  const std::size_t bs2 = p.bs * p.bs;
  for (std::size_t ii = 0; ii < p.nb; ++ii) {
    for (std::size_t jj = 0; jj < p.nb; ++jj) {
      const bool re = ref.empty(ii, jj);
      if (re != factored.empty(ii, jj)) return false;
      if (re) continue;
      const float* a = ref.block(ii, jj);
      const float* b = factored.block(ii, jj);
      for (std::size_t k = 0; k < bs2; ++k) {
        const float scale = std::max(1.0f, std::fabs(a[k]));
        if (std::fabs(a[k] - b[k]) > 1e-4f * scale) return false;
      }
    }
  }
  return true;
}

prof::TableRow profile_row(core::InputClass c) {
  const Params p = params_for(c);
  BlockMatrix m = make_input(p);
  prof::CountingProf::reset();
  core::Timer timer;
  factor_serial<prof::CountingProf>(m, true);
  const double secs = timer.seconds();
  const std::uint64_t mem =
      m.allocated_blocks() * p.bs * p.bs * sizeof(float) +
      p.nb * p.nb * sizeof(void*);
  return prof::make_row("sparselu", describe(p), secs, mem,
                        prof::CountingProf::totals());
}

core::AppInfo make_app_info() {
  core::AppInfo app;
  app.name = "sparselu";
  app.origin = "-";
  app.domain = "Sparse linear algebra";
  app.structure = "Iterative";
  app.task_directives = 4;
  app.tasks_inside = "single/for";
  app.nested_tasks = false;
  app.app_cutoff = "none";
  app.versions = {
      {"single-tied", rt::Tiedness::tied, core::AppCutoff::none,
       core::Generator::single_gen, false},
      {"single-untied", rt::Tiedness::untied, core::AppCutoff::none,
       core::Generator::single_gen, false},
      {"for-tied", rt::Tiedness::tied, core::AppCutoff::none,
       core::Generator::multiple_gen, true},
      {"for-untied", rt::Tiedness::untied, core::AppCutoff::none,
       core::Generator::multiple_gen, false},
      {"dataflow-tied", rt::Tiedness::tied, core::AppCutoff::none,
       core::Generator::single_gen, false},
      {"dataflow-untied", rt::Tiedness::untied, core::AppCutoff::none,
       core::Generator::single_gen, false},
  };
  app.run = [](core::InputClass ic, const std::string& version,
               rt::Scheduler& sched, bool verify_run) {
    const core::AppInfo& self = *core::find_app("sparselu");
    const core::VersionInfo* v = self.find_version(version);
    if (v == nullptr) {
      throw std::invalid_argument("sparselu: unknown version " + version);
    }
    const Params p = params_for(ic);
    BlockMatrix m = make_input(p);
    VersionOpts opts{v->tied, v->generator,
                     version.rfind("dataflow", 0) == 0};
    return core::run_and_report(
        "sparselu", version, ic, sched, verify_run,
        [&] { run_parallel(p, m, sched, opts); },
        [&] { return verify(p, m); });
  };
  app.run_serial = [](core::InputClass ic) {
    const Params p = params_for(ic);
    BlockMatrix m = make_input(p);
    return core::run_serial_and_report(
        "sparselu", ic, true, [&] { run_serial(p, m); },
        [&] { return verify(p, m); });
  };
  app.profile_row = [](core::InputClass ic) { return profile_row(ic); };
  app.describe_input = [](core::InputClass ic) {
    return describe(params_for(ic));
  };
  return app;
}

}  // namespace bots::sparselu
