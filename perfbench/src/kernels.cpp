#include "kernels.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/registry.hpp"
#include "kernels/alignment/alignment.hpp"
#include "kernels/fft/fft.hpp"
#include "kernels/fib/fib.hpp"
#include "kernels/floorplan/floorplan.hpp"
#include "kernels/health/health.hpp"
#include "kernels/nqueens/nqueens.hpp"
#include "kernels/sort/sort.hpp"
#include "kernels/sparselu/sparselu.hpp"
#include "kernels/strassen/strassen.hpp"
#include "kernels/uts/uts.hpp"

namespace perfbench {

namespace {

namespace core = bots::core;
using bots::rt::Scheduler;

const core::VersionInfo& best(const char* app) {
  const core::AppInfo* a = core::find_app(app);
  if (a == nullptr) throw std::runtime_error(std::string("unknown app ") + app);
  return a->best_version();
}

// Largest absolute difference, relative to the largest reference magnitude.
template <class T>
double rel_err(const std::vector<T>& ref, const std::vector<T>& out) {
  if (ref.size() != out.size()) return 1e300;
  double err = 0;
  double scale = 1;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    err = std::max(err, static_cast<double>(std::abs(ref[i] - out[i])));
    scale = std::max(scale, static_cast<double>(std::abs(ref[i])));
  }
  return err / scale;
}

KernelOp alignment_op() {
  namespace k = bots::alignment;
  struct S {
    k::Params p = k::params_for(core::InputClass::medium);
    std::vector<k::Sequence> seqs;
    std::vector<int> ref, out;
  };
  auto s = std::make_shared<S>();
  s->seqs = k::make_input(s->p);
  const auto& v = best("alignment");
  return {"alignment", v.name, k::describe(s->p),
          [s] { s->ref = k::run_serial(s->p, s->seqs); },
          [] {},
          [s, tied = v.tied](Scheduler& sc) {
            s->out = k::run_parallel(s->p, s->seqs, sc, {tied});
          },
          [s] { return s->out == s->ref; }};
}

KernelOp fft_op(std::uint64_t seed) {
  namespace k = bots::fft;
  struct S {
    k::Params p = k::params_for(core::InputClass::medium);
    std::vector<k::Complex> input, ref, data;
  };
  auto s = std::make_shared<S>();
  s->p.seed ^= seed * 0x9E3779B97F4A7C15ULL;
  s->input = k::make_input(s->p);
  const auto& v = best("fft");
  return {"fft", v.name, k::describe(s->p),
          [s] {
            s->ref = s->input;
            k::run_serial(s->p, s->ref);
          },
          [s] { s->data = s->input; },
          [s, tied = v.tied](Scheduler& sc) {
            k::run_parallel(s->p, s->data, sc, {tied});
          },
          [s] { return rel_err(s->ref, s->data) <= 1e-9; }};
}

KernelOp fib_op() {
  namespace k = bots::fib;
  struct S {
    k::Params p = k::params_for(core::InputClass::medium);
    std::uint64_t ref = 0, out = 1;
  };
  auto s = std::make_shared<S>();
  const auto& v = best("fib");
  return {"fib", v.name, k::describe(s->p),
          [s] { s->ref = k::run_serial(s->p); },
          [] {},
          [s, opts = k::VersionOpts{v.tied, v.cutoff}](Scheduler& sc) {
            s->out = k::run_parallel(s->p, sc, opts);
          },
          [s] { return s->out == s->ref; }};
}

KernelOp floorplan_op() {
  namespace k = bots::floorplan;
  struct S {
    k::Params p = k::params_for(core::InputClass::medium);
    std::vector<k::Cell> cells;
    k::Result ref, out;
  };
  auto s = std::make_shared<S>();
  s->cells = k::make_input(s->p);
  const auto& v = best("floorplan");
  return {"floorplan", v.name, k::describe(s->p),
          [s] { s->ref = k::run_serial(s->p, s->cells); },
          [] {},
          [s, opts = k::VersionOpts{v.tied, v.cutoff}](Scheduler& sc) {
            s->out = k::run_parallel(s->p, s->cells, sc, opts);
          },
          // Branch and bound: the node count depends on the search order,
          // the optimum does not.
          [s] { return s->out.best_area == s->ref.best_area; }};
}

KernelOp health_op() {
  namespace k = bots::health;
  struct S {
    k::Params p = k::params_for(core::InputClass::medium);
    k::Stats ref, out;
  };
  auto s = std::make_shared<S>();
  const auto& v = best("health");
  return {"health", v.name, k::describe(s->p),
          [s] { s->ref = k::run_serial(s->p); },
          [] {},
          [s, opts = k::VersionOpts{v.tied, v.cutoff, v.generator}](Scheduler& sc) {
            s->out = k::run_parallel(s->p, sc, opts);
          },
          [s] { return s->out == s->ref; }};
}

KernelOp nqueens_op() {
  namespace k = bots::nqueens;
  struct S {
    k::Params p = k::params_for(core::InputClass::medium);
    std::uint64_t ref = 0, out = 1;
  };
  auto s = std::make_shared<S>();
  const auto& v = best("nqueens");
  return {"nqueens", v.name, k::describe(s->p),
          [s] { s->ref = k::run_serial(s->p); },
          [] {},
          [s, opts = k::VersionOpts{v.tied, v.cutoff}](Scheduler& sc) {
            s->out = k::run_parallel(s->p, sc, opts);
          },
          [s] { return s->out == s->ref; }};
}

KernelOp sort_op(std::uint64_t seed) {
  namespace k = bots::sort;
  struct S {
    k::Params p = k::params_for(core::InputClass::small);
    std::vector<k::Elm> input, ref, data;
  };
  auto s = std::make_shared<S>();
  s->p.seed ^= seed * 0x9E3779B97F4A7C15ULL;
  s->input = k::make_input(s->p);
  const auto& v = best("sort");
  return {"sort", v.name, k::describe(s->p),
          [s] {
            s->ref = s->input;
            k::run_serial(s->p, s->ref);
          },
          [s] { s->data = s->input; },
          [s, tied = v.tied](Scheduler& sc) {
            k::run_parallel(s->p, s->data, sc, {tied});
          },
          [s] { return s->data == s->ref; }};
}

KernelOp sparselu_op() {
  namespace k = bots::sparselu;
  struct S {
    k::Params p = k::params_for(core::InputClass::medium);
    k::BlockMatrix ref{0, 0};
    k::BlockMatrix m{0, 0};
  };
  auto s = std::make_shared<S>();
  s->m = k::make_input(s->p);
  const auto& v = best("sparselu");
  k::VersionOpts opts{v.tied, v.generator,
                      v.name.rfind("dataflow", 0) == 0};
  return {"sparselu", v.name, k::describe(s->p),
          [s] {
            s->ref = k::make_input(s->p);
            k::run_serial(s->p, s->ref);
          },
          // Same blocks, pristine values: fill-in from the previous run is
          // zeroed, which is the state fill-in starts from.
          [s] { k::reset_values(s->p, s->m); },
          [s, opts](Scheduler& sc) { k::run_parallel(s->p, s->m, sc, opts); },
          [s] {
            const std::size_t nb = s->p.nb;
            const std::size_t bs2 = s->p.bs * s->p.bs;
            for (std::size_t i = 0; i < nb; ++i) {
              for (std::size_t j = 0; j < nb; ++j) {
                const float* a = s->ref.block(i, j);
                const float* b = s->m.block(i, j);
                if (a == nullptr) {
                  // Only a block that was allocated but stayed zero may
                  // exist here without a reference counterpart.
                  if (b != nullptr &&
                      std::any_of(b, b + bs2, [](float x) { return x != 0; })) {
                    return false;
                  }
                  continue;
                }
                if (b == nullptr) return false;
                for (std::size_t e = 0; e < bs2; ++e) {
                  const float scale = std::max(1.0f, std::fabs(a[e]));
                  if (std::fabs(a[e] - b[e]) > 1e-4f * scale) return false;
                }
              }
            }
            return true;
          }};
}

KernelOp strassen_op() {
  namespace k = bots::strassen;
  struct S {
    k::Params p = k::params_for(core::InputClass::medium);
    std::vector<double> a, b, ref, out;
  };
  auto s = std::make_shared<S>();
  s->a = k::make_matrix(s->p, 1);
  s->b = k::make_matrix(s->p, 2);
  const auto& v = best("strassen");
  k::VersionOpts opts{v.tied, v.cutoff, v.name.rfind("dataflow", 0) == 0};
  return {"strassen", v.name, k::describe(s->p),
          [s] { s->ref = k::run_serial(s->p, s->a, s->b); },
          [] {},
          [s, opts](Scheduler& sc) {
            s->out = k::run_parallel(s->p, s->a, s->b, sc, opts);
          },
          [s] { return rel_err(s->ref, s->out) <= 1e-9; }};
}

KernelOp uts_op() {
  namespace k = bots::uts;
  struct S {
    k::Params p = k::params_for(core::InputClass::small);
    std::uint64_t ref = 0, out = 1;
  };
  auto s = std::make_shared<S>();
  const auto& v = best("uts");
  return {"uts", v.name, k::describe(s->p),
          [s] { s->ref = k::run_serial(s->p); },
          [] {},
          [s, tied = v.tied](Scheduler& sc) {
            s->out = k::run_parallel(s->p, sc, {tied});
          },
          [s] { return s->out == s->ref; }};
}

}  // namespace

std::vector<KernelOp> make_kernels(std::uint64_t seed) {
  std::vector<KernelOp> v;
  v.push_back(alignment_op());
  v.push_back(fft_op(seed));
  v.push_back(fib_op());
  v.push_back(floorplan_op());
  v.push_back(health_op());
  v.push_back(nqueens_op());
  v.push_back(sort_op(seed));
  v.push_back(sparselu_op());
  v.push_back(strassen_op());
  v.push_back(uts_op());
  return v;
}

}  // namespace perfbench
