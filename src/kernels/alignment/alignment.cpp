#include "kernels/alignment/alignment.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "core/kernel_glue.hpp"
#include "core/rng.hpp"
#include "runtime/worksharing.hpp"

namespace bots::alignment {

namespace {

constexpr int alphabet = 20;
constexpr int neg_inf = -(1 << 28);

[[nodiscard]] std::size_t pair_count(int nseq) {
  return static_cast<std::size_t>(nseq) * (nseq - 1) / 2;
}

[[nodiscard]] std::size_t pair_index(int nseq, int i, int j) {
  // Pairs (i, j), i < j, in lexicographic order.
  return static_cast<std::size_t>(i) * (2 * nseq - i - 1) / 2 +
         static_cast<std::size_t>(j - i - 1);
}

/// Gotoh affine-gap global alignment, two-row DP, instrumented.
template <class Prof>
int score_pair(const Sequence& a, const Sequence& b, int gap_open,
               int gap_extend) {
  const auto& w = weight_matrix();
  const std::size_t la = a.size();
  const std::size_t lb = b.size();
  // H: best score ending at (i, j); E: gap in `a` (horizontal);
  // F: gap in `b` (vertical). Two rolling rows, task-private storage.
  std::vector<int> h(lb + 1);
  std::vector<int> h_prev(lb + 1);
  std::vector<int> f(lb + 1);
  std::vector<int> f_prev(lb + 1, neg_inf);

  h_prev[0] = 0;
  for (std::size_t j = 1; j <= lb; ++j) {
    h_prev[j] = -(gap_open + gap_extend * static_cast<int>(j - 1));
  }

  for (std::size_t i = 1; i <= la; ++i) {
    h[0] = -(gap_open + gap_extend * static_cast<int>(i - 1));
    f[0] = neg_inf;
    int e_run = neg_inf;
    const auto& wrow = w[a[i - 1]];
    for (std::size_t j = 1; j <= lb; ++j) {
      e_run = std::max(h[j - 1] - gap_open, e_run - gap_extend);
      f[j] = std::max(h_prev[j] - gap_open, f_prev[j] - gap_extend);
      const int diag = h_prev[j - 1] + wrow[b[j - 1]];
      h[j] = std::max({diag, e_run, f[j]});
      Prof::ops(8);
      Prof::write_private(3);
    }
    std::swap(h, h_prev);
    std::swap(f, f_prev);
  }
  return h_prev[lb];
}

}  // namespace

const std::array<std::array<int, 20>, 20>& weight_matrix() {
  // Deterministic BLOSUM-shaped substitution matrix: diagonal 4..11,
  // off-diagonal in [-4, 3], symmetric (see DESIGN.md substitution table).
  static const auto matrix = [] {
    std::array<std::array<int, 20>, 20> m{};
    core::Xoshiro256 rng(0xB105u);
    for (int i = 0; i < alphabet; ++i) {
      m[i][i] = 4 + static_cast<int>(rng.next_below(8));
      for (int j = i + 1; j < alphabet; ++j) {
        const int v = static_cast<int>(rng.next_below(8)) - 4;
        m[i][j] = v;
        m[j][i] = v;
      }
    }
    return m;
  }();
  return matrix;
}

Params params_for(core::InputClass c) {
  switch (c) {
    case core::InputClass::test: return {16, 60, 100, 10, 1, 0xA115u};
    case core::InputClass::small: return {40, 140, 220, 10, 1, 0xA115u};
    case core::InputClass::medium: return {96, 200, 300, 10, 1, 0xA115u};
    case core::InputClass::large: return {128, 240, 360, 10, 1, 0xA115u};
  }
  throw std::invalid_argument("alignment: bad input class");
}

std::string describe(const Params& p) {
  return std::to_string(p.nseq) + " proteins";
}

std::vector<Sequence> make_input(const Params& p) {
  std::vector<Sequence> seqs(static_cast<std::size_t>(p.nseq));
  core::Xoshiro256 rng(p.seed);
  for (auto& s : seqs) {
    const std::size_t len =
        static_cast<std::size_t>(p.len_min) +
        rng.next_below(static_cast<std::uint64_t>(p.len_max - p.len_min + 1));
    s.resize(len);
    for (auto& r : s) r = static_cast<std::uint8_t>(rng.next_below(alphabet));
  }
  return seqs;
}

int pair_score(const Sequence& a, const Sequence& b, const Params& p) {
  return score_pair<prof::NoProf>(a, b, p.gap_open, p.gap_extend);
}

std::vector<int> run_serial(const Params& p,
                            const std::vector<Sequence>& seqs) {
  std::vector<int> scores(pair_count(p.nseq));
  for (int i = 0; i < p.nseq; ++i) {
    for (int j = i + 1; j < p.nseq; ++j) {
      scores[pair_index(p.nseq, i, j)] =
          score_pair<prof::NoProf>(seqs[i], seqs[j], p.gap_open, p.gap_extend);
    }
  }
  return scores;
}

std::vector<int> run_parallel(const Params& p,
                              const std::vector<Sequence>& seqs,
                              rt::Scheduler& sched, const VersionOpts& opts) {
  std::vector<int> scores(pair_count(p.nseq));
  int* out = scores.data();
  const Sequence* sq = seqs.data();
  const int nseq = p.nseq;
  const int gap_open = p.gap_open;
  const int gap_extend = p.gap_extend;
  const rt::Tiedness tied = opts.tied;
  if (sched.config().use_range_tasks) {
    // Range-task scheme: the first-arriving worker publishes ONE splittable
    // range over the outer rows (each iteration scores its row's pairs
    // serially); everyone else is already at the region barrier stealing
    // halves, so load balance comes from split-on-steal instead of
    // one-descriptor-per-pair generation.
    rt::SingleGate gate(sched.num_workers());
    sched.run_all([&](unsigned) {
      rt::single_nowait(gate, [&] {
        rt::spawn_range(
            tied, 0, nseq, 1,
            [out, sq, nseq, gap_open, gap_extend](std::int64_t i) {
              for (int j = static_cast<int>(i) + 1; j < nseq; ++j) {
                out[pair_index(nseq, static_cast<int>(i), j)] =
                    score_pair<prof::NoProf>(sq[i], sq[j], gap_open,
                                             gap_extend);
              }
            });
      });
      // The range and its splits join at the implicit region-end barrier.
    });
    return scores;
  }
  // The paper's scheme: outer loop under a dynamically scheduled `for`
  // worksharing construct, one task per pair inside the parallel loop.
  rt::DynamicSchedule dyn(0);
  sched.run_all([&](unsigned) {
    rt::for_dynamic(dyn, nseq, 1, [&](std::int64_t i) {
      for (int j = static_cast<int>(i) + 1; j < nseq; ++j) {
        const std::size_t idx = pair_index(nseq, static_cast<int>(i), j);
        rt::spawn(tied, [out, idx, sq, i, j, gap_open, gap_extend] {
          out[idx] = score_pair<prof::NoProf>(sq[i], sq[j], gap_open,
                                              gap_extend);
        });
      }
    });
    // Tasks join at the implicit region-end barrier (no taskwait: the
    // paper's Table II shows 0.00 taskwaits per task for Alignment).
  });
  return scores;
}

bool verify(const Params& p, const std::vector<Sequence>& seqs,
            const std::vector<int>& scores) {
  if (scores.size() != pair_count(p.nseq)) return false;
  const bool full = pair_count(p.nseq) <= 2048;
  if (full) {
    for (int i = 0; i < p.nseq; ++i) {
      for (int j = i + 1; j < p.nseq; ++j) {
        if (scores[pair_index(p.nseq, i, j)] != pair_score(seqs[i], seqs[j], p)) {
          return false;
        }
      }
    }
    return true;
  }
  core::Xoshiro256 rng(0x5EEDu);
  for (int s = 0; s < 64; ++s) {
    const int i = static_cast<int>(rng.next_below(p.nseq - 1));
    const int j =
        i + 1 + static_cast<int>(rng.next_below(p.nseq - 1 - i));
    if (scores[pair_index(p.nseq, i, j)] != pair_score(seqs[i], seqs[j], p)) {
      return false;
    }
  }
  return true;
}

prof::TableRow profile_row(core::InputClass c) {
  const Params p = params_for(c);
  const std::vector<Sequence> seqs = make_input(p);
  std::vector<int> scores(pair_count(p.nseq));
  prof::CountingProf::reset();
  core::Timer timer;
  for (int i = 0; i < p.nseq; ++i) {
    for (int j = i + 1; j < p.nseq; ++j) {
      // Captured environment: the pair's indices and destination (the
      // sequences themselves stay shared) — Table II reports 16 bytes.
      prof::CountingProf::task(16);
      scores[pair_index(p.nseq, i, j)] = score_pair<prof::CountingProf>(
          seqs[i], seqs[j], p.gap_open, p.gap_extend);
      prof::CountingProf::write_shared(1);  // the result score
    }
  }
  const double secs = timer.seconds();
  if (!verify(p, seqs, scores)) {
    throw std::logic_error("alignment profile run mis-verified");
  }
  std::uint64_t mem = scores.size() * sizeof(int);
  for (const auto& s : seqs) mem += s.size();
  mem += 2ull * static_cast<std::uint64_t>(p.len_max) * sizeof(int) * 4;
  return prof::make_row("alignment", describe(p), secs, mem,
                        prof::CountingProf::totals());
}

core::AppInfo make_app_info() {
  core::AppInfo app;
  app.name = "alignment";
  app.origin = "AKM";
  app.domain = "Dynamic programming";
  app.structure = "Iterative";
  app.task_directives = 1;
  app.tasks_inside = "for";
  app.nested_tasks = false;
  app.app_cutoff = "none";
  app.versions = {
      {"tied", rt::Tiedness::tied, core::AppCutoff::none,
       core::Generator::multiple_gen, false},
      {"untied", rt::Tiedness::untied, core::AppCutoff::none,
       core::Generator::multiple_gen, true},
  };
  app.run = [](core::InputClass ic, const std::string& version,
               rt::Scheduler& sched, bool verify_run) {
    const core::AppInfo& self = *core::find_app("alignment");
    const core::VersionInfo* v = self.find_version(version);
    if (v == nullptr) {
      throw std::invalid_argument("alignment: unknown version " + version);
    }
    const Params p = params_for(ic);
    const std::vector<Sequence> seqs = make_input(p);
    std::vector<int> scores;
    VersionOpts opts{v->tied};
    return core::run_and_report(
        "alignment", version, ic, sched, verify_run,
        [&] { scores = run_parallel(p, seqs, sched, opts); },
        [&] { return verify(p, seqs, scores); });
  };
  app.run_serial = [](core::InputClass ic) {
    const Params p = params_for(ic);
    const std::vector<Sequence> seqs = make_input(p);
    std::vector<int> scores;
    return core::run_serial_and_report(
        "alignment", ic, true, [&] { scores = run_serial(p, seqs); },
        [&] { return verify(p, seqs, scores); });
  };
  app.profile_row = [](core::InputClass ic) { return profile_row(ic); };
  app.describe_input = [](core::InputClass ic) {
    return describe(params_for(ic));
  };
  return app;
}

}  // namespace bots::alignment
