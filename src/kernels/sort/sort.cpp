#include "kernels/sort/sort.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "core/kernel_glue.hpp"
#include "core/rng.hpp"
#include "runtime/worksharing.hpp"

namespace bots::sort {

namespace {

// The cilksort family works on inclusive [low, high] pointer ranges, as in
// the original Cilk code the BOTS benchmark ports.

template <class Prof>
Elm med3(Elm a, Elm b, Elm c) {
  Prof::ops(2);
  if (a < b) {
    if (b < c) return b;
    Prof::ops(1);
    return a < c ? c : a;
  }
  if (b > c) return b;
  Prof::ops(1);
  return a > c ? c : a;
}

template <class Prof>
void insertion_sort(Elm* low, Elm* high) {
  for (Elm* q = low + 1; q <= high; ++q) {
    const Elm qv = *q;
    Elm* p = q - 1;
    while (p >= low && *p > qv) {
      Prof::ops(1);
      p[1] = p[0];
      Prof::write_private(1);
      --p;
    }
    p[1] = qv;
    Prof::write_private(1);
  }
}

template <class Prof>
Elm* seqpart(Elm* low, Elm* high) {
  const Elm pivot = med3<Prof>(*low, *(low + (high - low) / 2), *high);
  Elm* curr_low = low;
  Elm* curr_high = high;
  for (;;) {
    Elm h;
    Elm l;
    while ((h = *curr_high) > pivot) {
      Prof::ops(1);
      --curr_high;
    }
    while ((l = *curr_low) < pivot) {
      Prof::ops(1);
      ++curr_low;
    }
    if (curr_low >= curr_high) break;
    *curr_high-- = l;
    *curr_low++ = h;
    Prof::write_private(2);
  }
  return curr_high < high ? curr_high : curr_high - 1;
}

template <class Prof>
void seqquick(Elm* low, Elm* high, std::ptrdiff_t insertion_threshold) {
  while (high - low >= insertion_threshold) {
    Elm* p = seqpart<Prof>(low, high);
    seqquick<Prof>(low, p, insertion_threshold);
    low = p + 1;
  }
  insertion_sort<Prof>(low, high);
}

template <class Prof>
void seqmerge(const Elm* low1, const Elm* high1, const Elm* low2,
              const Elm* high2, Elm* lowdest) {
  while (low1 <= high1 && low2 <= high2) {
    Prof::ops(1);
    if (*low1 <= *low2) {
      *lowdest++ = *low1++;
    } else {
      *lowdest++ = *low2++;
    }
    Prof::write_shared(1);
  }
  while (low1 <= high1) {
    *lowdest++ = *low1++;
    Prof::write_shared(1);
  }
  while (low2 <= high2) {
    *lowdest++ = *low2++;
    Prof::write_shared(1);
  }
}

/// Largest position in [low, high] whose element is <= val; low - 1 when
/// val precedes everything.
template <class Prof>
Elm* binsplit(Elm val, Elm* low, Elm* high) {
  while (low != high) {
    Elm* mid = low + ((high - low + 1) / 2);
    Prof::ops(1);
    if (val <= *mid) {
      high = mid - 1;
    } else {
      low = mid;
    }
  }
  return *low > val ? low - 1 : low;
}

struct Thresholds {
  std::ptrdiff_t quick;
  std::ptrdiff_t merge;
  std::ptrdiff_t insertion;
};

// ---------------------------------------------------------------------------
// Serial (and profiled-serial) recursion. The Prof hooks also mark every
// task-creation site so the profiled serial run counts potential tasks the
// way the paper's instrumented compiler did.
// ---------------------------------------------------------------------------

template <class Prof>
void merge_serial(Elm* low1, Elm* high1, Elm* low2, Elm* high2, Elm* lowdest,
                  const Thresholds& th) {
  if (high2 - low2 > high1 - low1) {
    std::swap(low1, low2);
    std::swap(high1, high2);
  }
  if (high2 < low2) {
    std::memcpy(lowdest, low1,
                static_cast<std::size_t>(high1 - low1 + 1) * sizeof(Elm));
    Prof::write_shared(static_cast<std::uint64_t>(high1 - low1 + 1));
    return;
  }
  if ((high2 - low2) + (high1 - low1) + 2 <= th.merge) {
    seqmerge<Prof>(low1, high1, low2, high2, lowdest);
    return;
  }
  Elm* split1 = low1 + (high1 - low1 + 1) / 2;
  Elm* split2 = binsplit<Prof>(*split1, low2, high2);
  const std::ptrdiff_t lowsize = (split1 - low1) + (split2 - low2);
  *(lowdest + lowsize + 1) = *split1;
  Prof::write_shared(1);
  Prof::task(5 * sizeof(Elm*));
  merge_serial<Prof>(low1, split1 - 1, low2, split2, lowdest, th);
  Prof::task(5 * sizeof(Elm*));
  merge_serial<Prof>(split1 + 1, high1, split2 + 1, high2,
                     lowdest + lowsize + 2, th);
  Prof::taskwait();
}

template <class Prof>
void sort_serial(Elm* low, Elm* tmp, std::ptrdiff_t size,
                 const Thresholds& th) {
  if (size < th.quick) {
    seqquick<Prof>(low, low + size - 1, th.insertion);
    return;
  }
  const std::ptrdiff_t quarter = size / 4;
  Elm* a = low;
  Elm* tmp_a = tmp;
  Elm* b = a + quarter;
  Elm* tmp_b = tmp_a + quarter;
  Elm* c = b + quarter;
  Elm* tmp_c = tmp_b + quarter;
  Elm* d = c + quarter;
  Elm* tmp_d = tmp_c + quarter;
  Prof::task(3 * sizeof(Elm*));
  sort_serial<Prof>(a, tmp_a, quarter, th);
  Prof::task(3 * sizeof(Elm*));
  sort_serial<Prof>(b, tmp_b, quarter, th);
  Prof::task(3 * sizeof(Elm*));
  sort_serial<Prof>(c, tmp_c, quarter, th);
  Prof::task(3 * sizeof(Elm*));
  sort_serial<Prof>(d, tmp_d, size - 3 * quarter, th);
  Prof::taskwait();
  Prof::task(5 * sizeof(Elm*));
  merge_serial<Prof>(a, a + quarter - 1, b, b + quarter - 1, tmp_a, th);
  Prof::task(5 * sizeof(Elm*));
  merge_serial<Prof>(c, c + quarter - 1, d, low + size - 1, tmp_c, th);
  Prof::taskwait();
  merge_serial<Prof>(tmp_a, tmp_c - 1, tmp_c, tmp + size - 1, a, th);
}

// ---------------------------------------------------------------------------
// Task-parallel recursion (tasks at splits and merges, Table I "At leafs").
// ---------------------------------------------------------------------------

struct TaskSort {
  Thresholds th;
  rt::Tiedness tied;
  /// SchedulerConfig::use_range_tasks: run each merge phase as ONE
  /// splittable range over merge-threshold-sized chunks of the
  /// destination (co-ranking locates each chunk's input subranges), so an
  /// uncontended merge costs one descriptor and halves split off only
  /// under thief demand. Off: the binsplit divide-and-conquer recursion
  /// below generates ~2 tasks per threshold chunk (the A/B baseline).
  bool use_range;

  /// Co-rank: how many elements of a[0..n1) precede output position k of
  /// the merged sequence, with a-before-b on ties — the same tie rule as
  /// seqmerge (*low1 <= *low2 takes from the first array), so chunked
  /// merges produce byte-identical output.
  static std::ptrdiff_t corank(std::ptrdiff_t k, const Elm* a,
                               std::ptrdiff_t n1, const Elm* b,
                               std::ptrdiff_t n2) {
    std::ptrdiff_t ilo = k - n2 > 0 ? k - n2 : 0;
    std::ptrdiff_t ihi = k < n1 ? k : n1;
    for (;;) {
      const std::ptrdiff_t i = ilo + (ihi - ilo) / 2;
      const std::ptrdiff_t j = k - i;
      if (i > 0 && j < n2 && a[i - 1] > b[j]) {
        ihi = i - 1;  // took an a element that belongs after b[j]
      } else if (j > 0 && i < n1 && b[j - 1] >= a[i]) {
        ilo = i + 1;  // a[i] precedes the last taken b (ties take a first)
      } else {
        return i;
      }
    }
  }

  /// Range-task merge: one splittable range over ceil(total/chunk) output
  /// chunks; each iteration co-ranks its chunk's boundaries and seqmerges
  /// the two input subranges straight into place.
  void merge_range(const Elm* a, std::ptrdiff_t n1, const Elm* b,
                   std::ptrdiff_t n2, Elm* dest) const {
    const std::ptrdiff_t total = n1 + n2;
    const std::ptrdiff_t chunk = th.merge > 1 ? th.merge : 1;
    const std::ptrdiff_t nchunks = (total + chunk - 1) / chunk;
    rt::spawn_range(
        tied, 0, nchunks, 1,
        [a, n1, b, n2, dest, chunk, total](std::int64_t c) {
          const std::ptrdiff_t k0 = c * chunk;
          const std::ptrdiff_t k1 = k0 + chunk < total ? k0 + chunk : total;
          const std::ptrdiff_t i0 = corank(k0, a, n1, b, n2);
          const std::ptrdiff_t i1 = corank(k1, a, n1, b, n2);
          const std::ptrdiff_t j0 = k0 - i0;
          const std::ptrdiff_t j1 = k1 - i1;
          // An empty subrange is a straight copy; it also keeps seqmerge's
          // inclusive bounds from forming a pointer before the array.
          if (i1 == i0) {
            std::memcpy(dest + k0, b + j0,
                        static_cast<std::size_t>(j1 - j0) * sizeof(Elm));
          } else if (j1 == j0) {
            std::memcpy(dest + k0, a + i0,
                        static_cast<std::size_t>(i1 - i0) * sizeof(Elm));
          } else {
            seqmerge<prof::NoProf>(a + i0, a + i1 - 1, b + j0, b + j1 - 1,
                                   dest + k0);
          }
        });
    rt::taskwait();
  }

  void merge(Elm* low1, Elm* high1, Elm* low2, Elm* high2,
             Elm* lowdest) const {
    if (high2 - low2 > high1 - low1) {
      std::swap(low1, low2);
      std::swap(high1, high2);
    }
    if (high2 < low2) {
      std::memcpy(lowdest, low1,
                  static_cast<std::size_t>(high1 - low1 + 1) * sizeof(Elm));
      return;
    }
    if ((high2 - low2) + (high1 - low1) + 2 <= th.merge) {
      seqmerge<prof::NoProf>(low1, high1, low2, high2, lowdest);
      return;
    }
    if (use_range) {
      merge_range(low1, high1 - low1 + 1, low2, high2 - low2 + 1, lowdest);
      return;
    }
    Elm* split1 = low1 + (high1 - low1 + 1) / 2;
    Elm* split2 = binsplit<prof::NoProf>(*split1, low2, high2);
    const std::ptrdiff_t lowsize = (split1 - low1) + (split2 - low2);
    *(lowdest + lowsize + 1) = *split1;
    rt::spawn(tied, [this, low1, split1, low2, split2, lowdest] {
      merge(low1, split1 - 1, low2, split2, lowdest);
    });
    rt::spawn(tied, [this, split1, high1, split2, high2, lowdest, lowsize] {
      merge(split1 + 1, high1, split2 + 1, high2, lowdest + lowsize + 2);
    });
    rt::taskwait();
  }

  void sort(Elm* low, Elm* tmp, std::ptrdiff_t size) const {
    if (size < th.quick) {
      seqquick<prof::NoProf>(low, low + size - 1, th.insertion);
      return;
    }
    const std::ptrdiff_t quarter = size / 4;
    Elm* a = low;
    Elm* tmp_a = tmp;
    Elm* b = a + quarter;
    Elm* tmp_b = tmp_a + quarter;
    Elm* c = b + quarter;
    Elm* tmp_c = tmp_b + quarter;
    Elm* d = c + quarter;
    Elm* tmp_d = tmp_c + quarter;
    rt::spawn(tied, [this, a, tmp_a, quarter] { sort(a, tmp_a, quarter); });
    rt::spawn(tied, [this, b, tmp_b, quarter] { sort(b, tmp_b, quarter); });
    rt::spawn(tied, [this, c, tmp_c, quarter] { sort(c, tmp_c, quarter); });
    rt::spawn(tied, [this, d, tmp_d, size, quarter] {
      sort(d, tmp_d, size - 3 * quarter);
    });
    rt::taskwait();
    rt::spawn(tied, [this, a, b, quarter, tmp_a] {
      merge(a, a + quarter - 1, b, b + quarter - 1, tmp_a);
    });
    rt::spawn(tied, [this, c, d, low, size, quarter, tmp_c] {
      merge(c, c + quarter - 1, d, low + size - 1, tmp_c);
    });
    rt::taskwait();
    merge(tmp_a, tmp_c - 1, tmp_c, tmp + size - 1, a);
  }
};

}  // namespace

Params params_for(core::InputClass c) {
  switch (c) {
    case core::InputClass::test: return {std::size_t{1} << 15, 0xB075u};
    case core::InputClass::small: return {std::size_t{1} << 22, 0xB075u};
    case core::InputClass::medium: return {std::size_t{1} << 24, 0xB075u};
    case core::InputClass::large: return {std::size_t{1} << 25, 0xB075u};
  }
  throw std::invalid_argument("sort: bad input class");
}

std::string describe(const Params& p) {
  return std::to_string(p.n) + " integers";
}

std::vector<Elm> make_input(const Params& p) {
  // A random permutation of 0..n-1 (the paper sorts "a random permutation
  // of n 32-bit numbers"): Fisher-Yates over the identity.
  std::vector<Elm> v(p.n);
  for (std::size_t i = 0; i < p.n; ++i) v[i] = static_cast<Elm>(i);
  core::Xoshiro256 rng(p.seed);
  for (std::size_t i = p.n - 1; i > 0; --i) {
    const std::size_t j = rng.next_below(i + 1);
    std::swap(v[i], v[j]);
  }
  return v;
}

void run_serial(const Params& p, std::vector<Elm>& data) {
  std::vector<Elm> tmp(data.size());
  const Thresholds th{static_cast<std::ptrdiff_t>(p.quick_threshold),
                      static_cast<std::ptrdiff_t>(p.merge_threshold),
                      static_cast<std::ptrdiff_t>(p.insertion_threshold)};
  sort_serial<prof::NoProf>(data.data(), tmp.data(),
                            static_cast<std::ptrdiff_t>(data.size()), th);
}

void run_parallel(const Params& p, std::vector<Elm>& data,
                  rt::Scheduler& sched, const VersionOpts& opts) {
  std::vector<Elm> tmp(data.size());
  TaskSort ts{{static_cast<std::ptrdiff_t>(p.quick_threshold),
               static_cast<std::ptrdiff_t>(p.merge_threshold),
               static_cast<std::ptrdiff_t>(p.insertion_threshold)},
              opts.tied,
              sched.config().use_range_tasks};
  sched.run_single([&] {
    ts.sort(data.data(), tmp.data(), static_cast<std::ptrdiff_t>(data.size()));
  });
}

bool verify(const Params& p, const std::vector<Elm>& sorted) {
  if (sorted.size() != p.n) return false;
  if (!std::is_sorted(sorted.begin(), sorted.end())) return false;
  // The input was a permutation of 0..n-1, so sorted[i] must equal i.
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    if (sorted[i] != static_cast<Elm>(i)) return false;
  }
  return true;
}

prof::TableRow profile_row(core::InputClass c) {
  const Params p = params_for(c);
  std::vector<Elm> data = make_input(p);
  std::vector<Elm> tmp(data.size());
  const Thresholds th{static_cast<std::ptrdiff_t>(p.quick_threshold),
                      static_cast<std::ptrdiff_t>(p.merge_threshold),
                      static_cast<std::ptrdiff_t>(p.insertion_threshold)};
  prof::CountingProf::reset();
  core::Timer timer;
  sort_serial<prof::CountingProf>(data.data(), tmp.data(),
                                  static_cast<std::ptrdiff_t>(data.size()), th);
  const double secs = timer.seconds();
  if (!verify(p, data)) throw std::logic_error("sort profile run mis-verified");
  const std::uint64_t mem = 2ull * p.n * sizeof(Elm);
  return prof::make_row("sort", describe(p), secs, mem,
                        prof::CountingProf::totals());
}

core::AppInfo make_app_info() {
  core::AppInfo app;
  app.name = "sort";
  app.origin = "Cilk";
  app.domain = "Integer sorting";
  app.structure = "At leafs";
  app.task_directives = 9;
  app.tasks_inside = "single";
  app.nested_tasks = true;
  app.app_cutoff = "none";
  app.versions = {
      {"tied", rt::Tiedness::tied, core::AppCutoff::none,
       core::Generator::single_gen, false},
      {"untied", rt::Tiedness::untied, core::AppCutoff::none,
       core::Generator::single_gen, true},
  };
  app.run = [](core::InputClass ic, const std::string& version,
               rt::Scheduler& sched, bool verify_run) {
    const core::AppInfo& self = *core::find_app("sort");
    const core::VersionInfo* v = self.find_version(version);
    if (v == nullptr) throw std::invalid_argument("sort: unknown version " + version);
    const Params p = params_for(ic);
    std::vector<Elm> data = make_input(p);
    VersionOpts opts{v->tied};
    return core::run_and_report(
        "sort", version, ic, sched, verify_run,
        [&] { run_parallel(p, data, sched, opts); },
        [&] { return verify(p, data); });
  };
  app.run_serial = [](core::InputClass ic) {
    const Params p = params_for(ic);
    std::vector<Elm> data = make_input(p);
    return core::run_serial_and_report(
        "sort", ic, true, [&] { run_serial(p, data); },
        [&] { return verify(p, data); });
  };
  app.profile_row = [](core::InputClass ic) { return profile_row(ic); };
  app.describe_input = [](core::InputClass ic) {
    return describe(params_for(ic));
  };
  return app;
}

}  // namespace bots::sort
