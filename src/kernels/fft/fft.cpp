#include "kernels/fft/fft.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "core/kernel_glue.hpp"
#include "core/rng.hpp"
#include "runtime/worksharing.hpp"

namespace bots::fft {

namespace {

/// Twiddle factors for the full transform: w[k] = exp(-2*pi*i*k / N),
/// k < N/2. A sub-transform of size m at stride s = N/m uses w[j*s].
struct Twiddles {
  explicit Twiddles(std::size_t n) : size(n), w(n / 2) {
    for (std::size_t k = 0; k < n / 2; ++k) {
      const double ang = -2.0 * std::numbers::pi * static_cast<double>(k) /
                         static_cast<double>(n);
      w[k] = Complex(std::cos(ang), std::sin(ang));
    }
  }
  std::size_t size;
  std::vector<Complex> w;
};

std::size_t bit_reverse(std::size_t x, int bits) {
  std::size_t r = 0;
  for (int i = 0; i < bits; ++i) {
    r = (r << 1) | (x & 1);
    x >>= 1;
  }
  return r;
}

/// Iterative in-place base case (the leaf kernel).
template <class Prof>
void leaf_fft(Complex* a, std::size_t m, std::size_t stride,
              const Twiddles& tw) {
  int bits = 0;
  while ((std::size_t{1} << bits) < m) ++bits;
  for (std::size_t i = 0; i < m; ++i) {
    const std::size_t j = bit_reverse(i, bits);
    if (i < j) {
      std::swap(a[i], a[j]);
      Prof::write_private(2);
    }
  }
  for (std::size_t len = 2; len <= m; len <<= 1) {
    const std::size_t half = len / 2;
    const std::size_t wstep = (tw.size / len);
    for (std::size_t i = 0; i < m; i += len) {
      for (std::size_t j = 0; j < half; ++j) {
        const Complex t = tw.w[j * wstep] * a[i + j + half];
        a[i + j + half] = a[i + j] - t;
        a[i + j] = a[i + j] + t;
        Prof::ops(10);  // complex multiply (6) + two complex adds (4)
        Prof::write_private(2);
      }
    }
  }
  (void)stride;
}

// ---------------------------------------------------------------------------
// Serial recursion (Prof marks the task sites the parallel version creates).
// ---------------------------------------------------------------------------

template <class Prof>
void fft_serial_rec(Complex* a, Complex* scratch, std::size_t n,
                    std::size_t stride, const Twiddles& tw, bool top,
                    std::size_t leaf, std::size_t chunk) {
  if (n <= leaf) {
    leaf_fft<Prof>(a, n, stride, tw);
    return;
  }
  const std::size_t half = n / 2;
  for (std::size_t off = 0; off < half; off += chunk) {
    Prof::task(4 * sizeof(void*));  // deinterleave chunk task
    const std::size_t end = off + chunk < half ? off + chunk : half;
    for (std::size_t i = off; i < end; ++i) {
      scratch[i] = a[2 * i];
      scratch[i + half] = a[2 * i + 1];
      Prof::write_private(2);
    }
  }
  Prof::taskwait();
  Prof::task(6 * sizeof(void*));
  fft_serial_rec<Prof>(scratch, a, half, stride * 2, tw, false, leaf, chunk);
  Prof::task(6 * sizeof(void*));
  fft_serial_rec<Prof>(scratch + half, a + half, half, stride * 2, tw, false,
                       leaf, chunk);
  Prof::taskwait();
  for (std::size_t off = 0; off < half; off += chunk) {
    Prof::task(4 * sizeof(void*));  // combine chunk task
    const std::size_t end = off + chunk < half ? off + chunk : half;
    for (std::size_t k = off; k < end; ++k) {
      const Complex t = tw.w[k * stride] * scratch[k + half];
      a[k] = scratch[k] + t;
      a[k + half] = scratch[k] - t;
      Prof::ops(10);
      // Only the writes into the caller-visible output array count as
      // non-private in the paper's classification; scratch traffic is
      // task-private working set.
      if (top) {
        Prof::write_shared(2);
      } else {
        Prof::write_private(2);
      }
    }
  }
  Prof::taskwait();
}

// ---------------------------------------------------------------------------
// Task-parallel recursion.
// ---------------------------------------------------------------------------

struct TaskFft {
  const Twiddles* tw;
  std::size_t leaf;
  std::size_t chunk;
  rt::Tiedness tied;
  /// SchedulerConfig::use_range_tasks: express each butterfly data-motion
  /// loop (deinterleave, combine) as ONE splittable range instead of one
  /// task per chunk — `chunk` becomes the range's grain, so an
  /// uncontended worker runs the loop out of a single descriptor and
  /// halves only split off when thieves are hungry. Off: the per-chunk
  /// task generation above stays as the A/B baseline.
  bool use_range;

  void transform(Complex* a, Complex* scratch, std::size_t n,
                 std::size_t stride) const {
    if (n <= leaf) {
      leaf_fft<prof::NoProf>(a, n, stride, *tw);
      return;
    }
    const std::size_t half = n / 2;
    if (use_range) {
      rt::spawn_range(tied, 0, static_cast<std::int64_t>(half),
                      static_cast<std::int64_t>(chunk),
                      [a, scratch, half](std::int64_t i) {
                        scratch[i] = a[2 * i];
                        scratch[i + half] = a[2 * i + 1];
                      });
    } else {
      for (std::size_t off = 0; off < half; off += chunk) {
        const std::size_t end = off + chunk < half ? off + chunk : half;
        rt::spawn(tied, [a, scratch, off, end, half] {
          for (std::size_t i = off; i < end; ++i) {
            scratch[i] = a[2 * i];
            scratch[i + half] = a[2 * i + 1];
          }
        });
      }
    }
    rt::taskwait();
    rt::spawn(tied, [this, scratch, a, half, stride] {
      transform(scratch, a, half, stride * 2);
    });
    rt::spawn(tied, [this, scratch, a, half, stride] {
      transform(scratch + half, a + half, half, stride * 2);
    });
    rt::taskwait();
    const Twiddles& twr = *tw;
    if (use_range) {
      rt::spawn_range(tied, 0, static_cast<std::int64_t>(half),
                      static_cast<std::int64_t>(chunk),
                      [a, scratch, half, stride, &twr](std::int64_t k) {
                        const Complex t = twr.w[static_cast<std::size_t>(k) *
                                                stride] *
                                          scratch[k + half];
                        a[k] = scratch[k] + t;
                        a[k + half] = scratch[k] - t;
                      });
    } else {
      for (std::size_t off = 0; off < half; off += chunk) {
        const std::size_t end = off + chunk < half ? off + chunk : half;
        rt::spawn(tied, [a, scratch, off, end, half, stride, &twr] {
          for (std::size_t k = off; k < end; ++k) {
            const Complex t = twr.w[k * stride] * scratch[k + half];
            a[k] = scratch[k] + t;
            a[k + half] = scratch[k] - t;
          }
        });
      }
    }
    rt::taskwait();
  }
};

std::vector<Complex> direct_dft(const std::vector<Complex>& x) {
  const std::size_t n = x.size();
  std::vector<Complex> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    Complex acc{0.0, 0.0};
    for (std::size_t j = 0; j < n; ++j) {
      const double ang = -2.0 * std::numbers::pi * static_cast<double>(k * j) /
                         static_cast<double>(n);
      acc += x[j] * Complex(std::cos(ang), std::sin(ang));
    }
    out[k] = acc;
  }
  return out;
}

}  // namespace

Params params_for(core::InputClass c) {
  switch (c) {
    case core::InputClass::test: return {std::size_t{1} << 12, 0xFF7u};
    case core::InputClass::small: return {std::size_t{1} << 20, 0xFF7u};
    case core::InputClass::medium: return {std::size_t{1} << 22, 0xFF7u};
    case core::InputClass::large: return {std::size_t{1} << 24, 0xFF7u};
  }
  throw std::invalid_argument("fft: bad input class");
}

std::string describe(const Params& p) {
  return std::to_string(p.n) + " complex values";
}

std::vector<Complex> make_input(const Params& p) {
  std::vector<Complex> v(p.n);
  core::Xoshiro256 rng(p.seed);
  for (auto& z : v) {
    z = Complex(2.0 * rng.next_double() - 1.0, 2.0 * rng.next_double() - 1.0);
  }
  return v;
}

void run_serial(const Params& p, std::vector<Complex>& data) {
  const Twiddles tw(p.n);
  std::vector<Complex> scratch(p.n);
  fft_serial_rec<prof::NoProf>(data.data(), scratch.data(), p.n, 1, tw, true,
                               p.leaf, p.loop_chunk);
}

void run_parallel(const Params& p, std::vector<Complex>& data,
                  rt::Scheduler& sched, const VersionOpts& opts) {
  const Twiddles tw(p.n);
  std::vector<Complex> scratch(p.n);
  TaskFft tf{&tw, p.leaf, p.loop_chunk, opts.tied,
             sched.config().use_range_tasks};
  sched.run_single([&] { tf.transform(data.data(), scratch.data(), p.n, 1); });
}

bool verify(const Params& p, const std::vector<Complex>& input,
            const std::vector<Complex>& output) {
  if (input.size() != p.n || output.size() != p.n) return false;
  if (p.n <= (std::size_t{1} << 12)) {
    const std::vector<Complex> ref = direct_dft(input);
    double max_err = 0.0;
    double scale = 0.0;
    for (std::size_t i = 0; i < p.n; ++i) {
      max_err = std::max(max_err, std::abs(ref[i] - output[i]));
      scale = std::max(scale, std::abs(ref[i]));
    }
    return max_err <= 1e-9 * std::max(1.0, scale);
  }
  // Large transforms: Parseval + inverse round trip (via conjugation).
  double in_energy = 0.0;
  double out_energy = 0.0;
  for (std::size_t i = 0; i < p.n; ++i) in_energy += std::norm(input[i]);
  for (std::size_t i = 0; i < p.n; ++i) out_energy += std::norm(output[i]);
  const double parseval =
      std::abs(out_energy / static_cast<double>(p.n) - in_energy) /
      std::max(1.0, in_energy);
  if (parseval > 1e-9) return false;

  std::vector<Complex> back(p.n);
  for (std::size_t i = 0; i < p.n; ++i) back[i] = std::conj(output[i]);
  Params q = p;
  run_serial(q, back);
  double max_err = 0.0;
  for (std::size_t i = 0; i < p.n; ++i) {
    const Complex rec = std::conj(back[i]) / static_cast<double>(p.n);
    max_err = std::max(max_err, std::abs(rec - input[i]));
  }
  return max_err <= 1e-9;
}

prof::TableRow profile_row(core::InputClass c) {
  const Params p = params_for(c);
  std::vector<Complex> data = make_input(p);
  const std::vector<Complex> input = data;
  const Twiddles tw(p.n);
  std::vector<Complex> scratch(p.n);
  prof::CountingProf::reset();
  core::Timer timer;
  fft_serial_rec<prof::CountingProf>(data.data(), scratch.data(), p.n, 1, tw,
                                     true, p.leaf, p.loop_chunk);
  const double secs = timer.seconds();
  if (!verify(p, input, data)) {
    throw std::logic_error("fft profile run mis-verified");
  }
  const std::uint64_t mem = 3ull * p.n * sizeof(Complex);  // data+scratch+tw
  return prof::make_row("fft", describe(p), secs, mem,
                        prof::CountingProf::totals());
}

core::AppInfo make_app_info() {
  core::AppInfo app;
  app.name = "fft";
  app.origin = "Cilk";
  app.domain = "Spectral method";
  app.structure = "At leafs";
  app.task_directives = 41;
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
    const core::AppInfo& self = *core::find_app("fft");
    const core::VersionInfo* v = self.find_version(version);
    if (v == nullptr) throw std::invalid_argument("fft: unknown version " + version);
    const Params p = params_for(ic);
    std::vector<Complex> data = make_input(p);
    const std::vector<Complex> input = verify_run ? data : std::vector<Complex>{};
    VersionOpts opts{v->tied};
    return core::run_and_report(
        "fft", version, ic, sched, verify_run,
        [&] { run_parallel(p, data, sched, opts); },
        [&] { return verify(p, input, data); });
  };
  app.run_serial = [](core::InputClass ic) {
    const Params p = params_for(ic);
    std::vector<Complex> data = make_input(p);
    const std::vector<Complex> input = data;
    return core::run_serial_and_report(
        "fft", ic, true, [&] { run_serial(p, data); },
        [&] { return verify(p, input, data); });
  };
  app.profile_row = [](core::InputClass ic) { return profile_row(ic); };
  app.describe_input = [](core::InputClass ic) {
    return describe(params_for(ic));
  };
  return app;
}

}  // namespace bots::fft
