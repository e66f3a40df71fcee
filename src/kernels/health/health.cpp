#include "kernels/health/health.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/kernel_glue.hpp"
#include "core/rng.hpp"
#include "runtime/worksharing.hpp"

namespace bots::health {

namespace {

struct Village;

struct Patient {
  std::uint64_t id = 0;
  int time = 0;            ///< time spent in hospitals so far
  int time_left = 0;       ///< remaining time in the current phase
  int hosps_visited = 0;
  Patient* next = nullptr;
  Patient* prev = nullptr;
};

/// Intrusive doubly-linked patient list (the paper's "double-linked lists").
class PatientList {
 public:
  [[nodiscard]] Patient* head() const noexcept { return head_; }
  [[nodiscard]] bool empty() const noexcept { return head_ == nullptr; }

  void push_back(Patient* p) noexcept {
    p->next = nullptr;
    p->prev = tail_;
    if (tail_ != nullptr) {
      tail_->next = p;
    } else {
      head_ = p;
    }
    tail_ = p;
  }

  void remove(Patient* p) noexcept {
    if (p->prev != nullptr) {
      p->prev->next = p->next;
    } else {
      head_ = p->next;
    }
    if (p->next != nullptr) {
      p->next->prev = p->prev;
    } else {
      tail_ = p->prev;
    }
    p->next = nullptr;
    p->prev = nullptr;
  }

  [[nodiscard]] std::uint64_t size() const noexcept {
    std::uint64_t n = 0;
    for (Patient* p = head_; p != nullptr; p = p->next) ++n;
    return n;
  }

 private:
  Patient* head_ = nullptr;
  Patient* tail_ = nullptr;
};

struct Hospital {
  int personnel = 0;
  int free_personnel = 0;
  PatientList waiting;
  PatientList assess;
  PatientList inside;
  PatientList realloc;
  std::mutex realloc_mutex;  ///< sibling tasks push reallocations up here
};

struct Village {
  int id = 0;
  int level = 1;  ///< leaves are level 1
  std::uint64_t seed = 0;
  Village* parent = nullptr;
  std::vector<std::unique_ptr<Village>> children;
  PatientList population;
  Hospital hosp;
  std::vector<std::unique_ptr<Patient>> patient_storage;
};

/// Deterministic per-village LCG (the paper's one-seed-per-village device).
int draw(std::uint64_t& seed) noexcept {
  seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
  return static_cast<int>((seed >> 33) % 10000);
}

struct Builder {
  const Params* p;
  int next_village_id = 0;
  std::uint64_t next_patient_id = 1;

  std::unique_ptr<Village> build(int level, Village* parent) {
    auto v = std::make_unique<Village>();
    v->id = next_village_id++;
    v->level = level;
    v->parent = parent;
    std::uint64_t sm = p->seed + static_cast<std::uint64_t>(v->id);
    v->seed = core::splitmix64(sm);  // one independent seed per village
    v->hosp.personnel = level * 2;
    v->hosp.free_personnel = v->hosp.personnel;
    for (int i = 0; i < p->population; ++i) {
      auto pat = std::make_unique<Patient>();
      pat->id = next_patient_id++;
      v->population.push_back(pat.get());
      v->patient_storage.push_back(std::move(pat));
    }
    if (level > 1) {
      v->children.reserve(static_cast<std::size_t>(p->branch));
      for (int c = 0; c < p->branch; ++c) {
        v->children.push_back(build(level - 1, v.get()));
      }
    }
    return v;
  }
};

// ---------------------------------------------------------------------------
// One simulation step for a single village (serial within the village; this
// is the body executed by one task).
// ---------------------------------------------------------------------------

template <class Prof>
void check_patients_inside(Village& v) {
  Patient* p = v.hosp.inside.head();
  while (p != nullptr) {
    Patient* next = p->next;
    --p->time_left;
    Prof::ops(1);
    Prof::write_shared(1);
    if (p->time_left == 0) {
      ++v.hosp.free_personnel;
      v.hosp.inside.remove(p);
      v.population.push_back(p);
      Prof::write_shared(4);
    }
    p = next;
  }
}

template <class Prof>
void check_patients_assess(const Params& prm, Village& v) {
  Patient* p = v.hosp.assess.head();
  while (p != nullptr) {
    Patient* next = p->next;
    --p->time_left;
    Prof::ops(1);
    Prof::write_shared(1);
    if (p->time_left == 0) {
      const int r = draw(v.seed);
      Prof::ops(4);
      if (r < prm.p_cured) {
        // Cured: release personnel, back to the healthy population.
        ++v.hosp.free_personnel;
        v.hosp.assess.remove(p);
        v.population.push_back(p);
        Prof::write_shared(4);
      } else if (r < prm.p_cured + prm.p_treatment || v.parent == nullptr) {
        // Admitted for treatment here.
        p->time_left = prm.treatment_time;
        p->time += prm.treatment_time;
        v.hosp.assess.remove(p);
        v.hosp.inside.push_back(p);
        Prof::write_shared(5);
      } else {
        // Referred to the upper-level hospital.
        ++v.hosp.free_personnel;
        v.hosp.assess.remove(p);
        Hospital& up = v.parent->hosp;
        {
          std::lock_guard<std::mutex> lock(up.realloc_mutex);
          up.realloc.push_back(p);
        }
        Prof::write_shared(5);
      }
    }
    p = next;
  }
}

template <class Prof>
void put_in_hosp(const Params& prm, Village& v, Patient* p) {
  ++p->hosps_visited;
  Prof::write_shared(1);
  if (v.hosp.free_personnel > 0) {
    --v.hosp.free_personnel;
    p->time_left = prm.assess_time;
    p->time += prm.assess_time;
    v.hosp.assess.push_back(p);
    Prof::write_shared(4);
  } else {
    p->time_left = 0;
    v.hosp.waiting.push_back(p);
    Prof::write_shared(2);
  }
}

template <class Prof>
void check_patients_waiting(const Params& prm, Village& v) {
  Patient* p = v.hosp.waiting.head();
  while (p != nullptr) {
    Patient* next = p->next;
    if (v.hosp.free_personnel > 0) {
      --v.hosp.free_personnel;
      p->time_left = prm.assess_time;
      p->time += prm.assess_time;
      v.hosp.waiting.remove(p);
      v.hosp.assess.push_back(p);
      Prof::write_shared(5);
    } else {
      ++p->time;
      Prof::write_shared(1);
    }
    Prof::ops(1);
    p = next;
  }
}

/// Admit reallocated patients in ascending id order: arrival order into the
/// realloc list depends on sibling task completion order, so a deterministic
/// admission order is what keeps the simulation schedule-independent.
template <class Prof>
void check_patients_realloc(const Params& prm, Village& v) {
  while (!v.hosp.realloc.empty()) {
    Patient* min_p = v.hosp.realloc.head();
    for (Patient* p = min_p->next; p != nullptr; p = p->next) {
      Prof::ops(1);
      if (p->id < min_p->id) min_p = p;
    }
    v.hosp.realloc.remove(min_p);
    put_in_hosp<Prof>(prm, v, min_p);
  }
}

template <class Prof>
void check_patients_population(const Params& prm, Village& v) {
  Patient* p = v.population.head();
  while (p != nullptr) {
    Patient* next = p->next;
    const int r = draw(v.seed);
    Prof::ops(4);
    if (r < prm.p_sick) {
      v.population.remove(p);
      put_in_hosp<Prof>(prm, v, p);
      Prof::write_shared(2);
    }
    p = next;
  }
}

/// The per-village, per-step body (everything except child recursion).
template <class Prof>
void sim_village_local(const Params& prm, Village& v) {
  check_patients_inside<Prof>(v);
  check_patients_assess<Prof>(prm, v);
  check_patients_waiting<Prof>(prm, v);
  check_patients_realloc<Prof>(prm, v);
  check_patients_population<Prof>(prm, v);
}

template <class Prof>
void sim_village_serial(const Params& prm, Village& v, bool mark_task_sites) {
  for (auto& child : v.children) {
    if (mark_task_sites) Prof::task(sizeof(void*));
    sim_village_serial<Prof>(prm, *child, mark_task_sites);
  }
  if (mark_task_sites) Prof::taskwait();
  sim_village_local<Prof>(prm, v);
}

struct TaskSim {
  const Params* prm;
  rt::Tiedness tied;
  core::AppCutoff cutoff;

  void simulate(Village& v) const {
    for (auto& child : v.children) {
      Village* c = child.get();
      switch (cutoff) {
        case core::AppCutoff::none:
          rt::spawn(tied, [this, c] { simulate(*c); });
          break;
        case core::AppCutoff::if_clause:
          rt::spawn_if(c->level > prm->cutoff_level, tied,
                       [this, c] { simulate(*c); });
          break;
        case core::AppCutoff::manual:
          if (c->level > prm->cutoff_level) {
            rt::spawn(tied, [this, c] { simulate(*c); });
          } else {
            sim_village_serial<prof::NoProf>(*prm, *c, false);
          }
          break;
      }
    }
    // Lower levels must be fully simulated before this village admits the
    // patients they reallocated upward (paper: "Once the lower levels have
    // been simulated synchronization occurs").
    rt::taskwait();
    sim_village_local<prof::NoProf>(*prm, v);
  }
};

/// Group villages by level (leaves = 1 ... root = p.levels), build order
/// within a level. Any order that simulates a whole level before the next
/// level up is equivalent to the recursion's children-before-parent
/// taskwaits: villages interact only by pushing reallocated patients into
/// their parent's mutex-protected list, and the parent admits them in
/// ascending patient-id order, so same-level ordering cannot leak into the
/// simulation (the paper's determinism device).
void collect_levels(Village* v, std::vector<std::vector<Village*>>& levels) {
  levels[static_cast<std::size_t>(v->level)].push_back(v);
  for (auto& c : v->children) collect_levels(c.get(), levels);
}

void collect(const Village& v, Stats& s) {
  s.population += v.population.size();
  s.waiting += v.hosp.waiting.size();
  s.assess += v.hosp.assess.size();
  s.inside += v.hosp.inside.size();
  for (const auto& pat : v.patient_storage) {
    s.total_time += static_cast<std::uint64_t>(pat->time);
    s.total_hosps_visited += static_cast<std::uint64_t>(pat->hosps_visited);
  }
  for (const auto& c : v.children) collect(*c, s);
}

std::uint64_t count_villages(int levels, int branch) {
  std::uint64_t total = 0;
  std::uint64_t layer = 1;
  for (int l = 0; l < levels; ++l) {
    total += layer;
    layer *= static_cast<std::uint64_t>(branch);
  }
  return total;
}

}  // namespace

Params params_for(core::InputClass c) {
  Params p;
  switch (c) {
    case core::InputClass::test:
      p.levels = 3;
      p.branch = 4;
      p.population = 8;
      p.sim_steps = 30;
      p.cutoff_level = 1;
      return p;
    case core::InputClass::small:
      p.levels = 5;
      p.branch = 6;
      p.population = 20;
      p.sim_steps = 100;
      p.cutoff_level = 2;
      return p;
    case core::InputClass::medium:
      p.levels = 5;
      p.branch = 8;
      p.population = 40;
      p.sim_steps = 300;
      p.cutoff_level = 2;
      return p;
    case core::InputClass::large:
      p.levels = 6;
      p.branch = 6;
      p.population = 30;
      p.sim_steps = 250;
      p.cutoff_level = 3;
      return p;
  }
  throw std::invalid_argument("health: bad input class");
}

std::string describe(const Params& p) {
  return std::to_string(p.levels) + " levels with " + std::to_string(p.branch) +
         "-way branching";
}

Stats run_serial(const Params& p) {
  Builder b{&p, 0, 1};
  auto root = b.build(p.levels, nullptr);
  for (int step = 0; step < p.sim_steps; ++step) {
    sim_village_serial<prof::NoProf>(p, *root, false);
  }
  Stats s;
  collect(*root, s);
  return s;
}

Stats run_parallel(const Params& p, rt::Scheduler& sched,
                   const VersionOpts& opts) {
  Builder b{&p, 0, 1};
  auto root = b.build(p.levels, nullptr);
  if (opts.generator == core::Generator::multiple_gen) {
    // `for` version: level-ordered sweep, barriers between levels (see
    // VersionOpts::generator for the equivalence argument).
    std::vector<std::vector<Village*>> levels(
        static_cast<std::size_t>(p.levels) + 1);
    collect_levels(root.get(), levels);
    const bool ranges = sched.config().use_range_tasks;
    const rt::Tiedness tied = opts.tied;
    const Params* prm = &p;
    rt::SingleGate gate(sched.num_workers());
    sched.run_all([&](unsigned) {
      for (int step = 0; step < p.sim_steps; ++step) {
        for (int l = 1; l <= p.levels; ++l) {
          auto& vs = levels[static_cast<std::size_t>(l)];
          const auto n = static_cast<std::int64_t>(vs.size());
          if (ranges) {
            rt::single_nowait(gate, [&] {
              Village** vptr = vs.data();
              rt::spawn_range(tied, 0, n, 1,
                              [vptr, prm](std::int64_t idx) {
                                sim_village_local<prof::NoProf>(*prm,
                                                               *vptr[idx]);
                              });
            });
          } else {
            rt::for_static(0, n, [&](std::int64_t idx) {
              Village* v = vs[static_cast<std::size_t>(idx)];
              rt::spawn(tied, [v, prm] {
                sim_village_local<prof::NoProf>(*prm, *v);
              });
            });
          }
          rt::barrier();  // a level's tasks (and splits) complete before the next
        }
      }
    });
    Stats s;
    collect(*root, s);
    return s;
  }
  TaskSim sim{&p, opts.tied, opts.cutoff};
  sched.run_single([&] {
    for (int step = 0; step < p.sim_steps; ++step) {
      sim.simulate(*root);
    }
  });
  Stats s;
  collect(*root, s);
  return s;
}

bool verify(const Params& p, const Stats& result) {
  return result == run_serial(p);
}

prof::TableRow profile_row(core::InputClass c) {
  const Params p = params_for(c);
  Builder b{&p, 0, 1};
  auto root = b.build(p.levels, nullptr);
  prof::CountingProf::reset();
  core::Timer timer;
  for (int step = 0; step < p.sim_steps; ++step) {
    sim_village_serial<prof::CountingProf>(p, *root, true);
  }
  const double secs = timer.seconds();
  Stats s;
  collect(*root, s);
  if (!(s == run_serial(p))) {
    throw std::logic_error("health profile run mis-verified");
  }
  const std::uint64_t villages = count_villages(p.levels, p.branch);
  const std::uint64_t mem =
      villages * (sizeof(Village) +
                  static_cast<std::uint64_t>(p.population) * sizeof(Patient));
  return prof::make_row("health", describe(p), secs, mem,
                        prof::CountingProf::totals());
}

core::AppInfo make_app_info() {
  core::AppInfo app;
  app.name = "health";
  app.origin = "Olden";
  app.domain = "Simulation";
  app.structure = "At each node";
  app.task_directives = 1;
  app.tasks_inside = "single";
  app.nested_tasks = true;
  app.app_cutoff = "depth-based";
  app.versions = {
      {"tied", rt::Tiedness::tied, core::AppCutoff::none,
       core::Generator::single_gen, false},
      {"untied", rt::Tiedness::untied, core::AppCutoff::none,
       core::Generator::single_gen, false},
      {"if-tied", rt::Tiedness::tied, core::AppCutoff::if_clause,
       core::Generator::single_gen, false},
      {"if-untied", rt::Tiedness::untied, core::AppCutoff::if_clause,
       core::Generator::single_gen, false},
      {"manual-tied", rt::Tiedness::tied, core::AppCutoff::manual,
       core::Generator::single_gen, true},
      {"manual-untied", rt::Tiedness::untied, core::AppCutoff::manual,
       core::Generator::single_gen, false},
      {"for-tied", rt::Tiedness::tied, core::AppCutoff::none,
       core::Generator::multiple_gen, false},
      {"for-untied", rt::Tiedness::untied, core::AppCutoff::none,
       core::Generator::multiple_gen, false},
  };
  app.run = [](core::InputClass ic, const std::string& version,
               rt::Scheduler& sched, bool verify_run) {
    const core::AppInfo& self = *core::find_app("health");
    const core::VersionInfo* v = self.find_version(version);
    if (v == nullptr) {
      throw std::invalid_argument("health: unknown version " + version);
    }
    const Params p = params_for(ic);
    VersionOpts opts{v->tied, v->cutoff, v->generator};
    Stats result;
    return core::run_and_report(
        "health", version, ic, sched, verify_run,
        [&] { result = run_parallel(p, sched, opts); },
        [&] { return verify(p, result); });
  };
  app.run_serial = [](core::InputClass ic) {
    const Params p = params_for(ic);
    Stats result;
    return core::run_serial_and_report(
        "health", ic, true, [&] { result = run_serial(p); },
        [&] { return verify(p, result); });
  };
  app.profile_row = [](core::InputClass ic) { return profile_row(ic); };
  app.describe_input = [](core::InputClass ic) {
    return describe(params_for(ic));
  };
  return app;
}

}  // namespace bots::health
