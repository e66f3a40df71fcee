// Alignment kernel tests: DP scoring properties, pair bookkeeping,
// worksharing-generator parallel version.
#include <gtest/gtest.h>

#include "kernels/alignment/alignment.hpp"

namespace al = bots::alignment;
namespace rt = bots::rt;
namespace core = bots::core;

namespace {

al::Params tiny() {
  al::Params p;
  p.nseq = 8;
  p.len_min = 30;
  p.len_max = 60;
  return p;
}

TEST(Alignment, WeightMatrixIsSymmetricWithPositiveDiagonal) {
  const auto& w = al::weight_matrix();
  for (int i = 0; i < 20; ++i) {
    EXPECT_GT(w[i][i], 0);
    for (int j = 0; j < 20; ++j) {
      EXPECT_EQ(w[i][j], w[j][i]);
    }
  }
}

TEST(Alignment, SelfAlignmentScoresFullDiagonal) {
  const al::Params p = tiny();
  const auto seqs = al::make_input(p);
  const auto& w = al::weight_matrix();
  for (const auto& s : seqs) {
    int expect = 0;
    for (auto r : s) expect += w[r][r];
    EXPECT_EQ(al::pair_score(s, s, p), expect);
  }
}

TEST(Alignment, ScoreIsSymmetric) {
  const al::Params p = tiny();
  const auto seqs = al::make_input(p);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = i + 1; j < 5; ++j) {
      EXPECT_EQ(al::pair_score(seqs[i], seqs[j], p),
                al::pair_score(seqs[j], seqs[i], p));
    }
  }
}

TEST(Alignment, GapPenaltyForLengthMismatch) {
  al::Params p = tiny();
  // One residue vs k identical residues: best = match + gap of (k-1).
  const al::Sequence a{0};
  const al::Sequence b{0, 0, 0, 0};
  const auto& w = al::weight_matrix();
  const int expect = w[0][0] - (p.gap_open + 2 * p.gap_extend);
  EXPECT_EQ(al::pair_score(a, b, p), expect);
}

TEST(Alignment, AffineGapPrefersOneLongGap) {
  // Affine penalties make one gap of length 4 cheaper than two of length 2:
  // score(one long gap) = -(open + 3*ext) > -(2*open + 2*ext) for open > ext.
  al::Params p = tiny();
  EXPECT_GT(-(p.gap_open + 3 * p.gap_extend),
            -(2 * p.gap_open + 2 * p.gap_extend));
}

TEST(Alignment, EmptySequenceCostsAllGaps) {
  al::Params p = tiny();
  const al::Sequence a{};
  const al::Sequence b{1, 2, 3};
  const int expect = -(p.gap_open + 2 * p.gap_extend);
  EXPECT_EQ(al::pair_score(a, b, p), expect);
}

TEST(Alignment, SerialScoresAllPairs) {
  const al::Params p = tiny();
  const auto seqs = al::make_input(p);
  const auto scores = al::run_serial(p, seqs);
  EXPECT_EQ(scores.size(), 28u);  // C(8,2)
  EXPECT_TRUE(al::verify(p, seqs, scores));
}

class AlignmentThreads : public ::testing::TestWithParam<unsigned> {};

TEST_P(AlignmentThreads, ParallelMatchesSerialExactly) {
  al::Params p = tiny();
  p.nseq = 20;
  const auto seqs = al::make_input(p);
  const auto serial = al::run_serial(p, seqs);
  rt::Scheduler sched(rt::SchedulerConfig{.num_threads = GetParam()});
  for (auto tied : {rt::Tiedness::tied, rt::Tiedness::untied}) {
    const auto parallel = al::run_parallel(p, seqs, sched, {tied});
    EXPECT_EQ(parallel, serial);
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, AlignmentThreads,
                         ::testing::Values(1u, 2u, 8u),
                         [](const auto& info) {
                           return "t" + std::to_string(info.param);
                         });

TEST(Alignment, VerifyCatchesCorruptedScore) {
  const al::Params p = tiny();
  const auto seqs = al::make_input(p);
  auto scores = al::run_serial(p, seqs);
  scores[3] += 1;
  EXPECT_FALSE(al::verify(p, seqs, scores));
}

TEST(Alignment, TasksAreCreatedPerPair) {
  // The paper's per-pair generation scheme, kept behind use_range_tasks=false
  // as the ablation baseline.
  al::Params p = tiny();
  p.nseq = 12;
  const auto seqs = al::make_input(p);
  rt::SchedulerConfig cfg{.num_threads = 4};
  cfg.use_range_tasks = false;
  rt::Scheduler sched(cfg);
  (void)al::run_parallel(p, seqs, sched, {rt::Tiedness::untied});
  EXPECT_EQ(sched.stats().total.tasks_created, 66u);  // C(12,2)
  EXPECT_EQ(sched.stats().total.taskwaits, 0u);  // Table II: 0 taskwaits
}

TEST(Alignment, RangeTasksCreateTenfoldFewerDescriptorsSameOutput) {
  // PR-2 acceptance: the range-task generator must create >= 10x fewer
  // descriptors than per-pair generation (tasks_created stats) while the
  // verified output is unchanged.
  const al::Params p = al::params_for(core::InputClass::test);  // C(16,2)=120
  const auto seqs = al::make_input(p);

  rt::SchedulerConfig legacy_cfg{.num_threads = 4};
  legacy_cfg.use_range_tasks = false;
  rt::Scheduler legacy(legacy_cfg);
  const auto legacy_scores =
      al::run_parallel(p, seqs, legacy, {rt::Tiedness::tied});
  const auto legacy_created = legacy.stats().total.tasks_created;
  EXPECT_TRUE(al::verify(p, seqs, legacy_scores));

  rt::Scheduler ranged(rt::SchedulerConfig{.num_threads = 4});
  ASSERT_TRUE(ranged.config().use_range_tasks);  // the default
  const auto ranged_scores =
      al::run_parallel(p, seqs, ranged, {rt::Tiedness::tied});
  const auto t = ranged.stats().total;
  EXPECT_TRUE(al::verify(p, seqs, ranged_scores));
  EXPECT_EQ(ranged_scores, legacy_scores);

  EXPECT_GT(t.range_tasks, 0u);
  EXPECT_LE(t.tasks_created * 10, legacy_created)
      << "range generator lost its descriptor advantage";
}

TEST(Alignment, ProfileRowShape) {
  const auto row = al::profile_row(core::InputClass::test);
  EXPECT_EQ(row.potential_tasks, 120u);  // C(16,2)
  EXPECT_DOUBLE_EQ(row.taskwaits_per_task, 0.0);
  EXPECT_DOUBLE_EQ(row.captured_env_bytes_per_task, 16.0);
  // The DP is overwhelmingly private work; Table II reports 0.03%
  // non-private writes and ~7K ops per non-private write.
  EXPECT_LT(row.pct_writes_shared, 1.0);
  EXPECT_GT(row.arith_per_shared_write, 1000.0);
}

TEST(Alignment, AppInfoMetadata) {
  const auto app = al::make_app_info();
  EXPECT_EQ(app.origin, "AKM");
  EXPECT_EQ(app.tasks_inside, "for");
  EXPECT_FALSE(app.nested_tasks);
  EXPECT_EQ(app.structure, "Iterative");
}

}  // namespace
