// Checkpoint/resume contract (docs/ROBUSTNESS.md): the JSONL trial
// checkpoint round-trips exactly, tolerates crash artifacts (truncated or
// corrupt lines), and a resumed study folds to statistics bit-identical to
// an uninterrupted run — the paper's numbers cannot depend on whether the
// sweep that produced them was interrupted.
#include "sim/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "etc/consistency.hpp"
#include "obs/counters.hpp"
#include "sim/experiment.hpp"
#include "sim/sweep.hpp"
#include "sim/thread_pool.hpp"

namespace {

using hcsched::etc::Consistency;
using hcsched::sim::CheckpointData;
using hcsched::sim::CheckpointKey;
using hcsched::sim::CheckpointWriter;
using hcsched::sim::QuarantineRecord;
using hcsched::sim::StudyHooks;
using hcsched::sim::StudyParams;
using hcsched::sim::StudyReport;
using hcsched::sim::StudyRow;
using hcsched::sim::ThreadPool;
using hcsched::sim::TrialOutcome;
using hcsched::sim::TrialRecord;

std::string tmp_path(const std::string& name) {
  return testing::TempDir() + "hcsched_ckpt_" + name + ".jsonl";
}

void write_file(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::trunc);
  out << contents;
}

StudyParams small_params() {
  StudyParams params;
  params.heuristics = {"MCT", "Min-Min", "Sufferage"};
  params.cvb.num_tasks = 10;
  params.cvb.num_machines = 4;
  params.trials = 8;
  params.seed = 77;
  return params;
}

void expect_rows_identical(const std::vector<StudyRow>& a,
                           const std::vector<StudyRow>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(a[i].heuristic);
    EXPECT_EQ(a[i].heuristic, b[i].heuristic);
    EXPECT_EQ(a[i].trials, b[i].trials);
    EXPECT_EQ(a[i].machines_improved, b[i].machines_improved);
    EXPECT_EQ(a[i].machines_unchanged, b[i].machines_unchanged);
    EXPECT_EQ(a[i].machines_worsened, b[i].machines_worsened);
    EXPECT_EQ(a[i].makespan_increases, b[i].makespan_increases);
    EXPECT_EQ(a[i].finish_delta.count(), b[i].finish_delta.count());
    EXPECT_EQ(a[i].finish_delta.mean(), b[i].finish_delta.mean());
    EXPECT_EQ(a[i].finish_delta.variance(), b[i].finish_delta.variance());
    EXPECT_EQ(a[i].mean_completion_delta.count(),
              b[i].mean_completion_delta.count());
    EXPECT_EQ(a[i].mean_completion_delta.mean(),
              b[i].mean_completion_delta.mean());
    EXPECT_EQ(a[i].mean_completion_delta.variance(),
              b[i].mean_completion_delta.variance());
  }
}

TrialOutcome sample_outcome() {
  TrialOutcome outcome;
  outcome.completed = true;
  TrialRecord r;
  r.heuristic = "Min-Min";
  r.machines_improved = 2;
  r.machines_unchanged = 1;
  r.machines_worsened = 0;
  // Awkward doubles on purpose: shortest-round-trip formatting must bring
  // them back bit-identical.
  r.finish_deltas = {-0.1234567890123456789, 0.0, 1.0 / 3.0, -1e-17};
  r.has_mean_completion_delta = true;
  r.mean_completion_delta = -0.07000000000000001;
  r.makespan_increased = true;
  r.original_makespan = 123.45600000000002;
  outcome.records.push_back(r);

  TrialRecord empty;
  empty.heuristic = "MCT";
  empty.has_mean_completion_delta = false;  // serialized as null
  outcome.records.push_back(empty);

  QuarantineRecord q;
  q.trial = 3;
  q.study_seed = 77;
  q.heuristic = "Sufferage";
  q.site = "heuristic-map";
  q.error = "fault injected at heuristic-map (key 11) with \"quotes\"";
  outcome.quarantined.push_back(q);
  return outcome;
}

// -- codec ----------------------------------------------------------------

TEST(CheckpointCodec, RoundTripPreservesEveryField) {
  const CheckpointKey key{"consistent HiLo", 0xFFFFFFFFFFFFFFFFULL, 42};
  const TrialOutcome outcome = sample_outcome();
  const std::string line = hcsched::sim::encode_trial(key, outcome);
  EXPECT_EQ(line.find('\n'), std::string::npos);

  const auto decoded = hcsched::sim::decode_trial(line);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->first.point, key.point);
  EXPECT_EQ(decoded->first.seed, key.seed);  // uint64 max: no double loss
  EXPECT_EQ(decoded->first.trial, key.trial);

  const TrialOutcome& back = decoded->second;
  EXPECT_TRUE(back.completed);
  ASSERT_EQ(back.records.size(), outcome.records.size());
  for (std::size_t i = 0; i < back.records.size(); ++i) {
    const TrialRecord& a = outcome.records[i];
    const TrialRecord& b = back.records[i];
    EXPECT_EQ(a.heuristic, b.heuristic);
    EXPECT_EQ(a.machines_improved, b.machines_improved);
    EXPECT_EQ(a.machines_unchanged, b.machines_unchanged);
    EXPECT_EQ(a.machines_worsened, b.machines_worsened);
    ASSERT_EQ(a.finish_deltas.size(), b.finish_deltas.size());
    for (std::size_t d = 0; d < a.finish_deltas.size(); ++d) {
      EXPECT_EQ(a.finish_deltas[d], b.finish_deltas[d]);  // bit-exact
    }
    EXPECT_EQ(a.has_mean_completion_delta, b.has_mean_completion_delta);
    if (a.has_mean_completion_delta) {
      EXPECT_EQ(a.mean_completion_delta, b.mean_completion_delta);
    }
    EXPECT_EQ(a.makespan_increased, b.makespan_increased);
    EXPECT_EQ(a.original_makespan, b.original_makespan);
  }
  ASSERT_EQ(back.quarantined.size(), 1u);
  EXPECT_EQ(back.quarantined[0].heuristic, "Sufferage");
  EXPECT_EQ(back.quarantined[0].site, "heuristic-map");
  EXPECT_EQ(back.quarantined[0].error, outcome.quarantined[0].error);
}

TEST(CheckpointCodec, RejectsCorruptInput) {
  const std::string good =
      hcsched::sim::encode_trial(CheckpointKey{"", 1, 0}, sample_outcome());
  EXPECT_TRUE(hcsched::sim::decode_trial(good).has_value());

  // The crash artifact this format is designed around: a line cut short.
  EXPECT_FALSE(
      hcsched::sim::decode_trial(good.substr(0, good.size() / 2)).has_value());
  EXPECT_FALSE(hcsched::sim::decode_trial("").has_value());
  EXPECT_FALSE(hcsched::sim::decode_trial("not json at all").has_value());
  EXPECT_FALSE(hcsched::sim::decode_trial("{}").has_value());
  EXPECT_FALSE(hcsched::sim::decode_trial(
                   R"({"v":2,"point":"","seed":1,"trial":0,"records":[]})")
                   .has_value());
  // Nesting far past any stack a recursive descent could survive: the
  // reader's cap rejects it after kMaxDepth levels.
  EXPECT_FALSE(hcsched::sim::decode_trial(R"({"v":1,"x":)" +
                                          std::string(3'000'000, '['))
                   .has_value());

  // Counts fail closed: a fraction, a negative, or a value past 2^53 (the
  // doubles' exact integers) marks the line corrupt instead of truncating.
  const auto with = [&good](std::string_view field, std::string_view value) {
    std::string line = good;
    const std::size_t at = line.find(field);
    EXPECT_NE(at, std::string::npos) << field;
    const std::size_t start = at + field.size();
    line.replace(start, line.find_first_of(",}", start) - start, value);
    return line;
  };
  for (const std::string_view field :
       {"\"trial\":", "\"improved\":", "\"unchanged\":", "\"worsened\":"}) {
    SCOPED_TRACE(field);
    for (const std::string_view bad :
         {"1.5", "-1", "1e300", "9007199254740994", "null", "\"1\""}) {
      EXPECT_FALSE(hcsched::sim::decode_trial(with(field, bad)).has_value())
          << bad;
    }
    const std::string at_limit = with(field, "9007199254740992");  // 2^53
    EXPECT_TRUE(hcsched::sim::decode_trial(at_limit).has_value());
  }
  const auto edge =
      hcsched::sim::decode_trial(with("\"trial\":", "9007199254740992"));
  ASSERT_TRUE(edge.has_value());
  EXPECT_EQ(edge->first.trial, std::size_t{1} << 53);
}

TEST(CheckpointCodec, FieldsInAnyOrderUnknownSkippedFirstDuplicateWins) {
  const std::string line =
      R"({"quarantined":[{"error":"e","x":[{}],"site":"s","heuristic":"h"}],)"
      R"("trial":4,"records":[{"gap_exact":true,"original_makespan":2.5,)"
      R"("worsened":1,"unchanged":0,"improved":3,"improved":"dup",)"
      R"("makespan_increased":false,"mean_completion_delta":null,)"
      R"("finish_deltas":[0.25,-1],"heuristic":"MCT","future":{"a":[1]}}],)"
      R"("seed":"18446744073709551615","point":"p","v":1,"v":"dup"})";
  const auto decoded = hcsched::sim::decode_trial(line);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->first.point, "p");
  EXPECT_EQ(decoded->first.seed, 0xFFFFFFFFFFFFFFFFULL);
  EXPECT_EQ(decoded->first.trial, 4u);
  ASSERT_EQ(decoded->second.records.size(), 1u);
  const TrialRecord& r = decoded->second.records[0];
  EXPECT_EQ(r.heuristic, "MCT");
  EXPECT_EQ(r.machines_improved, 3u);
  EXPECT_EQ(r.machines_worsened, 1u);
  EXPECT_EQ(r.finish_deltas, (std::vector<double>{0.25, -1.0}));
  EXPECT_FALSE(r.has_mean_completion_delta);
  EXPECT_FALSE(r.has_gap);  // absent: written before the field existed
  EXPECT_TRUE(r.gap_exact);
  EXPECT_EQ(r.original_makespan, 2.5);
  ASSERT_EQ(decoded->second.quarantined.size(), 1u);
  const QuarantineRecord& q = decoded->second.quarantined[0];
  EXPECT_EQ(q.heuristic, "h");
  EXPECT_EQ(q.site, "s");
  EXPECT_EQ(q.error, "e");
  EXPECT_EQ(q.trial, 4u);  // the key's, though "trial" came later
  EXPECT_EQ(q.study_seed, 0xFFFFFFFFFFFFFFFFULL);

  // A required field missing, or the first of a duplicate of the wrong
  // kind, is corrupt.
  std::string no_site = line;
  no_site.replace(no_site.find(R"("site")"), 6, R"("sight")");
  EXPECT_FALSE(hcsched::sim::decode_trial(no_site).has_value());
  std::string bad_first = line;
  bad_first.replace(bad_first.find(R"("improved":3,)"), 13, "");
  EXPECT_FALSE(hcsched::sim::decode_trial(bad_first).has_value());
}

// -- load -----------------------------------------------------------------

TEST(CheckpointLoad, MissingFileIsEmpty) {
  const CheckpointData data =
      hcsched::sim::load_checkpoint(tmp_path("does_not_exist"));
  EXPECT_TRUE(data.trials.empty());
  EXPECT_EQ(data.lines_read, 0u);
  EXPECT_EQ(data.corrupt_lines, 0u);
  EXPECT_EQ(data.find("", 1, 0), nullptr);
}

TEST(CheckpointLoad, SkipsCorruptLinesWithCount) {
  const std::string path = tmp_path("corrupt");
  const std::string a =
      hcsched::sim::encode_trial(CheckpointKey{"", 9, 0}, sample_outcome());
  const std::string b =
      hcsched::sim::encode_trial(CheckpointKey{"", 9, 1}, sample_outcome());
  // Corruption mid-file (an fsck-style scramble) and at the tail (a killed
  // process mid-append; no trailing newline).
  write_file(path, a + "\n" + "garbage{{{\n" + b + "\n" + b.substr(0, 20));

  const CheckpointData data = hcsched::sim::load_checkpoint(path);
  EXPECT_EQ(data.lines_read, 4u);
  EXPECT_EQ(data.corrupt_lines, 2u);
  EXPECT_EQ(data.trials.size(), 2u);
  EXPECT_NE(data.find("", 9, 0), nullptr);
  EXPECT_NE(data.find("", 9, 1), nullptr);
  EXPECT_EQ(data.find("", 9, 2), nullptr);
  std::remove(path.c_str());
}

TEST(CheckpointLoad, LaterDuplicateWins) {
  const std::string path = tmp_path("dup");
  TrialOutcome first = sample_outcome();
  first.records[0].machines_improved = 1;
  TrialOutcome second = sample_outcome();
  second.records[0].machines_improved = 9;
  const CheckpointKey key{"", 5, 2};
  write_file(path, hcsched::sim::encode_trial(key, first) + "\n" +
                       hcsched::sim::encode_trial(key, second) + "\n");

  const CheckpointData data = hcsched::sim::load_checkpoint(path);
  ASSERT_EQ(data.trials.size(), 1u);
  const TrialOutcome* stored = data.find("", 5, 2);
  ASSERT_NE(stored, nullptr);
  EXPECT_EQ(stored->records[0].machines_improved, 9u);
  std::remove(path.c_str());
}

TEST(CheckpointLoad, HostileNestingLineIsCountedCorrupt) {
  const std::string path = tmp_path("nesting");
  const std::string a =
      hcsched::sim::encode_trial(CheckpointKey{"", 9, 0}, sample_outcome());
  write_file(path, a + "\n" + R"({"v":1,"x":)" + std::string(3'000'000, '[') +
                       "\n" + a + "\n");
  const CheckpointData data = hcsched::sim::load_checkpoint(path);
  EXPECT_EQ(data.lines_read, 3u);
  EXPECT_EQ(data.corrupt_lines, 1u);
  EXPECT_NE(data.find("", 9, 0), nullptr);
  std::remove(path.c_str());
}

TEST(CheckpointLoad, AppendAfterTornTailKeepsEveryNewTrial) {
  const std::string path = tmp_path("torn_tail");
  const std::string torn =
      hcsched::sim::encode_trial(CheckpointKey{"", 9, 7}, sample_outcome());
  write_file(path,
             hcsched::sim::encode_trial(CheckpointKey{"", 9, 0},
                                        sample_outcome()) +
                 "\n" + torn.substr(0, torn.size() / 2));
  {
    // A later run appends to the killed run's file.
    CheckpointWriter writer(path);
    writer.append_trial(CheckpointKey{"", 9, 1}, sample_outcome());
    writer.append_trial(CheckpointKey{"", 9, 2}, sample_outcome());
  }
  const CheckpointData data = hcsched::sim::load_checkpoint(path);
  EXPECT_EQ(data.lines_read, 4u);
  EXPECT_EQ(data.corrupt_lines, 1u);  // only the torn line itself
  for (std::size_t trial = 0; trial < 3; ++trial) {
    EXPECT_NE(data.find("", 9, trial), nullptr) << "trial " << trial;
  }

  // A file that ends cleanly gets no blank line.
  std::string before;
  {
    std::ifstream in(path, std::ios::binary);
    before.assign(std::istreambuf_iterator<char>(in), {});
  }
  { CheckpointWriter writer(path); }
  std::ifstream in(path, std::ios::binary);
  EXPECT_EQ(std::string(std::istreambuf_iterator<char>(in), {}), before);
  std::remove(path.c_str());
}

// -- study-level resume ----------------------------------------------------

class CheckpointResumeTest : public testing::Test {
 protected:
  // Simulates a run interrupted after `k` completed trials: a first process
  // checkpoints trials 0..k-1, a second resumes the full study from its
  // file. Trial streams are derived from (seed, trial), so the first k
  // trials of the short run are exactly the first k of the full one.
  void expect_resume_bit_identical(StudyParams params, std::size_t k,
                                   const std::string& tag) {
    SCOPED_TRACE(tag);
    ThreadPool pool(3);
    const StudyReport clean =
        hcsched::sim::run_iterative_study_report(params, pool);

    const std::string path = tmp_path(tag);
    std::remove(path.c_str());
    {
      StudyParams first = params;
      first.trials = k;
      CheckpointWriter writer(path);
      StudyHooks hooks;
      hooks.checkpoint = &writer;
      hcsched::sim::run_iterative_study_report(first, pool, hooks);
    }

    const CheckpointData data = hcsched::sim::load_checkpoint(path);
    EXPECT_EQ(data.trials.size(), k);
    EXPECT_EQ(data.corrupt_lines, 0u);
    StudyHooks hooks;
    hooks.resume = &data;
    const StudyReport resumed =
        hcsched::sim::run_iterative_study_report(params, pool, hooks);
    EXPECT_EQ(resumed.trials_replayed, k);
    EXPECT_EQ(resumed.trials_completed, params.trials);
    EXPECT_FALSE(resumed.cancelled);
    expect_rows_identical(clean.rows, resumed.rows);
    std::remove(path.c_str());
  }
};

TEST_F(CheckpointResumeTest, BitIdenticalAcrossConsistencyClassesAndCutPoints) {
  const struct {
    Consistency consistency;
    const char* name;
  } classes[] = {{Consistency::kInconsistent, "inc"},
                 {Consistency::kSemiConsistent, "semi"},
                 {Consistency::kConsistent, "con"}};
  for (const auto& c : classes) {
    StudyParams params = small_params();
    params.consistency = c.consistency;
    // Boundary cut points: nothing checkpointed, one trial, all but one.
    for (const std::size_t k : {std::size_t{0}, std::size_t{1},
                                params.trials - 1}) {
      expect_resume_bit_identical(params, k,
                                  std::string(c.name) + "_k" +
                                      std::to_string(k));
    }
  }
}

TEST_F(CheckpointResumeTest, FullyCheckpointedRunReplaysEveryTrial) {
  StudyParams params = small_params();
  expect_resume_bit_identical(params, params.trials, "full");
}

TEST_F(CheckpointResumeTest, RandomTiesSurviveResume) {
  // kRandom ties draw from per-(trial, heuristic) streams; replaying some
  // trials from disk must not shift the streams of recomputed ones.
  StudyParams params = small_params();
  params.tie_policy = hcsched::rng::TiePolicy::kRandom;
  expect_resume_bit_identical(params, 3, "random_ties");
}

TEST_F(CheckpointResumeTest, CorruptTailDoesNotPoisonResume) {
  StudyParams params = small_params();
  ThreadPool pool(3);
  const StudyReport clean =
      hcsched::sim::run_iterative_study_report(params, pool);

  const std::string path = tmp_path("corrupt_tail");
  std::remove(path.c_str());
  {
    StudyParams first = params;
    first.trials = 4;
    CheckpointWriter writer(path);
    StudyHooks hooks;
    hooks.checkpoint = &writer;
    hcsched::sim::run_iterative_study_report(first, pool, hooks);
  }
  {
    // The killed-mid-append artifact: a truncated final line.
    std::ofstream out(path, std::ios::app);
    out << R"({"v":1,"point":"","seed":77,"tri)";
  }
  const CheckpointData data = hcsched::sim::load_checkpoint(path);
  EXPECT_EQ(data.corrupt_lines, 1u);
  EXPECT_EQ(data.trials.size(), 4u);
  StudyHooks hooks;
  hooks.resume = &data;
  const StudyReport resumed =
      hcsched::sim::run_iterative_study_report(params, pool, hooks);
  EXPECT_EQ(resumed.trials_replayed, 4u);
  expect_rows_identical(clean.rows, resumed.rows);
  std::remove(path.c_str());
}

TEST_F(CheckpointResumeTest, ResumeIgnoresOtherPointsSeedsAndTrials) {
  StudyParams params = small_params();
  ThreadPool pool(3);
  const StudyReport clean =
      hcsched::sim::run_iterative_study_report(params, pool);

  // A checkpoint from a *different* sweep cell, seed, and trial range:
  // nothing matches this study's keys, so everything recomputes.
  const std::string path = tmp_path("foreign");
  std::remove(path.c_str());
  {
    CheckpointWriter writer(path);
    writer.append_trial(CheckpointKey{"other point", params.seed, 0},
                        sample_outcome());
    writer.append_trial(CheckpointKey{"", params.seed + 1, 1},
                        sample_outcome());
    writer.append_trial(CheckpointKey{"", params.seed, params.trials + 5},
                        sample_outcome());
  }
  const CheckpointData data = hcsched::sim::load_checkpoint(path);
  StudyHooks hooks;
  hooks.resume = &data;
  const StudyReport resumed =
      hcsched::sim::run_iterative_study_report(params, pool, hooks);
  EXPECT_EQ(resumed.trials_replayed, 0u);
  expect_rows_identical(clean.rows, resumed.rows);
  std::remove(path.c_str());
}

// -- sweep-level resume ----------------------------------------------------

TEST(SweepResume, PointLabelsNamespaceKeysAndReplayExactly) {
  StudyParams base = small_params();
  base.trials = 3;
  std::vector<hcsched::sim::SweepPoint> points(2);
  points[0].label = "inconsistent HiHi";
  points[0].consistency = Consistency::kInconsistent;
  points[1].label = "consistent LoLo";
  points[1].consistency = Consistency::kConsistent;
  points[1].v_task = 0.3;
  points[1].v_machine = 0.3;

  ThreadPool pool(3);
  const auto clean = hcsched::sim::run_sweep_report(base, points, pool);

  const std::string path = tmp_path("sweep");
  std::remove(path.c_str());
  {
    CheckpointWriter writer(path);
    StudyHooks hooks;
    hooks.checkpoint = &writer;
    hcsched::sim::run_sweep_report(base, points, pool, hooks);
  }
  const CheckpointData data = hcsched::sim::load_checkpoint(path);
  EXPECT_EQ(data.trials.size(), 2 * base.trials);
  for (const auto& point : points) {
    for (std::size_t t = 0; t < base.trials; ++t) {
      EXPECT_NE(data.find(point.label, base.seed, t), nullptr)
          << point.label << " trial " << t;
    }
  }

  StudyHooks hooks;
  hooks.resume = &data;
  const auto resumed = hcsched::sim::run_sweep_report(base, points, pool, hooks);
  ASSERT_EQ(resumed.size(), clean.size());
  for (std::size_t p = 0; p < resumed.size(); ++p) {
    SCOPED_TRACE(points[p].label);
    EXPECT_EQ(resumed[p].report.trials_replayed, base.trials);
    expect_rows_identical(clean[p].report.rows, resumed[p].report.rows);
  }
  std::remove(path.c_str());
}

// -- observability ---------------------------------------------------------

TEST(CheckpointCounters, WrittenReplayedAndCorruptAreCounted) {
  if (!hcsched::obs::kTraceCompiledIn) {
    GTEST_SKIP() << "counters compiled out";
  }
  StudyParams params = small_params();
  params.trials = 4;
  ThreadPool pool(2);
  const std::string path = tmp_path("counters");
  std::remove(path.c_str());

  const auto before = hcsched::obs::counters::snapshot();
  {
    CheckpointWriter writer(path);
    StudyHooks hooks;
    hooks.checkpoint = &writer;
    hcsched::sim::run_iterative_study_report(params, pool, hooks);
  }
  {
    std::ofstream out(path, std::ios::app);
    out << "garbage\n";
  }
  const CheckpointData data = hcsched::sim::load_checkpoint(path);
  StudyHooks hooks;
  hooks.resume = &data;
  hcsched::sim::run_iterative_study_report(params, pool, hooks);

  const auto delta = hcsched::obs::counters::snapshot().delta_since(before);
  using hcsched::obs::Counter;
  EXPECT_EQ(delta[Counter::kCheckpointTrialsWritten], params.trials);
  EXPECT_EQ(delta[Counter::kCheckpointTrialsReplayed], params.trials);
  EXPECT_EQ(delta[Counter::kCheckpointCorruptLines], 1u);
  std::remove(path.c_str());
}

}  // namespace
