// Differential suite for the incremental fastpath kernels.
//
// The fast path (src/heuristics/fastpath/) must be *indistinguishable* from
// the reference loops except for doing less work: identical assignment
// sequences, completion-time vectors, TieBreaker decision/tie-event counts
// and RNG/script consumption, under every tie policy and consistency class.
// This file is the enforcement: seeded fuzz sweeps through
// run_differential_case (shared with fastpath_fuzz.cpp) over
// EVERY row of the fastpath dispatch table — the covered-heuristic set is
// derived from kernel_table(), never hardcoded, so registering a kernel
// automatically enrolls it here — plus whole-minimizer iterative
// differentials, non-default-knob trace comparisons, golden pins against
// the paper's worked examples, a regression pinning the reference's
// load-bearing phase-two list order, and the ScopedMode test seam itself.
// docs/FASTPATH.md documents the invariant being tested.
//
// covers: fastpath.cpp two_phase_fast.cpp minscan.cpp arena.hpp
// workspace.cpp reuse.cpp sufferage_fast.cpp kpb_fast.cpp kernel_table.cpp
// (stems named for the fastpath-differential lint rule)
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "core/iterative.hpp"
#include "core/paper_examples.hpp"
#include "etc/consistency.hpp"
#include "etc/cvb_generator.hpp"
#include "etc/etc_matrix.hpp"
#include "heuristics/duplex.hpp"
#include "differential.hpp"
#include "heuristics/fastpath/fastpath.hpp"
#include "heuristics/kpb.hpp"
#include "heuristics/minmin.hpp"
#include "heuristics/registry.hpp"
#include "heuristics/sufferage.hpp"
#include "obs/counters.hpp"
#include "rng/rng.hpp"
#include "rng/tie_break.hpp"

namespace {

namespace fastpath = hcsched::heuristics::fastpath;
using fastpath::DifferentialCase;
using fastpath::DifferentialOutcome;
using fastpath::Kernel;
using fastpath::KernelInfo;
using fastpath::ScopedMode;
using hcsched::etc::Consistency;
using hcsched::etc::EtcMatrix;
using hcsched::rng::Rng;
using hcsched::rng::TieBreaker;
using hcsched::rng::TiePolicy;
using hcsched::sched::Problem;
using hcsched::sched::Schedule;

constexpr Consistency kConsistencies[] = {
    Consistency::kConsistent,
    Consistency::kSemiConsistent,
    Consistency::kInconsistent,
};

/// Sweeps seeds x consistency classes x every dispatch-table kernel for one
/// tie policy, with problem sizes derived from the seed (8..64 tasks on
/// 2..15 machines), and asserts zero divergence. Returns the number of
/// cases run so the suite can prove its own breadth.
std::size_t sweep_policy(TiePolicy policy, bool subset,
                         std::size_t num_seeds) {
  std::size_t cases = 0;
  for (std::uint64_t seed = 1; seed <= num_seeds; ++seed) {
    for (const Consistency consistency : kConsistencies) {
      for (const KernelInfo& info : fastpath::kernel_table()) {
        DifferentialCase c;
        c.seed = seed * 1000003 + static_cast<std::uint64_t>(consistency);
        c.tasks = 8 + (seed * 7) % 57;
        c.machines = 2 + (seed * 3) % 14;
        c.consistency = consistency;
        c.policy = policy;
        c.kernel = info.kernel;
        c.subset = subset;
        const DifferentialOutcome outcome =
            fastpath::run_differential_case(c);
        EXPECT_TRUE(outcome.equivalent)
            << fastpath::describe(c) << ": " << outcome.divergence;
        ++cases;
      }
    }
  }
  return cases;
}

// Together the three sweeps run 1125 full-problem trials (25 seeds x 3
// consistency classes x 5 dispatch-table kernels x 3 policies), clearing
// the >= 200 trial / >= 2 class / >= 2 policy bar with margin. The counts
// are asserted against the table size so a kernel registration widens the
// sweep (and shows up here) automatically.

TEST(FastpathDifferential, DeterministicTiesFullProblems) {
  EXPECT_EQ(sweep_policy(TiePolicy::kDeterministic, /*subset=*/false, 25),
            25u * 3u * fastpath::kernel_table().size());
}

TEST(FastpathDifferential, RandomTiesFullProblems) {
  // Random ties are the hard case: a skipped or extra RNG draw anywhere
  // desynchronizes every later decision, so equivalence here proves the
  // replay bookkeeping exactly matches the reference's.
  EXPECT_EQ(sweep_policy(TiePolicy::kRandom, /*subset=*/false, 25),
            25u * 3u * fastpath::kernel_table().size());
}

TEST(FastpathDifferential, ScriptedTiesFullProblems) {
  EXPECT_EQ(sweep_policy(TiePolicy::kScripted, /*subset=*/false, 25),
            25u * 3u * fastpath::kernel_table().size());
}

TEST(FastpathDifferential, SubsetProblemsWithNonzeroReadyTimes) {
  // Task/machine subsets with nonzero initial ready times — the shape the
  // iterative technique feeds the heuristics after removing machines.
  EXPECT_EQ(sweep_policy(TiePolicy::kDeterministic, /*subset=*/true, 10),
            10u * 3u * fastpath::kernel_table().size());
  EXPECT_EQ(sweep_policy(TiePolicy::kRandom, /*subset=*/true, 10),
            10u * 3u * fastpath::kernel_table().size());
}

TEST(FastpathDifferential, NarrowEpsilonManufacturesManyTies) {
  // Continuous CVB draws rarely tie exactly; integer-valued matrices tie
  // constantly. Exercise the tied regime explicitly for every kernel: a
  // small mean rounded to integers forces coincident completion times.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    for (const auto policy : {TiePolicy::kDeterministic, TiePolicy::kRandom,
                              TiePolicy::kScripted}) {
      for (const KernelInfo& info : fastpath::kernel_table()) {
        DifferentialCase c;
        c.seed = seed;
        c.tasks = 20;
        c.machines = 4;
        c.policy = policy;
        c.kernel = info.kernel;
        c.mean_task_time = 3.0;  // rounds to a handful of distinct values
        c.v_task = 0.3;
        c.v_machine = 0.3;
        c.integer_cells = true;
        const DifferentialOutcome outcome =
            fastpath::run_differential_case(c);
        EXPECT_TRUE(outcome.equivalent)
            << fastpath::describe(c) << ": " << outcome.divergence;
      }
    }
  }
}

TEST(FastpathDifferential, TieHeavyTwoPhaseAcrossBitsetWordsAndTreeSizes) {
  // The two-phase kernel keeps genuine phase-one ties in a bitset over task
  // positions and phase-two candidates in a tournament tree padded to a
  // power of two. Task counts straddle 64-bit word boundaries (63, 64, 65)
  // and fill non-power-of-two trees (65, 130, 300), on integer-heavy
  // matrices where both phases tie constantly.
  for (const std::size_t tasks : {63u, 64u, 65u, 130u, 300u}) {
    for (const Kernel kernel : {Kernel::kMinMin, Kernel::kMaxMin}) {
      for (const auto policy : {TiePolicy::kDeterministic, TiePolicy::kRandom,
                                TiePolicy::kScripted}) {
        for (const bool subset : {false, true}) {
          DifferentialCase c;
          c.seed = tasks * 31 + (subset ? 1 : 0);
          c.tasks = tasks;
          c.machines = 6;
          c.policy = policy;
          c.kernel = kernel;
          c.subset = subset;
          c.mean_task_time = 3.0;
          c.v_task = 0.3;
          c.v_machine = 0.3;
          c.integer_cells = true;
          const DifferentialOutcome outcome =
              fastpath::run_differential_case(c);
          EXPECT_TRUE(outcome.equivalent)
              << fastpath::describe(c) << ": " << outcome.divergence;
        }
      }
    }
  }
}

TEST(FastpathDifferential, IterativeLoopIdenticalForEveryKernel) {
  // Whole-minimizer differential: run_iterative with fastpath off vs on
  // (which also toggles the incremental machine-removal reuse context) must
  // produce identical trajectories — every iteration's full mapping,
  // makespan machine cut points, and the final finishing-time table — for
  // every dispatch-table kernel under both deterministic and random ties.
  for (const KernelInfo& info : fastpath::kernel_table()) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      for (const auto policy :
           {TiePolicy::kDeterministic, TiePolicy::kRandom}) {
        DifferentialCase c;
        c.seed = seed * 7919;
        c.tasks = 24 + (seed * 5) % 17;
        c.machines = 5 + seed % 4;
        c.consistency = kConsistencies[seed % 3];
        c.policy = policy;
        c.kernel = info.kernel;
        c.iterative = true;
        const DifferentialOutcome outcome =
            fastpath::run_differential_case(c);
        EXPECT_TRUE(outcome.equivalent)
            << fastpath::describe(c) << ": " << outcome.divergence;
      }
    }
  }
}

TEST(FastpathDifferential, DispatchTableIsCompleteAndRegistryBacked) {
  // The table is the source of truth for differential/fuzz/bench coverage:
  // every Kernel enum value resolves, names are unique, and each name is a
  // canonical registry spelling (the iterative differential constructs
  // heuristics by table name).
  const auto table = fastpath::kernel_table();
  ASSERT_EQ(table.size(), 4u);
  std::set<std::string> names;
  for (const KernelInfo& info : table) {
    const KernelInfo* found = fastpath::find_kernel(info.kernel);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->name, info.name);
    EXPECT_NE(info.reference, nullptr);
    EXPECT_NE(info.fast, nullptr);
    EXPECT_TRUE(names.insert(info.name).second)
        << "duplicate kernel name " << info.name;
    EXPECT_NE(hcsched::heuristics::make_heuristic(info.name), nullptr)
        << info.name;
  }
}

#if HCSCHED_TRACE
TEST(FastpathDifferential, KernelEvaluatesStrictlyFewerEtcCells) {
  // The point of the two-phase kernel: same output, fewer scored cells. On
  // a non-trivial instance the reference charges rounds x tasks x machines
  // while the kernel only rescores invalidated tasks.
  DifferentialCase c;
  c.seed = 42;
  c.tasks = 96;
  c.machines = 16;
  c.kernel = Kernel::kMinMin;
  const DifferentialOutcome outcome = fastpath::run_differential_case(c);
  ASSERT_TRUE(outcome.equivalent) << outcome.divergence;
  EXPECT_GT(outcome.reference_cell_evals, 0u);
  EXPECT_LT(outcome.fastpath_cell_evals, outcome.reference_cell_evals);
}
#endif

/// Assignment-sequence and completion-time equality for the non-default-
/// knob comparisons below (the table adapters only cover default knobs).
void expect_same_schedule(const Schedule& ref, const Schedule& fast,
                          const std::string& what) {
  const auto& ref_order = ref.assignment_order();
  const auto& fast_order = fast.assignment_order();
  ASSERT_EQ(ref_order.size(), fast_order.size()) << what;
  for (std::size_t i = 0; i < ref_order.size(); ++i) {
    EXPECT_TRUE(ref_order[i] == fast_order[i])
        << what << ": assignment " << i;
  }
  EXPECT_EQ(ref.completion_times_by_slot(), fast.completion_times_by_slot())
      << what;
}

EtcMatrix cvb_matrix(std::uint64_t seed, std::size_t tasks,
                     std::size_t machines, double mean = 100.0) {
  hcsched::etc::CvbParams params;
  params.num_tasks = tasks;
  params.num_machines = machines;
  params.mean_task_time = mean;
  Rng rng(seed);
  return hcsched::etc::CvbEtcGenerator(params).generate(rng);
}

/// `m` with each cell v replaced by ceil(v / 40): a few small integer
/// levels, so most choices tie. A nonzero `jitter` then adds
/// jitter * (cell index mod 4) to each cell, so some would-be ties become
/// near values a fraction of a nanosecond apart, which must not tie.
EtcMatrix tie_rich(const EtcMatrix& m, double jitter = 0.0) {
  std::vector<double> cells(m.data().begin(), m.data().end());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    cells[i] = std::ceil(cells[i] / 40.0) +
               jitter * static_cast<double>(i % 4);
  }
  return EtcMatrix::from_values(m.num_tasks(), m.num_machines(),
                                std::move(cells));
}

#if HCSCHED_TRACE
TEST(FastpathDifferential, SufferageWorkCountsPinned) {
  // Per map, the Sufferage kernel rescans every pending task once per pass:
  // one rescore and one TieBreaker decision each, never a replay, m cells a
  // rescore. The pins are the counts of the kernel that still carried a
  // replay cache, so they also show that dropping the cache changed no work.
  namespace h = hcsched::heuristics;
  namespace obs = hcsched::obs;
  // {fastpath.rescores, heuristics.etc_cells}, in loop order.
  constexpr std::uint64_t kPins[][2] = {
      {1176, 1176}, {1176, 1176}, {1176, 1176}, {1176, 1176},  // seed 1, m 1
      {340, 2040}, {340, 2040}, {340, 2040}, {340, 2040},      // m 6
      {320, 1920}, {303, 1818}, {319, 1914}, {315, 1890},      // tie-rich
      {1176, 1176}, {1176, 1176}, {1176, 1176}, {1176, 1176},  // seed 2, m 1
      {334, 2004}, {334, 2004}, {334, 2004}, {334, 2004},      // m 6
      {305, 1830}, {253, 1518}, {286, 1716}, {307, 1842},      // tie-rich
  };
  std::size_t next = 0;
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    for (const std::size_t machines : {std::size_t{1}, std::size_t{6}}) {
      for (const bool rounded : {false, true}) {
        if (machines == 1 && rounded) continue;
        const EtcMatrix cvb = cvb_matrix(seed, 48, machines);
        const EtcMatrix m = rounded ? tie_rich(cvb) : cvb;
        const Problem problem = Problem::full(m);
        for (const h::SufferageRequeue requeue :
             {h::SufferageRequeue::kOriginalOrder,
              h::SufferageRequeue::kEncounterOrder}) {
          for (const bool random : {false, true}) {
            const std::string where =
                "seed " + std::to_string(seed) + ", m " +
                std::to_string(machines) + (rounded ? ", tie-rich" : "") +
                (requeue == h::SufferageRequeue::kOriginalOrder
                     ? ", original order"
                     : ", encounter order") +
                (random ? ", random ties" : ", deterministic ties");
            Rng rng(seed * 31);
            TieBreaker ties = random ? TieBreaker(rng) : TieBreaker();
            const auto before = obs::counters::snapshot();
            (void)h::Sufferage(requeue).map(problem, ties);
            const auto delta = obs::counters::snapshot().delta_since(before);
            ASSERT_LT(next, std::size(kPins)) << where;
            EXPECT_EQ(delta[obs::Counter::kFastpathRescores], kPins[next][0])
                << where;
            EXPECT_EQ(delta[obs::Counter::kFastpathRescores],
                      delta[obs::Counter::kTieDecisions])
                << where;
            EXPECT_EQ(delta[obs::Counter::kFastpathReplays], 0u) << where;
            EXPECT_EQ(delta[obs::Counter::kEtcCellEvaluations],
                      kPins[next][1])
                << where;
            ++next;
          }
        }
      }
    }
  }
  EXPECT_EQ(next, std::size(kPins));
}
#endif

/// Runs the reference Sufferage and the kernel under `requeue` on seeds 1-8
/// and compares schedules, decision and tie-event counts and the
/// pass-by-pass commit trace. Seeds 7 and 8 are tie-rich with sub-nanosecond
/// jitter: a task's chosen slot is often not the first exact minimum, which
/// takes the sufferage's other branch, next to near values that must not
/// tie.
void expect_sufferage_requeue_matches(
    hcsched::heuristics::SufferageRequeue requeue, const std::string& label) {
  namespace h = hcsched::heuristics;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const std::string where = label + " seed " + std::to_string(seed);
    const EtcMatrix cvb =
        cvb_matrix(seed, 30, 6, seed % 2 == 0 ? 3.0 : 100.0);
    const EtcMatrix m = seed > 6 ? tie_rich(cvb, 0.25e-9) : cvb;
    const Problem problem = Problem::full(m);
    Rng ref_rng(seed * 13);
    Rng fast_rng(seed * 13);
    TieBreaker ref_ties(ref_rng);
    TieBreaker fast_ties(fast_rng);
    std::vector<h::SufferageStep> ref_trace;
    std::vector<h::SufferageStep> fast_trace;
    const Schedule ref =
        h::detail::sufferage_reference(problem, ref_ties, requeue, &ref_trace);
    const Schedule fast =
        fastpath::sufferage_fast(problem, fast_ties, requeue, &fast_trace);
    expect_same_schedule(ref, fast, where);
    EXPECT_EQ(ref_ties.decisions(), fast_ties.decisions()) << where;
    EXPECT_EQ(ref_ties.tie_events(), fast_ties.tie_events()) << where;
    ASSERT_EQ(ref_trace.size(), fast_trace.size()) << where;
    // Some task must wait for a later pass, or the requeue order is untested.
    EXPECT_GT(ref_trace.back().pass, 1u) << where;
    for (std::size_t i = 0; i < ref_trace.size(); ++i) {
      EXPECT_EQ(ref_trace[i].pass, fast_trace[i].pass) << where << " " << i;
      EXPECT_EQ(ref_trace[i].task, fast_trace[i].task) << where << " " << i;
      EXPECT_EQ(ref_trace[i].machine, fast_trace[i].machine)
          << where << " " << i;
      EXPECT_EQ(ref_trace[i].min_ct, fast_trace[i].min_ct)
          << where << " " << i;
      EXPECT_EQ(ref_trace[i].sufferage, fast_trace[i].sufferage)
          << where << " " << i;
    }
  }
}

TEST(FastpathDifferential, SufferageEncounterOrderRequeueMatchesReference) {
  // The EXT-7d ablation knob must match the reference too.
  expect_sufferage_requeue_matches(
      hcsched::heuristics::SufferageRequeue::kEncounterOrder,
      "sufferage encounter-order");
}

TEST(FastpathDifferential, SufferageOriginalOrderRequeueMatchesReference) {
  // The default requeue: the kernel filters this pass's ascending queue
  // by the committed claimants instead of sorting the next one.
  expect_sufferage_requeue_matches(
      hcsched::heuristics::SufferageRequeue::kOriginalOrder,
      "sufferage original-order");
}

TEST(FastpathDifferential, KpbNonDefaultPercentMatchesReferenceWithTrace) {
  // k = 40% (subset of 2 on 6 machines) and k = 100% (degenerates to MCT):
  // the kernel's partial_sort prefix must equal the reference's stable-sort
  // prefix, machine-for-machine, in the trace's subset column.
  namespace h = hcsched::heuristics;
  for (const double k_percent : {40.0, 100.0}) {
    const h::Kpb kpb(k_percent);
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      const EtcMatrix m =
          cvb_matrix(seed, 30, 6, seed % 2 == 0 ? 3.0 : 100.0);
      const Problem problem = Problem::full(m);
      const std::size_t k = kpb.subset_size(problem.num_machines());
      Rng ref_rng(seed * 17);
      Rng fast_rng(seed * 17);
      TieBreaker ref_ties(ref_rng);
      TieBreaker fast_ties(fast_rng);
      std::vector<h::KpbStep> ref_trace;
      std::vector<h::KpbStep> fast_trace;
      const Schedule ref =
          h::detail::kpb_reference(problem, ref_ties, k, &ref_trace);
      const Schedule fast =
          fastpath::kpb_fast(problem, fast_ties, k, &fast_trace);
      expect_same_schedule(ref, fast,
                           "kpb k=" + std::to_string(k_percent) + " seed " +
                               std::to_string(seed));
      EXPECT_EQ(ref_ties.decisions(), fast_ties.decisions());
      EXPECT_EQ(ref_ties.tie_events(), fast_ties.tie_events());
      ASSERT_EQ(ref_trace.size(), fast_trace.size());
      for (std::size_t i = 0; i < ref_trace.size(); ++i) {
        EXPECT_EQ(ref_trace[i].task, fast_trace[i].task) << i;
        EXPECT_EQ(ref_trace[i].machine, fast_trace[i].machine) << i;
        EXPECT_EQ(ref_trace[i].completion, fast_trace[i].completion) << i;
        EXPECT_EQ(ref_trace[i].subset, fast_trace[i].subset) << i;
      }
    }
  }
}

TEST(FastpathDifferential, IterativeTechniqueIdenticalUnderBothPaths) {
  // End-to-end through core::IterativeMinimizer by registry name: every
  // dispatch-table heuristic plus Duplex (which runs both two-phase kernels
  // internally and so exercises dispatch without a table row of its own).
  std::vector<std::string> names;
  for (const KernelInfo& info : fastpath::kernel_table()) {
    names.push_back(info.name);
  }
  names.push_back("Duplex");
  for (const std::string& name : names) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      const EtcMatrix matrix = cvb_matrix(seed, 40, 8);
      const Problem problem = Problem::full(matrix);
      const auto heuristic = hcsched::heuristics::make_heuristic(name);
      const hcsched::core::IterativeMinimizer minimizer;

      const auto run_with = [&](bool use_kernels, std::uint64_t tie_seed) {
        const ScopedMode scope(use_kernels);
        Rng tie_rng(tie_seed);
        TieBreaker ties(tie_rng);
        return minimizer.run(*heuristic, problem, ties);
      };
      const auto ref = run_with(false, seed * 31);
      const auto fast = run_with(true, seed * 31);

      ASSERT_EQ(ref.iterations.size(), fast.iterations.size())
          << name << " seed " << seed;
      for (std::size_t i = 0; i < ref.iterations.size(); ++i) {
        EXPECT_EQ(ref.iterations[i].makespan, fast.iterations[i].makespan)
            << name << " seed " << seed << " iteration " << i;
        EXPECT_EQ(ref.iterations[i].makespan_machine,
                  fast.iterations[i].makespan_machine)
            << name << " seed " << seed << " iteration " << i;
      }
      ASSERT_EQ(ref.final_finishing_times.size(),
                fast.final_finishing_times.size());
      for (std::size_t i = 0; i < ref.final_finishing_times.size(); ++i) {
        EXPECT_EQ(ref.final_finishing_times[i], fast.final_finishing_times[i])
            << name << " seed " << seed << " machine entry " << i;
      }
    }
  }
}

TEST(FastpathDifferential, PaperExamplesGoldenPinsUnderFastpath) {
  // The paper's worked examples (Tables 1-17) are the repo's ground truth;
  // they must keep matching with the kernels forced on. Min-Min, Max-Min,
  // Sufferage and KPB all dispatch through kernels, so this pins the whole
  // dispatch surface against hand-checked tables.
  const ScopedMode scope(true);
  for (const auto& example : hcsched::core::all_paper_examples()) {
    const auto result = hcsched::core::run_paper_example(example);
    EXPECT_TRUE(hcsched::core::example_matches(example, result))
        << example.id << " (" << example.table_refs << ")";
  }
}

TEST(FastpathDifferential, PhaseTwoTieBreaksInOriginalTaskOrder) {
  // Regression for the reference's erase()-maintained list: phase-two ties
  // resolve by position, and positions must stay in original task order.
  // Here t1 and t2 tie at completion time 3 in round 2; the earliest
  // original task (t1) must win. A swap-and-pop "optimization" of the
  // reference's erase would move t2 into t1's position after t0 is mapped,
  // flip the tie to t2, and hand t1 a different machine — a different
  // mapping, not just a different order.
  const EtcMatrix m = EtcMatrix::from_rows({{1, 10}, {4, 3}, {9, 3}});
  const auto run = [&](bool use_kernels) {
    const ScopedMode scope(use_kernels);
    TieBreaker ties;
    return hcsched::heuristics::detail::two_phase_greedy(
        Problem::full(m), ties, /*prefer_largest=*/false);
  };
  for (const bool use_kernels : {false, true}) {
    const Schedule s = run(use_kernels);
    const auto& order = s.assignment_order();
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0].task, 0);
    EXPECT_EQ(order[1].task, 1);
    EXPECT_EQ(order[2].task, 2);
    EXPECT_EQ(s.machine_of(0), std::optional<hcsched::sched::MachineId>(0));
    EXPECT_EQ(s.machine_of(1), std::optional<hcsched::sched::MachineId>(1));
    EXPECT_EQ(s.machine_of(2), std::optional<hcsched::sched::MachineId>(1));
    EXPECT_DOUBLE_EQ(s.makespan(), 6.0);
  }
}

TEST(FastpathSwitch, ScopedModeForcesAndRestores) {
  // Production default: the kernels.
  EXPECT_TRUE(fastpath::enabled());
  {
    const ScopedMode off(false);
    EXPECT_FALSE(fastpath::enabled());
    {
      const ScopedMode on(true);
      EXPECT_TRUE(fastpath::enabled());
    }
    EXPECT_FALSE(fastpath::enabled());
  }
  EXPECT_TRUE(fastpath::enabled());
}

TEST(FastpathSwitch, DispatcherFollowsMode) {
  // Not much to distinguish the paths behaviorally (that is the point), so
  // pin the dispatch itself through the cell-evaluation counter: on a
  // many-round instance the kernel charges strictly fewer cells.
  const EtcMatrix m = [] {
    hcsched::etc::CvbParams params;
    params.num_tasks = 48;
    params.num_machines = 8;
    Rng rng(7);
    return hcsched::etc::CvbEtcGenerator(params).generate(rng);
  }();
  const Problem problem = Problem::full(m);
#if HCSCHED_TRACE
  const auto evals_under = [&](bool use_kernels) {
    const ScopedMode scope(use_kernels);
    TieBreaker ties;
    const auto before = hcsched::obs::counters::snapshot();
    (void)hcsched::heuristics::detail::two_phase_greedy(problem, ties,
                                                        false);
    const auto after = hcsched::obs::counters::snapshot();
    return after.delta_since(
        before)[hcsched::obs::Counter::kEtcCellEvaluations];
  };
  EXPECT_LT(evals_under(true), evals_under(false));
#else
  // Without counters just exercise both dispatch directions.
  for (const bool use_kernels : {false, true}) {
    const ScopedMode scope(use_kernels);
    TieBreaker ties;
    EXPECT_TRUE(hcsched::heuristics::detail::two_phase_greedy(problem, ties,
                                                              false)
                    .complete());
  }
#endif
}

}  // namespace
