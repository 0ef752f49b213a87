// Regression oracles: every reconstructed worked example must reproduce the
// paper's reported numbers exactly (EXPERIMENTS.md maps these to Tables
// 1-17 / Figures 3-19), through the fastpath kernels and through the
// reference loops alike.
#include "core/paper_examples.hpp"

#include <gtest/gtest.h>

#include <ostream>

#include "core/theorems.hpp"
#include "heuristics/fastpath/fastpath.hpp"
#include "heuristics/registry.hpp"
#include "sched/validate.hpp"

namespace hcsched::core {

// gtest prints a parameter into each test's name; without this overload it
// dumps the struct's raw bytes, heap pointers included.
void PrintTo(const PaperExample& example, std::ostream* os) {
  *os << example.id;
}

}  // namespace hcsched::core

namespace {

using hcsched::core::all_paper_examples;
using hcsched::core::example_matches;
using hcsched::core::PaperExample;
using hcsched::core::run_paper_example;

class PaperExampleTest : public ::testing::TestWithParam<PaperExample> {};

TEST_P(PaperExampleTest, ReproducesReportedCompletionTimes) {
  const PaperExample& ex = GetParam();
  for (const bool use_kernels : {false, true}) {
    SCOPED_TRACE(use_kernels ? "fastpath kernels" : "reference loops");
    const hcsched::heuristics::fastpath::ScopedMode scope(use_kernels);
    const auto result = run_paper_example(ex);
    EXPECT_TRUE(example_matches(ex, result)) << ex.id;
    // Every example in the paper demonstrates a makespan increase.
    EXPECT_TRUE(result.makespan_increased()) << ex.id;
    for (const auto& it : result.iterations) {
      EXPECT_TRUE(hcsched::sched::is_valid(it.schedule))
          << ex.id << " iteration " << it.index;
    }
  }
}

TEST_P(PaperExampleTest, ExpectationVectorsAreWellFormed) {
  const PaperExample& ex = GetParam();
  EXPECT_FALSE(ex.matrix->empty()) << ex.id;
  EXPECT_EQ(ex.expected_original_ct.size(), ex.matrix->num_machines());
  EXPECT_EQ(ex.expected_final_ct.size(), ex.matrix->num_machines());
  EXPECT_GT(ex.expected_final_makespan, ex.expected_original_makespan);
}

INSTANTIATE_TEST_SUITE_P(
    AllExamples, PaperExampleTest, ::testing::ValuesIn(all_paper_examples()),
    [](const ::testing::TestParamInfo<PaperExample>& param_info) {
      return param_info.param.id;
    });

TEST(PaperExamples, MinMinOriginalMatchesTable2) {
  const auto ex = hcsched::core::minmin_example();
  const auto result = run_paper_example(ex);
  const auto& s = result.original().schedule;
  // Table 2 narrative: completions m0=5, m1=2, m2=4; makespan machine m0
  // carries exactly one task.
  EXPECT_DOUBLE_EQ(s.completion_time(0), 5.0);
  EXPECT_DOUBLE_EQ(s.completion_time(1), 2.0);
  EXPECT_DOUBLE_EQ(s.completion_time(2), 4.0);
  EXPECT_EQ(result.original().makespan_machine, 0);
  EXPECT_EQ(s.tasks_on(0), (std::vector<int>{0}));
}

TEST(PaperExamples, MinMinIterationOneMatchesTable3) {
  const auto ex = hcsched::core::minmin_example();
  const auto result = run_paper_example(ex);
  ASSERT_GE(result.iterations.size(), 2u);
  const auto& it1 = result.iterations[1].schedule;
  // Table 3 narrative: m1 = 1, m2 = 6; new makespan machine is m2.
  EXPECT_DOUBLE_EQ(it1.completion_time(1), 1.0);
  EXPECT_DOUBLE_EQ(it1.completion_time(2), 6.0);
  EXPECT_EQ(result.iterations[1].makespan_machine, 2);
}

TEST(PaperExamples, MctAndMetShareTable4Matrix) {
  const auto mct = hcsched::core::mct_example();
  const auto met = hcsched::core::met_example();
  EXPECT_EQ(*mct.matrix, *met.matrix);
}

TEST(PaperExamples, MakespanMachineTransitionsMatchPaper) {
  // In each example the original makespan machine is m0 and the increase
  // appears on a different machine in iteration 1.
  for (const auto& ex : all_paper_examples()) {
    const auto result = run_paper_example(ex);
    const auto original_span_machine = result.original().makespan_machine;
    ASSERT_GE(result.iterations.size(), 2u) << ex.id;
    EXPECT_NE(result.iterations[1].makespan_machine, original_span_machine)
        << ex.id;
  }
}

TEST(PaperExamples, DeterministicExamplesNeedNoScript) {
  EXPECT_TRUE(hcsched::core::swa_example().tie_script.empty());
  EXPECT_TRUE(hcsched::core::kpb_example().tie_script.empty());
  EXPECT_TRUE(hcsched::core::sufferage_example().tie_script.empty());
  // The random-tie examples do script their ties.
  EXPECT_FALSE(hcsched::core::minmin_example().tie_script.empty());
  EXPECT_FALSE(hcsched::core::mct_example().tie_script.empty());
  EXPECT_FALSE(hcsched::core::met_example().tie_script.empty());
}

TEST(PaperExamples, RandomTieExamplesAreInvariantWithoutTheScript) {
  // Run the same matrices with deterministic ties: the theorems apply and
  // nothing may change — confirming the increase is purely a tie artifact.
  for (const auto& ex : {hcsched::core::minmin_example(),
                         hcsched::core::mct_example(),
                         hcsched::core::met_example()}) {
    const auto heuristic = hcsched::heuristics::make_heuristic(ex.heuristic);
    const auto report = hcsched::core::verify_theorem(
        *heuristic, hcsched::sched::Problem::full(*ex.matrix));
    EXPECT_TRUE(report.holds) << ex.id << ": " << report.violation;
  }
}

TEST(PaperExamples, SixExamplesCoverTheSixHeuristics) {
  const auto all = all_paper_examples();
  ASSERT_EQ(all.size(), 6u);
  std::vector<std::string> names;
  for (const auto& ex : all) names.push_back(ex.heuristic);
  EXPECT_EQ(names, (std::vector<std::string>{"Min-Min", "MCT", "MET", "SWA",
                                             "KPB", "Sufferage"}));
}

}  // namespace
