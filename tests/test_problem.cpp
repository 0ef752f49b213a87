#include "sched/problem.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <utility>

#include "sched/etc_view.hpp"

namespace {

using hcsched::etc::EtcMatrix;
using hcsched::sched::EtcView;
using hcsched::sched::MachineId;
using hcsched::sched::Problem;
using hcsched::sched::TaskId;
using Rows = std::vector<std::size_t>;

// A Problem keeps a pointer to its matrix, so it must not be built over a
// temporary: both entry points reject an rvalue at compile time.
template <class M>
concept FullAccepts = requires(M&& m) { Problem::full(std::forward<M>(m)); };
template <class M>
concept ConstructorAccepts = requires(M&& m) {
  Problem(std::forward<M>(m), std::vector<TaskId>{}, std::vector<MachineId>{});
};
static_assert(!FullAccepts<EtcMatrix> && !FullAccepts<const EtcMatrix>);
static_assert(FullAccepts<EtcMatrix&> && FullAccepts<const EtcMatrix&>);
static_assert(!ConstructorAccepts<EtcMatrix> &&
              !ConstructorAccepts<const EtcMatrix>);
static_assert(ConstructorAccepts<EtcMatrix&> &&
              ConstructorAccepts<const EtcMatrix&>);

EtcMatrix matrix3x3() {
  return EtcMatrix::from_rows({{1, 2, 3}, {4, 5, 6}, {7, 8, 9}});
}

TEST(Problem, FullCoversEverything) {
  const EtcMatrix m = matrix3x3();
  const Problem p = Problem::full(m);
  EXPECT_EQ(p.num_tasks(), 3u);
  EXPECT_EQ(p.num_machines(), 3u);
  EXPECT_EQ(p.tasks(), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(p.machines(), (std::vector<int>{0, 1, 2}));
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_DOUBLE_EQ(p.initial_ready(s), 0.0);
  }
}

TEST(Problem, SubsetView) {
  const EtcMatrix m = matrix3x3();
  const Problem p(m, {2, 0}, {1, 2}, {10.0, 20.0});
  EXPECT_EQ(p.num_tasks(), 2u);
  EXPECT_EQ(p.num_machines(), 2u);
  EXPECT_DOUBLE_EQ(p.etc_at(2, 0), 8);  // task 2 on machine slot 0 (= m1)
  EXPECT_DOUBLE_EQ(p.etc_at(0, 1), 3);  // task 0 on machine slot 1 (= m2)
  EXPECT_DOUBLE_EQ(p.initial_ready(0), 10.0);
  EXPECT_DOUBLE_EQ(p.initial_ready(1), 20.0);
}

TEST(Problem, SlotAndMembershipLookups) {
  const EtcMatrix m = matrix3x3();
  const Problem p(m, {1}, {0, 2});
  EXPECT_EQ(p.slot_of(0), 0u);
  EXPECT_EQ(p.slot_of(2), 1u);
  EXPECT_EQ(p.slot_of(1), Problem::npos);
  EXPECT_TRUE(p.has_machine(2));
  EXPECT_FALSE(p.has_machine(1));
  EXPECT_TRUE(p.has_task(1));
  EXPECT_FALSE(p.has_task(0));
}

TEST(Problem, RejectsOutOfRangeIds) {
  const EtcMatrix m = matrix3x3();
  EXPECT_THROW(Problem(m, {3}, {0}), std::out_of_range);
  EXPECT_THROW(Problem(m, {0}, {5}), std::out_of_range);
  EXPECT_THROW(Problem(m, {-1}, {0}), std::out_of_range);
}

TEST(Problem, RejectsDuplicateIds) {
  const EtcMatrix m = matrix3x3();
  EXPECT_THROW(Problem(m, {0, 0}, {0, 1}), std::invalid_argument);
  EXPECT_THROW(Problem(m, {0, 1}, {2, 2}), std::invalid_argument);
}

TEST(Problem, RejectsMismatchedReadyVector) {
  const EtcMatrix m = matrix3x3();
  EXPECT_THROW(Problem(m, {0}, {0, 1}, {1.0}), std::invalid_argument);
}

TEST(Problem, WithoutMachineDropsMachineAndTasks) {
  const EtcMatrix m = matrix3x3();
  const Problem p(m, {0, 1, 2}, {0, 1, 2}, {5.0, 6.0, 7.0});
  const Problem next = p.without_machine(1, {1});
  EXPECT_EQ(next.tasks(), (std::vector<int>{0, 2}));
  EXPECT_EQ(next.machines(), (std::vector<int>{0, 2}));
  // Initial ready times of survivors are preserved (the paper's "reset to
  // initial ready times" semantics).
  EXPECT_DOUBLE_EQ(next.initial_ready(0), 5.0);
  EXPECT_DOUBLE_EQ(next.initial_ready(1), 7.0);
}

TEST(Problem, WithoutMachinePreservesTaskOrder) {
  const EtcMatrix m = matrix3x3();
  const Problem p(m, {2, 1, 0}, {0, 1, 2});
  const Problem next = p.without_machine(0, {1});
  EXPECT_EQ(next.tasks(), (std::vector<int>{2, 0}));  // relative order kept
}

TEST(Problem, WithoutMachineOnAbsentMachineThrows) {
  const EtcMatrix m = matrix3x3();
  const Problem p(m, {0}, {0, 1});
  EXPECT_THROW(p.without_machine(2, {}), std::invalid_argument);
}

TEST(Problem, WithoutMachineWithEmptyDropListKeepsTasks) {
  const EtcMatrix m = matrix3x3();
  const Problem p = Problem::full(m);
  const Problem next = p.without_machine(2, {});
  EXPECT_EQ(next.num_tasks(), 3u);
  EXPECT_EQ(next.num_machines(), 2u);
}

TEST(Problem, RemoveMachineShrinksInPlaceKeepingOrder) {
  const EtcMatrix m = EtcMatrix::from_rows(
      {{1, 2, 3}, {4, 5, 6}, {7, 8, 9}, {1, 1, 1}, {2, 2, 2}});
  Problem p(m, {4, 2, 0, 3, 1}, {2, 0, 1}, {5.0, 6.0, 7.0});
  p.remove_machine(1, Rows{1, 3});  // machine 0; tasks 2 and 3
  EXPECT_EQ(p.tasks(), (std::vector<int>{4, 0, 1}));
  EXPECT_EQ(p.machines(), (std::vector<int>{2, 1}));
  EXPECT_EQ(p.initial_ready_times(), (std::vector<double>{5.0, 7.0}));
  EXPECT_DOUBLE_EQ(p.etc_at(0, 1), 2.0);  // task 0 on slot 1 (= m1)
}

TEST(Problem, WithoutMachineEqualsInPlaceRemoval) {
  const EtcMatrix m = matrix3x3();
  const Problem p(m, {2, 0, 1}, {0, 1, 2}, {1.0, 2.0, 3.0});
  const Problem next = p.without_machine(2, {1, 2});
  Problem shrunk = p;
  shrunk.remove_machine(2, Rows{0, 2});
  EXPECT_EQ(next.tasks(), shrunk.tasks());
  EXPECT_EQ(next.machines(), shrunk.machines());
  EXPECT_EQ(next.initial_ready_times(), shrunk.initial_ready_times());
  EXPECT_EQ(next.tasks(), (std::vector<int>{0}));
}

TEST(Problem, WithoutMachineIgnoresForeignDropIds) {
  const EtcMatrix m = matrix3x3();
  const Problem p(m, {0, 2}, {0, 1});
  const Problem next = p.without_machine(0, {1, 7, -3, 2});
  EXPECT_EQ(next.tasks(), (std::vector<int>{0}));
  EXPECT_EQ(next.machines(), (std::vector<int>{1}));
}

TEST(Problem, RemoveMachineRejectsBadSlotOrRowsAndLeavesProblemIntact) {
  const EtcMatrix m = matrix3x3();
  Problem p = Problem::full(m);
  EXPECT_THROW(p.remove_machine(3, Rows{}), std::invalid_argument);
  EXPECT_THROW(p.remove_machine(0, Rows{3}), std::invalid_argument);
  EXPECT_THROW(p.remove_machine(0, Rows{1, 1}), std::invalid_argument);
  EXPECT_THROW(p.remove_machine(0, Rows{2, 0}), std::invalid_argument);
  EXPECT_EQ(p.tasks(), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(p.machines(), (std::vector<int>{0, 1, 2}));
  p.remove_machine(0, Rows{0, 1, 2});
  EXPECT_EQ(p.num_tasks(), 0u);
  EXPECT_EQ(p.machines(), (std::vector<int>{1, 2}));
}

TEST(Problem, RejectsNonFiniteOrNegativeReadyTimes) {
  const EtcMatrix m = matrix3x3();
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(Problem(m, {0}, {0, 1}, {0.0, nan}), std::invalid_argument);
  EXPECT_THROW(Problem(m, {0}, {0, 1}, {inf, 0.0}), std::invalid_argument);
  EXPECT_THROW(Problem(m, {0}, {0, 1}, {0.0, -1.0}), std::invalid_argument);
  EXPECT_NO_THROW(Problem(m, {0}, {0, 1}, {0.0, 1e300}));
}

TEST(Problem, RejectsColumnSumThatOverflows) {
  // Three cells of 1e308 on two machines: machine 0 could reach 2e308.
  const EtcMatrix m = EtcMatrix::from_rows({{1e308, 1e308}, {1e308, 1}});
  EXPECT_THROW((void)Problem::full(m), std::invalid_argument);
  try {
    (void)Problem::full(m);
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("machine 0"), std::string::npos)
        << e.what();
  }
}

TEST(Problem, OverflowBoundCountsOnlyTheProblemsTasksAndMachines) {
  const EtcMatrix m = EtcMatrix::from_rows({{1e308, 1}, {1e308, 1}});
  EXPECT_NO_THROW(Problem(m, {0}, {0, 1}));     // one task per column
  EXPECT_NO_THROW(Problem(m, {0, 1}, {1}));     // the big column is absent
  EXPECT_THROW(Problem(m, {0, 1}, {0, 1}), std::invalid_argument);
  // The ready time counts toward the bound.
  EXPECT_THROW(Problem(m, {0}, {0}, {1e308}), std::invalid_argument);
  EXPECT_NO_THROW(Problem(m, {0}, {1}, {1e308}));
}

TEST(EtcView, IsVerbatimCopyOfProblemCells) {
  const EtcMatrix m =
      EtcMatrix::from_rows({{2.5, 9.0, 1.0}, {6.5, 4.0, 8.0}});
  // Subset view: task 1 only, machines {2, 0}, to exercise the gather's
  // index mapping rather than a straight memcpy.
  const Problem p(m, {1}, {2, 0}, {0.0, 0.0});
  const EtcView view(p);
  ASSERT_EQ(view.num_tasks(), 1u);
  ASSERT_EQ(view.row(0).size(), 2u);
  EXPECT_EQ(view.row(0)[0], 8.0);
  EXPECT_EQ(view.row(0)[1], 6.5);
}

#if HCSCHED_CHECK_ENABLED
using ProblemDeathTest = ::testing::Test;

TEST(ProblemDeathTest, EtcAtPreconditionTripsOutsideTheMatrixOrSlots) {
  // etc_at reads the row without a throwing check; its O(1) precondition
  // still stops a task id outside the matrix and a slot past the problem's
  // machines whenever contract checks are compiled in. (A task of the
  // matrix that the problem does not hold is inside the contract: it reads
  // that task's cell.)
  const EtcMatrix m = matrix3x3();
  const Problem p(m, {2, 0}, {1, 2});
  EXPECT_EQ(p.etc_at(1, 1), m.at(1, 2));
  EXPECT_DEATH((void)p.etc_at(3, 0), "PRECONDITION violated");
  EXPECT_DEATH((void)p.etc_at(-1, 0), "PRECONDITION violated");
  EXPECT_DEATH((void)p.etc_at(0, 2), "PRECONDITION violated");
}
#endif  // HCSCHED_CHECK_ENABLED

}  // namespace
