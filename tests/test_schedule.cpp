#include "sched/schedule.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace {

using hcsched::etc::EtcMatrix;
using hcsched::sched::Problem;
using hcsched::sched::Schedule;

EtcMatrix matrix() {
  return EtcMatrix::from_rows({{2, 5}, {3, 1}, {4, 4}});
}

TEST(Schedule, AssignChainsReadyTimes) {
  const EtcMatrix m = matrix();
  const Problem p = Problem::full(m);
  Schedule s(p);
  EXPECT_DOUBLE_EQ(s.assign(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(s.assign(1, 0), 5.0);  // 2 + 3
  EXPECT_DOUBLE_EQ(s.assign(2, 1), 4.0);
  EXPECT_DOUBLE_EQ(s.completion_time(0), 5.0);
  EXPECT_DOUBLE_EQ(s.completion_time(1), 4.0);
  EXPECT_TRUE(s.complete());
}

TEST(Schedule, InitialReadyTimesOffsetStarts) {
  const EtcMatrix m = matrix();
  const Problem p(m, {0, 1}, {0, 1}, {10.0, 0.5});
  Schedule s(p);
  EXPECT_DOUBLE_EQ(s.assign(0, 0), 12.0);
  EXPECT_DOUBLE_EQ(s.assign(1, 1), 1.5);
  const auto& q0 = s.queue_of(0);
  ASSERT_EQ(q0.size(), 1u);
  EXPECT_DOUBLE_EQ(q0[0].start, 10.0);
  EXPECT_DOUBLE_EQ(q0[0].finish, 12.0);
}

TEST(Schedule, MakespanAndMachine) {
  const EtcMatrix m = matrix();
  const Problem p = Problem::full(m);
  Schedule s(p);
  s.assign(0, 0);  // m0 = 2
  s.assign(1, 1);  // m1 = 1
  s.assign(2, 1);  // m1 = 5
  EXPECT_DOUBLE_EQ(s.makespan(), 5.0);
  EXPECT_EQ(s.makespan_machine(), 1);
}

TEST(Schedule, MakespanMachineTieGoesToLowestId) {
  const EtcMatrix m = EtcMatrix::from_rows({{3, 0}, {0, 3}});
  const Problem p = Problem::full(m);
  Schedule s(p);
  s.assign(0, 0);
  s.assign(1, 1);
  EXPECT_DOUBLE_EQ(s.completion_time(0), 3.0);
  EXPECT_DOUBLE_EQ(s.completion_time(1), 3.0);
  EXPECT_EQ(s.makespan_machine(), 0);
}

TEST(Schedule, MakespanMachineTieIsExactEquality) {
  // An exact two-way tie at the makespan: the lowest id wins, whatever the
  // near-miss below it.
  const double below = std::nextafter(3.0, 0.0);
  const EtcMatrix tied =
      EtcMatrix::from_rows({{below, 0, 0}, {0, 3, 0}, {0, 0, 3}});
  const Problem p = Problem::full(tied);
  Schedule s(p);
  for (int t = 0; t < 3; ++t) s.assign(t, t);
  EXPECT_EQ(s.makespan_machine(), 1);

  // A near-miss on the lower id is no tie: the true maximum wins.
  const EtcMatrix near = EtcMatrix::from_rows({{below, 0}, {0, 3}});
  const Problem q = Problem::full(near);
  Schedule r(q);
  r.assign(0, 0);
  r.assign(1, 1);
  EXPECT_EQ(r.makespan_machine(), 1);
}

TEST(Schedule, DoubleAssignThrows) {
  const EtcMatrix m = matrix();
  const Problem p = Problem::full(m);
  Schedule s(p);
  s.assign(0, 0);
  EXPECT_THROW(s.assign(0, 1), std::logic_error);
}

TEST(Schedule, ForeignTaskOrMachineThrows) {
  const EtcMatrix m = matrix();
  const Problem p(m, {0}, {0});
  Schedule s(p);
  EXPECT_THROW(s.assign(1, 0), std::invalid_argument);  // task not in problem
  EXPECT_THROW(s.assign(0, 1), std::invalid_argument);  // machine absent
  EXPECT_THROW(s.assign(99, 0), std::invalid_argument);
  EXPECT_THROW((void)s.completion_time(1), std::invalid_argument);
  EXPECT_THROW((void)s.queue_of(7), std::invalid_argument);
}

TEST(Schedule, MachineOfTracksAssignments) {
  const EtcMatrix m = matrix();
  const Problem p = Problem::full(m);
  Schedule s(p);
  EXPECT_FALSE(s.machine_of(0).has_value());
  s.assign(0, 1);
  ASSERT_TRUE(s.machine_of(0).has_value());
  EXPECT_EQ(*s.machine_of(0), 1);
  EXPECT_FALSE(s.machine_of(2).has_value());
}

TEST(Schedule, TasksOnListsQueueOrder) {
  const EtcMatrix m = matrix();
  const Problem p = Problem::full(m);
  Schedule s(p);
  s.assign(2, 0);
  s.assign(0, 0);
  s.assign(1, 1);
  EXPECT_EQ(s.tasks_on(0), (std::vector<int>{2, 0}));
  EXPECT_EQ(s.tasks_on(1), (std::vector<int>{1}));
}

TEST(Schedule, SameMappingIgnoresOrderWithinMachine) {
  const EtcMatrix m = matrix();
  const Problem p = Problem::full(m);
  Schedule a(p);
  a.assign(0, 0);
  a.assign(1, 0);
  a.assign(2, 1);
  Schedule b(p);
  b.assign(1, 0);
  b.assign(2, 1);
  b.assign(0, 0);
  EXPECT_TRUE(a.same_mapping(b));

  Schedule c(p);
  c.assign(0, 1);
  c.assign(1, 0);
  c.assign(2, 1);
  EXPECT_FALSE(a.same_mapping(c));
}

TEST(Schedule, SurvivesOwnerProblemGoingOutOfScope) {
  const EtcMatrix m = matrix();
  Schedule s = [&m] {
    const Problem p = Problem::full(m);
    Schedule inner(p);
    inner.assign(0, 0);
    return inner;
  }();  // p destroyed here; s must still be fully usable
  s.assign(1, 1);
  EXPECT_DOUBLE_EQ(s.completion_time(0), 2.0);
  EXPECT_DOUBLE_EQ(s.completion_time(1), 1.0);
  EXPECT_EQ(s.problem().num_tasks(), 3u);
}

TEST(Schedule, AssignmentOrderIsChronological) {
  const EtcMatrix m = matrix();
  const Problem p = Problem::full(m);
  Schedule s(p);
  s.assign(2, 0);
  s.assign(0, 1);
  const auto& order = s.assignment_order();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0].task, 2);
  EXPECT_EQ(order[1].task, 0);
}

}  // namespace
