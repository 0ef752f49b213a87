#include "etc/etc_matrix.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

namespace {

using hcsched::etc::EtcMatrix;

TEST(EtcMatrix, DefaultIsEmpty) {
  EtcMatrix m;
  EXPECT_EQ(m.num_tasks(), 0u);
  EXPECT_EQ(m.num_machines(), 0u);
  EXPECT_TRUE(m.empty());
}

TEST(EtcMatrix, ZeroInitialized) {
  EtcMatrix m(3, 4);
  EXPECT_EQ(m.num_tasks(), 3u);
  EXPECT_EQ(m.num_machines(), 4u);
  for (int t = 0; t < 3; ++t) {
    for (int j = 0; j < 4; ++j) EXPECT_DOUBLE_EQ(m.at(t, j), 0.0);
  }
}

TEST(EtcMatrix, ShapeWhoseCellCountWrapsThrows) {
  // 2^33 x 2^31 wraps to 0 cells in a 64-bit size_t: without the check the
  // buffer would be empty while at() accepted every in-shape index. The
  // check runs before any allocation, so this test allocates nothing.
  static_assert(sizeof(std::size_t) == 8);
  const std::size_t tasks = std::size_t{1} << 33;
  const std::size_t machines = std::size_t{1} << 31;
  EXPECT_THROW(EtcMatrix(tasks, machines), std::invalid_argument);
  EXPECT_THROW((void)EtcMatrix::from_values(tasks, machines, {}),
               std::invalid_argument);
}

TEST(EtcMatrix, FromRowsAndAt) {
  const EtcMatrix m = EtcMatrix::from_rows({{1, 2, 3}, {4, 5, 6}});
  EXPECT_EQ(m.num_tasks(), 2u);
  EXPECT_EQ(m.num_machines(), 3u);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 1);
  EXPECT_DOUBLE_EQ(m.at(0, 2), 3);
  EXPECT_DOUBLE_EQ(m.at(1, 1), 5);
}

TEST(EtcMatrix, FromRowsRejectsRagged) {
  EXPECT_THROW(EtcMatrix::from_rows({{1, 2}, {3}}), std::invalid_argument);
}

TEST(EtcMatrix, FromRowsRejectsNonFiniteOrNegative) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {nan, inf, -inf, -0.5}) {
    SCOPED_TRACE(bad);
    try {
      (void)EtcMatrix::from_rows({{1, 2}, {3, bad}});
      ADD_FAILURE() << "accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("row 1, column 1"),
                std::string::npos)
          << e.what();
    }
    EXPECT_THROW(
        (void)EtcMatrix::from_rows(std::vector<std::vector<double>>{{bad}}),
        std::invalid_argument);
  }
  EXPECT_EQ(EtcMatrix::from_rows({{-0.0}}).at(0, 0), 0.0);
  EXPECT_THROW((void)EtcMatrix::from_values(2, 2, {1, 2, 3}),
               std::invalid_argument);
  EXPECT_EQ(EtcMatrix::from_values(1, 2, {1, 2}),
            EtcMatrix::from_rows({{1, 2}}));
}

TEST(EtcMatrix, MutableAccess) {
  EtcMatrix m(2, 2);
  m.at(1, 0) = 7.5;
  EXPECT_DOUBLE_EQ(m.at(1, 0), 7.5);
}

TEST(EtcMatrix, OutOfRangeThrows) {
  EtcMatrix m(2, 2);
  EXPECT_THROW((void)m.at(2, 0), std::out_of_range);
  EXPECT_THROW((void)m.at(0, 2), std::out_of_range);
  EXPECT_THROW((void)m.at(-1, 0), std::out_of_range);
  EXPECT_THROW((void)m.at(0, -1), std::out_of_range);
}

TEST(EtcMatrix, RowSpanViewsCorrectSlice) {
  const EtcMatrix m = EtcMatrix::from_rows({{1, 2}, {3, 4}, {5, 6}});
  const auto row1 = m.row(1);
  ASSERT_EQ(row1.size(), 2u);
  EXPECT_DOUBLE_EQ(row1[0], 3);
  EXPECT_DOUBLE_EQ(row1[1], 4);
}

TEST(EtcMatrix, Aggregates) {
  const EtcMatrix m = EtcMatrix::from_rows({{1, 9}, {4, 2}});
  EXPECT_DOUBLE_EQ(m.total(), 16);
  EXPECT_DOUBLE_EQ(m.min_value(), 1);
  EXPECT_DOUBLE_EQ(m.max_value(), 9);
}

TEST(EtcMatrix, AggregatesOfEmpty) {
  EtcMatrix m;
  EXPECT_DOUBLE_EQ(m.total(), 0);
  EXPECT_DOUBLE_EQ(m.min_value(), 0);
  EXPECT_DOUBLE_EQ(m.max_value(), 0);
}

TEST(EtcMatrix, Equality) {
  const EtcMatrix a = EtcMatrix::from_rows({{1, 2}});
  const EtcMatrix b = EtcMatrix::from_rows({{1, 2}});
  EtcMatrix c = EtcMatrix::from_rows({{1, 3}});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

}  // namespace
