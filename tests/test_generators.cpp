#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <tuple>

#include "etc/cvb_generator.hpp"
#include "etc/range_generator.hpp"
#include "rng/rng.hpp"

namespace {

using hcsched::etc::CvbEtcGenerator;
using hcsched::etc::CvbParams;
using hcsched::etc::EtcMatrix;
using hcsched::etc::Heterogeneity;
using hcsched::etc::RangeEtcGenerator;
using hcsched::etc::RangeParams;
using hcsched::rng::Rng;

TEST(RangeGenerator, Dimensions) {
  Rng rng(1);
  RangeEtcGenerator gen(RangeParams{.num_tasks = 12, .num_machines = 5});
  const EtcMatrix m = gen.generate(rng);
  EXPECT_EQ(m.num_tasks(), 12u);
  EXPECT_EQ(m.num_machines(), 5u);
}

TEST(RangeGenerator, ValuesWithinTheoreticalBounds) {
  Rng rng(2);
  RangeParams p{.num_tasks = 50,
                .num_machines = 8,
                .task_range = 100.0,
                .machine_range = 10.0};
  const EtcMatrix m = RangeEtcGenerator(p).generate(rng);
  EXPECT_GE(m.min_value(), 1.0);          // both factors >= 1
  EXPECT_LE(m.max_value(), 1000.0 + 1);   // < task_range * machine_range
}

TEST(RangeGenerator, RejectsDegenerateRanges) {
  Rng rng(3);
  RangeParams p{.num_tasks = 2, .num_machines = 2, .task_range = 0.5};
  EXPECT_THROW(RangeEtcGenerator(p).generate(rng), std::invalid_argument);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  p = RangeParams{.num_tasks = 2, .num_machines = 2, .task_range = nan};
  EXPECT_THROW(RangeEtcGenerator(p).generate(rng), std::invalid_argument);
  p = RangeParams{.num_tasks = 2, .num_machines = 2, .machine_range = nan};
  EXPECT_THROW(RangeEtcGenerator(p).generate(rng), std::invalid_argument);
}

TEST(RangeGenerator, PresetsOrderHeterogeneity) {
  const auto hihi = hcsched::etc::range_preset(Heterogeneity::kHiHi, 4, 4);
  const auto lolo = hcsched::etc::range_preset(Heterogeneity::kLoLo, 4, 4);
  const auto hilo = hcsched::etc::range_preset(Heterogeneity::kHiLo, 4, 4);
  const auto lohi = hcsched::etc::range_preset(Heterogeneity::kLoHi, 4, 4);
  EXPECT_GT(hihi.task_range, lolo.task_range);
  EXPECT_GT(hihi.machine_range, lolo.machine_range);
  EXPECT_GT(hilo.task_range, hilo.machine_range);
  EXPECT_GT(lohi.machine_range, lohi.task_range);
  EXPECT_EQ(hihi.num_tasks, 4u);
  EXPECT_EQ(hihi.num_machines, 4u);
}

TEST(RangeGenerator, Reproducible) {
  RangeParams p{.num_tasks = 6, .num_machines = 3};
  Rng a(42);
  Rng b(42);
  EXPECT_EQ(RangeEtcGenerator(p).generate(a),
            RangeEtcGenerator(p).generate(b));
}

TEST(CvbGenerator, Dimensions) {
  Rng rng(1);
  CvbEtcGenerator gen(CvbParams{.num_tasks = 7, .num_machines = 9});
  const EtcMatrix m = gen.generate(rng);
  EXPECT_EQ(m.num_tasks(), 7u);
  EXPECT_EQ(m.num_machines(), 9u);
  EXPECT_GT(m.min_value(), 0.0);
}

TEST(CvbGenerator, RejectsNonPositiveParams) {
  Rng rng(1);
  EXPECT_THROW(CvbEtcGenerator(CvbParams{.num_tasks = 2,
                                         .num_machines = 2,
                                         .v_task = 0.0})
                   .generate(rng),
               std::invalid_argument);
  EXPECT_THROW(CvbEtcGenerator(CvbParams{.num_tasks = 2,
                                         .num_machines = 2,
                                         .v_machine = -1.0})
                   .generate(rng),
               std::invalid_argument);
  EXPECT_THROW(CvbEtcGenerator(CvbParams{.num_tasks = 2,
                                         .num_machines = 2,
                                         .mean_task_time = 0.0})
                   .generate(rng),
               std::invalid_argument);
}

TEST(CvbGenerator, RejectsNonFiniteParamsAndUnderflowingShapes) {
  // Each of these once produced an all-NaN matrix: NaN and inf fail the
  // parameter check, and a huge or tiny finite CoV takes 1 / v^2 to 0 or
  // to infinity.
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double bad : {kNan, kInf, -kInf, 1e300, 1e-200}) {
    Rng rng(1);
    EXPECT_THROW(CvbEtcGenerator(CvbParams{.num_tasks = 3,
                                           .num_machines = 2,
                                           .v_task = bad})
                     .generate(rng),
                 std::invalid_argument)
        << "v_task " << bad;
    EXPECT_THROW(CvbEtcGenerator(CvbParams{.num_tasks = 3,
                                           .num_machines = 2,
                                           .v_machine = bad})
                     .generate(rng),
                 std::invalid_argument)
        << "v_machine " << bad;
  }
  for (const double bad : {kNan, kInf}) {
    Rng rng(1);
    EXPECT_THROW(CvbEtcGenerator(CvbParams{.num_tasks = 3,
                                           .num_machines = 2,
                                           .mean_task_time = bad})
                     .generate(rng),
                 std::invalid_argument)
        << "mean_task_time " << bad;
  }
}

class CvbStatisticalTest
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(CvbStatisticalTest, MeanAndMachineCovMatchRequest) {
  const auto [v_task, v_machine] = GetParam();
  CvbParams p;
  p.num_tasks = 600;
  p.num_machines = 24;
  p.mean_task_time = 500.0;
  p.v_task = v_task;
  p.v_machine = v_machine;
  Rng rng(static_cast<std::uint64_t>(v_task * 1000 + v_machine * 10));
  const EtcMatrix m = CvbEtcGenerator(p).generate(rng);

  // Overall mean should approach mean_task_time.
  const double mean =
      m.total() / static_cast<double>(m.num_tasks() * m.num_machines());
  EXPECT_NEAR(mean / p.mean_task_time, 1.0, 0.15);

  // Within-row coefficient of variation should approach v_machine.
  double cov_sum = 0.0;
  for (std::size_t t = 0; t < m.num_tasks(); ++t) {
    const auto row = m.row(static_cast<int>(t));
    double rm = 0.0;
    for (double v : row) rm += v;
    rm /= static_cast<double>(row.size());
    double var = 0.0;
    for (double v : row) var += (v - rm) * (v - rm);
    var /= static_cast<double>(row.size() - 1);
    cov_sum += std::sqrt(var) / rm;
  }
  const double mean_cov = cov_sum / static_cast<double>(m.num_tasks());
  EXPECT_NEAR(mean_cov, v_machine, 0.12 * v_machine + 0.05);
}

INSTANTIATE_TEST_SUITE_P(
    HeterogeneityGrid, CvbStatisticalTest,
    ::testing::Values(std::make_tuple(0.3, 0.3), std::make_tuple(0.3, 0.9),
                      std::make_tuple(0.9, 0.3), std::make_tuple(0.9, 0.9),
                      std::make_tuple(0.6, 0.6)));

TEST(CvbGenerator, TaskHeterogeneityShowsInRowMeans) {
  // High v_task should spread per-task means much more than low v_task.
  auto row_mean_cov = [](const EtcMatrix& m) {
    std::vector<double> means;
    for (std::size_t t = 0; t < m.num_tasks(); ++t) {
      const auto row = m.row(static_cast<int>(t));
      double s = 0.0;
      for (double v : row) s += v;
      means.push_back(s / static_cast<double>(row.size()));
    }
    double mean = 0.0;
    for (double v : means) mean += v;
    mean /= static_cast<double>(means.size());
    double var = 0.0;
    for (double v : means) var += (v - mean) * (v - mean);
    var /= static_cast<double>(means.size() - 1);
    return std::sqrt(var) / mean;
  };
  CvbParams hi;
  hi.num_tasks = 400;
  hi.num_machines = 16;
  hi.v_task = 1.0;
  hi.v_machine = 0.2;
  CvbParams lo = hi;
  lo.v_task = 0.1;
  Rng r1(11);
  Rng r2(12);
  const double cov_hi = row_mean_cov(CvbEtcGenerator(hi).generate(r1));
  const double cov_lo = row_mean_cov(CvbEtcGenerator(lo).generate(r2));
  EXPECT_GT(cov_hi, 3.0 * cov_lo);
}

}  // namespace
