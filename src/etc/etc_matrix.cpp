#include "etc/etc_matrix.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

namespace hcsched::etc {

namespace {

template <typename Rows>
EtcMatrix flatten(const Rows& rows) {
  const std::size_t machines = rows.size() == 0 ? 0 : rows.begin()->size();
  std::vector<double> values;
  values.reserve(rows.size() * machines);
  for (const auto& r : rows) {
    if (r.size() != machines) {
      throw std::invalid_argument("EtcMatrix::from_rows: ragged rows");
    }
    values.insert(values.end(), r.begin(), r.end());
  }
  return EtcMatrix::from_values(rows.size(), machines, std::move(values));
}

}  // namespace

std::size_t EtcMatrix::cell_count(std::size_t num_tasks,
                                  std::size_t num_machines) {
  if (num_machines != 0 &&
      num_tasks > std::numeric_limits<std::size_t>::max() / num_machines) {
    throw std::invalid_argument("EtcMatrix: a " + std::to_string(num_tasks) +
                                "x" + std::to_string(num_machines) +
                                " matrix has more cells than size_t counts");
  }
  return num_tasks * num_machines;
}

EtcMatrix EtcMatrix::from_values(std::size_t num_tasks,
                                 std::size_t num_machines,
                                 std::vector<double> values) {
  if (values.size() != cell_count(num_tasks, num_machines)) {
    throw std::invalid_argument(
        "EtcMatrix::from_values: " + std::to_string(values.size()) +
        " values for a " + std::to_string(num_tasks) + "x" +
        std::to_string(num_machines) + " matrix");
  }
  const auto bad = std::find_if(values.begin(), values.end(), [](double v) {
    return !std::isfinite(v) || v < 0.0;
  });
  if (bad != values.end()) {
    const auto cell = static_cast<std::size_t>(bad - values.begin());
    throw std::invalid_argument(
        "EtcMatrix: row " + std::to_string(cell / num_machines) +
        ", column " + std::to_string(cell % num_machines) +
        ": not a finite non-negative time");
  }
  EtcMatrix m;
  m.tasks_ = num_tasks;
  m.machines_ = num_machines;
  m.values_ = std::move(values);
  return m;
}

EtcMatrix EtcMatrix::from_rows(
    std::initializer_list<std::initializer_list<double>> rows) {
  return flatten(rows);
}

EtcMatrix EtcMatrix::from_rows(const std::vector<std::vector<double>>& rows) {
  return flatten(rows);
}

double EtcMatrix::total() const noexcept {
  double sum = 0.0;
  for (double v : values_) sum += v;
  return sum;
}

double EtcMatrix::min_value() const noexcept {
  if (values_.empty()) return 0.0;
  return *std::min_element(values_.begin(), values_.end());
}

double EtcMatrix::max_value() const noexcept {
  if (values_.empty()) return 0.0;
  return *std::max_element(values_.begin(), values_.end());
}

}  // namespace hcsched::etc
